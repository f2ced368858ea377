"""Property tests: checkpoints and config files come back as they were
saved."""

import os
import tempfile
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reanneal_rl.agent import Agent, load_checkpoint, save_checkpoint
from reanneal_rl.config import AgentConfig, RunConfig, load_config, save_config

finite = st.floats(allow_nan=False, allow_infinity=False)

agent_configs = st.builds(
    AgentConfig,
    gamma=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    learning_rate=st.floats(min_value=0.0, exclude_min=True,
                            allow_infinity=False),
    batch_size=st.integers(1, 512),
    target_sync_period_episodes=st.integers(1, 10**6),
    double_dqn=st.booleans(),
    kappa=st.floats(min_value=0.0, exclude_min=True,
                    allow_infinity=False),
    min_replay_before_training=st.integers(0, 10**9),
)


@st.composite
def run_configs(draw):
    agent = draw(agent_configs)
    capacity = draw(st.integers(agent.batch_size, 10**9))
    # Training must be able to start: min_replay fits in the replay.
    agent = replace(agent, min_replay_before_training=draw(
        st.integers(0, capacity)))
    return RunConfig(
        env=draw(st.sampled_from(["lander", "hovertrap"])),
        episodes=draw(st.integers(1, 10**9)),
        seed=draw(st.integers(0, 2**63)),
        reanneal_enabled=draw(st.booleans()),
        stuck_threshold=draw(st.integers(1, 10**6)),
        decay_rate=draw(st.floats(min_value=0.0, max_value=1.0,
                                  exclude_min=True)),
        epsilon_min=draw(st.floats(min_value=0.0, max_value=1.0)),
        hidden_sizes=tuple(draw(st.lists(st.integers(1, 10**4), max_size=4))),
        replay_capacity=capacity,
        output_dir=draw(st.text("abcXYZ019_-./% ", min_size=1, max_size=30)
                        .filter(lambda path: path == path.strip())),
        checkpoint_every=draw(st.integers(0, 10**6)),
        moving_average_window=draw(st.integers(1, 10**6)),
        agent=agent,
    )


def buffers(agent):
    return [agent.online.flat, agent.target.flat, agent.optimizer.m.flat,
            agent.optimizer.v.flat]


@st.composite
def agents(draw):
    """An agent built as training builds one, its four parameter buffers then
    filled with drawn values (-0.0 and subnormals included). Its network fits
    HoverTrap's 85 observations and 2 actions, with 0-2 hidden layers drawn."""
    sizes = (85, *draw(st.lists(st.integers(1, 5), max_size=2)), 2)
    agent = Agent(draw(agent_configs), sizes,
                  np.random.default_rng(draw(st.integers(0, 2**32))))
    for flat in buffers(agent):
        flat[:] = draw(arrays(np.float64, flat.size, elements=finite))
    agent.optimizer.step_count = draw(st.integers(0, 10**12))
    return agent


@settings(max_examples=50, deadline=None)
@given(agents(), st.integers(0, 10**9))
def test_checkpoint_round_trip(agent, episode):
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "ckpt")
        save_checkpoint(agent, prefix, episode, "hovertrap")
        loaded, meta = load_checkpoint(prefix)
    assert loaded.config == agent.config
    assert loaded.optimizer.step_count == agent.optimizer.step_count
    assert (int(meta["episode"]), meta["env"]) == (episode, "hovertrap")
    for net in (loaded.online, loaded.target, loaded.optimizer.m,
                loaded.optimizer.v):
        assert net.layer_sizes == agent.online.layer_sizes
    # Bytes, not values: a flipped -0.0 or a flushed subnormal must fail.
    assert ([flat.tobytes() for flat in buffers(loaded)]
            == [flat.tobytes() for flat in buffers(agent)])


@settings(max_examples=100, deadline=None)
@given(run_configs())
def test_config_file_round_trip(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        save_config(config, path)
        assert load_config(path) == config
