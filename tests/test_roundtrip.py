"""Property tests: checkpoints and config files come back as they were
saved."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reanneal_rl import mlp
from reanneal_rl.agent import Agent, load_checkpoint, save_checkpoint
from reanneal_rl.config import AgentConfig, RunConfig, load_config, save_config

finite = st.floats(allow_nan=False, allow_infinity=False)

agent_configs = st.builds(
    AgentConfig,
    gamma=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    learning_rate=st.floats(min_value=0.0, exclude_min=True),
    batch_size=st.integers(1, 512),
    target_sync_period_episodes=st.integers(1, 10**6),
    double_dqn=st.booleans(),
    kappa=st.floats(min_value=0.0, exclude_min=True),
    min_replay_before_training=st.integers(0, 10**9),
)


@st.composite
def run_configs(draw):
    agent = draw(agent_configs)
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
        replay_capacity=draw(st.integers(agent.batch_size, 10**9)),
        output_dir=draw(st.text("abcXYZ019_-./% ", min_size=1, max_size=30)
                        .filter(lambda path: path == path.strip())),
        checkpoint_every=draw(st.integers(0, 10**6)),
        moving_average_window=draw(st.integers(1, 10**6)),
        agent=agent,
    )


@st.composite
def agents(draw):
    sizes = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)))
    count = mlp.param_count(sizes)

    def network():
        return mlp.NetworkParams(sizes, flat=draw(arrays(np.float64, count,
                                                         elements=finite)))

    optimizer = mlp.AdamState(m=network(), v=network(),
                              step_count=draw(st.integers(0, 10**12)))
    return Agent(draw(agent_configs), sizes, online=network(),
                 target=network(), optimizer=optimizer)


@settings(max_examples=50, deadline=None)
@given(agents(), st.integers(0, 10**9))
def test_checkpoint_round_trip(agent, episode):
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "ckpt")
        save_checkpoint(agent, prefix, episode, extra={"env": "hovertrap"})
        loaded, meta = load_checkpoint(prefix)
    assert loaded.config == agent.config
    assert loaded.optimizer.step_count == agent.optimizer.step_count
    assert (int(meta["episode"]), meta["env"]) == (episode, "hovertrap")
    for name in ("online", "target"):
        assert getattr(loaded, name).layer_sizes == agent.online.layer_sizes
        assert np.array_equal(getattr(loaded, name).flat,
                              getattr(agent, name).flat)
    for name in ("m", "v"):
        assert np.array_equal(getattr(loaded.optimizer, name).flat,
                              getattr(agent.optimizer, name).flat)


@settings(max_examples=100, deadline=None)
@given(run_configs())
def test_config_file_round_trip(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        save_config(config, path)
        assert load_config(path) == config
