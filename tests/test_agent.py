import math

import numpy as np
import pytest

from reanneal_rl import mlp
from reanneal_rl.agent import Agent, AgentConfig, load_checkpoint, save_checkpoint
from reanneal_rl.envs import Experience
from reanneal_rl.mlp import forward, forward_batch
from reanneal_rl.replay import ReplayBuffer

SIZES = (4, 8, 8, 3)


def make_agent(seed=0, **overrides):
    config = AgentConfig(min_replay_before_training=8, batch_size=4, **overrides)
    return Agent(config, SIZES, np.random.default_rng(seed))


def zero_networks(agent):
    for net in (agent.online, agent.target):
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0


def exp(state, action=0, reward=0.0, next_state=None, done=False,
        timed_out=False):
    if next_state is None:
        next_state = np.zeros(4)
    return Experience(np.asarray(state, float), action, reward,
                      np.asarray(next_state, float), done, timed_out)


def targets(agent, batch):
    """Bootstrap targets for a list of experiences, from the method that
    train_step uses."""
    return agent._targets(np.array([e.reward for e in batch]),
                          np.stack([e.next_state for e in batch]),
                          np.array([e.done for e in batch], dtype=bool),
                          np.arange(len(batch)))


def fill_buffer(agent, n=32, seed=1):
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer(capacity=64, obs_size=4)
    for _ in range(n):
        buf.push(exp(rng.normal(size=4), int(rng.integers(0, 3)),
                     float(rng.normal()), rng.normal(size=4)))
    return buf


class TestComputeTargets:
    def test_done_transition_is_pure_reward(self):
        agent = make_agent()
        batch = [exp(np.ones(4), reward=-100.0, done=True)]
        assert targets(agent, batch)[0] == -100.0

    def test_zero_networks_target_is_reward(self):
        agent = make_agent()
        zero_networks(agent)
        batch = [exp(np.ones(4), reward=5.0)]
        assert targets(agent, batch)[0] == pytest.approx(5.0)

    def test_timed_out_still_bootstraps(self):
        agent = make_agent()
        batch_cut = [exp(np.ones(4), reward=1.0, next_state=np.ones(4),
                         timed_out=True)]
        batch_done = [exp(np.ones(4), reward=1.0, next_state=np.ones(4),
                          done=True)]
        boot = targets(agent, batch_cut)[0]
        terminal = targets(agent, batch_done)[0]
        assert terminal == 1.0
        assert boot != terminal

    def test_ddqn_uses_target_value_at_online_argmax(self):
        # Hand-rolled two-network oracle on a seed where the argmaxes differ.
        rng = np.random.default_rng(100)
        agent = make_agent(seed=99)
        agent.target = mlp.init_params(SIZES, rng)
        found = False
        for _ in range(200):
            s_next = rng.normal(size=4)
            q_online = forward(agent.online, s_next)
            q_target = forward(agent.target, s_next)
            if np.argmax(q_online) != np.argmax(q_target):
                found = True
                break
        assert found, "seeded networks never disagreed on the argmax"
        r, gamma = 0.5, agent.config.gamma
        batch = [exp(np.zeros(4), reward=r, next_state=s_next)]
        ddqn_oracle = r + gamma * q_target[np.argmax(q_online)]
        dqn_oracle = r + gamma * q_target.max()
        assert targets(agent, batch)[0] == pytest.approx(ddqn_oracle)
        agent.config.double_dqn = False
        assert targets(agent, batch)[0] == pytest.approx(dqn_oracle)
        assert ddqn_oracle < dqn_oracle

    def test_ddqn_target_never_exceeds_dqn_target(self):
        rng = np.random.default_rng(55)
        agent = make_agent(seed=5)
        agent.target = mlp.init_params(SIZES, rng)
        for _ in range(50):
            batch = [exp(np.zeros(4), reward=float(rng.normal()),
                         next_state=rng.normal(size=4))]
            agent.config.double_dqn = True
            ddqn = targets(agent, batch)[0]
            agent.config.double_dqn = False
            dqn = targets(agent, batch)[0]
            assert ddqn <= dqn + 1e-12


class TestTrainStep:
    def test_gated_below_min_replay(self):
        agent = make_agent()
        buf = fill_buffer(agent, n=4)  # below min_replay_before_training=8
        before = mlp.clone_params(agent.online)
        assert agent.train_step(buf, np.random.default_rng(0)) is None
        for a, b in zip(agent.online.weights, before.weights):
            assert np.array_equal(a, b)

    def test_zero_td_error_leaves_params_unchanged(self):
        agent = make_agent()
        zero_networks(agent)
        buf = ReplayBuffer(capacity=16, obs_size=4)
        for _ in range(8):
            # Zero nets, zero reward, bootstrap 0: target equals prediction.
            buf.push(exp(np.ones(4), reward=0.0, next_state=np.ones(4)))
        loss = agent.train_step(buf, np.random.default_rng(0))
        assert loss == 0.0
        for w in agent.online.weights:
            assert np.all(w == 0.0)

    def test_bitwise_reproducible(self):
        results = []
        for _ in range(2):
            agent = make_agent(seed=3)
            buf = fill_buffer(agent, n=16, seed=4)
            rng = np.random.default_rng(5)
            losses = [agent.train_step(buf, rng) for _ in range(10)]
            results.append((losses, [w.copy() for w in agent.online.weights]))
        assert results[0][0] == results[1][0]
        for a, b in zip(results[0][1], results[1][1]):
            assert np.array_equal(a, b)

    def test_target_network_frozen_by_training(self):
        agent = make_agent(seed=6)
        buf = fill_buffer(agent, n=16, seed=7)
        target_before = [w.copy() for w in agent.target.weights]
        rng = np.random.default_rng(8)
        for _ in range(20):
            agent.train_step(buf, rng)
        for a, b in zip(agent.target.weights, target_before):
            assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("cause",
                             ["non_finite_target", "overflowing_loss"])
    def test_non_finite_loss_skips_adam(self, cause):
        agent = make_agent(seed=16)
        rng = np.random.default_rng(17)
        for _ in range(3):
            agent.train_step(fill_buffer(agent, n=16, seed=18), rng)
        if cause == "non_finite_target":
            agent.target.biases[-1][:] = np.nan
            buf = fill_buffer(agent, n=16, seed=19)
        else:
            # Finite targets near 1e300 whose pseudo-Huber loss overflows.
            buf = ReplayBuffer(capacity=16, obs_size=4)
            for _ in range(8):
                buf.push(exp(np.ones(4), reward=1e300))
        opt = agent.optimizer
        before = [a.flat.copy() for a in (agent.online, opt.m, opt.v)]
        loss = agent.train_step(buf, rng)
        assert not math.isfinite(loss)
        assert opt.step_count == 3
        for a, b in zip((agent.online, opt.m, opt.v), before):
            assert np.array_equal(a.flat, b)


class TestSyncTarget:
    def test_sync_copies_online(self):
        agent = make_agent(seed=10)
        buf = fill_buffer(agent, n=16, seed=11)
        rng = np.random.default_rng(12)
        for _ in range(5):
            agent.train_step(buf, rng)
        agent.sync_target()
        s = np.random.default_rng(13).normal(size=4)
        assert np.array_equal(forward(agent.target, s), forward(agent.online, s))

    def test_training_after_sync_changes_online_only(self):
        agent = make_agent(seed=14)
        buf = fill_buffer(agent, n=16, seed=15)
        agent.sync_target()
        snapshot = [w.copy() for w in agent.target.weights]
        rng = np.random.default_rng(16)
        for _ in range(5):
            agent.train_step(buf, rng)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(agent.online.weights, snapshot))
        for a, b in zip(agent.target.weights, snapshot):
            assert np.array_equal(a, b)

    def test_sync_idempotent(self):
        agent = make_agent(seed=17)
        agent.sync_target()
        first = [w.copy() for w in agent.target.weights]
        agent.sync_target()
        for a, b in zip(agent.target.weights, first):
            assert np.array_equal(a, b)


class TestGreedyAction:
    def test_zero_network_tie_breaks_to_zero(self):
        agent = make_agent()
        zero_networks(agent)
        assert agent.greedy_action(np.ones(4)) == 0

    def test_output_bias_dominates_zero_weights(self):
        agent = make_agent()
        zero_networks(agent)
        agent.online.biases[-1][:] = [0.0, 0.0, 9.0]
        assert agent.greedy_action(np.ones(4)) == 2

    def test_agrees_with_epsilon_greedy_at_zero_epsilon(self):
        from reanneal_rl.explore import EpsilonSchedule, select_epsilon_greedy

        agent = make_agent(seed=20)
        rng = np.random.default_rng(21)
        for _ in range(20):
            s = rng.normal(size=4)
            q = forward(agent.online, s)
            assert agent.greedy_action(s) == select_epsilon_greedy(
                q, EpsilonSchedule(epsilon=0.0), rng
            )


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        agent = make_agent(seed=30, gamma=0.95)
        agent.optimizer.step_count = 17
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(agent, prefix, episode=42, extra={"env": "hovertrap"})
        loaded, meta = load_checkpoint(prefix)
        assert meta["env"] == "hovertrap"
        assert int(meta["episode"]) == 42
        assert loaded.config.gamma == 0.95
        assert loaded.optimizer.step_count == 17
        s = np.random.default_rng(0).normal(size=4)
        assert np.array_equal(forward(loaded.online, s),
                              forward(agent.online, s))
        assert np.array_equal(forward(loaded.target, s),
                              forward(agent.target, s))

    def test_loaded_agent_trains_like_the_saved_one(self, tmp_path):
        # Save after the first step, when the Adam moments are no longer
        # zero; the two agents must then stay bitwise equal.
        agent = make_agent(seed=32)
        buf = fill_buffer(agent)
        assert agent.train_step(buf, np.random.default_rng(4)) is not None
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(agent, prefix)
        loaded, _ = load_checkpoint(prefix)
        for net in (agent, loaded):
            rng = np.random.default_rng(5)
            for _ in range(3):
                assert net.train_step(buf, rng) is not None
        assert loaded.optimizer.step_count == agent.optimizer.step_count == 4
        for name in ("online", "target"):
            assert np.array_equal(getattr(loaded, name).flat,
                                  getattr(agent, name).flat)
        for name in ("m", "v"):
            assert np.array_equal(getattr(loaded.optimizer, name).flat,
                                  getattr(agent.optimizer, name).flat)

    def test_missing_adam_moments_rejected(self, tmp_path):
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(make_agent(seed=33), prefix)
        (tmp_path / "ckpt.adam_v.net").unlink()
        with pytest.raises(FileNotFoundError):
            load_checkpoint(prefix)

    def test_adam_moments_of_other_sizes_rejected(self, tmp_path):
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(make_agent(seed=34), prefix)
        mlp.save_network(mlp.init_params((4, 8, 3)), prefix + ".adam_m.net")
        with pytest.raises(ValueError, match="Adam m layer sizes"):
            load_checkpoint(prefix)

    @pytest.mark.parametrize("key, text", [
        ("gamma", "abc"), ("batch_size", "4.5"), ("double_dqn", "maybe"),
        ("adam_step_count", "x"),
    ])
    def test_unparsable_meta_value_named(self, tmp_path, key, text):
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(make_agent(seed=35), prefix)
        meta = tmp_path / "ckpt.meta"
        lines = meta.read_text().splitlines()
        meta.write_text("".join(
            f"{key}={text}\n" if line.startswith(key + "=") else line + "\n"
            for line in lines))
        with pytest.raises(ValueError) as excinfo:
            load_checkpoint(prefix)
        message = str(excinfo.value)
        assert "ckpt.meta" in message and key in message and repr(text) in message

    def test_meta_keeps_its_format(self, tmp_path):
        prefix = str(tmp_path / "ckpt")
        agent = make_agent(seed=36, double_dqn=False)
        agent.optimizer.step_count = 3
        save_checkpoint(agent, prefix, episode=7, extra={"env": "hovertrap"})
        assert (tmp_path / "ckpt.meta").read_text() == (
            "gamma=0.99\nlearning_rate=0.01\nbatch_size=4\n"
            "target_sync_period_episodes=20\ndouble_dqn=0\nkappa=1.0\n"
            "min_replay_before_training=8\nepisode=7\nadam_step_count=3\n"
            "env=hovertrap\n"
        )

    def test_load_accepts_meta_path(self, tmp_path):
        agent = make_agent(seed=31)
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(agent, prefix)
        loaded, _ = load_checkpoint(prefix + ".meta")
        assert loaded.config.batch_size == agent.config.batch_size


def test_config_validation():
    with pytest.raises(ValueError):
        AgentConfig(gamma=1.0)
    with pytest.raises(ValueError):
        AgentConfig(batch_size=0)
    with pytest.raises(ValueError):
        AgentConfig(target_sync_period_episodes=0)
    with pytest.raises(ValueError):
        AgentConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        AgentConfig(kappa=-1.0)
