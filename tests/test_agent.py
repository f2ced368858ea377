import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reanneal_rl import agent as agent_module
from reanneal_rl import mlp
from reanneal_rl.agent import Agent, AgentConfig, load_checkpoint, save_checkpoint
from reanneal_rl.config import default_config
from reanneal_rl.envs import Experience, make_env
from reanneal_rl.harness import Trainer, evaluate_greedy
from reanneal_rl.mlp import forward
from reanneal_rl.replay import ReplayBuffer

SIZES = (4, 8, 8, 3)
# A network that fits HoverTrap's 85 observations and 2 actions, for the
# checkpoints, which name an env.
HOVERTRAP_SIZES = (85, 8, 8, 2)


def make_agent(seed=0, sizes=SIZES, **overrides):
    config = AgentConfig(min_replay_before_training=8, batch_size=4, **overrides)
    return Agent(config, sizes, np.random.default_rng(seed))


def hovertrap_agent(seed, **overrides):
    return make_agent(seed, HOVERTRAP_SIZES, **overrides)


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
    """Dense transitions of the agent's input and action sizes."""
    inputs, actions = agent.online.layer_sizes[0], agent.online.layer_sizes[-1]
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer(capacity=64, obs_size=inputs)
    for _ in range(n):
        buf.push(exp(rng.normal(size=inputs), int(rng.integers(0, actions)),
                     float(rng.normal()), rng.normal(size=inputs)))
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
        agent = hovertrap_agent(30, gamma=0.95)
        agent.optimizer.step_count = 17
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(agent, prefix, 42, "hovertrap")
        loaded, meta = load_checkpoint(prefix)
        assert meta["env"] == "hovertrap"
        assert int(meta["episode"]) == 42
        assert loaded.config.gamma == 0.95
        assert loaded.optimizer.step_count == 17
        s = np.random.default_rng(0).normal(size=85)
        assert np.array_equal(forward(loaded.online, s),
                              forward(agent.online, s))
        assert np.array_equal(forward(loaded.target, s),
                              forward(agent.target, s))

    def test_loaded_agent_trains_like_the_saved_one(self, tmp_path):
        # Save after the first step, when the Adam moments are no longer
        # zero; the two agents must then stay bitwise equal.
        agent = hovertrap_agent(32)
        buf = fill_buffer(agent)
        assert agent.train_step(buf, np.random.default_rng(4)) is not None
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(agent, prefix, 0, "hovertrap")
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
        save_checkpoint(hovertrap_agent(33), prefix, 0, "hovertrap")
        (tmp_path / "ckpt.adam_v.net").unlink()
        with pytest.raises(FileNotFoundError):
            load_checkpoint(prefix)

    def test_adam_moments_of_other_sizes_rejected(self, tmp_path):
        # The layer sizes live in .meta alone; an array of another length
        # is refused by the file that holds it.
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(hovertrap_agent(34), prefix, 0, "hovertrap")
        with open(prefix + ".adam_m.net", "wb") as fh:
            np.save(fh, np.zeros(mlp.param_count((85, 8, 2))))
        with pytest.raises(ValueError, match=r"ckpt\.adam_m\.net: .*shape"):
            load_checkpoint(prefix)

    def test_arrays_are_npy_vectors(self, tmp_path):
        """Each .net file is one '<f8' .npy vector, the agent's flat buffer
        byte for byte, and .meta records the layer sizes."""
        agent = hovertrap_agent(37)
        agent.train_step(fill_buffer(agent), np.random.default_rng(6))
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(agent, prefix, 0, "hovertrap")
        for name, flat in (("online", agent.online.flat),
                           ("target", agent.target.flat),
                           ("adam_m", agent.optimizer.m.flat),
                           ("adam_v", agent.optimizer.v.flat)):
            array = np.load(f"{prefix}.{name}.net", allow_pickle=False)
            assert array.dtype.str == "<f8"
            assert array.shape == (mlp.param_count(HOVERTRAP_SIZES),)
            assert array.tobytes() == flat.tobytes()
        assert "layer_sizes=85,8,8,2\n" in (tmp_path / "ckpt.meta").read_text()

    @pytest.mark.parametrize("key, text", [
        ("gamma", "abc"), ("batch_size", "4.5"), ("double_dqn", "maybe"),
        ("adam_step_count", "x"), ("adam_step_count", "-5"),
        ("episode", "abc"), ("episode", "-1"),
    ])
    def test_unparsable_meta_value_named(self, tmp_path, key, text):
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(hovertrap_agent(35), prefix, 0, "hovertrap")
        meta = tmp_path / "ckpt.meta"
        lines = meta.read_text().splitlines()
        meta.write_text("".join(
            f"{key}={text}\n" if line.startswith(key + "=") else line + "\n"
            for line in lines))
        with pytest.raises(ValueError) as excinfo:
            load_checkpoint(prefix)
        message = str(excinfo.value)
        assert "ckpt.meta" in message and key in message and repr(text) in message

    @pytest.mark.parametrize("line, message", [
        ("garbage line", "'garbage line' has no ="),
        ("gama=0.5", "unknown key 'gama'"),
        ("gamma=0.9", "'gamma' is repeated"),
    ])
    def test_malformed_meta_line_named(self, tmp_path, line, message):
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(hovertrap_agent(38), prefix, 0, "hovertrap")
        with open(prefix + ".meta", "a") as fh:
            fh.write(line + "\n")
        with pytest.raises(ValueError, match="ckpt.meta") as excinfo:
            load_checkpoint(prefix)
        assert message in str(excinfo.value)

    def test_meta_keeps_its_format(self, tmp_path):
        prefix = str(tmp_path / "ckpt")
        agent = hovertrap_agent(36, double_dqn=False)
        agent.optimizer.step_count = 3
        save_checkpoint(agent, prefix, 7, "hovertrap")
        assert (tmp_path / "ckpt.meta").read_text() == (
            "gamma=0.99\nlearning_rate=0.01\nbatch_size=4\n"
            "target_sync_period_episodes=20\ndouble_dqn=0\nkappa=1.0\n"
            "min_replay_before_training=8\nepisode=7\nadam_step_count=3\n"
            "layer_sizes=85,8,8,2\nenv=hovertrap\n"
        )

    def test_network_for_another_env_rejected(self, tmp_path):
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(make_agent(seed=39), prefix, 0, "hovertrap")
        with pytest.raises(ValueError) as excinfo:
            load_checkpoint(prefix)
        message = str(excinfo.value)
        assert message.startswith(f"{prefix}.meta: ")
        assert "4 inputs and 3 outputs" in message
        assert "hovertrap has 85 observations and 2 actions" in message

    def test_load_accepts_meta_path(self, tmp_path):
        agent = hovertrap_agent(31)
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(agent, prefix, 0, "hovertrap")
        loaded, _ = load_checkpoint(prefix + ".meta")
        assert loaded.config.batch_size == agent.config.batch_size


def bits(a):
    return np.asarray(a).tobytes()


def index_buffer(seed=1, pushes=200):
    """Index transitions over HoverTrap's 85 states and 2 actions, some of
    them terminal."""
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer(300, 85, index_observations=True)
    for _ in range(pushes):
        buf.push(Experience(int(rng.integers(85)), int(rng.integers(2)),
                            float(rng.normal()), int(rng.integers(85)),
                            bool(rng.random() < 0.1)))
    return buf


def check_next_step(agent, buf, rng):
    """Check the greedy action of every state against a freshly built
    table, then run one train step on index observations and check, bit
    for bit, the Q-values and targets it uses against forward on the
    one-hot rows and the weights it starts from."""
    size = agent.config.batch_size
    fresh = mlp.index_table(agent.online, size)[-1]
    for s in range(85):
        assert bits(agent.q_values(s)) == bits(fresh[s])
        assert agent.greedy_action(s) == fresh[s].argmax()
    one_hot = np.eye(85)
    batches, checked = [], []
    sample, gradients = buf.sample_arrays, mlp.gradients

    def spy(params, acts, actions, targets, kappa, grads):
        states, _, rewards, next_states, dones = batches[-1]
        q_target = forward(agent.target, one_hot[next_states])
        if agent.config.double_dqn:
            best = forward(agent.online,
                           one_hot[next_states]).argmax(axis=1)
            bootstrap = q_target[np.arange(size), best]
        else:
            bootstrap = q_target.max(axis=1)
        bootstrap *= agent.config.gamma
        bootstrap *= ~dones
        bootstrap += rewards
        assert bits(targets) == bits(bootstrap)
        assert bits(acts[-1]) == bits(forward(agent.online,
                                              one_hot[states]))
        checked.append(True)
        return gradients(params, acts, actions, targets, kappa, grads)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(buf, "sample_arrays",
                      lambda *args: batches.append(sample(*args)) or batches[-1])
        patch.setattr(mlp, "gradients", spy)
        loss = agent.train_step(buf, rng)
    assert checked and math.isfinite(loss)


class TestStateTables:
    @pytest.mark.parametrize("double_dqn", [True, False])
    def test_no_stale_table_after_any_weight_write(self, tmp_path, double_dqn):
        """Adam steps, a target sync and a checkpoint load each change the
        weights; the next greedy action and train step must see the new
        ones."""
        config = AgentConfig(batch_size=64, min_replay_before_training=64,
                             double_dqn=double_dqn)
        agent = Agent(config, (85, 32, 2), np.random.default_rng(0))
        buf, rng = index_buffer(), np.random.default_rng(2)
        for _ in range(3):  # the first step, then after Adam steps
            check_next_step(agent, buf, rng)
        agent.sync_target()
        check_next_step(agent, buf, rng)
        check_next_step(agent, buf, rng)
        prefix = str(tmp_path / "ckpt")
        save_checkpoint(agent, prefix, 0, "hovertrap")
        loaded, _ = load_checkpoint(prefix)
        assert not np.array_equal(loaded.target.flat, loaded.online.flat)
        check_next_step(loaded, buf, rng)
        check_next_step(loaded, buf, rng)

    def test_one_online_table_per_step_and_one_target_table_per_sync(
            self, monkeypatch):
        """A HoverTrap run builds the online table once per env step and
        the target table once per sync (and once at the start), and runs no
        forward or backward pass."""
        config = replace(default_config("hovertrap"), decay_rate=0.9)
        trainer = Trainer(config, make_env("hovertrap"))
        built = []
        table = mlp.index_table
        monkeypatch.setattr(mlp, "index_table", lambda params, size: (
            built.append(params is trainer.agent.target) or table(params, size)))
        for module in (mlp, agent_module):
            for name in ("forward", "forward_batch", "backward"):
                monkeypatch.setattr(module, name, None, raising=False)
        steps = sum(trainer.run_episode().step_count for _ in range(25))
        assert built.count(False) == steps
        assert built.count(True) == 2   # the first step, and after the sync

    def test_greedy_rollout_builds_one_table_and_runs_no_forward(
            self, monkeypatch):
        """A greedy HoverTrap rollout of a trained agent reads every action
        from one online table, built once, and never calls forward."""
        config = replace(default_config("hovertrap"), decay_rate=0.9)
        trainer = Trainer(config, make_env("hovertrap"))
        for _ in range(5):
            trainer.run_episode()
        built, forwards = [], []
        table, dense = mlp.index_table, mlp.forward
        monkeypatch.setattr(mlp, "index_table", lambda params, size: (
            built.append(params) or table(params, size)))
        for module in (mlp, agent_module):
            monkeypatch.setattr(module, "forward", lambda params, obs: (
                forwards.append(obs) or dense(params, obs)))
        returns = evaluate_greedy(trainer.agent, make_env("hovertrap"), 3,
                                  np.random.default_rng(0))
        assert len(returns) == 3
        assert len(built) == 1 and built[0] is trainer.agent.online
        assert forwards == []


def tabular_weights():
    """Weights and biases of the (85, 2) network, a Q-table. `v + 0.0`
    turns a drawn -0.0 into +0.0, which training never makes (x - x rounds
    to +0.0) and whose sign a one-hot dot product would not keep."""
    finite = st.floats(-1e3, 1e3).map(lambda v: v + 0.0)
    return arrays(np.float64, mlp.param_count((85, 2)), elements=finite)


@settings(max_examples=50, deadline=None)
@given(tabular_weights(), st.sampled_from([32, 64, 100]))
def test_tabular_q_values_are_forward_on_the_one_hot_row(flat, batch_size):
    """With no hidden layer the table row of an index is, bit for bit,
    forward's output for its one-hot row."""
    config = AgentConfig(batch_size=batch_size,
                         min_replay_before_training=batch_size)
    agent = Agent(config, (85, 2), np.random.default_rng(0))
    agent.online.flat[:] = flat
    one_hot = np.eye(85)
    for s in range(85):
        assert bits(agent.q_values(s)) == bits(forward(agent.online,
                                                       one_hot[s]))


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
    for name in ("learning_rate", "kappa"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{name} must be positive "
                               "and finite"):
                AgentConfig(**{name: value})
