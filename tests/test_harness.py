import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from reanneal_rl.agent import AgentConfig, load_checkpoint
from reanneal_rl.config import (ENV_DEFAULTS, RunConfig, default_config, load_config,
                                save_config)
from reanneal_rl.envs import ENVS, EnvSpec, Experience, StepResult, make_env
from reanneal_rl.envs.hovertrap import OBS_SIZE, HoverTrapEnv
from reanneal_rl.envs.lander import LanderEnv
from reanneal_rl.harness import (
    CSV_HEADER,
    EpisodeRecord,
    Trainer,
    TrainingDiverged,
    _format_row,
    _prefill,
    moving_average,
    read_metrics_csv,
    run_parallel,
    run_training,
)
from reanneal_rl.replay import ReplayBuffer


def write_metrics_csv(records, path):
    """metrics.csv as run_training writes it, from a list of records."""
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(_format_row(r) + "\n")


class ScriptedTimeoutEnv:
    """Every episode runs `steps_per_episode` steps and then times out."""

    spec = EnvSpec(observation_size=3, action_count=2)
    reward = 0.0

    def __init__(self, steps_per_episode=5):
        self.steps_per_episode = steps_per_episode
        self._step = 0

    def reset(self, rng=None):
        self._step = 0
        return np.zeros(3)

    def step(self, action):
        self._step += 1
        timed_out = self._step >= self.steps_per_episode
        return StepResult(np.zeros(3), self.reward, False, timed_out)


def tiny_config(tmp_path, episodes=12, **overrides):
    agent = AgentConfig(batch_size=2, min_replay_before_training=4,
                        target_sync_period_episodes=20)
    config = RunConfig(
        env="hovertrap", episodes=episodes, seed=1, hidden_sizes=(4,),
        replay_capacity=100, output_dir=str(tmp_path / "run"),
        moving_average_window=5, agent=agent, **overrides,
    )
    return config


class TestMovingAverage:
    def test_window_one_is_identity(self):
        v = [3.0, -1.0, 2.0]
        np.testing.assert_array_equal(moving_average(v, 1), v)

    def test_constant_series(self):
        np.testing.assert_allclose(moving_average([7.0] * 10, 4), 7.0)

    def test_growing_window_at_start(self):
        np.testing.assert_allclose(moving_average([0.0, 10.0], 2), [0.0, 5.0])

    def test_empty_input(self):
        out = moving_average([], 3)
        assert out.size == 0 and out.dtype == np.float64

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=50)
        out = moving_average(v, 7)
        brute = [np.mean(v[max(0, i - 6): i + 1]) for i in range(50)]
        np.testing.assert_allclose(out, brute, atol=1e-12)


class TestMetricsCsv:
    def record(self, i=0):
        return EpisodeRecord(i, 10, -1.234567890, 0.5, 3, False, 0.001234567,
                             12.345)

    def test_header_and_row_count(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv([self.record(i) for i in range(5)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_round_trip_six_significant_digits(self, tmp_path):
        path = tmp_path / "m.csv"
        original = self.record()
        write_metrics_csv([original], path)
        (loaded,) = read_metrics_csv(path)
        assert loaded.episode_index == original.episode_index
        assert loaded.step_count == original.step_count
        assert loaded.total_reward == pytest.approx(original.total_reward,
                                                    rel=1e-5)
        assert loaded.mean_loss == pytest.approx(original.mean_loss, rel=1e-5)
        assert loaded.stuck_count == original.stuck_count
        assert loaded.reannealed_this_episode == original.reannealed_this_episode

    def test_value_that_does_not_parse_named(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv([self.record()], path)
        path.write_text(path.read_text().replace("\n0,10,", "\nzero,10,"))
        with pytest.raises(ValueError, match="m.csv: episode_index = 'zero'"):
            read_metrics_csv(path)


class TestRunTraining:
    def test_scripted_timeouts_reanneal_exactly_at_threshold(self, tmp_path):
        config = tiny_config(tmp_path, episodes=12, stuck_threshold=10)
        records = run_training(config, env=ScriptedTimeoutEnv())
        reannealed = [r.reannealed_this_episode for r in records]
        assert reannealed == [False] * 9 + [True, False, False]
        # Epsilon resets to 1 on the reanneal episode, decays otherwise.
        assert records[9].epsilon_at_end == 1.0
        assert records[8].epsilon_at_end == pytest.approx(0.99**9)
        assert records[10].epsilon_at_end == pytest.approx(0.99)
        # Stuck trace: increments then reset.
        assert [r.stuck_count for r in records] == [1, 2, 3, 4, 5, 6, 7, 8, 9,
                                                    0, 1, 2]

    def test_no_reanneal_pure_decay_trace(self, tmp_path):
        config = tiny_config(tmp_path, episodes=15, reanneal_enabled=False,
                             decay_rate=0.9, epsilon_min=0.3)
        records = run_training(config, env=ScriptedTimeoutEnv())
        eps = [r.epsilon_at_end for r in records]
        expect = [max(0.3, 0.9 ** (i + 1)) for i in range(15)]
        np.testing.assert_allclose(eps, expect, atol=1e-12)
        assert not any(r.reannealed_this_episode for r in records)
        assert all(a >= b for a, b in zip(eps, eps[1:]))

    def test_deterministic_identical_csv_bytes(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            config = tiny_config(tmp_path, episodes=8)
            config.output_dir = str(tmp_path / name)
            config.episodes = 8
            run_training(config)
            outs.append((tmp_path / name / "metrics.csv").read_text())
        # wall_time_ms is the only nondeterministic column.
        strip = lambda text: "\n".join(
            ",".join(line.split(",")[:-1]) for line in text.splitlines()
        )
        assert strip(outs[0]) == strip(outs[1])

    def test_record_count_and_bounds(self, tmp_path):
        config = tiny_config(tmp_path, episodes=10)
        records = run_training(config)
        assert len(records) == 10
        for r in records:
            assert r.step_count <= 200
            if r.reannealed_this_episode:
                assert r.epsilon_at_end == 1.0

    def test_manifest_round_trips(self, tmp_path):
        config = tiny_config(tmp_path, episodes=3, decay_rate=0.97)
        run_training(config)
        loaded = load_config(tmp_path / "run" / "manifest.cfg")
        assert loaded.decay_rate == 0.97
        assert loaded.episodes == 3
        assert loaded.agent.batch_size == 2
        assert loaded.hidden_sizes == (4,)

    def test_unwritable_output_dir_fails_at_startup(self, tmp_path):
        config = tiny_config(tmp_path, episodes=3)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        config.output_dir = str(blocker / "nested")
        with pytest.raises((RuntimeError, OSError)):
            run_training(config)

    def test_final_checkpoint_written(self, tmp_path):
        config = tiny_config(tmp_path, episodes=3)
        run_training(config)
        out = tmp_path / "run"
        for suffix in (".meta", ".online.net", ".target.net"):
            assert (out / ("final" + suffix)).exists()

    def test_periodic_checkpoints(self, tmp_path):
        config = tiny_config(tmp_path, episodes=5, checkpoint_every=2)
        run_training(config)
        out = tmp_path / "run"
        assert sorted(p.name for p in out.glob("*.meta")) == [
            "checkpoint_ep2.meta", "checkpoint_ep4.meta", "final.meta"]
        for name, episode in (("checkpoint_ep2", 2), ("checkpoint_ep4", 4),
                              ("final", 5)):
            _, meta = load_checkpoint(str(out / name))
            assert meta["episode"] == str(episode)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_loss_raises_and_writes_partial_row(self, tmp_path):
        # A reward of 1e300 gives a finite target whose pseudo-Huber loss
        # overflows on the first train step of episode 0.
        config = tiny_config(tmp_path, episodes=3)
        env = ScriptedTimeoutEnv()
        env.reward = 1e300
        with pytest.raises(TrainingDiverged,
                           match=r"^non-finite loss at episode 0, step 0$"):
            run_training(config, env=env)
        out = tmp_path / "run"
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1].rsplit(",", 1)[0] == "0,1,1e+300,1,0,0,inf"
        assert not list(out.glob("final.*"))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_huge_learning_rate_raises_and_writes_partial_row(self, tmp_path):
        # The first Adam step moves the weights by about 1e200, so the next
        # step's Q-values, targets and loss are no longer finite.
        config = default_config("hovertrap")
        config = replace(config, episodes=2, output_dir=str(tmp_path / "run"),
                         agent=replace(config.agent, learning_rate=1e200))
        with pytest.raises(TrainingDiverged,
                           match=r"^non-finite loss at episode 0, step 1$"):
            run_training(config)
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("0,2,")
        assert not list((tmp_path / "run").glob("final.*"))

    def test_target_sync_every_period(self, tmp_path):
        # Instrumented 60-episode run at sync period 20: the target is
        # bitwise constant between syncs and equals the online net right
        # after episodes 20, 40, 60.
        config = tiny_config(tmp_path, episodes=60)
        snapshots = []

        def callback(record, agent):
            snapshots.append((
                record.episode_index,
                [w.copy() for w in agent.target.weights],
                [w.copy() for w in agent.online.weights],
            ))

        run_training(config, episode_callback=callback)
        for i, (episode, target, online) in enumerate(snapshots):
            if (episode + 1) % 20 == 0:
                for t, o in zip(target, online):
                    assert np.array_equal(t, o)
            if i > 0 and (episode + 1) % 20 != 0:
                prev_target = snapshots[i - 1][1]
                for t, p in zip(target, prev_target):
                    assert np.array_equal(t, p)


def reference_prefill(env, buffer, target_size, rng):
    """The prefill loop as it was written before envs.episode existed."""
    target_size = min(target_size, buffer.capacity)
    while len(buffer) < target_size:
        obs = env.reset(rng)
        while True:
            action = int(rng.integers(0, env.spec.action_count))
            result = env.step(action)
            buffer.push(Experience(
                obs, action, result.reward, result.observation,
                result.done, result.timed_out,
            ))
            obs = result.observation
            if result.done or result.timed_out or len(buffer) >= target_size:
                break


class TestPrefill:
    @pytest.mark.parametrize("target_size", [5, 300])
    def test_lander_matches_reference_loop(self, target_size):
        # The lander's reset draws from the rng, and 5 transitions end
        # mid-episode; 300 span several episodes.
        filled = []
        for prefill in (_prefill, reference_prefill):
            rng = np.random.default_rng(4)
            buffer = ReplayBuffer(1000, LanderEnv.spec.observation_size)
            prefill(LanderEnv(), buffer, target_size, rng)
            filled.append((buffer, rng.bit_generator.state))
        (got, got_rng), (want, want_rng) = filled
        assert len(got) == len(want) == target_size
        assert got_rng == want_rng
        for name in ("_states", "_actions", "_rewards", "_next_states",
                     "_dones"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_capped_at_capacity(self):
        buffer = ReplayBuffer(7, 3)
        _prefill(ScriptedTimeoutEnv(), buffer, 50, np.random.default_rng(0))
        assert len(buffer) == 7 and buffer._next == 0


class TestTrainer:
    def test_driven_by_hand_matches_run_training(self, tmp_path):
        # Fast decay, threshold 2 and 45 episodes at sync period 20 cover
        # reanneals and two target syncs.
        config = tiny_config(tmp_path, episodes=45, stuck_threshold=2,
                             decay_rate=0.5)
        agents = []
        records = run_training(
            config, episode_callback=lambda record, agent: agents.append(agent))
        trainer = Trainer(config, make_env(config.env))
        by_hand = [trainer.run_episode() for _ in range(config.episodes)]

        def no_wall(rs):
            return [replace(r, wall_time_ms=0.0) for r in rs]

        assert no_wall(by_hand) == no_wall(records)
        assert any(r.reannealed_this_episode for r in records)
        assert trainer.episodes_done == config.episodes
        assert np.array_equal(trainer.agent.online.flat,
                              agents[-1].online.flat)
        assert np.array_equal(trainer.agent.target.flat,
                              agents[-1].target.flat)

    @pytest.mark.parametrize("min_replay, batch_size, filled", [
        (3, 8, 8), (8, 8, 8), (20, 8, 20), (0, 1, 1)])
    def test_prefills_to_training_start(self, tmp_path, min_replay,
                                        batch_size, filled):
        # Training starts with the first episode, so the replay already
        # holds max(min_replay_before_training, batch_size) transitions.
        config = replace(tiny_config(tmp_path), agent=AgentConfig(
            batch_size=batch_size, min_replay_before_training=min_replay))
        trainer = Trainer(config, ScriptedTimeoutEnv())
        assert len(trainer.buffer) == filled


class OneHotHoverTrap:
    """HoverTrap whose observations are one-hot float rows on a dense spec,
    so training takes the dense path of mlp and replay."""

    spec = EnvSpec(observation_size=OBS_SIZE, action_count=2)

    def __init__(self):
        self.env = HoverTrapEnv()

    def reset(self, rng=None):
        return np.eye(OBS_SIZE)[self.env.reset(rng)]

    def step(self, action):
        result = self.env.step(action)
        return replace(result, observation=np.eye(OBS_SIZE)[result.observation])


def test_index_observations_train_as_the_one_hot_rows(tmp_path):
    """50 HoverTrap episodes at rho=0.9 write the same final nets, Adam
    moments and metrics (wall time aside) whether the network is given the
    state index or its one-hot row. Seed 0 first hovers at episode 33, and
    threshold 3 makes a reanneal fire by episode 50."""
    config = replace(default_config("hovertrap"), episodes=50, seed=0,
                     decay_rate=0.9, stuck_threshold=3)
    outputs = {}
    for name, env in (("index", HoverTrapEnv()), ("dense", OneHotHoverTrap())):
        out = tmp_path / name
        records = run_training(replace(config, output_dir=str(out)), env=env)
        nets = {p.name: p.read_bytes() for p in out.glob("final.*.net")}
        metrics = [line.rsplit(",", 1)[0]
                   for line in (out / "metrics.csv").read_text().splitlines()]
        outputs[name] = nets, metrics
    assert sorted(outputs["index"][0]) == [
        "final.adam_m.net", "final.adam_v.net", "final.online.net",
        "final.target.net"]
    assert outputs["index"] == outputs["dense"]
    assert any(r.reannealed_this_episode for r in records)


class TestConfigFile:
    def test_save_load_round_trip(self, tmp_path):
        config = default_config("hovertrap")
        config.seed = 9
        config.agent.learning_rate = 0.005
        path = tmp_path / "c.cfg"
        save_config(config, path)
        loaded = load_config(path)
        assert loaded == config

    def test_unknown_sections_named(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[run]\nenv = hovertrap\n[agnet]\nlearning_rate = 0.5\n"
                        "[extra]\n")
        with pytest.raises(ValueError) as excinfo:
            load_config(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "[agnet]" in message and "[extra]" in message

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[run]\nenv = hovertrap\nbogus = 1\n")
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize("section, key, value", [
        ("run", "episodes", "ten"),
        ("run", "reanneal_enabled", "maybe"),
        ("agent", "double_dqn", "2"),
        ("run", "hidden_sizes", "32,x"),
        ("agent", "batch_size", "6.5"),
        ("agent", "gamma", "abc"),
    ])
    def test_value_that_does_not_parse_named(self, tmp_path, section, key,
                                             value):
        path = tmp_path / "c.cfg"
        header = "" if section == "run" else f"[{section}]\n"
        path.write_text(f"[run]\nenv = hovertrap\n{header}{key} = {value}\n")
        with pytest.raises(ValueError) as excinfo:
            load_config(path)
        assert f"c.cfg: {key} = {value!r}" in str(excinfo.value)

    @pytest.mark.parametrize("text, value", [
        ("1", True), ("yes", True), ("True", True), ("ON", True),
        ("0", False), ("No", False), ("FALSE", False), ("off", False),
    ])
    def test_boolean_spellings(self, tmp_path, text, value):
        path = tmp_path / "c.cfg"
        path.write_text(f"[run]\nenv = hovertrap\nreanneal_enabled = {text}\n"
                        f"[agent]\ndouble_dqn = {text}\n")
        config = load_config(path)
        assert (config.reanneal_enabled, config.agent.double_dqn) == (value,
                                                                      value)

    @pytest.mark.parametrize("section, key, value", [
        ("run", "decay_rate", "1.5"),
        ("run", "decay_rate", "0"),
        ("run", "epsilon_min", "-0.1"),
        ("run", "epsilon_min", "1.01"),
        ("run", "stuck_threshold", "0"),
        ("run", "replay_capacity", "63"),
        ("run", "episodes", "0"),
        ("run", "seed", "-1"),
        ("run", "hidden_sizes", "0"),
        ("run", "hidden_sizes", "32,0"),
        ("agent", "batch_size", "501"),
        ("agent", "gamma", "1.5"),
        ("agent", "learning_rate", "-1"),
        ("agent", "kappa", "0"),
        ("run", "checkpoint_every", "-5"),
        ("agent", "min_replay_before_training", "-1"),
        # HoverTrap's replay holds 500, so training could never start.
        ("agent", "min_replay_before_training", "600"),
    ])
    def test_out_of_range_value_rejected(self, tmp_path, section, key, value):
        path = tmp_path / "c.cfg"
        header = "" if section == "run" else f"[{section}]\n"
        path.write_text(f"[run]\nenv = hovertrap\n{header}{key} = {value}\n")
        with pytest.raises(ValueError, match=key):
            load_config(path)

    def test_in_range_edges_accepted(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[run]\nenv = hovertrap\ndecay_rate = 1\n"
                        "epsilon_min = 0\nstuck_threshold = 1\n"
                        "replay_capacity = 64\n")
        config = load_config(path)
        assert (config.decay_rate, config.epsilon_min, config.stuck_threshold,
                config.replay_capacity) == (1.0, 0.0, 1, 64)

    def test_run_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(decay_rate=1.01)
        with pytest.raises(ValueError):
            RunConfig(replay_capacity=8, agent=AgentConfig(batch_size=16))
        with pytest.raises(ValueError, match="min_replay_before_training "
                                             "must be >= 0, got -1"):
            AgentConfig(min_replay_before_training=-1)
        with pytest.raises(ValueError, match="replay_capacity 500 .* "
                                             "min_replay_before_training 600"):
            RunConfig(replay_capacity=500,
                      agent=AgentConfig(min_replay_before_training=600))

    @pytest.mark.parametrize("output_dir", ["", " ", "runs/a b ", " runs/a",
                                            "runs/a\n", "\truns/a"])
    def test_output_dir_empty_or_padded_rejected(self, output_dir):
        with pytest.raises(ValueError, match="output_dir"):
            RunConfig(output_dir=output_dir)

    def test_unknown_env_rejected(self):
        with pytest.raises(ValueError, match="env must be one of lander, "
                                             "hovertrap, got 'cartpole'"):
            RunConfig(env="cartpole")

    def test_unknown_env_in_file_named(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("[run]\nenv = cartpole\n")
        with pytest.raises(ValueError, match=r"c\.cfg: env .* 'cartpole'"):
            load_config(path)

    def test_env_tables_agree(self):
        assert ENV_DEFAULTS.keys() == ENVS.keys()

    def test_defaults_per_env(self):
        assert default_config("lander").episodes == 10_000
        assert default_config("hovertrap").episodes == 2_000
        with pytest.raises(ValueError):
            default_config("cartpole")


def draw_in_pid(seed, n):
    """A run_parallel job: the process that ran it and its seeded draws."""
    if seed < 0:
        raise ValueError(f"bad seed {seed}")
    return os.getpid(), np.random.default_rng(seed).standard_normal(n)


class TestRunParallel:
    @pytest.fixture
    def cores(self, monkeypatch):
        """Set the usable core count that run_parallel sees."""
        def set_cores(n):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid: set(range(n)))
        return set_cores

    def test_bitwise_equal_to_the_loop_in_job_order(self, cores):
        cores(3)
        # More jobs than cores, the first ones the largest, so an unordered
        # pool would return the later ones first.
        jobs = [(seed, 20_000 * (11 - seed)) for seed in range(11)]
        results = list(run_parallel(draw_in_pid, jobs))
        assert [draws.tobytes() for _, draws in results] == [
            draw_in_pid(*job)[1].tobytes() for job in jobs]
        pids = {pid for pid, _ in results}
        assert os.getpid() not in pids and len(pids) <= 3

    @pytest.mark.parametrize("n_cores, n_jobs", [(1, 5), (4, 1)])
    def test_runs_in_process_with_one_core_or_one_job(self, cores, n_cores,
                                                      n_jobs):
        cores(n_cores)
        jobs = [(seed, 10) for seed in range(n_jobs)]
        results = list(run_parallel(draw_in_pid, jobs))
        assert {pid for pid, _ in results} == {os.getpid()}
        assert [draws.tobytes() for _, draws in results] == [
            draw_in_pid(*job)[1].tobytes() for job in jobs]

    @pytest.mark.parametrize("n_cores", [1, 2])
    def test_job_exception_reraised_and_no_worker_left(self, cores, n_cores):
        cores(n_cores)
        jobs = [(0, 10), (1, 10), (-7, 10), (3, 10)]
        with pytest.raises(ValueError, match="^bad seed -7$"):
            list(run_parallel(draw_in_pid, jobs))
        assert multiprocessing.active_children() == []

    def test_no_worker_left_after_a_finished_call(self, cores):
        cores(2)
        assert len(list(run_parallel(draw_in_pid, [(0, 5)] * 4))) == 4
        assert multiprocessing.active_children() == []
