"""Acceptance suite: one test per release criterion.

These are end-to-end checks against independent oracles (finite differences,
hand recurrences, value iteration) and the scaled HoverTrap escape
experiment. They are slower than the unit suites; criterion 6 in particular
trains 20 full runs and dominates the wall time.
"""

import time

import numpy as np
import pytest

from reanneal_rl import mlp
from reanneal_rl.agent import Agent, AgentConfig
from reanneal_rl.bandit import BanditSpec, ConstantEps, DecayingEps, run_bandit
from reanneal_rl.cli import cli_main
from reanneal_rl.config import default_config
from reanneal_rl.envs import EnvSpec, StepResult
from reanneal_rl.envs.hovertrap import (
    HoverTrapEnv,
    rollout_policy,
    value_iteration,
)
from reanneal_rl.envs.lander import (LanderEnv, LanderState, ACTION_NOOP,
                                    pad_bonus)
from reanneal_rl.explore import (
    EpsilonSchedule,
    StuckCounter,
    select_epsilon_greedy,
    select_softmax,
    softmax_probabilities,
)
from reanneal_rl.harness import evaluate_greedy, run_parallel, run_training

from oracles import huber_loss, lander_step_bonus


class Budget:
    """Wall-clock guard for a criterion's stated runtime budget."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.seconds, (
                f"runtime budget exceeded: {self.elapsed:.1f}s"
                f" >= {self.seconds}s"
            )


def test_criterion_1_gradient_oracle():
    """Backprop matches central finite differences (h=1e-5, rel err < 1e-4)
    over 20 random network/batch draws."""
    with Budget(10):
        h = 1e-5
        rng = np.random.default_rng(0)
        for _ in range(20):
            depth = int(rng.integers(2, 5))
            sizes = tuple(int(rng.integers(2, 7)) for _ in range(depth + 1))
            params = mlp.init_params(sizes, rng)
            # Zero biases can park a pre-activation exactly on the ReLU kink
            # (where the one-sided analytic derivative and the two-sided
            # difference quotient legitimately disagree); jitter them so the
            # draw sits at a differentiable point.
            for b in params.biases:
                b[:] = 0.1 * rng.normal(size=b.shape)
            batch = int(rng.integers(1, 6))
            obs = rng.normal(size=(batch, sizes[0]))
            actions = rng.integers(0, sizes[-1], size=batch)
            targets = rng.normal(size=batch)
            kappa = float(rng.uniform(0.5, 2.0))
            grads, _ = mlp.backward(params, obs, actions, targets, kappa)

            def loss_at(flat_values):
                probe = mlp.clone_params(params)
                probe.flat[:] = flat_values
                q = mlp.forward_batch(probe, obs)
                delta = q[np.arange(batch), actions] - targets
                return float(np.mean(huber_loss(delta, kappa)))

            theta = params.flat.copy()
            for i in range(theta.size):
                bumped = theta.copy()
                bumped[i] = theta[i] + h
                up = loss_at(bumped)
                bumped[i] = theta[i] - h
                down = loss_at(bumped)
                fd = (up - down) / (2 * h)
                analytic = grads.flat[i]
                assert abs(analytic - fd) < 1e-4 * max(1.0, abs(fd)), (
                    f"sizes={sizes} param {i}: analytic {analytic} vs fd {fd}"
                )


def test_criterion_2_optimizer_and_loss_oracles():
    """Adam on a scalar parameter matches the hand recurrence for one and two
    steps to 1e-12; huber_loss(1, 1) = sqrt(2) - 1 to 1e-12."""
    assert huber_loss(1.0, 1.0) == pytest.approx(np.sqrt(2.0) - 1.0,
                                                 abs=1e-12)
    theta0, lr = 0.7, 0.05
    g1, g2 = 0.3, -0.2
    b1, b2, eps = 0.9, 0.999, 1e-8
    # Hand recurrence, step 1.
    m = (1 - b1) * g1
    v = (1 - b2) * g1 * g1
    theta1 = theta0 - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    # Step 2.
    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2 * g2
    theta2 = theta1 - lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + eps)

    # Flat order w0, b0: one weight, then a zero bias.
    params = mlp.NetworkParams((1, 1), flat=np.array([theta0, 0.0]))
    state = mlp.init_adam_state(params)
    mlp.adam_step(params, mlp.NetworkParams((1, 1), flat=np.array([g1, 0.0])),
                  state, lr)
    assert params.weights[0][0, 0] == pytest.approx(theta1, abs=1e-12)
    mlp.adam_step(params, mlp.NetworkParams((1, 1), flat=np.array([g2, 0.0])),
                  state, lr)
    assert params.weights[0][0, 0] == pytest.approx(theta2, abs=1e-12)


class ScriptedTimeoutEnv:
    """Times out every episode after 5 steps; drives the stuck counter."""

    spec = EnvSpec(observation_size=3, action_count=2)

    def __init__(self):
        self._step = 0

    def reset(self, rng=None):
        self._step = 0
        return np.zeros(3)

    def step(self, action):
        self._step += 1
        return StepResult(np.zeros(3), 0.0, False, self._step >= 5)


def test_criterion_3_exploration_controller_state_machine(tmp_path):
    """Timeouts increment, non-timeouts integer-halve, reaching 10 fires
    exactly one reanneal with eps reset to 1 and count to 0 — both on the
    bare state machine and end-to-end through the harness."""
    with Budget(1):
        counter = StuckCounter(count=0, threshold=10)
        # Nine timeouts: pure increments, no reanneal.
        for expected in range(1, 10):
            assert not counter.update(True)
            assert counter.count == expected
        # A finished episode halves 9 -> 4.
        assert not counter.update(False)
        assert counter.count == 4
        # Timeouts to the threshold: 4 -> 9, then the 10th fires once.
        for _ in range(5):
            assert not counter.update(True)
        assert counter.update(True)
        assert counter.count == 0
        # The very next timeout starts again at 1 (exactly one reanneal).
        assert not counter.update(True)
        assert counter.count == 1
        # Halving at 0 stays 0.
        assert not StuckCounter(0, 10).update(False)

        # End-to-end: scripted all-timeout environment reanneals on episode
        # 10 (index 9) and epsilon resets to 1 there.
        config = default_config("hovertrap")
        config.episodes = 12
        config.hidden_sizes = (4,)
        config.agent = AgentConfig(batch_size=2, min_replay_before_training=4)
        config.output_dir = str(tmp_path / "scripted")
        records = run_training(config, env=ScriptedTimeoutEnv())
        flags = [r.reannealed_this_episode for r in records]
        assert flags == [False] * 9 + [True, False, False]
        assert records[9].epsilon_at_end == 1.0
        assert [r.stuck_count for r in records] == \
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2]


def test_criterion_4_action_distributions():
    """Empirical frequencies match the Boltzmann distribution and the
    1-eps+eps/A epsilon-greedy mixture within +-0.01 over 1e5 draws; softmax
    does not overflow at |Q| ~ 1e3 with T = 0.01."""
    with Budget(5):
        draws = 100_000
        q = np.array([0.1, 0.6, 0.3])

        rng = np.random.default_rng(0)
        schedule = EpsilonSchedule(epsilon=0.2)
        counts = np.zeros(3)
        for _ in range(draws):
            counts[select_epsilon_greedy(q, schedule, rng)] += 1
        expected = np.full(3, 0.2 / 3)
        expected[1] += 0.8  # 1 - eps + eps/A on the greedy arm
        np.testing.assert_allclose(counts / draws, expected, atol=0.01)

        temperature = 0.5
        probs = softmax_probabilities(q, temperature)
        np.testing.assert_allclose(probs, np.exp(q / temperature)
                                   / np.exp(q / temperature).sum(), atol=1e-12)
        counts = np.zeros(3)
        for _ in range(draws):
            counts[select_softmax(q, temperature, rng)] += 1
        np.testing.assert_allclose(counts / draws, probs, atol=0.01)

        # Overflow guard: huge Q magnitudes at a tiny temperature.
        extreme = softmax_probabilities([1000.0, -1000.0, 999.0], 0.01)
        assert np.all(np.isfinite(extreme))
        assert extreme.sum() == pytest.approx(1.0, abs=1e-12)


def test_criterion_5_bandit_regret_regimes():
    """20 seeds, horizon 1e5, arms [0, 1], sigma 0.1: constant-eps(0.1)
    per-step regret converges to 0.05 +- 20%; decaying-eps is sublinear
    (L(2T)/L(T) < 1.5 at T = 5e4) while constant-eps stays linear (>= 1.9)."""
    with Budget(60):
        spec = BanditSpec(arm_means=[0.0, 1.0], noise_std=0.1, horizon=100_000)
        T = 50_000
        jobs = [(spec, ConstantEps(0.1), np.random.default_rng(seed))
                for seed in range(20)]
        jobs += [(spec, DecayingEps(10.0), np.random.default_rng(1000 + seed))
                 for seed in range(20)]
        curves = list(run_parallel(run_bandit, jobs))
        const = np.mean(curves[:20], axis=0)
        decay = np.mean(curves[20:], axis=0)
        assert const[-1] / spec.horizon == pytest.approx(0.05, rel=0.2)
        assert decay[2 * T - 1] / decay[T - 1] < 1.5
        assert const[2 * T - 1] / const[T - 1] >= 1.9


def greedy_hovertrap_return(agent):
    """Undiscounted return of one greedy rollout (deterministic MDP)."""
    return evaluate_greedy(agent, HoverTrapEnv(), 1, None)[0]


def run_escape_arm(reanneal_enabled, seed, out_dir):
    """One criterion-6 run: default HoverTrap config, fast decay rho=0.9.
    Returns the mean greedy-policy return over the final 500 episodes."""
    config = default_config("hovertrap")
    config.seed = seed
    config.decay_rate = 0.9
    config.reanneal_enabled = reanneal_enabled
    config.output_dir = str(out_dir)
    evals = []

    def callback(record, agent):
        if record.episode_index >= config.episodes - 500:
            evals.append(greedy_hovertrap_return(agent))

    run_training(config, episode_callback=callback)
    return float(np.mean(evals))


@pytest.mark.slow
def test_criterion_6_local_optimum_escape(tmp_path):
    """HoverTrap escape experiment, 10 seeds per arm, 2000 episodes each:
    without reannealing (rho=0.9) at most 3/10 seeds' final-500-episode
    greedy mean return reaches within 10% of the value-iteration optimum;
    with reannealing at least 7/10 do."""
    with Budget(15 * 60):
        _, policy = value_iteration(gamma=0.99)
        optimum = rollout_policy(policy, discount=1.0)
        threshold = 0.9 * optimum

        jobs = [(False, seed, tmp_path / f"noreanneal_{seed}")
                for seed in range(10)]
        jobs += [(True, seed, tmp_path / f"reanneal_{seed}")
                 for seed in range(10)]
        scores = list(run_parallel(run_escape_arm, jobs))
        stuck_scores, escape_scores = scores[:10], scores[10:]
        stuck_successes = sum(s >= threshold for s in stuck_scores)
        escape_successes = sum(s >= threshold for s in escape_scores)
        detail = (
            f"optimum {optimum:.2f}; no-reanneal {stuck_successes}/10 "
            f"{[round(s, 1) for s in stuck_scores]}; reanneal "
            f"{escape_successes}/10 {[round(s, 1) for s in escape_scores]}"
        )
        assert stuck_successes <= 3, detail
        assert escape_successes >= 7, detail


def test_criterion_7_determinism(tmp_path):
    """Two `train --env hovertrap --episodes 100 --seed 7` runs produce
    byte-identical metrics CSVs (the wall_time_ms column is excluded from
    the comparison; it records real elapsed time)."""
    with Budget(60):
        contents = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli_main(["train", "--env", "hovertrap", "--episodes",
                             "100", "--seed", "7", "--out", str(out)])
            assert code == 0
            contents.append((out / "metrics.csv").read_bytes())

        def strip_wall_time(raw):
            return b"\n".join(line.rsplit(b",", 1)[0]
                              for line in raw.splitlines())

        assert strip_wall_time(contents[0]) == strip_wall_time(contents[1])


def test_criterion_8_lander_contract_smoke():
    """100 random-policy episodes terminate within 1000 steps; contact
    terminations carry exactly one of {+100..140 pad-band, -100}; a scripted
    soft pad landing earns the pad bonus of where it rests. The bonus is the
    step's reward less its shaping and fuel terms (oracles.lander_step_bonus),
    to within 1e-9."""
    with Budget(60):
        rng = np.random.default_rng(7)
        env = LanderEnv()
        contact_terminations = 0
        for _ in range(100):
            env.reset(rng)
            for _ in range(1001):
                result, bonus = lander_step_bonus(env, int(rng.integers(0, 4)))
                if result.done or result.timed_out:
                    break
            assert result.done or result.timed_out
            assert env.step_index <= 1000
            if result.done and bonus != 0.0:
                contact_terminations += 1
                assert (bonus == pytest.approx(-100.0, abs=1e-9)
                        or bonus == pytest.approx(pad_bonus(env.state.x),
                                                  abs=1e-9))
        assert contact_terminations > 0

        env.set_state(LanderState(x=0.03, y=0.005, vx=0.0, vy=-0.1,
                                  angle=0.0, angular_velocity=0.0))
        for _ in range(30):
            result, bonus = lander_step_bonus(env, ACTION_NOOP)
            if result.done:
                break
        assert result.done
        assert bonus == pytest.approx(pad_bonus(env.state.x), abs=1e-9)


def test_criterion_9_target_network_discipline(tmp_path):
    """Over a 60-episode instrumented run with sync period 20, the target
    parameters are bitwise constant between syncs and equal the online
    parameters immediately after each sync."""
    with Budget(60):
        config = default_config("hovertrap")
        config.episodes = 60
        config.hidden_sizes = (8,)
        config.replay_capacity = 500
        config.agent = AgentConfig(batch_size=8, min_replay_before_training=32,
                                   target_sync_period_episodes=20)
        config.output_dir = str(tmp_path / "run")
        snapshots = []

        def callback(record, agent):
            snapshots.append((record.episode_index, agent.target.flat.copy(),
                              agent.online.flat.copy()))

        run_training(config, episode_callback=callback)
        assert len(snapshots) == 60
        for i, (episode, target, online) in enumerate(snapshots):
            if (episode + 1) % 20 == 0:
                assert np.array_equal(target, online)
            elif i > 0:
                assert np.array_equal(target, snapshots[i - 1][1])
