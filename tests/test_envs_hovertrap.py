import numpy as np
import pytest

from reanneal_rl.envs.hovertrap import (
    ACTION_COAST,
    ACTION_THRUST,
    FUEL_COST,
    GRAVITY_PULL,
    HoverTrapEnv,
    MAX_ALTITUDE,
    MAX_EPISODE_STEPS,
    MAX_VELOCITY,
    OBS_SIZE,
    rollout_policy,
    state_index,
    transition,
    value_iteration,
)


class TestReset:
    def test_observation_is_index_of_start(self):
        env = HoverTrapEnv()
        obs = env.reset()
        assert type(obs) is int
        assert obs == state_index(MAX_ALTITUDE, 0) == 80

    def test_repeated_resets_identical(self):
        env = HoverTrapEnv()
        a = env.reset()
        b = env.reset()
        assert np.array_equal(a, b)
        assert env.altitude == MAX_ALTITUDE and env.velocity == 0

    def test_observation_size(self):
        assert OBS_SIZE == (MAX_ALTITUDE + 1) * (MAX_VELOCITY + 1) == 85
        assert HoverTrapEnv.spec.observation_size == OBS_SIZE
        assert HoverTrapEnv.spec.index_observations
        # Every state has its own index in [0, OBS_SIZE).
        assert {state_index(alt, vel) for alt in range(MAX_ALTITUDE + 1)
                for vel in range(MAX_VELOCITY + 1)} == set(range(OBS_SIZE))


class TestStep:
    def test_always_thrust_hovers_to_timeout(self):
        env = HoverTrapEnv()
        env.reset()
        total = 0.0
        for step in range(MAX_EPISODE_STEPS):
            result = env.step(ACTION_THRUST)
            total += result.reward
            assert not result.done
        assert result.timed_out
        assert total == pytest.approx(-MAX_EPISODE_STEPS * FUEL_COST)  # -5
        assert env.altitude == MAX_ALTITUDE

    def test_coast_only_crashes_at_max_velocity(self):
        env = HoverTrapEnv()
        env.reset()
        total = 0.0
        while True:
            result = env.step(ACTION_COAST)
            total += result.reward
            if result.done:
                break
        assert env.velocity == MAX_VELOCITY
        assert total == -100.0

    def test_thrust_slows_coast_accelerates(self):
        # From (10, 2): thrust drops velocity by 1, coast pulls it up by
        # GRAVITY_PULL; either way the craft descends by the new velocity.
        alt, vel, reward, done = transition(10, 2, ACTION_THRUST)
        assert (alt, vel, done) == (9, 1, False)
        assert reward == pytest.approx(-FUEL_COST)
        alt, vel, reward, done = transition(10, 1, ACTION_COAST)
        assert (alt, vel, done) == (10 - (1 + GRAVITY_PULL), 1 + GRAVITY_PULL,
                                    False)
        assert reward == 0.0
        # The pull is capped at MAX_VELOCITY.
        assert transition(10, MAX_VELOCITY, ACTION_COAST)[1] == MAX_VELOCITY

    def test_touchdown_slow_lands_fast_crashes(self):
        # (1, 2) + thrust -> velocity 1, touchdown: safe landing.
        alt, vel, reward, done = transition(1, 2, ACTION_THRUST)
        assert done and (alt, vel) == (0, 1)
        assert reward == pytest.approx(100.0 - FUEL_COST)
        # (1, 0) + coast -> velocity jumps to GRAVITY_PULL: crash.
        alt, vel, reward, done = transition(1, 0, ACTION_COAST)
        assert done and vel == GRAVITY_PULL
        assert reward == -100.0

    def test_optimal_descent_matches_oracle_return(self):
        values, policy = value_iteration(gamma=0.99)
        undiscounted = rollout_policy(policy, discount=1.0)
        # Safe landing bonus minus the fuel burned holding velocity down.
        assert undiscounted > 99.0
        discounted = rollout_policy(policy, discount=0.99)
        assert discounted == pytest.approx(values[MAX_ALTITUDE, 0], abs=1e-9)

    def test_transition_is_pure(self):
        for alt in range(1, MAX_ALTITUDE + 1):
            for vel in range(MAX_VELOCITY + 1):
                for action in (ACTION_THRUST, ACTION_COAST):
                    a = transition(alt, vel, action)
                    b = transition(alt, vel, action)
                    assert a == b

    def test_stepping_terminal_state_rejected(self):
        env = HoverTrapEnv()
        env.reset()
        while True:
            result = env.step(ACTION_COAST)
            if result.done:
                break
        with pytest.raises(RuntimeError):
            env.step(ACTION_COAST)

    def test_invalid_action_rejected(self):
        env = HoverTrapEnv()
        env.reset()
        with pytest.raises(ValueError):
            env.step(7)

    def test_episode_bounded_by_horizon(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            env = HoverTrapEnv()
            env.reset()
            for step in range(MAX_EPISODE_STEPS + 1):
                result = env.step(int(rng.integers(0, 2)))
                if result.done or result.timed_out:
                    break
            assert result.done or result.timed_out
            assert env.step_index <= MAX_EPISODE_STEPS

    def test_done_and_timed_out_exclusive(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            env = HoverTrapEnv()
            env.reset()
            while True:
                result = env.step(int(rng.integers(0, 2)))
                assert not (result.done and result.timed_out)
                if result.done or result.timed_out:
                    break

    def test_random_play_rarely_lands(self):
        # The safe corridor is narrow by design: under uniform-random play
        # almost every episode crashes.
        rng = np.random.default_rng(2)
        outcomes = {"land": 0, "crash": 0, "timeout": 0}
        episodes = 2000
        for _ in range(episodes):
            env = HoverTrapEnv()
            env.reset()
            while True:
                result = env.step(int(rng.integers(0, 2)))
                if result.done:
                    outcomes["land" if result.reward > 0 else "crash"] += 1
                    break
                if result.timed_out:
                    outcomes["timeout"] += 1
                    break
        assert outcomes["crash"] > 0.9 * episodes
        assert outcomes["land"] < 0.1 * episodes


class TestValueIteration:
    def test_gamma_zero_is_myopic(self):
        values, _ = value_iteration(gamma=0.0)
        for alt in range(1, MAX_ALTITUDE + 1):
            for vel in range(MAX_VELOCITY + 1):
                best = max(
                    transition(alt, vel, a)[2]
                    for a in (ACTION_THRUST, ACTION_COAST)
                )
                assert values[alt, vel] == pytest.approx(best)

    def test_terminal_states_zero_value(self):
        values, policy = value_iteration(gamma=0.99)
        assert np.all(values[0, :] == 0.0)
        assert np.all(policy[0, :] == -1)

    def test_frozen_value_table_regression(self):
        # Fixture generated by this oracle at gamma=0.99, tol=1e-10.
        values, _ = value_iteration(gamma=0.99)
        assert values[MAX_ALTITUDE, 0] == pytest.approx(93.90685662963494,
                                                        abs=1e-8)
        # (1, 2): thrust to velocity 1 and land immediately.
        assert values[1, 2] == pytest.approx(100.0 - FUEL_COST, abs=1e-9)
        # (1, 0) is a trap state: landing is unreachable, coasting crashes,
        # so the optimum is hovering forever at the fuel cost annuity.
        assert values[1, 0] == pytest.approx(-FUEL_COST / (1 - 0.99), abs=1e-6)

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ValueError):
            value_iteration(gamma=1.0)

    def test_optimal_policy_beats_hovering_and_crashing(self):
        _, policy = value_iteration(gamma=0.99)
        optimal = rollout_policy(policy, discount=1.0)
        hover = -MAX_EPISODE_STEPS * FUEL_COST
        assert optimal > hover > -100.0
