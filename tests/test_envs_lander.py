import numpy as np
import pytest

from reanneal_rl.envs.lander import (
    ACTION_LEFT,
    ACTION_MAIN,
    ACTION_NOOP,
    ACTION_RIGHT,
    DT,
    LanderEnv,
    LanderState,
    MAIN_THRUST,
    MAX_EPISODE_STEPS,
    observation_from_state,
    pad_bonus,
)

from oracles import lander_step_bonus

# A derived nonzero bonus is the reward less the shaping and fuel terms it
# was summed with, so it may round in the last bits.
BONUS_TOL = 1e-9


def uniform_random(observation, rng):
    return int(rng.integers(0, 4))


def noisy_descent(observation, rng):
    """Brake the fall and level the tilt, with one action in ten uniform:
    its episodes crash, fly out of bounds and come to rest."""
    if rng.random() < 0.1:
        return int(rng.integers(0, 4))
    if observation[3] < -0.3:
        return ACTION_MAIN
    if abs(observation[4]) > 0.05:
        return ACTION_LEFT if observation[4] > 0 else ACTION_RIGHT
    return ACTION_NOOP


def run_episode(env, rng, policy):
    """Play one episode from env.reset(rng) with `policy(observation, rng)`;
    returns each step's (StepResult, derived terminal bonus)."""
    observation = env.reset(rng)
    steps = []
    while True:
        result, bonus = lander_step_bonus(env, policy(observation, rng))
        steps.append((result, bonus))
        observation = result.observation
        if result.done or result.timed_out:
            return steps


class TestReset:
    def test_deterministic_per_seed(self):
        env = LanderEnv()
        a = env.reset(np.random.default_rng(5))
        b = env.reset(np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_contact_flags_zero_at_reset(self):
        env = LanderEnv()
        obs = env.reset(np.random.default_rng(0))
        assert obs[6] == 0.0 and obs[7] == 0.0

    def test_spawn_band_over_many_seeds(self):
        env = LanderEnv()
        for seed in range(1000):
            obs = env.reset(np.random.default_rng(seed))
            assert -0.1 <= obs[0] <= 0.1
            assert 1.1 <= obs[1] <= 1.3
            assert -0.2 <= obs[2] <= 0.2
            assert -0.1 <= obs[3] <= 0.0
            assert abs(obs[4]) <= 0.1

    def test_observation_has_8_components(self):
        env = LanderEnv()
        assert env.reset(np.random.default_rng(0)).shape == (8,)


class TestStepDynamics:
    def test_main_engine_impulse_in_body_frame(self):
        env = LanderEnv()
        angle = 0.3
        start = LanderState(x=0.0, y=1.0, vx=0.0, vy=0.0, angle=angle,
                            angular_velocity=0.0)
        env.set_state(start)
        v_main = env.step(ACTION_MAIN).observation[2:4]
        env.set_state(LanderState(x=0.0, y=1.0, vx=0.0, vy=0.0, angle=angle,
                                  angular_velocity=0.0))
        v_noop = env.step(ACTION_NOOP).observation[2:4]
        delta = v_main - v_noop
        body_up = np.array([-np.sin(angle), np.cos(angle)])
        assert delta @ body_up == pytest.approx(MAIN_THRUST * DT, abs=1e-12)
        # No component orthogonal to the thrust axis.
        body_right = np.array([np.cos(angle), np.sin(angle)])
        assert delta @ body_right == pytest.approx(0.0, abs=1e-12)

    def test_high_speed_ground_contact_crashes(self):
        env = LanderEnv()
        env.set_state(LanderState(x=0.0, y=0.01, vx=0.0, vy=-3.0, angle=0.0,
                                  angular_velocity=0.0))
        result, bonus = lander_step_bonus(env, ACTION_NOOP)
        assert result.done
        assert bonus == pytest.approx(-100.0, abs=BONUS_TOL)

    def test_soft_pad_landing_bonus_in_band(self):
        env = LanderEnv()
        env.set_state(LanderState(x=0.05, y=0.005, vx=0.0, vy=-0.1,
                                  angle=0.0, angular_velocity=0.0))
        for _ in range(30):
            result, bonus = lander_step_bonus(env, ACTION_NOOP)
            if result.done:
                break
        assert result.done
        assert bonus == pytest.approx(pad_bonus(env.state.x), abs=BONUS_TOL)

    def test_rest_on_pad_under_noop(self):
        env = LanderEnv()
        state = LanderState(x=0.0, y=0.0, vx=0.0, vy=0.0, angle=0.0,
                            angular_velocity=0.0, leg_left_contact=True,
                            leg_right_contact=True)
        env.set_state(state)
        for _ in range(15):
            result, bonus = lander_step_bonus(env, ACTION_NOOP)
            if result.done:
                break
        assert result.done
        assert bonus == pytest.approx(pad_bonus(env.state.x), abs=BONUS_TOL)

    def test_rest_off_pad_gets_plain_bonus(self):
        env = LanderEnv()
        env.set_state(LanderState(x=0.6, y=0.0, vx=0.0, vy=0.0, angle=0.0,
                                  angular_velocity=0.0, leg_left_contact=True,
                                  leg_right_contact=True))
        for _ in range(15):
            result, bonus = lander_step_bonus(env, ACTION_NOOP)
            if result.done:
                break
        assert result.done
        assert bonus == pytest.approx(100.0, abs=BONUS_TOL)

    def test_out_of_bounds_no_bonus(self):
        env = LanderEnv()
        env.set_state(LanderState(x=0.99, y=1.0, vx=5.0, vy=0.0, angle=0.0,
                                  angular_velocity=0.0))
        result, bonus = lander_step_bonus(env, ACTION_NOOP)
        assert result.done
        assert bonus == 0.0

    def test_stepping_terminal_rejected(self):
        env = LanderEnv()
        env.set_state(LanderState(x=0.0, y=0.01, vx=0.0, vy=-3.0, angle=0.0,
                                  angular_velocity=0.0))
        env.step(ACTION_NOOP)
        with pytest.raises(RuntimeError):
            env.step(ACTION_NOOP)

    def test_invalid_action_rejected(self):
        env = LanderEnv()
        env.reset(np.random.default_rng(0))
        with pytest.raises(ValueError):
            env.step(4)


class TestContract:
    def test_random_episodes_bounded_and_terminal_bonus_wellformed(self):
        rng = np.random.default_rng(123)
        env = LanderEnv()
        contact_terminations = 0
        for _ in range(100):
            steps = run_episode(env, rng, uniform_random)
            assert all(bonus == 0.0 for _, bonus in steps[:-1])
            result, bonus = steps[-1]
            assert env.step_index <= MAX_EPISODE_STEPS
            assert not (result.done and result.timed_out)
            if result.done and bonus != 0.0:
                contact_terminations += 1
                assert (bonus == pytest.approx(-100.0, abs=BONUS_TOL)
                        or bonus == pytest.approx(pad_bonus(env.state.x),
                                                  abs=BONUS_TOL))
        assert contact_terminations > 0

    def test_terminal_bonus_on_every_step(self):
        # The bonus is 0 on every step that does not end the episode. An
        # ending step is out of bounds if the lander is airborne, a crash if
        # it is on the ground without leg contact, and a rest otherwise.
        rng = np.random.default_rng(123)
        env = LanderEnv()
        endings = set()
        for _ in range(60):
            for result, bonus in run_episode(env, rng, noisy_descent):
                if not result.done:
                    assert bonus == 0.0
                    continue
                s = env.state
                if s.y > 0.0:
                    endings.add("out of bounds")
                    assert bonus == 0.0
                elif not s.leg_left_contact:
                    endings.add("crash")
                    assert bonus == pytest.approx(-100.0, abs=BONUS_TOL)
                else:
                    endings.add("rest")
                    assert bonus == pytest.approx(pad_bonus(s.x),
                                                  abs=BONUS_TOL)
        assert endings == {"out of bounds", "crash", "rest"}

    def test_pad_bonus_interpolation(self):
        assert pad_bonus(0.0) == 140.0
        assert pad_bonus(0.1) == pytest.approx(120.0)
        assert pad_bonus(0.2) == pytest.approx(100.0)
        assert pad_bonus(0.7) == 100.0

    def test_observation_layout(self):
        s = LanderState(x=1, y=2, vx=3, vy=4, angle=5, angular_velocity=6,
                        leg_left_contact=True, leg_right_contact=False)
        np.testing.assert_array_equal(observation_from_state(s),
                                      [1, 2, 3, 4, 5, 6, 1.0, 0.0])
