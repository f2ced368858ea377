import numpy as np

from reanneal_rl.envs import EnvSpec, Experience, StepResult, episode
from reanneal_rl.envs.lander import LanderEnv


class CountingEnv:
    """Observation i after i steps; done or timed out after `length` steps."""

    spec = EnvSpec(observation_size=1, action_count=2)

    def __init__(self, length, done):
        self.length = length
        self.done = done
        self.resets = []

    def reset(self, rng=None):
        self.resets.append(rng)
        self.t = 0
        return np.array([0.0])

    def step(self, action):
        self.t += 1
        end = self.t >= self.length
        return StepResult(np.array([float(self.t)]), 10.0 * self.t + action,
                          end and self.done, end and not self.done)


def reference_rollout(env, act, rng):
    """The hand-written reset/act/step loop that episode() replaces."""
    obs = env.reset(rng)
    out = []
    while True:
        action = act(obs)
        result = env.step(action)
        out.append(Experience(obs, action, result.reward, result.observation,
                              result.done, result.timed_out))
        obs = result.observation
        if result.done or result.timed_out:
            return out


def test_yields_one_chained_experience_per_step_until_timeout():
    env = CountingEnv(length=4, done=False)
    rng = np.random.default_rng(0)
    exps = list(episode(env, lambda obs: int(obs[0]) % 2, rng))
    assert env.resets == [rng]
    assert [e.state[0] for e in exps] == [0.0, 1.0, 2.0, 3.0]
    assert [e.next_state[0] for e in exps] == [1.0, 2.0, 3.0, 4.0]
    assert [e.action for e in exps] == [0, 1, 0, 1]
    assert [e.reward for e in exps] == [10.0, 21.0, 30.0, 41.0]
    assert [e.timed_out for e in exps] == [False] * 3 + [True]
    assert not any(e.done for e in exps)


def test_stops_after_done():
    exps = list(episode(CountingEnv(length=2, done=True), lambda _: 0))
    assert [(e.done, e.timed_out) for e in exps] == [(False, False),
                                                    (True, False)]


def test_lander_matches_the_hand_written_loop_and_rng_stream():
    def run(rollout):
        rng = np.random.default_rng(11)
        act = lambda _: int(rng.integers(0, 4))  # noqa: E731
        exps = [e for _ in range(3) for e in rollout(LanderEnv(), act, rng)]
        return exps, rng.bit_generator.state

    (got, got_state), (want, want_state) = run(episode), run(reference_rollout)
    assert got_state == want_state
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.state, b.state)
        assert np.array_equal(a.next_state, b.next_state)
        assert (a.action, a.reward, a.done, a.timed_out) == \
            (b.action, b.reward, b.done, b.timed_out)
