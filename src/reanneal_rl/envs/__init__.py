from dataclasses import dataclass

import numpy as np


@dataclass
class StepResult:
    observation: np.ndarray | int
    reward: float
    done: bool
    timed_out: bool


@dataclass
class Experience:
    """One transition. `done` is true only on genuine terminals; episodes cut
    off by the time limit store `timed_out` instead so the target still
    bootstraps."""

    state: np.ndarray | int
    action: int
    reward: float
    next_state: np.ndarray | int
    done: bool
    timed_out: bool = False


@dataclass
class EnvSpec:
    """`index_observations` marks an env whose observation is an int in
    [0, observation_size), the index of the one 1.0 in a one-hot row;
    otherwise it is a float vector of length observation_size."""

    observation_size: int
    action_count: int
    index_observations: bool = False


def episode(env, act, rng=None):
    """Roll out one episode: reset `env` with `rng`, then pick each action
    with `act(observation)` and step. Yields one Experience per step and
    stops after the step that is done or timed out."""
    obs = env.reset(rng)
    while True:
        action = act(obs)
        result = env.step(action)
        yield Experience(obs, action, result.reward, result.observation,
                         result.done, result.timed_out)
        if result.done or result.timed_out:
            return
        obs = result.observation


from .hovertrap import HoverTrapEnv, value_iteration  # noqa: E402
from .lander import LanderEnv  # noqa: E402

ENVS = {"lander": LanderEnv, "hovertrap": HoverTrapEnv}


def make_env(name):
    return ENVS[name]()
