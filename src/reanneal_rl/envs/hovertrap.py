"""HoverTrap: a tiny deterministic descent MDP with a hovering local optimum.

The craft starts at altitude 16 and must reach the ground slowly. Each step
it either thrusts (velocity drops by 1, small fuel cost) or coasts (gravity
pulls velocity up by 3, capped at 4); it then descends by its new velocity.
Touching down at velocity 1 lands (+100); any faster crashes (-100). Thrust
at velocity 0 holds altitude, so "thrust forever" hovers safely until the
time limit at a small fuel loss.

The asymmetry between the weak thruster and the strong gravity pull makes
the safe-landing corridor narrow: random play crashes about 97% of the time,
so value estimates learned from mostly-random data favor hovering. That is
the trap that exploration reannealing is meant to escape.

States are (altitude, velocity) pairs, observed as a one-hot vector, so the
same MLP agent used for the lander runs unchanged.
"""

from __future__ import annotations

import numpy as np

from . import EnvSpec, StepResult, episode

MAX_ALTITUDE = 16
MAX_VELOCITY = 4
GRAVITY_PULL = 3    # velocity gained per coast step
FUEL_COST = 0.05
LAND_REWARD = 100.0
CRASH_REWARD = -100.0
MAX_EPISODE_STEPS = 100

ACTION_THRUST = 0
ACTION_COAST = 1

OBS_SIZE = (MAX_ALTITUDE + 1) * (MAX_VELOCITY + 1)


def encode_observation(altitude, velocity):
    obs = np.zeros(OBS_SIZE)
    obs[altitude * (MAX_VELOCITY + 1) + velocity] = 1.0
    return obs


def transition(altitude, velocity, action):
    """Pure transition: (altitude, velocity, action) ->
    (altitude', velocity', reward, done).

    The craft descends by its post-action velocity under either action.
    Touching down at velocity <= 1 lands (+100); faster crashes (-100).
    """
    if altitude <= 0:
        raise RuntimeError("stepping a terminal HoverTrap state")
    if action == ACTION_THRUST:
        v = max(velocity - 1, 0)
        reward = -FUEL_COST
    elif action == ACTION_COAST:
        v = min(velocity + GRAVITY_PULL, MAX_VELOCITY)
        reward = 0.0
    else:
        raise ValueError(f"invalid action {action}")
    alt = altitude - v
    if alt <= 0 and v > 0:
        reward += LAND_REWARD if v <= 1 else CRASH_REWARD
        return 0, v, reward, True
    return alt, v, reward, False


class HoverTrapEnv:
    spec = EnvSpec(
        observation_size=OBS_SIZE,
        action_count=2,
        max_episode_steps=MAX_EPISODE_STEPS,
    )

    def __init__(self):
        self.altitude = None
        self.velocity = None
        self.step_index = 0
        self._terminal = True

    def reset(self, rng=None):
        self.altitude = MAX_ALTITUDE
        self.velocity = 0
        self.step_index = 0
        self._terminal = False
        return encode_observation(self.altitude, self.velocity)

    def step(self, action):
        if self._terminal:
            raise RuntimeError("stepping a finished episode; call reset()")
        self.altitude, self.velocity, reward, done = transition(
            self.altitude, self.velocity, action
        )
        self.step_index += 1
        timed_out = not done and self.step_index >= MAX_EPISODE_STEPS
        self._terminal = done or timed_out
        obs = encode_observation(self.altitude, self.velocity)
        return StepResult(obs, reward, done, timed_out)


def value_iteration(gamma=0.99, tol=1e-10):
    """Exact optimal values and greedy policy for the infinite-horizon
    HoverTrap MDP (the episode time limit is a simulation artifact and is
    ignored here). Terminal states have value 0.

    Returns (values, policy) arrays of shape (MAX_ALTITUDE+1, MAX_VELOCITY+1);
    policy is -1 at terminal states.
    """
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    shape = (MAX_ALTITUDE + 1, MAX_VELOCITY + 1)
    values = np.zeros(shape)
    while True:
        delta = 0.0
        new_values = np.zeros(shape)
        for alt in range(1, MAX_ALTITUDE + 1):
            for vel in range(MAX_VELOCITY + 1):
                best = -np.inf
                for action in (ACTION_THRUST, ACTION_COAST):
                    a2, v2, r, done = transition(alt, vel, action)
                    q = r if done else r + gamma * values[a2, v2]
                    best = max(best, q)
                new_values[alt, vel] = best
                delta = max(delta, abs(best - values[alt, vel]))
        values = new_values
        if delta < tol:
            break
    policy = np.full(shape, -1, dtype=int)
    for alt in range(1, MAX_ALTITUDE + 1):
        for vel in range(MAX_VELOCITY + 1):
            qs = []
            for action in (ACTION_THRUST, ACTION_COAST):
                a2, v2, r, done = transition(alt, vel, action)
                qs.append(r if done else r + gamma * values[a2, v2])
            policy[alt, vel] = int(np.argmax(qs))
    return values, policy


def rollout_policy(policy, discount=1.0):
    """Return of one episode under a tabular policy (deterministic MDP)."""
    env = HoverTrapEnv()
    total = 0.0
    scale = 1.0
    for exp in episode(env, lambda _: int(policy[env.altitude, env.velocity])):
        total += scale * exp.reward
        scale *= discount
    return total
