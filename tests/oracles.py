"""Reference formulas that the tests check the program against."""

import numpy as np

from reanneal_rl.envs import lander


def huber_loss(td_error, kappa=1.0):
    """Pseudo-Huber loss: kappa^2 * (sqrt(1 + (d/kappa)^2) - 1).

    Quadratic near zero, linear in the tails.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    d = np.asarray(td_error, dtype=float)
    return kappa * kappa * (np.sqrt(1.0 + (d / kappa) ** 2) - 1.0)


def lander_step_bonus(env, action):
    """Step `env` (a LanderEnv) with `action`; return the StepResult and the
    step's terminal bonus, the reward less the shaping and the fuel cost:
    reward - ((potential(after) - potential(before)) + fuel)."""
    phi_before = lander._potential(env.state)
    result = env.step(action)
    fuel = {lander.ACTION_MAIN: -lander.FUEL_MAIN,
            lander.ACTION_LEFT: -lander.FUEL_SIDE,
            lander.ACTION_RIGHT: -lander.FUEL_SIDE}.get(action, 0.0)
    shaping = (lander._potential(env.state) - phi_before) + fuel
    return result, result.reward - shaping
