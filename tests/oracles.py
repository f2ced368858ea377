"""Reference formulas that the tests check the program against."""

import numpy as np


def huber_loss(td_error, kappa=1.0):
    """Pseudo-Huber loss: kappa^2 * (sqrt(1 + (d/kappa)^2) - 1).

    Quadratic near zero, linear in the tails.
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    d = np.asarray(td_error, dtype=float)
    return kappa * kappa * (np.sqrt(1.0 + (d / kappa) ** 2) - 1.0)
