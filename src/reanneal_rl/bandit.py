"""Multi-armed bandit regret simulation for three exploration regimes.

Greedy (eps=0) can lock onto a suboptimal arm forever (linear regret);
constant-eps keeps paying eps * mean-gap per step (also linear); the decaying
schedule eps_t = min(1, c / (gap^2 * t)) grows only logarithmically. Regret
is accumulated against the true arm means, not the noisy rewards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class BanditSpec:
    arm_means: np.ndarray
    noise_std: float = 0.1
    horizon: int = 100_000

    def __post_init__(self):
        self.arm_means = np.asarray(self.arm_means, dtype=float)
        if self.arm_means.shape[0] < 2:
            raise ValueError("need at least 2 arms")
        if not np.isfinite(self.arm_means).all():
            raise ValueError(f"arm means must be finite, got {self.arm_means}")
        self.noise_std = float(self.noise_std)
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0.0):
            raise ValueError(
                f"noise_std must be finite and >= 0, got {self.noise_std}"
            )
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass
class Greedy:
    pass


@dataclass
class ConstantEps:
    epsilon: float

    def __post_init__(self):
        if not 0 <= self.epsilon <= 1:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")


@dataclass
class DecayingEps:
    """eps_t = min(1, c / (gap^2 * t)); uses the true gap, which is known in
    simulation even though it is not in practice."""

    c: float = 10.0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")


def gap(spec):
    """Best arm mean minus second-best arm mean."""
    top_two = np.sort(spec.arm_means)[-2:]
    g = float(top_two[1] - top_two[0])
    if g == 0.0:
        raise ValueError("degenerate spec: no unique best arm (zero gap)")
    return g


def run_bandit(spec, strategy, rng):
    """Simulate one bandit run; returns the cumulative expected regret per
    step as an array of length spec.horizon.

    Value estimates are incremental sample means initialized at zero. The
    per-step regret is best-mean minus the true mean of the pulled arm.
    Greedy picks take the first maximal estimate, as np.argmax does.

    The loop runs on Python floats, ints and lists: the same IEEE double
    arithmetic as numpy scalars at a fraction of the call cost. Drawing the
    random numbers in blocks would reorder the stream and change every curve.
    """
    if isinstance(strategy, Greedy):
        eps, c = 0.0, None
    elif isinstance(strategy, ConstantEps):
        eps, c = strategy.epsilon, None
    elif isinstance(strategy, DecayingEps):
        c = strategy.c
        gap_sq = gap(spec) ** 2
        if gap_sq == 0.0:
            raise ValueError("gap too small for DecayingEps: its square is 0")
    else:
        raise TypeError(f"unknown strategy {strategy!r}")
    means = spec.arm_means.tolist()
    n_arms = len(means)
    best_mean = float(spec.arm_means.max())
    noise_std = spec.noise_std
    estimates = [0.0] * n_arms
    pulls = [0] * n_arms
    random, integers, standard_normal = (
        rng.random, rng.integers, rng.standard_normal
    )
    regret = np.empty(spec.horizon)
    total = 0.0
    for t in range(1, spec.horizon + 1):
        if c is not None:
            eps = min(1.0, c / (gap_sq * t))
        if eps > 0.0 and random() < eps:
            arm = int(integers(0, n_arms))
        else:
            arm = estimates.index(max(estimates))
        reward = means[arm]
        if noise_std > 0.0:
            reward += noise_std * standard_normal()
        pulls[arm] += 1
        estimates[arm] += (reward - estimates[arm]) / pulls[arm]
        total += best_mean - means[arm]
        regret[t - 1] = total
    return regret
