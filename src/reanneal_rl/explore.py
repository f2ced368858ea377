"""Action selection (epsilon-greedy, softmax) and the reannealing controller.

Reannealing resets the exploration schedule to its maximum when the stuck
counter reaches its threshold: timeout episodes increment the counter,
episodes that finish in time integer-halve it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EpsilonSchedule:
    """Multiplicative epsilon decay with a floor, reset to 1 on reanneal."""

    epsilon: float = 1.0
    epsilon_min: float = 0.01
    decay_rate: float = 0.99

    def decay(self):
        """Apply one multiplicative decay (called once per episode)."""
        self.epsilon = max(self.epsilon_min, self.epsilon * self.decay_rate)

    def reanneal(self):
        """Reset epsilon to 1 for full exploration."""
        self.epsilon = 1.0


@dataclass
class SoftmaxSchedule:
    """Temperature schedule for the Boltzmann policy; reanneal restores the
    initial temperature."""

    temperature: float = 1.0
    temperature_initial: float = 1.0
    temperature_min: float = 0.01
    decay_rate: float = 0.99

    def decay(self):
        self.temperature = max(
            self.temperature_min, self.temperature * self.decay_rate
        )

    def reanneal(self):
        self.temperature = self.temperature_initial


@dataclass
class StuckCounter:
    """Counts consecutive-ish timeout episodes (the hovering heuristic)."""

    count: int = 0
    threshold: int = 10

    def update(self, timed_out):
        """Apply one episode outcome; returns True when it fires a reanneal.

        Timeout increments the count; a finished episode halves it (integer
        division). Reaching the threshold fires exactly one reanneal and
        resets the count to 0.
        """
        if timed_out:
            self.count += 1
        else:
            self.count //= 2
        if self.count >= self.threshold:
            self.count = 0
            return True
        return False


def select_epsilon_greedy(q_values, schedule, rng):
    """Greedy action with probability 1 - schedule.epsilon, else uniform over
    all actions (the greedy one included). Ties break to the lowest index."""
    if rng.random() < schedule.epsilon:
        return int(rng.integers(0, len(q_values)))
    return int(np.argmax(q_values))


def softmax_probabilities(q_values, temperature):
    """Boltzmann distribution exp(Q/T) / sum exp(Q/T), max-subtracted so
    large Q magnitudes cannot overflow."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    q = np.asarray(q_values, dtype=float)
    if q.ndim != 1 or q.shape[0] < 1:
        raise ValueError("q_values must be a non-empty vector")
    z = (q - q.max()) / temperature
    e = np.exp(z)
    return e / e.sum()

def select_softmax(q_values, temperature, rng):
    """Sample an action from the Boltzmann distribution at temperature T."""
    p = softmax_probabilities(q_values, temperature)
    return int(rng.choice(p.shape[0], p=p))
