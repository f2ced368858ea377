"""Fixed-capacity FIFO experience memory with uniform random sampling.

Backed by preallocated numpy arrays indexed as a ring buffer, so pushes are
O(1) at large capacities and batches can be gathered without building
intermediate Python objects.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_CAPACITY = 1_000_000


class ReplayBuffer:
    def __init__(self, capacity=DEFAULT_CAPACITY, obs_size=8):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.obs_size = int(obs_size)
        self._states = np.zeros((self.capacity, self.obs_size))
        self._actions = np.zeros(self.capacity, dtype=np.int64)
        self._rewards = np.zeros(self.capacity)
        self._next_states = np.zeros((self.capacity, self.obs_size))
        self._dones = np.zeros(self.capacity, dtype=bool)
        self._size = 0
        self._next = 0
        self.insert_count = 0

    def __len__(self):
        return self._size

    def push(self, exp):
        """Insert one `envs.Experience`, evicting the oldest if full."""
        state = np.asarray(exp.state, dtype=float)
        next_state = np.asarray(exp.next_state, dtype=float)
        if not (np.isfinite(state).all() and np.isfinite(next_state).all()
                and math.isfinite(exp.reward)):
            raise ValueError("non-finite experience fields")
        if exp.done and exp.timed_out:
            raise ValueError("done and timed_out are mutually exclusive")
        i = self._next
        self._states[i] = state
        self._actions[i] = exp.action
        self._rewards[i] = exp.reward
        self._next_states[i] = next_state
        self._dones[i] = exp.done
        self._next = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        self.insert_count += 1

    def sample_arrays(self, batch_size, rng):
        """Uniform sample with replacement, deterministic per rng state, as
        stacked arrays (states, actions, rewards, next_states, dones)."""
        idx = self._sample_indices(batch_size, rng)
        return (
            self._states.take(idx, axis=0),
            self._actions.take(idx),
            self._rewards.take(idx),
            self._next_states.take(idx, axis=0),
            self._dones.take(idx),
        )

    def _sample_indices(self, batch_size, rng):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if self._size < batch_size:
            raise ValueError(
                f"buffer holds {self._size} experiences, need {batch_size}"
            )
        return rng.integers(0, self._size, size=batch_size)
