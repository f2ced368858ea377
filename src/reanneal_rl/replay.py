"""Fixed-capacity FIFO experience memory with uniform random sampling.

Backed by preallocated numpy arrays indexed as a ring buffer, so pushes are
O(1) at large capacities and batches can be gathered without building
intermediate Python objects. Dense observations take a (capacity, obs_size)
float64 row each; index observations (`EnvSpec.index_observations`) take one
int64 entry of a (capacity,) column.
"""

from __future__ import annotations

import math

import numpy as np

SAMPLE_BLOCK = 32   # batches of indices drawn per call once the memory is full


class ReplayBuffer:
    def __init__(self, capacity, obs_size, index_observations=False):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.obs_size = int(obs_size)
        self.index_observations = bool(index_observations)
        shape, dtype = ((self.capacity, np.int64) if self.index_observations
                        else ((self.capacity, self.obs_size), float))
        self._states = np.zeros(shape, dtype=dtype)
        self._actions = np.zeros(self.capacity, dtype=np.int64)
        self._rewards = np.zeros(self.capacity)
        self._next_states = np.zeros(shape, dtype=dtype)
        self._dones = np.zeros(self.capacity, dtype=bool)
        self._size = 0
        self._next = 0
        self._drawn = iter(())   # index batches drawn ahead, and by which rng
        self._drawn_rng = None

    def __len__(self):
        return self._size

    def push(self, exp):
        """Insert one `envs.Experience`, evicting the oldest if full. Raises
        ValueError on a non-finite reward or dense observation, an index
        observation that is not an int in [0, obs_size), or a transition
        both done and timed out."""
        state, next_state = exp.state, exp.next_state
        if self.index_observations:
            if not (self._valid_index(state) and self._valid_index(next_state)):
                raise ValueError(f"observations {state!r} and {next_state!r} are "
                                 f"not both ints in [0, {self.obs_size})")
        elif not (np.isfinite(state).all() and np.isfinite(next_state).all()):
            raise ValueError("non-finite experience fields")
        if not math.isfinite(exp.reward):
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

    def _valid_index(self, value):
        return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
                and 0 <= value < self.obs_size)

    def sample_arrays(self, batch_size, rng):
        """Uniform sample with replacement, deterministic per rng state, as
        stacked arrays (states, actions, rewards, next_states, dones).

        A full memory keeps its size, so there one rng.integers call draws
        the next SAMPLE_BLOCK batches: the indices, and the generator state
        after the last, of SAMPLE_BLOCK calls, with one call's fixed cost.
        `rng` runs up to SAMPLE_BLOCK - 1 batches ahead of the batches
        returned; a call with another rng or batch size draws afresh."""
        if self._size < self.capacity:
            idx = rng.integers(0, self._size, size=batch_size)
        else:
            idx = next(self._drawn, None) if rng is self._drawn_rng else None
            if idx is None or idx.size != batch_size:
                self._drawn = iter(rng.integers(
                    0, self._size, size=(SAMPLE_BLOCK, batch_size)))
                self._drawn_rng = rng
                idx = next(self._drawn)
        return (
            self._states.take(idx, axis=0),
            self._actions.take(idx),
            self._rewards.take(idx),
            self._next_states.take(idx, axis=0),
            self._dones.take(idx),
        )
