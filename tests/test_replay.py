import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from reanneal_rl.envs import Experience
from reanneal_rl.replay import ReplayBuffer


def experience_at(buf, i):
    """The experience stored in slot i of the ring."""
    return Experience(buf._states[i].copy(), int(buf._actions[i]),
                      float(buf._rewards[i]), buf._next_states[i].copy(),
                      bool(buf._dones[i]), bool(buf._timed_out[i]))


def as_list(buf):
    """Stored experiences in insertion order (oldest first)."""
    start = (buf._next - len(buf)) % buf.capacity
    return [experience_at(buf, (start + k) % buf.capacity)
            for k in range(len(buf))]


def make_exp(tag, obs_size=4):
    state = np.full(obs_size, float(tag))
    return Experience(state, tag % 2, float(tag), state + 1, False)


class TestPush:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=2, obs_size=4)
        for tag in (1, 2, 3):
            buf.push(make_exp(tag))
        rewards = [e.reward for e in as_list(buf)]
        assert rewards == [2.0, 3.0]

    def test_push_into_empty(self):
        buf = ReplayBuffer(capacity=5, obs_size=4)
        buf.push(make_exp(1))
        assert len(buf) == 1

    def test_many_pushes_keep_last_capacity(self):
        capacity = 1000
        buf = ReplayBuffer(capacity=capacity, obs_size=4)
        oracle = []
        for tag in range(10_000):
            buf.push(make_exp(tag))
            oracle.append(tag)
            oracle = oracle[-capacity:]
        assert len(buf) == capacity
        assert [int(e.reward) for e in as_list(buf)] == oracle

    def test_nonfinite_fields_rejected(self):
        buf = ReplayBuffer(capacity=4, obs_size=2)
        bad = Experience(np.array([np.nan, 0.0]), 0, 0.0, np.zeros(2), False)
        with pytest.raises(ValueError):
            buf.push(bad)

    def test_done_and_timed_out_exclusive(self):
        buf = ReplayBuffer(capacity=4, obs_size=2)
        bad = Experience(np.zeros(2), 0, 0.0, np.zeros(2), True, True)
        with pytest.raises(ValueError):
            buf.push(bad)

    def test_insert_count_tracks_total_pushes(self):
        buf = ReplayBuffer(capacity=3, obs_size=4)
        for tag in range(7):
            buf.push(make_exp(tag))
        assert buf.insert_count == 7
        assert len(buf) == 3


class TestSample:
    def test_single_element(self):
        buf = ReplayBuffer(capacity=4, obs_size=4)
        buf.push(make_exp(9))
        states, _, rewards, _, _, _ = buf.sample_arrays(
            1, np.random.default_rng(0))
        assert rewards.tolist() == [9.0]
        assert np.array_equal(states, [np.full(4, 9.0)])

    def test_same_seed_same_batch(self):
        buf = ReplayBuffer(capacity=100, obs_size=4)
        for tag in range(50):
            buf.push(make_exp(tag))
        a = buf.sample_arrays(10, np.random.default_rng(42))
        b = buf.sample_arrays(10, np.random.default_rng(42))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_insufficient_data_rejected(self):
        buf = ReplayBuffer(capacity=10, obs_size=4)
        buf.push(make_exp(0))
        with pytest.raises(ValueError):
            buf.sample_arrays(2, np.random.default_rng(0))

    def test_sampling_does_not_mutate_contents(self):
        buf = ReplayBuffer(capacity=10, obs_size=4)
        for tag in range(10):
            buf.push(make_exp(tag))
        before = [e.reward for e in as_list(buf)]
        buf.sample_arrays(10, np.random.default_rng(1))
        assert [e.reward for e in as_list(buf)] == before

    def test_uniformity_chi_squared(self):
        # 10^6 total draws over 100 elements vs the uniform distribution.
        buf = ReplayBuffer(capacity=100, obs_size=1)
        for tag in range(100):
            buf.push(Experience(np.array([float(tag)]), 0, float(tag),
                                np.array([0.0]), False))
        rng = np.random.default_rng(7)
        counts = np.zeros(100, dtype=np.int64)
        for _ in range(10_000):
            counts += np.bincount(buf._sample_indices(100, rng), minlength=100)
        result = stats.chisquare(counts)
        assert result.pvalue > 0.001

    def test_index_frequencies_within_5_sigma(self):
        n = 1000
        buf = ReplayBuffer(capacity=n, obs_size=1)
        for tag in range(n):
            buf.push(Experience(np.array([0.0]), 0, float(tag),
                                np.array([0.0]), False))
        rng = np.random.default_rng(3)
        counts = np.zeros(n, dtype=np.int64)
        for _ in range(1000):
            counts += np.bincount(buf._sample_indices(n, rng), minlength=n)
        draws = 1000 * n
        expect = draws / n
        sigma = np.sqrt(draws * (1 / n) * (1 - 1 / n))
        assert np.all(np.abs(counts - expect) < 5 * sigma)

    def test_sample_arrays_matches_sample(self):
        buf = ReplayBuffer(capacity=20, obs_size=3)
        rng_fill = np.random.default_rng(5)
        for tag in range(20):
            buf.push(Experience(rng_fill.normal(size=3), tag % 4, float(tag),
                                rng_fill.normal(size=3), tag % 5 == 0))
        idx = buf._sample_indices(8, np.random.default_rng(9))
        objs = [experience_at(buf, i) for i in idx]
        states, actions, rewards, next_states, dones, timed_out = (
            buf.sample_arrays(8, np.random.default_rng(9))
        )
        for i, e in enumerate(objs):
            assert np.array_equal(states[i], e.state)
            assert actions[i] == e.action
            assert rewards[i] == e.reward
            assert np.array_equal(next_states[i], e.next_state)
            assert dones[i] == e.done
            assert timed_out[i] == e.timed_out


def test_len_reports_current_size():
    buf = ReplayBuffer(capacity=5, obs_size=2)
    assert len(buf) == 0
    for tag in range(3):
        buf.push(Experience(np.zeros(2), 0, 0.0, np.zeros(2), False))
        assert len(buf) == tag + 1
    for _ in range(7):
        buf.push(Experience(np.zeros(2), 0, 0.0, np.zeros(2), False))
    assert len(buf) == 5


def as_row(exp):
    return (tuple(exp.state), int(exp.action), float(exp.reward),
            tuple(exp.next_state), bool(exp.done), bool(exp.timed_out))


small = st.floats(-1e6, 1e6, allow_nan=False)
experiences = st.builds(
    lambda state, action, reward, next_state, end: Experience(
        np.array(state), action, reward, np.array(next_state), *end),
    st.tuples(small, small), st.integers(0, 3), small, st.tuples(small, small),
    st.sampled_from([(False, False), (True, False), (False, True)]),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.lists(experiences, max_size=30),
       st.integers(1, 8), st.integers(0, 2**32))
def test_ring_buffer_matches_list_model(capacity, pushes, batch, seed):
    buf = ReplayBuffer(capacity=capacity, obs_size=2)
    model = []
    for exp in pushes:
        buf.push(exp)
        model.append(as_row(exp))
        kept = model[-capacity:]
        assert len(buf) == len(kept)
        assert buf.insert_count == len(model)
        assert [as_row(e) for e in as_list(buf)] == kept
    if len(buf) >= batch:
        columns = buf.sample_arrays(batch, np.random.default_rng(seed))
        for fields in zip(*columns):
            assert as_row(Experience(*fields)) in model[-capacity:]
