import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from reanneal_rl.envs import Experience
from reanneal_rl.replay import SAMPLE_BLOCK, ReplayBuffer


def experience_at(buf, i):
    """The experience stored in slot i of the ring (the ring keeps no
    timed_out column: a timed-out transition bootstraps like any other that
    is not done)."""
    return Experience(buf._states[i].copy(), int(buf._actions[i]),
                      float(buf._rewards[i]), buf._next_states[i].copy(),
                      bool(buf._dones[i]))


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


class TestSample:
    def test_single_element(self):
        buf = ReplayBuffer(capacity=4, obs_size=4)
        buf.push(make_exp(9))
        states, _, rewards, _, _ = buf.sample_arrays(
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

    def test_sampling_does_not_mutate_contents(self):
        buf = ReplayBuffer(capacity=10, obs_size=4)
        for tag in range(10):
            buf.push(make_exp(tag))
        before = [e.reward for e in as_list(buf)]
        buf.sample_arrays(10, np.random.default_rng(1))
        assert [e.reward for e in as_list(buf)] == before

    def test_uniformity_chi_squared(self):
        # 10^6 total draws over 100 elements vs the uniform distribution;
        # each element's reward is its row, so the rewards count the draws.
        buf = ReplayBuffer(capacity=100, obs_size=1)
        for tag in range(100):
            buf.push(Experience(np.array([float(tag)]), 0, float(tag),
                                np.array([0.0]), False))
        rng = np.random.default_rng(7)
        counts = np.zeros(100, dtype=np.int64)
        for _ in range(10_000):
            rewards = buf.sample_arrays(100, rng)[2]
            counts += np.bincount(rewards.astype(int), minlength=100)
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
            rewards = buf.sample_arrays(n, rng)[2]
            counts += np.bincount(rewards.astype(int), minlength=n)
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
        # A uniform draw with replacement over the 20 filled rows.
        idx = np.random.default_rng(9).integers(0, 20, size=8)
        objs = [experience_at(buf, i) for i in idx]
        states, actions, rewards, next_states, dones = (
            buf.sample_arrays(8, np.random.default_rng(9))
        )
        for i, e in enumerate(objs):
            assert np.array_equal(states[i], e.state)
            assert actions[i] == e.action
            assert rewards[i] == e.reward
            assert np.array_equal(next_states[i], e.next_state)
            assert dones[i] == e.done


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
    """The fields the ring stores; an observation as a list of floats, or
    as an int for index observations."""
    return (np.asarray(exp.state).tolist(), int(exp.action), float(exp.reward),
            np.asarray(exp.next_state).tolist(), bool(exp.done))


small = st.floats(-1e6, 1e6, allow_nan=False)
endings = st.sampled_from([(False, False), (True, False), (False, True)])
experiences = st.builds(
    lambda state, action, reward, next_state, end: Experience(
        np.array(state), action, reward, np.array(next_state), *end),
    st.tuples(small, small), st.integers(0, 3), small, st.tuples(small, small),
    endings,
)
INDEX_OBS_SIZE = 5
index_experiences = st.builds(
    lambda state, action, reward, next_state, end: Experience(
        state, action, reward, next_state, *end),
    st.integers(0, INDEX_OBS_SIZE - 1), st.integers(0, 3), small,
    st.integers(0, INDEX_OBS_SIZE - 1), endings,
)


def check_against_list_model(buf, pushes, batch, seed):
    capacity = buf.capacity
    model = []
    for exp in pushes:
        buf.push(exp)
        model.append(as_row(exp))
        kept = model[-capacity:]
        assert len(buf) == len(kept)
        assert [as_row(e) for e in as_list(buf)] == kept
    if len(buf) >= batch:
        columns = buf.sample_arrays(batch, np.random.default_rng(seed))
        for fields in zip(*columns):
            assert as_row(Experience(*fields)) in model[-capacity:]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.lists(experiences, max_size=30),
       st.integers(1, 8), st.integers(0, 2**32))
def test_ring_buffer_matches_list_model(capacity, pushes, batch, seed):
    check_against_list_model(ReplayBuffer(capacity=capacity, obs_size=2),
                             pushes, batch, seed)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.lists(index_experiences, max_size=30),
       st.integers(1, 8), st.integers(0, 2**32))
def test_ring_buffer_of_indices_matches_list_model(capacity, pushes, batch,
                                                   seed):
    buf = ReplayBuffer(capacity, INDEX_OBS_SIZE, index_observations=True)
    check_against_list_model(buf, pushes, batch, seed)
    assert buf._states.shape == buf._next_states.shape == (capacity,)
    assert buf._states.dtype == buf._next_states.dtype == np.int64


class TestIndexObservations:
    @pytest.mark.parametrize("bad", [
        INDEX_OBS_SIZE, INDEX_OBS_SIZE + 7, -1, 2.0, np.float64(1.0), "2",
        np.array([2]), True, None,
    ], ids=repr)
    @pytest.mark.parametrize("field", ["state", "next_state"])
    def test_bad_index_rejected_and_nothing_stored(self, field, bad):
        buf = ReplayBuffer(4, INDEX_OBS_SIZE, index_observations=True)
        exp = Experience(0, 1, 0.0, 3, False)
        setattr(exp, field, bad)
        with pytest.raises(ValueError, match=r"not both ints in \[0, 5\)"):
            buf.push(exp)
        assert len(buf) == 0 and buf._next == 0
        assert not buf._states.any() and not buf._next_states.any()

    def test_numpy_ints_accepted_and_sampled_as_int64(self):
        buf = ReplayBuffer(4, INDEX_OBS_SIZE, index_observations=True)
        buf.push(Experience(np.int64(4), 1, 2.0, np.int32(0), False))
        states, _, _, next_states, _ = buf.sample_arrays(
            1, np.random.default_rng(0))
        assert states.tolist() == [4]
        assert next_states.tolist() == [0]
        assert states.dtype == np.int64

    def test_non_finite_reward_still_rejected(self):
        buf = ReplayBuffer(4, INDEX_OBS_SIZE, index_observations=True)
        with pytest.raises(ValueError, match="non-finite"):
            buf.push(Experience(0, 1, float("nan"), 3, False))


class TestBlockDraws:
    """A full memory draws SAMPLE_BLOCK batches of indices per call, which
    must give the numbers of one call per batch."""

    @pytest.mark.parametrize("n", [500, 2**31 + 1])
    def test_one_block_draw_equals_one_draw_per_batch(self, n):
        # At n = 2**31 + 1 about half of the 32-bit draws are rejected.
        block, twin = np.random.default_rng(7), np.random.default_rng(7)
        drawn = block.integers(0, n, size=(SAMPLE_BLOCK, 64))
        for row in drawn:
            assert np.array_equal(row, twin.integers(0, n, size=64))
        assert block.bit_generator.state == twin.bit_generator.state

    def test_samples_match_one_draw_per_batch_from_a_twin(self):
        """Pushes and samples interleave as in training, past the point
        where the memory fills: each batch holds the rows that one draw per
        batch from a twin generator names, and the two generators agree
        after every SAMPLE_BLOCK-th batch on the full memory."""
        capacity, batch = 50, 8
        buf = ReplayBuffer(capacity, obs_size=4)
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        full_batches = 0
        for tag in range(capacity + 3 * SAMPLE_BLOCK):
            buf.push(make_exp(tag))
            idx = twin.integers(0, len(buf), size=batch)
            states, actions, rewards, next_states, dones = buf.sample_arrays(
                batch, rng)
            assert np.array_equal(rewards, buf._rewards[idx])
            assert np.array_equal(states, buf._states[idx])
            assert np.array_equal(next_states, buf._next_states[idx])
            if len(buf) == capacity:
                full_batches += 1
                if full_batches % SAMPLE_BLOCK == 0:
                    assert rng.bit_generator.state == twin.bit_generator.state
        assert full_batches == 3 * SAMPLE_BLOCK + 1

    def test_another_rng_or_batch_size_draws_afresh(self):
        buf = ReplayBuffer(capacity=10, obs_size=4)
        for tag in range(10):
            buf.push(make_exp(tag))
        first = buf.sample_arrays(6, np.random.default_rng(42))[2]
        again = buf.sample_arrays(6, np.random.default_rng(42))[2]
        assert np.array_equal(first, again)
        rng = np.random.default_rng(5)
        buf.sample_arrays(6, rng)
        twin = np.random.default_rng(5)
        twin.integers(0, 10, size=(SAMPLE_BLOCK, 6))
        idx = twin.integers(0, 10, size=4)
        assert np.array_equal(buf.sample_arrays(4, rng)[2], buf._rewards[idx])
