import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reanneal_rl.explore import (
    EpsilonSchedule,
    SoftmaxSchedule,
    StuckCounter,
    select_epsilon_greedy,
    select_softmax,
    softmax_probabilities,
)


class TestEpsilonGreedy:
    def test_pure_greedy(self):
        sched = EpsilonSchedule(epsilon=0.0)
        rng = np.random.default_rng(0)
        q = np.array([1.0, 3.0, 2.0, 0.0])
        assert all(select_epsilon_greedy(q, sched, rng) == 1 for _ in range(100))

    def test_pure_random_is_uniform(self):
        sched = EpsilonSchedule(epsilon=1.0)
        rng = np.random.default_rng(1)
        q = np.array([5.0, -1.0, 0.0, 2.0])
        draws = 100_000
        counts = np.bincount(
            [select_epsilon_greedy(q, sched, rng) for _ in range(draws)],
            minlength=4,
        )
        expect = draws / 4
        sigma = np.sqrt(draws * 0.25 * 0.75)
        assert np.all(np.abs(counts - expect) < 5 * sigma)

    def test_mixture_frequency(self):
        # eps=0.5 over 2 actions: greedy arm frequency 1 - eps + eps/A = 0.75.
        sched = EpsilonSchedule(epsilon=0.5)
        rng = np.random.default_rng(2)
        q = np.array([0.0, 10.0])
        draws = 100_000
        hits = sum(select_epsilon_greedy(q, sched, rng) == 1
                   for _ in range(draws))
        assert hits / draws == pytest.approx(0.75, abs=0.01)

    def test_lowest_index_tie_break(self):
        sched = EpsilonSchedule(epsilon=0.0)
        rng = np.random.default_rng(3)
        assert select_epsilon_greedy(np.zeros(4), sched, rng) == 0

    def test_empty_q_rejected(self):
        with pytest.raises(ValueError):
            select_epsilon_greedy(np.array([]), EpsilonSchedule(),
                                  np.random.default_rng(0))

    def test_constant_shift_keeps_greedy_choice(self):
        sched = EpsilonSchedule(epsilon=0.0)
        rng = np.random.default_rng(4)
        q = np.array([0.3, -1.0, 2.2])
        assert (select_epsilon_greedy(q, sched, rng)
                == select_epsilon_greedy(q + 123.0, sched, rng))


class TestSoftmax:
    def test_equal_q_uniform_probabilities(self):
        p = softmax_probabilities(np.full(4, 3.3), temperature=0.7)
        np.testing.assert_allclose(p, np.full(4, 0.25), atol=1e-15)

    def test_two_action_closed_form(self):
        rng = np.random.default_rng(5)
        q = np.array([0.0, 1.0])
        expect = np.e / (1 + np.e)  # ~0.7311
        draws = 100_000
        hits = sum(select_softmax(q, 1.0, rng) == 1 for _ in range(draws))
        assert hits / draws == pytest.approx(expect, abs=0.01)

    def test_no_overflow_at_large_magnitudes(self):
        rng = np.random.default_rng(6)
        q = np.array([0.0, 1000.0])
        picks = [select_softmax(q, 0.01, rng) for _ in range(1000)]
        assert all(p == 1 for p in picks)

    def test_greedy_limit_small_temperature(self):
        rng = np.random.default_rng(7)
        q = np.array([0.1, 0.9, 0.5])
        # T at 1e-3 of the max gap.
        picks = [select_softmax(q, 1e-3 * 0.8, rng) for _ in range(5000)]
        assert np.mean(np.array(picks) == 1) > 0.999

    def test_constant_shift_leaves_distribution_unchanged(self):
        # Dyadic values so the +42 shift is exact in binary floating point;
        # max-subtraction then makes the distributions bitwise equal.
        q = np.array([0.25, -0.75, 1.5])
        p1 = softmax_probabilities(q, 0.5)
        p2 = softmax_probabilities(q + 42.0, 0.5)
        np.testing.assert_array_equal(p1, p2)

    def test_invalid_temperature_rejected(self):
        with pytest.raises(ValueError):
            select_softmax(np.zeros(2), 0.0, np.random.default_rng(0))


class TestEpsilonSchedule:
    def test_single_decay(self):
        sched = EpsilonSchedule(epsilon=1.0, decay_rate=0.99)
        assert sched.decay().epsilon == pytest.approx(0.99)

    def test_floor_holds(self):
        sched = EpsilonSchedule(epsilon=0.01, epsilon_min=0.01, decay_rate=0.99)
        assert sched.decay().epsilon == 0.01

    def test_decays_until_floor_count(self):
        # Iterating the recurrence: 0.99^459 < 0.01 <= 0.99^458, so the floor
        # is first reached on decay 459.
        sched = EpsilonSchedule(epsilon=1.0, epsilon_min=0.01, decay_rate=0.99)
        count = 0
        while sched.epsilon > sched.epsilon_min:
            sched.decay()
            count += 1
        assert count == 459

    def test_reanneal_resets_to_one(self):
        sched = EpsilonSchedule(epsilon=0.01)
        assert sched.reanneal().epsilon == 1.0

    def test_reanneal_idempotent(self):
        sched = EpsilonSchedule(epsilon=1.0)
        assert sched.reanneal().epsilon == 1.0

    def test_reanneal_then_decay(self):
        sched = EpsilonSchedule(epsilon=0.2, decay_rate=0.99)
        sched.reanneal()
        assert sched.decay().epsilon == pytest.approx(0.99)

    def test_bounds_under_any_interleaving(self):
        rng = np.random.default_rng(8)
        sched = EpsilonSchedule(epsilon=1.0, epsilon_min=0.01, decay_rate=0.9)
        for _ in range(1000):
            if rng.random() < 0.1:
                sched.reanneal()
            else:
                sched.decay()
            assert 0.01 <= sched.epsilon <= 1.0


class TestSoftmaxSchedule:
    def test_reanneal_restores_initial(self):
        sched = SoftmaxSchedule(temperature=0.05, temperature_initial=1.0)
        assert sched.reanneal().temperature == 1.0

    def test_reanneal_noop_at_initial(self):
        sched = SoftmaxSchedule(temperature=1.0, temperature_initial=1.0)
        assert sched.reanneal().temperature == 1.0

    def test_decay_reanneal_decay_composition(self):
        a = SoftmaxSchedule(temperature=1.0, temperature_initial=1.0,
                            decay_rate=0.95)
        a.decay()
        a.reanneal()
        a.decay()
        b = SoftmaxSchedule(temperature=1.0, temperature_initial=1.0,
                            decay_rate=0.95)
        b.decay()
        assert a.temperature == b.temperature

    def test_bounds_under_any_interleaving(self):
        rng = np.random.default_rng(9)
        sched = SoftmaxSchedule(temperature=1.0, temperature_initial=1.0,
                                temperature_min=0.01, decay_rate=0.9)
        for _ in range(500):
            if rng.random() < 0.1:
                sched.reanneal()
            else:
                sched.decay()
            assert 0.01 <= sched.temperature <= 1.0


class TestStuckCounter:
    def test_finished_episode_halves(self):
        counter = StuckCounter(count=3)
        decision = counter.update(episode_timed_out=False)
        assert not decision.reanneal
        assert decision.new_count == 1
        assert counter.count == 1

    def test_threshold_triggers_reanneal_and_reset(self):
        counter = StuckCounter(count=9, threshold=10)
        decision = counter.update(episode_timed_out=True)
        assert decision.reanneal
        assert decision.new_count == 0
        assert counter.count == 0

    def test_halving_floor_at_zero(self):
        counter = StuckCounter(count=0)
        decision = counter.update(episode_timed_out=False)
        assert counter.count == 0 and not decision.reanneal

    def test_exactly_one_reanneal_over_threshold_timeouts(self):
        counter = StuckCounter(count=0, threshold=10)
        fired = [counter.update(True).reanneal for _ in range(10)]
        assert fired == [False] * 9 + [True]
        # Counting starts over afterwards.
        assert not counter.update(True).reanneal
        assert counter.count == 1

    def test_paper_trace_mixed_outcomes(self):
        counter = StuckCounter(count=0, threshold=10)
        outcomes = [True, True, True, False, True, True]
        expected_counts = [1, 2, 3, 1, 2, 3]
        for timed_out, expect in zip(outcomes, expected_counts):
            decision = counter.update(timed_out)
            assert not decision.reanneal
            assert counter.count == expect


def reference_stuck_counts(outcomes, threshold):
    """The README rule, step by step: a timeout adds one, a finished episode
    halves the count, and reaching the threshold fires once and starts the
    count over at 0. Returns the count after each episode and the episodes
    that fired."""
    count, counts, fired = 0, [], []
    for episode, timed_out in enumerate(outcomes):
        count = count + 1 if timed_out else count // 2
        if count == threshold:  # the count only rises one at a time
            fired.append(episode)
            count = 0
        counts.append(count)
    return counts, fired


# Runs of timeouts long enough to reach any threshold, between runs of
# finished episodes; every outcome sequence is such a concatenation.
outcome_sequences = st.lists(
    st.tuples(st.integers(0, 25), st.integers(0, 3)), max_size=20,
).map(lambda runs: [t for stuck, done in runs
                    for t in [True] * stuck + [False] * done])


@settings(max_examples=200, deadline=None)
@given(outcome_sequences, st.integers(1, 20))
def test_stuck_counter_matches_reference_rule(outcomes, threshold):
    counter = StuckCounter(threshold=threshold)
    counts, fired = [], []
    for episode, timed_out in enumerate(outcomes):
        decision = counter.update(timed_out)
        assert decision.new_count == counter.count
        counts.append(counter.count)
        if decision.reanneal:
            fired.append(episode)
    assert (counts, fired) == reference_stuck_counts(outcomes, threshold)
