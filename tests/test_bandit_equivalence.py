"""The scalar-Python `run_bandit` against the numpy loop it replaced.

`reference_run_bandit` is that loop, kept here as the reference: numpy
scalars, `np.argmax`, the strategy dispatched on every pull. Both make the
same random draws in the same order and the same IEEE double operations, so
their curves must be bitwise equal, not merely close.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reanneal_rl.bandit import (
    BanditSpec,
    ConstantEps,
    DecayingEps,
    Greedy,
    gap,
    run_bandit,
)


def reference_run_bandit(spec, strategy, rng):
    n_arms = spec.arm_means.shape[0]
    best_mean = float(spec.arm_means.max())
    estimates = np.zeros(n_arms)
    pulls = np.zeros(n_arms, dtype=np.int64)
    if isinstance(strategy, DecayingEps):
        gap_sq = gap(spec) ** 2
    regret = np.empty(spec.horizon)
    total = 0.0
    for t in range(1, spec.horizon + 1):
        if isinstance(strategy, Greedy):
            eps = 0.0
        elif isinstance(strategy, ConstantEps):
            eps = strategy.epsilon
        elif isinstance(strategy, DecayingEps):
            eps = min(1.0, strategy.c / (gap_sq * t))
        else:
            raise TypeError(f"unknown strategy {strategy!r}")
        if eps > 0.0 and rng.random() < eps:
            arm = int(rng.integers(0, n_arms))
        else:
            arm = int(np.argmax(estimates))
        reward = spec.arm_means[arm]
        if spec.noise_std > 0.0:
            reward += spec.noise_std * rng.standard_normal()
        pulls[arm] += 1
        estimates[arm] += (reward - estimates[arm]) / pulls[arm]
        total += best_mean - spec.arm_means[arm]
        regret[t - 1] = total
    return regret


finite_means = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
exploration = st.one_of(
    st.just(Greedy()),
    st.sampled_from([ConstantEps(0.0), ConstantEps(1.0)]),
    st.floats(0.0, 1.0).map(ConstantEps),
    st.floats(1e-4, 0.1).map(DecayingEps),   # leaves the eps = 1 phase fast
    st.floats(0.1, 100.0).map(DecayingEps),
)


def _outcome(run, spec, strategy, seed):
    """The curve's bytes, or "rejected" if the run refused the spec.

    DecayingEps refuses a zero gap. It also refuses a gap whose square
    underflows to 0, where the numpy loop divided by zero instead."""
    try:
        return run(spec, strategy, np.random.default_rng(seed)).tobytes()
    except (ValueError, ZeroDivisionError):
        return "rejected"


@settings(max_examples=50, deadline=None)
@given(
    means=st.lists(finite_means, min_size=2, max_size=5),
    noise=st.one_of(st.sampled_from([0.0, 0.1, 1.0]), st.floats(0.0, 3.0)),
    strategy=exploration,
    horizon=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_curves_bitwise_equal_to_reference(means, noise, strategy, horizon,
                                           seed):
    spec = BanditSpec(means, noise_std=noise, horizon=horizon)
    assert _outcome(run_bandit, spec, strategy, seed) == _outcome(
        reference_run_bandit, spec, strategy, seed)


@pytest.mark.parametrize("means", [[0.0, 1.0], [0.3, 0.9, 0.9], [1.0, 1.0]])
@pytest.mark.parametrize("strategy", [Greedy(), ConstantEps(0.1),
                                      DecayingEps(10.0)])
def test_cli_setting_bitwise_equal_to_reference(means, strategy):
    # The bandit CLI's own spec, plus tied arms, at a longer horizon.
    spec = BanditSpec(means, noise_std=0.1, horizon=20_000)
    assert _outcome(run_bandit, spec, strategy, 7) == _outcome(
        reference_run_bandit, spec, strategy, 7)


@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=8))
def test_list_argmax_matches_numpy_without_nan(values):
    # run_bandit's greedy pick. Its estimates stay finite unless a reward
    # overflows a double; infinities are allowed here too.
    assert values.index(max(values)) == int(np.argmax(values))


@given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5]), min_size=1,
                max_size=6))
def test_list_argmax_picks_first_tie_like_numpy(values):
    assert values.index(max(values)) == int(np.argmax(values))
