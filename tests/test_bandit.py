import numpy as np
import pytest

from reanneal_rl.bandit import (
    BanditSpec,
    ConstantEps,
    DecayingEps,
    Greedy,
    gap,
    run_bandit,
)


def two_arm_spec(horizon=10_000, noise=0.1):
    return BanditSpec(arm_means=[0.0, 1.0], noise_std=noise, horizon=horizon)


class TestBanditSpec:
    @pytest.mark.parametrize("means", [[0.0, np.nan], [np.inf, 1.0],
                                       [0.0, -np.inf, 1.0]])
    def test_non_finite_arm_means_rejected(self, means):
        with pytest.raises(ValueError, match="finite"):
            BanditSpec(means)

    @pytest.mark.parametrize("noise", [-0.5, np.nan, np.inf])
    def test_negative_or_non_finite_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="noise_std"):
            BanditSpec([0.0, 1.0], noise_std=noise)

    def test_zero_noise_accepted(self):
        assert BanditSpec([0.0, 1.0], noise_std=0).noise_std == 0.0


class TestGap:
    def test_three_arms(self):
        assert gap(BanditSpec([1.0, 0.5, 0.2])) == pytest.approx(0.5)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            gap(BanditSpec([3.0, 3.0, 1.0]))

    def test_gap_whose_square_underflows_rejected_by_decaying_eps(self):
        spec = BanditSpec([0.0, 1e-200], noise_std=0.0, horizon=10)
        assert gap(spec) == 1e-200
        with pytest.raises(ValueError, match="too small"):
            run_bandit(spec, DecayingEps(1.0), np.random.default_rng(0))

    def test_two_arms(self):
        assert gap(BanditSpec([0.9, 0.1])) == pytest.approx(0.8)


class TestRunBandit:
    def test_greedy_can_lock_onto_suboptimal_arm(self):
        # Noise-free: zero-init estimates tie, arm 0 wins the tie, pays 0.1
        # forever, and the greedy agent never revisits arm 1.
        spec = BanditSpec([0.1, 0.9], noise_std=0.0, horizon=1000)
        regret = run_bandit(spec, Greedy(), np.random.default_rng(0))
        assert regret[-1] == pytest.approx(0.8 * 1000)
        # Perfectly linear growth.
        np.testing.assert_allclose(np.diff(regret), 0.8, atol=1e-12)

    def test_constant_eps_linear_regret_rate(self):
        # The acceptance suite runs the full 20-seed, 1e5-horizon version.
        spec = two_arm_spec(horizon=30_000)
        totals = []
        for seed in range(8):
            curve = run_bandit(spec, ConstantEps(0.1),
                               np.random.default_rng(seed))
            totals.append(curve[-1] / spec.horizon)
        assert np.mean(totals) == pytest.approx(0.05, rel=0.2)

    def test_decaying_eps_sublinear_vs_constant_linear(self):
        spec = two_arm_spec(horizon=100_000)
        T = 50_000
        rng = np.random.default_rng(42)
        const = run_bandit(spec, ConstantEps(0.1), rng)
        decay = run_bandit(spec, DecayingEps(10.0), np.random.default_rng(42))
        assert decay[2 * T - 1] / decay[T - 1] < 1.5
        assert const[2 * T - 1] / const[T - 1] >= 1.9

    def test_regret_non_decreasing_all_strategies(self):
        spec = two_arm_spec(horizon=5000)
        for strategy in (Greedy(), ConstantEps(0.1), DecayingEps(10.0)):
            for seed in (0, 1):
                curve = run_bandit(spec, strategy, np.random.default_rng(seed))
                assert np.all(np.diff(curve) >= -1e-12)
                assert curve[0] >= 0.0

    def test_full_exploration_mean_regret(self):
        # eps = 1: per-step expected regret is the mean of (V* - mu_k).
        spec = BanditSpec([0.0, 0.4, 1.0], noise_std=0.1, horizon=20_000)
        expect = np.mean(1.0 - spec.arm_means)
        rates = []
        for seed in range(10):
            curve = run_bandit(spec, ConstantEps(1.0),
                               np.random.default_rng(seed))
            rates.append(curve[-1] / spec.horizon)
        # Per-step regret is a bounded i.i.d. draw; 3 sigma on the pooled mean.
        sigma = np.std(1.0 - spec.arm_means) / np.sqrt(10 * spec.horizon)
        assert abs(np.mean(rates) - expect) < 3 * sigma

    def test_decaying_eventually_below_constant(self):
        spec = two_arm_spec(horizon=50_000)
        wins = 0
        for seed in range(20):
            const = run_bandit(spec, ConstantEps(0.1),
                               np.random.default_rng(seed))
            decay = run_bandit(spec, DecayingEps(10.0),
                               np.random.default_rng(1000 + seed))
            above = decay >= const
            # Dominated from the last crossing onward, which must happen
            # strictly before the horizon.
            last_above = int(np.nonzero(above)[0][-1]) if above.any() else -1
            if last_above < len(decay) - 1:
                wins += 1
        assert wins >= 18

    def test_deterministic_per_seed(self):
        spec = two_arm_spec(horizon=2000)
        a = run_bandit(spec, DecayingEps(10.0), np.random.default_rng(3))
        b = run_bandit(spec, DecayingEps(10.0), np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_invalid_strategy_parameters_rejected(self):
        with pytest.raises(ValueError):
            ConstantEps(1.5)
        with pytest.raises(ValueError):
            DecayingEps(0.0)
        with pytest.raises(TypeError):
            run_bandit(two_arm_spec(10), "greedy", np.random.default_rng(0))

    def test_unknown_strategy_raises_before_any_draw(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(TypeError):
            run_bandit(two_arm_spec(10), "greedy", rng)
        assert rng.bit_generator.state == state
