"""Largest-interval scaling, level-spacing repulsion, localization shares."""

import math

import numpy as np
import pytest

from bec1d import (
    DomainError,
    build_level_table,
    condensate_finite,
    critical_density,
    ground_state_occupation_fraction,
    ground_state_share,
    largest_interval_scaling,
    ModelParams,
    order_localization,
    sample_poisson_partition,
    solve_mu_finite,
    spacing_probability_exact,
    spacing_probability_mc,
    trial_rng,
)
from bec1d.numerics import _bose_occupations
from bec1d.poisson_geometry import MAX_MEAN_IMPURITIES
from util import DrawlessGenerator, ks_distance, partition

RHO_C = critical_density(ModelParams(1.0), 1.0)


class TestSpacingProbability:
    @pytest.mark.parametrize("k", [3, 10])
    def test_mc_matches_exact_quadrature(self, k):
        est = spacing_probability_mc(k, amplitude=1.0, exponent=0.5, intensity=1.0,
                                     trials=200_000, seed=17)
        exact = spacing_probability_exact(k, 1.0, 0.5, 1.0)
        assert est.probability == pytest.approx(exact, abs=4 * est.std_error)

    def test_a_sample_above_the_cap_raises_before_drawing(self, monkeypatch):
        # the exact quadrature stays uncapped: acceptance check 11 reads it at k = 1e12
        monkeypatch.setattr(order_localization, "trial_rng",
                            lambda *seed: DrawlessGenerator(np.random.PCG64(0)))
        with pytest.raises(DomainError, match="sample_size must lie at or below 67108864,"):
            spacing_probability_mc(MAX_MEAN_IMPURITIES + 1, 1.0, 0.5, 1.0, trials=1)
        assert 0.0 < spacing_probability_exact(MAX_MEAN_IMPURITIES + 1, 1.0, 0.5, 1.0) < 1.0

    def test_monotone_non_increasing_in_amplitude(self):
        exact = [spacing_probability_exact(50, a, 0.5, 1.0) for a in (0.25, 1.0, 4.0)]
        assert exact[0] > exact[1] > exact[2]
        estimates = [
            spacing_probability_mc(50, a, 0.5, 1.0, trials=100_000, seed=23).probability
            for a in (0.25, 1.0, 4.0)
        ]
        assert estimates[0] >= estimates[1] - 0.005 >= estimates[2] - 0.01

    def test_huge_threshold_kills_the_event(self):
        est = spacing_probability_mc(100, amplitude=1e8, exponent=0.5, intensity=1.0,
                                     trials=10_000, seed=3)
        assert est.probability == 0.0

    def test_near_unit_exponent_against_quadrature(self):
        # exponent -> 1 keeps the threshold k-independent
        est = spacing_probability_mc(5, amplitude=0.05, exponent=0.999, intensity=1.0,
                                     trials=200_000, seed=29)
        exact = spacing_probability_exact(5, 0.05, 0.999, 1.0)
        assert est.probability == pytest.approx(exact, abs=4 * est.std_error)

    def test_unit_exponent_against_quadrature(self):
        # both routes share one exponent domain, (0, 1]
        est = spacing_probability_mc(5, amplitude=0.05, exponent=1.0, intensity=1.0,
                                     trials=200_000, seed=31)
        exact = spacing_probability_exact(5, 0.05, 1.0, 1.0)
        assert est.probability == pytest.approx(exact, abs=4 * est.std_error)

    def test_seeded_estimate_is_pinned(self):
        est = spacing_probability_mc(3, 1.0, 0.5, 1.0, 20000, seed=17)
        assert (est.probability, est.std_error) == (0.90935, 0.002030179517924462)

    def test_limit_probability_tends_to_one(self):
        # the repulsion probability climbs to 1, but only on logarithmic scales
        values = [spacing_probability_exact(k, 1.0, 0.5, 1.0) for k in (10**4, 10**6, 10**12)]
        assert values[0] < values[1] < values[2]
        assert values[2] > 0.99

    def test_exact_quadrature_at_large_sample_sizes(self):
        # reference values: the docstring's integral evaluated with mpmath
        # (mp.dps = 40, mp.quad split at 0.5, 1, 1.5, 2 and 3 times ln k and
        # at the cutoff C/sqrt(t)), prefactor k (k-1) kept inside the integrand
        reference = {
            10**4: 0.45947620745568,
            10**8: 0.94205567969977,
            10**12: 0.99795569844857,
            10**14: 0.99967318574514,
        }
        values = [spacing_probability_exact(k, 1.0, 0.5, 1.0) for k in reference]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))
        for v, expected in zip(values, reference.values()):
            assert v == pytest.approx(expected, abs=1e-10)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            spacing_probability_mc(1, 1.0, 0.5, 1.0, 10)
        with pytest.raises(ValueError):
            spacing_probability_mc(10, 1.0, 1.5, 1.0, 10)
        with pytest.raises(ValueError):
            spacing_probability_mc(10, -1.0, 0.5, 1.0, 10)


class TestLargestIntervalScaling:
    def test_logarithmic_law(self):
        mean, std = largest_interval_scaling(1.0, 1e5, trials=200, seed=11)
        assert abs(mean - 1.0) < 0.1

    def test_flat_trend_and_shrinking_fluctuations(self):
        stats = {
            box: largest_interval_scaling(1.0, box, trials=200, seed=13)
            for box in (1e4, 1e5, 1e6)
        }
        for mean, _ in stats.values():
            assert abs(mean - 1.0) < 0.1
        assert stats[1e6][1] / stats[1e6][0] < stats[1e4][1] / stats[1e4][0]

    def test_needs_logarithmic_regime(self):
        with pytest.raises(ValueError):
            largest_interval_scaling(1.0, 2.0, trials=10, seed=0)


class TestGroundStateShare:
    def test_dominant_wide_interval(self):
        # one 30-length interval among 3e5 unit intervals holds nearly the
        # whole condensate in its ground state
        lengths = np.concatenate(([30.0], np.ones(300_000)))
        table = build_level_table(partition(lengths), 1.0)
        share = ground_state_share(table, 2.0 * RHO_C, epsilon=0.01)
        assert share.window_levels >= 1
        assert not share.tie
        assert share.fraction > 0.99

    def test_degenerate_pair_is_flagged_and_splits(self):
        lengths = np.concatenate(([30.0, 30.0], np.ones(300_000)))
        table = build_level_table(partition(lengths), 1.0)
        share = ground_state_share(table, 2.0 * RHO_C, epsilon=0.01)
        assert share.tie
        assert share.fraction == pytest.approx(0.5, abs=0.02)

    def test_empty_window_reports_nan(self):
        table = build_level_table(partition(np.ones(50)), 1.0)
        share = ground_state_share(table, 2.0 * RHO_C, epsilon=0.01)
        assert share.window_levels == 0
        assert math.isnan(share.fraction)

    def test_fractions_lie_in_unit_interval(self):
        shares = ground_state_occupation_fraction(
            1.0, 1.0, 2.0 * RHO_C, 500.0, seeds=list(range(20)), epsilon=0.5
        )
        for s in shares:
            assert s.window_levels > 0
            assert 0.0 <= s.fraction <= 1.0

    def test_the_share_reads_the_first_window_level(self):
        # the table starts at its ground level and the window mask keeps that order,
        # so the first window level is the one argmin of the window energies picks
        beta, rho, epsilon = 1.0, 2.0 * RHO_C, 0.5
        for seed in range(20):
            part = sample_poisson_partition(1.0, 500.0, seed)
            table = build_level_table(part, beta)
            mu = solve_mu_finite(table, rho)
            window = table.energies[table.energies < epsilon]
            occ = _bose_occupations(beta * (window - mu))
            share = ground_state_share(table, rho, epsilon)
            assert share.window_levels == window.size > 0
            assert share.fraction == float(occ[np.argmin(window)] / occ.sum())

    def test_epsilon_validation(self):
        # NaN fails every comparison: an `epsilon <= 0` guard reads it as an empty window
        table = build_level_table(partition(np.ones(5)), 1.0)
        for epsilon in (0.0, math.nan):
            for window in (ground_state_share, condensate_finite):
                with pytest.raises(ValueError, match="epsilon"):
                    window(table, 0.1, epsilon=epsilon)


class TestOrderedGapLaw:
    def test_gap_distribution_matches_exponential(self):
        rng = trial_rng(404, 0)
        k, trials = 100, 100_000
        draws = rng.exponential(1.0, size=(trials, k))
        top = np.partition(draws, k - 2, axis=1)[:, -2:]
        gaps = top[:, 1] - top[:, 0]
        assert ks_distance(gaps, lambda x: -np.expm1(-x)) < 0.02
