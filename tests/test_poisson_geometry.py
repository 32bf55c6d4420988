"""Interval-partition sampling and exact order statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bec1d import (
    EULER_GAMMA,
    IntervalPartition,
    PoissonParams,
    expected_largest,
    expected_second_largest,
    gap_exceedance_probability,
    gap_variance,
    largest_asymptotic,
    log_moment,
    sample_ordered_lengths,
    sample_poisson_partition,
    sample_uniform_partition,
    trial_rng,
)
from bec1d.errors import DomainError
from bec1d.poisson_geometry import poisson_lengths
from util import ks_distance


class TestSampling:
    def test_single_interval_without_impurities(self):
        part = sample_uniform_partition(10.0, 1, seed=1)
        assert part.n_intervals == 1
        assert part.lengths[0] == pytest.approx(10.0, abs=0.0)
        assert part.impurity_count == 0

    def test_two_intervals_sum_to_total(self):
        part = sample_uniform_partition(1.0, 2, seed=7)
        assert part.n_intervals == 2
        assert 0 < part.lengths[0] < 1
        assert part.lengths.sum() == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_partition_invariants(self, seed):
        part = sample_poisson_partition(500.0, PoissonParams(1.0, seed=seed))
        assert np.all(part.lengths > 0)
        assert part.lengths.size == part.impurity_count + 1
        assert abs(part.lengths.sum() - 500.0) <= 1e-12 * 500.0

    @pytest.mark.parametrize("total_length", [0.0, -1.0, math.nan, math.inf])
    def test_poisson_lengths_rejects_a_bad_box_before_drawing(self, total_length):
        # a zero box once redrew forever; the stream must not even be touched
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"drew {name} for a box of length {total_length}")

        with pytest.raises(DomainError, match="total_length"):
            poisson_lengths(1.0, total_length, NoDraws())

    def test_seeded_lengths_are_pinned(self):
        # both samplers share one draw-sort-diff loop; these lengths predate it
        assert sample_uniform_partition(3.7, 4, seed=11).lengths.tolist() == [
            0.4757097502460386, 1.3716183407823868, 0.37821583217799726, 1.4744560767935775,
        ]
        assert poisson_lengths(1.0, 5.0, trial_rng(3, 0)).tolist() == [
            0.7986945731853928, 1.3669401279969762, 0.22962178952180112,
            1.2776292663419024, 1.3271142429539273,
        ]

    def test_scaling_covariance_is_exact_under_seed_pairing(self):
        base = sample_uniform_partition(1.0, 40, seed=123)
        scaled = sample_uniform_partition(7.5, 40, seed=123)
        np.testing.assert_allclose(scaled.lengths, 7.5 * base.lengths, rtol=1e-15)

    def test_min_spacing_mean_matches_dirichlet_value(self):
        # brute-force MC oracle: the smallest of 3 uniform spacings has mean 1/9
        rng = trial_rng(2024, 0)
        mins = np.empty(100_000)
        for i in range(mins.size):
            pts = np.sort(rng.random(2))
            mins[i] = min(pts[0], pts[1] - pts[0], 1.0 - pts[1])
        se = mins.std() / math.sqrt(mins.size)
        assert mins.mean() == pytest.approx(1.0 / 9.0, abs=4 * se)

    def test_poisson_count_mean(self):
        counts = [
            sample_poisson_partition(100.0, PoissonParams(1.0, seed=(11, t))).impurity_count
            for t in range(10_000)
        ]
        counts = np.asarray(counts, dtype=float)
        se = counts.std() / math.sqrt(counts.size)
        assert counts.mean() == pytest.approx(100.0, abs=4 * se)
        assert se < 0.15

    def test_zero_impurity_probability(self):
        lam = 0.05
        hits = sum(
            sample_poisson_partition(1.0, PoissonParams(lam, seed=(3, t))).n_intervals == 1
            for t in range(10_000)
        )
        p = hits / 10_000
        assert p == pytest.approx(math.exp(-lam), abs=4 * math.sqrt(math.exp(-lam) / 10_000))

    def test_interior_marginal_is_exponential(self):
        # one mid-index interior interval per realization, KS against Exp(1)
        lam, box = 1.0, 50.0
        samples = np.empty(100_000)
        kept = 0
        t = 0
        while kept < samples.size:
            part = sample_poisson_partition(box, PoissonParams(lam, seed=(77, t)))
            t += 1
            if part.n_intervals < 3:
                continue
            samples[kept] = part.lengths[part.n_intervals // 2]
            kept += 1
        dist = ks_distance(samples, lambda x: -np.expm1(-lam * x))
        assert dist < 0.02

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            sample_uniform_partition(float("nan"), 3, seed=0)
        with pytest.raises(ValueError):
            sample_uniform_partition(1.0, 0, seed=0)
        with pytest.raises(ValueError):
            sample_poisson_partition(-1.0, PoissonParams(1.0))
        with pytest.raises(ValueError):
            PoissonParams(0.0)
        with pytest.raises(ValueError):
            sample_poisson_partition(1e30, PoissonParams(1e40))

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            IntervalPartition(np.array([1.0, -2.0]), -1.0)
        with pytest.raises(ValueError):
            IntervalPartition(np.array([1.0, 1.0]), 3.0)


class TestOrderStatistics:
    def test_harmonic_sum_values(self):
        assert expected_largest(1.0, 1) == pytest.approx(1.0, rel=1e-15)
        assert expected_largest(2.0, 3) == pytest.approx(11.0 / 12.0, rel=1e-15)
        assert expected_second_largest(1.0, 2) == pytest.approx(0.5, rel=1e-15)

    @given(
        lam=st.floats(0.1, 10.0, allow_nan=False),
        k=st.integers(min_value=2, max_value=200_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_gap_mean_identity(self, lam, k):
        diff = expected_largest(lam, k) - expected_second_largest(lam, k)
        assert diff * lam == pytest.approx(1.0, rel=4e-15)

    def test_largest_mean_against_mc(self):
        lam, k, trials = 1.0, 10_000, 2_000
        rng = trial_rng(5150, 0)
        tops = np.array([rng.exponential(1.0, size=k).max() for _ in range(trials)])
        assert tops.mean() == pytest.approx(expected_largest(lam, k), rel=0.01)

    def test_second_largest_mean_against_mc(self):
        lam, k, trials = 1.0, 1_000, 2_000
        rng = trial_rng(5151, 0)
        seconds = np.array(
            [np.partition(rng.exponential(1.0, size=k), k - 2)[-2] for _ in range(trials)]
        )
        assert seconds.mean() == pytest.approx(expected_second_largest(lam, k), rel=0.01)

    def test_asymptotic_form(self):
        assert largest_asymptotic(2.0, 3, "first") == pytest.approx(
            (math.log(3.0) + EULER_GAMMA) / 2.0, rel=1e-15
        )
        k = 10_000
        assert abs(largest_asymptotic(1.0, k, "first") - expected_largest(1.0, k)) < 10.0 / k
        for lam, k in [(0.5, 10), (3.0, 1234)]:
            first = largest_asymptotic(lam, k, "first")
            second = largest_asymptotic(lam, k, "second")
            assert first - second == pytest.approx(1.0 / lam, rel=1e-12)
        with pytest.raises(ValueError):
            largest_asymptotic(1.0, 2, "first")
        with pytest.raises(ValueError):
            largest_asymptotic(1.0, 10, "third")

    def test_gap_exceedance_values(self):
        assert gap_exceedance_probability(1.0, 0.0) == 1.0
        assert gap_exceedance_probability(2.0, math.log(2.0) / 2.0) == pytest.approx(0.5, rel=1e-15)
        with pytest.raises(ValueError):
            gap_exceedance_probability(1.0, -0.1)

    def test_gap_exceedance_against_mc(self):
        rng = trial_rng(6001, 0)
        k, trials = 100, 100_000
        draws = rng.exponential(1.0, size=(trials, k))
        top = np.partition(draws, k - 2, axis=1)[:, -2:]
        freq = float(np.mean(top[:, 1] - top[:, 0] > 1.0))
        assert freq == pytest.approx(math.exp(-1.0), abs=0.01)

    def test_gap_variance_values_and_mc(self):
        assert gap_variance(1.0) == 1.0
        assert gap_variance(10.0) == pytest.approx(0.01, rel=1e-15)
        rng = trial_rng(6002, 0)
        k, trials = 200, 100_000
        draws = rng.exponential(1.0, size=(trials, k))
        top = np.partition(draws, k - 2, axis=1)[:, -2:]
        assert float(np.var(top[:, 1] - top[:, 0])) == pytest.approx(1.0, abs=0.05)

    def test_ordered_sample_type(self):
        sample = sample_ordered_lengths(2.0, 50, seed=9)
        assert sample.shape == (50,)
        assert np.all(np.diff(sample) <= 0)


class TestLogMoments:
    def test_seed_values(self):
        assert log_moment(0, 3) == pytest.approx(6.0, rel=1e-15)
        assert log_moment(1, 0) == pytest.approx(-EULER_GAMMA, rel=1e-15)
        assert log_moment(1, 1) == pytest.approx(1.0 - EULER_GAMMA, rel=1e-14)

    @pytest.mark.parametrize("power,degree", [(1, 0), (1, 3), (2, 0), (2, 2), (3, 1), (4, 2)])
    def test_against_quadrature(self, power, degree):
        def integrand(x):
            return math.log(x) ** power * x**degree * math.exp(-x)

        head, _ = quad(integrand, 0.0, 1.0, limit=300, epsabs=1e-13, epsrel=1e-12)
        tail, _ = quad(integrand, 1.0, 120.0, limit=300, epsabs=1e-13, epsrel=1e-12)
        assert log_moment(power, degree) == pytest.approx(head + tail, rel=1e-9, abs=1e-11)

    @given(power=st.integers(1, 4), degree=st.integers(1, 60))
    @settings(max_examples=120, deadline=None)
    def test_recurrences(self, power, degree):
        lhs = log_moment(power, degree)
        rhs = degree * log_moment(power, degree - 1) + power * log_moment(power - 1, degree - 1)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        if power == 1:
            gamma_term = math.gamma(degree)
            assert lhs == pytest.approx(degree * log_moment(1, degree - 1) + gamma_term, rel=1e-12)

    def test_support_bounds(self):
        with pytest.raises(ValueError):
            log_moment(5, 0)
        with pytest.raises(ValueError):
            log_moment(1, 61)
        with pytest.raises(ValueError):
            log_moment(-1, 0)
