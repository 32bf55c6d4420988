"""Dirichlet spectra, counting function, and the limiting IDS."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bec1d import spectrum

from bec1d import (
    C,
    C_SQUARED,
    ConvergenceError,
    DomainError,
    LevelTable,
    ModelParams,
    build_level_table,
    counting_function,
    dirichlet_eigenfunction,
    dirichlet_eigenvalue,
    dos_limit,
    finite_amplitude_threshold,
    ids_finite_amplitude_bound,
    ids_free,
    ids_limit,
    ids_series,
    sample_poisson_partition,
)
from util import level_lengths, partition


class TestLevels:
    def test_eigenvalues(self):
        assert dirichlet_eigenvalue(math.pi, 1) == pytest.approx(0.5, rel=1e-15)
        assert dirichlet_eigenvalue(math.pi, 2) == pytest.approx(2.0, rel=1e-15)
        assert dirichlet_eigenvalue(1.0, 1) == pytest.approx(math.pi**2 / 2.0, rel=1e-15)
        assert dirichlet_eigenvalue(2.0, 3) == pytest.approx((C * 3 / 2.0) ** 2, rel=1e-14)

    def test_eigenfunction_walls_and_midpoint(self):
        assert dirichlet_eigenfunction(2.0, 0.0, 1, 0.0) == 0.0
        assert dirichlet_eigenfunction(2.0, 0.0, 1, 2.0) == 0.0
        assert dirichlet_eigenfunction(2.0, 0.0, 1, 1.0) == pytest.approx(1.0, rel=1e-15)
        assert dirichlet_eigenfunction(2.0, 0.0, 1, -0.5) == 0.0

    @pytest.mark.parametrize("length,mode", [(2.0, 1), (0.7, 2), (5.3, 7)])
    def test_eigenfunction_normalization(self, length, mode):
        # quadrature oracle for the L2 norm
        val, _ = quad(
            lambda x: dirichlet_eigenfunction(length, 1.0, mode, x) ** 2,
            1.0,
            1.0 + length,
            limit=200,
            epsabs=1e-12,
        )
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_level_table_energies(self):
        part, beta = partition([2.0, 3.0]), 2.0
        table = build_level_table(part, beta)
        assert [f.name for f in dataclasses.fields(LevelTable)] == [
            "energies", "lengths", "counts", "total_length", "beta"
        ]
        assert table.beta == beta
        assert table.ground_energy == pytest.approx((C / 3.0) ** 2, rel=1e-15)
        # the levels (C s / L)^2 < E0 + 40/beta, mode by mode and longest interval
        # first, are the table
        cutoff = (C / 3.0) ** 2 + spectrum.TABLE_EXPONENT / beta
        levels = [(length, s) for s in range(1, 30)
                  for length in (3.0, 2.0) if (C * s / length) ** 2 < cutoff]
        assert table.energies.tolist() == [(C * s / length) ** 2 for length, s in levels]
        assert table.lengths.tolist() == [3.0, 2.0]
        assert table.counts.tolist() == [sum(length == 3.0 for length, _ in levels),
                                         sum(length == 2.0 for length, _ in levels)]
        assert level_lengths(table).tolist() == [length for length, _ in levels]
        wave_numbers = [math.pi * s / length for length, s in levels]
        np.testing.assert_allclose(np.sqrt(2.0 * table.energies), wave_numbers, rtol=1e-15)
        assert all(
            (C * s / length) ** 2 == pytest.approx(dirichlet_eigenvalue(length, s), rel=1e-14)
            for length, s in levels
        )
        low = build_level_table(part, spectrum.TABLE_EXPONENT / 10.0)  # cut at E0 + 10
        assert low.energies[low.energies <= 10.0].tolist() == \
            table.energies[table.energies <= 10.0].tolist()

    def test_table_size_guard_raises_before_allocating(self, monkeypatch):
        # L sqrt(E) / C ~ 4.5e9 levels below E0 + 1e8: 36 GB of energies
        huge = partition([1e6])
        with pytest.raises(DomainError, match="levels"):
            build_level_table(huge, spectrum.TABLE_EXPONENT / 1e8)
        # a count past the int64 range (beta = 1e-300) must not wrap around the guard
        with pytest.raises(DomainError, match="levels"):
            build_level_table(partition([2.0]), 1e-300)
        part = partition([2.0, 3.0])
        size = build_level_table(part, 2.0).energies.size
        monkeypatch.setattr(spectrum, "MAX_LEVELS", size)
        assert build_level_table(part, 2.0).energies.size == size
        monkeypatch.setattr(spectrum, "MAX_LEVELS", size - 1)
        with pytest.raises(DomainError):
            build_level_table(part, 2.0)

    @pytest.mark.parametrize("intensity", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("beta", [1e-3, 1.0, 1e3])
    def test_table_holds_exactly_the_levels_below_its_cutoff(self, intensity, beta):
        for seed in range(3):
            rough = (C * intensity) ** 2 + spectrum.TABLE_EXPONENT / beta
            part = sample_poisson_partition(intensity, min(2000.0, 2e4 * C / math.sqrt(rough)),
                                            seed)
            table = build_level_table(part, beta)
            # the ground level in the arithmetic of the table: no level lies below it
            ground = float(np.square(C / part.lengths.max()))
            assert table.ground_energy == ground
            cutoff = (C / part.lengths.max()) ** 2 + spectrum.TABLE_EXPONENT / beta
            assert table.energies.max() < cutoff
            count = counting_function(part, cutoff) * part.total_length
            assert table.energies.size == round(count)
            # a beta with 40/beta below the first gap holds only the ground level; the
            # gap is read off a table cut past the longest interval's second level 4 E0
            wide = build_level_table(part, spectrum.TABLE_EXPONENT / (4.0 * ground))
            gap = np.sort(wide.energies)[1] - ground
            only_ground = build_level_table(part, 2.0 * spectrum.TABLE_EXPONENT / gap)
            assert only_ground.energies.tolist() == [ground]

    def test_a_cutoff_that_rounds_to_the_ground_level_holds_no_level(self):
        # 40/beta is below half an ulp of E0 = (C / 1.5)^2 ~ 1.1, so the cutoff is E0
        # itself and no level lies strictly below it
        part = partition([1.5, 1.0])
        assert (C / 1.5) ** 2 + spectrum.TABLE_EXPONENT / 1e18 == (C / 1.5) ** 2
        with pytest.raises(DomainError, match="0 levels below"):
            build_level_table(part, 1e18)
        assert build_level_table(part, 1e15).energies.size == 1


def level(length, s):
    """(C s / L)^2 as a table computes it; x ** 2 may round differently from x * x."""
    wave = C * s / length
    return wave * wave


def mode_count(length, cutoff):
    """Levels (C s / L)^2 strictly below cutoff, counted one mode at a time."""
    s = 0
    while level(length, s + 1) < cutoff:
        s += 1
    return s


class TestModeMajorTable:
    """Block s holds the s-th level of every interval with one, longest first."""

    BETA = 0.2  # cut at E0 + 200: intervals shorter than C / sqrt(201) ~ 0.157 have no level

    def random_partition(self, seed):
        rng = np.random.default_rng(seed)
        lengths = rng.exponential(1.0, 40)
        ties = [lengths.max(), *lengths[:5]]
        levelless = rng.uniform(0.01, 0.1, 5)
        return partition(rng.permutation(np.concatenate([lengths, ties, levelless])))

    def cutoff(self, part):
        return (C / part.lengths.max()) ** 2 + spectrum.TABLE_EXPONENT / self.BETA

    @pytest.mark.parametrize("seed", range(8))
    def test_block_s_holds_the_intervals_with_s_levels_longest_first(self, seed):
        part = self.random_partition(seed)
        table = build_level_table(part, self.BETA)
        longest_first = sorted(part.lengths.tolist(), reverse=True)
        counts = [mode_count(length, self.cutoff(part)) for length in longest_first]
        assert min(counts) == 0 and len(set(longest_first)) < len(longest_first)
        blocks = [[length for length, n in zip(longest_first, counts) if n >= s]
                  for s in range(1, max(counts) + 1)]
        assert table.lengths.tolist() == [length for length, n in zip(longest_first, counts) if n]
        assert table.counts.tolist() == [n for n in counts if n]
        assert level_lengths(table).tolist() == [length for block in blocks for length in block]
        start = 0
        for s, block in enumerate(blocks, 1):
            energies = table.energies[start:start + len(block)]
            assert energies.tolist() == [level(length, s) for length in block]
            assert np.all(np.diff(energies) >= 0.0)
            start += len(block)

    @pytest.mark.parametrize("seed", range(8))
    def test_each_interval_holds_its_ladder_bit_for_bit(self, seed):
        part = self.random_partition(seed)
        table, cutoff = build_level_table(part, self.BETA), self.cutoff(part)
        lengths, ties = np.unique(part.lengths, return_counts=True)
        for length, tie in zip(lengths.tolist(), ties.tolist()):
            ladder = [level(length, s) for s in range(1, mode_count(length, cutoff) + 1)]
            own = table.energies[level_lengths(table) == length]
            assert own.tolist() == np.repeat(ladder, tie).tolist()

    @pytest.mark.parametrize("seed", range(8))
    def test_ground_level_and_longest_interval_come_first(self, seed):
        table = build_level_table(self.random_partition(seed), self.BETA)
        assert table.ground_energy == table.energies[0] == table.energies.min()
        assert table.lengths[0] == table.lengths.max()


class TestCountingFunction:
    def test_single_interval_fractional_count(self):
        # L sqrt(E)/C = 3.5 -> exactly 3 levels below E
        energy = (3.5 * C / 10.0) ** 2
        assert counting_function(partition([10.0]), energy) == pytest.approx(0.3, rel=1e-15)

    def test_strict_inequality_at_integer_boundary(self):
        # at E = C^2 the counts are "strictly below L_j", excluding s = L_j
        part = partition([4.0, 6.0])
        assert counting_function(part, C_SQUARED) == pytest.approx(0.8, rel=1e-15)

    def test_monotone_step_function(self):
        part = sample_poisson_partition(1.0, 200.0, 5)
        grid = np.linspace(0.01, 8.0, 300)
        vals = [counting_function(part, e) for e in grid]
        assert all(b >= a for a, b in zip(vals[:-1], vals[1:]))

    def test_invalid_energy(self):
        with pytest.raises(ValueError):
            counting_function(partition([1.0]), 0.0)


class TestIdsLimit:
    def test_value_at_c_squared(self):
        # geometric series with ratio e^{-1}
        params = ModelParams(1.0)
        assert ids_limit(params, C_SQUARED) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-15)

    def test_series_oracle_agreement(self):
        for lam in (0.3, 1.0, 2.5):
            params = ModelParams(lam)
            for energy in (0.05, 0.5, 1.0, 7.0, 40.0, 1e6):
                series = ids_series(params, energy, tolerance=1e-13)
                assert ids_limit(params, energy) == pytest.approx(series, rel=1e-12)

    @pytest.mark.parametrize("energy", [1e8, 1e10, 1e12])
    def test_series_raises_where_its_terms_miss_the_tolerance(self, energy):
        # w = e^{-C / sqrt(E)} nears 1, so 1e5 terms stopped short of the tolerance and
        # returned partial sums 2.2e-10, 10.8% and 80% below ids_limit
        with pytest.raises(ConvergenceError, match="100000 terms"):
            ids_series(ModelParams(1.0), energy)

    def test_series_returns_zero_where_its_ratio_underflows(self):
        # w = e^{-C / sqrt(1e-6)} = e^{-2221} is 0.0, so the series has no term
        assert ids_series(ModelParams(1.0), 1e-6) == 0.0 == ids_limit(ModelParams(1.0), 1e-6)

    def test_half_weight_energy_gives_intensity(self):
        lam = 1.7
        energy = (C * lam / math.log(2.0)) ** 2
        assert ids_limit(ModelParams(lam), energy) == pytest.approx(lam, rel=1e-14)

    def test_series_closed_form_scaling(self):
        assert ids_series(ModelParams(2.0), 4.0 * C_SQUARED, 1e-13) == pytest.approx(
            2.0 / (math.e - 1.0), rel=1e-12
        )

    def test_lifshitz_tail_leading_order(self):
        # N - lam * w = lam * w^2 / (1 - w): the correction enters at w^2
        lam = 1.0
        for energy in (0.01, 0.0025):
            w = math.exp(-C * lam / math.sqrt(energy))
            n = ids_limit(ModelParams(lam), energy)
            assert abs(n - lam * w) <= 1.01 * lam * w * w + 5e-324
        # at E = 0.0025 the correction underflows entirely: agreement is exact
        w = math.exp(-C / math.sqrt(0.0025))
        assert ids_limit(ModelParams(1.0), 0.0025) == w

    def test_log_form_first_order_deviation(self):
        # -sqrt(E) ln(N / lam) = C lam + sqrt(E) ln(1 - w): first order in w
        lam = 1.0
        for energy in (0.01, 0.0025):
            n = ids_limit(ModelParams(lam), energy)
            w = math.exp(-C * lam / math.sqrt(energy))
            dev = abs(-math.sqrt(energy) * math.log(n / lam) - C * lam)
            assert dev <= 2.0 * math.sqrt(energy) * w + 1e-15

    def test_shape_properties(self):
        params = ModelParams(0.8)
        grid = np.geomspace(1e-3, 1e3, 120)
        vals = [ids_limit(params, e) for e in grid]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
        assert ids_limit(params, 1e-8) < 1e-300
        assert ids_limit(params, 1e8) > 1e3

    def test_free_limit_trend(self):
        target = math.sqrt(2.0) / math.pi
        errs = [abs(ids_limit(ModelParams(lam), 1.0) - target) for lam in (1e-2, 1e-3, 1e-4)]
        assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(10.0, rel=0.05)
        assert errs[-1] < 1e-3

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ids_limit(ModelParams(1.0), -1.0)
        with pytest.raises(DomainError):
            ids_series(ModelParams(1.0), 0.0)


class TestIdsFree:
    def test_values(self):
        assert ids_free(math.pi**2 / 2.0) == pytest.approx(1.0, rel=1e-15)
        assert ids_free(0.5) == pytest.approx(1.0 / math.pi, rel=1e-15)

    def test_non_positive_energy_is_a_domain_error(self):
        for energy in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                ids_free(energy)

    @given(energy=st.floats(1e-6, 1e6), lam=st.floats(0.05, 20.0))
    @settings(max_examples=80, deadline=None)
    def test_disorder_only_lowers_the_ids(self, energy, lam):
        assert ids_limit(ModelParams(lam), energy) < ids_free(energy)


class TestDos:
    def test_matches_finite_difference(self):
        params = ModelParams(1.0)
        for energy in np.geomspace(0.1, 10.0, 12):
            h = 1e-5 * energy
            fd = (ids_limit(params, energy + h) - ids_limit(params, energy - h)) / (2.0 * h)
            assert dos_limit(params, energy) == pytest.approx(fd, rel=1e-6)

    def test_symbolic_chain_rule_value(self):
        # dN/dE at E = C^2, lam = 1: differentiating lam w(u)/(1-w(u)) at u = 1
        # with w = exp(-1/sqrt(u)), u = E/C^2 gives e^{-1}/(2 C^2 (1-e^{-1})^2)
        expect = 0.5 * math.exp(-1.0) / (C_SQUARED * (1.0 - math.exp(-1.0)) ** 2)
        assert dos_limit(ModelParams(1.0), C_SQUARED) == pytest.approx(expect, rel=1e-13)

    def test_vanishes_at_the_edge(self):
        assert dos_limit(ModelParams(1.0), 1e-6) == 0.0


class TestFiniteAmplitudeBound:
    def test_recovers_ids_limit_at_huge_amplitude(self):
        params = ModelParams(1.0)
        bound = ids_finite_amplitude_bound(params, 1e8, 1.0)
        assert bound == pytest.approx(ids_limit(params, 1.0), rel=1e-6)

    def test_strict_sandwich(self):
        params = ModelParams(1.0)
        assert ids_limit(params, 1.0) < ids_finite_amplitude_bound(params, 10.0, 1.0)
        assert ids_limit(params, 1.0) < ids_free(1.0)

    def test_monotone_in_amplitude(self):
        params = ModelParams(1.0)
        vals = [ids_finite_amplitude_bound(params, a, 0.05) for a in (2.0, 5.0, 50.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_window_enforced(self):
        limit = finite_amplitude_threshold(1.0)
        assert limit == pytest.approx(math.pi**2 / 32.0, rel=1e-15)
        with pytest.raises(DomainError, match="pi\\^2"):
            ids_finite_amplitude_bound(ModelParams(1.0), 1.0, limit * 1.01)


class TestModelParams:
    @pytest.mark.parametrize("intensity", [0.0, -1.0, math.nan, math.inf])
    def test_intensity_must_be_positive_and_finite(self, intensity):
        with pytest.raises(ValueError):
            ModelParams(intensity)
