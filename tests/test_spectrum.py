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
    DomainError,
    LevelTable,
    ModelParams,
    PoissonParams,
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
from util import partition


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
        part = partition([2.0, 3.0])
        table = build_level_table(part, 30.0)
        assert [f.name for f in dataclasses.fields(LevelTable)] == [
            "energies", "lengths", "total_length", "energy_cutoff"
        ]
        assert table.ground_energy == pytest.approx((C / 3.0) ** 2, rel=1e-15)
        # the levels (C s / L)^2 <= 30 of each interval, in order, are exactly the table's there
        levels = [(length, s) for length in (2.0, 3.0)
                  for s in range(1, 30) if (C * s / length) ** 2 <= 30.0]
        held = table.energies <= 30.0
        assert table.energies[held].tolist() == [(C * s / length) ** 2 for length, s in levels]
        assert table.lengths[held].tolist() == [length for length, _ in levels]
        wave_numbers = [math.pi * s / length for length, s in levels]
        np.testing.assert_allclose(np.sqrt(2.0 * table.energies[held]), wave_numbers, rtol=1e-15)
        assert all(
            (C * s / length) ** 2 == pytest.approx(dirichlet_eigenvalue(length, s), rel=1e-14)
            for length, s in levels
        )
        low = build_level_table(part, 10.0)
        assert low.energies[low.energies <= 10.0].tolist() == \
            table.energies[table.energies <= 10.0].tolist()

    def test_table_size_guard_raises_before_allocating(self, monkeypatch):
        # L sqrt(E) / C ~ 4.5e9 levels: 72 GB of energies and lengths
        huge = partition([1e6])
        with pytest.raises(DomainError, match="levels"):
            build_level_table(huge, 1e8)
        # a count past the int64 range (beta = 1e-300) must not wrap around the guard
        with pytest.raises(DomainError, match="levels"):
            build_level_table(partition([2.0]), 6e301)
        part = partition([2.0, 3.0])
        size = build_level_table(part, 30.0).energies.size
        monkeypatch.setattr(spectrum, "MAX_LEVELS", size)
        assert build_level_table(part, 30.0).energies.size == size
        monkeypatch.setattr(spectrum, "MAX_LEVELS", size - 1)
        with pytest.raises(DomainError):
            build_level_table(part, 30.0)


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
        part = sample_poisson_partition(200.0, PoissonParams(1.0, seed=5))
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
            for energy in (0.05, 0.5, 1.0, 7.0, 40.0):
                series = ids_series(params, energy, tolerance=1e-13)
                assert ids_limit(params, energy) == pytest.approx(series, rel=1e-12)

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
