"""Per-step array kernels write into reused work arrays.

The results must equal the allocating expressions bit for bit, and one
Newton step must not allocate a table-sized temporary.
"""

import tracemalloc

import numpy as np
import pytest

from bec1d import (
    C,
    build_level_table,
    density_finite,
    hierarchical_critical_density,
    kernel_finite,
    pressure_finite,
    sample_poisson_partition,
    solve_mu_finite,
)
from bec1d import hierarchical, thermodynamics
from bec1d.numerics import EXP_CUTOFF, _bose_occupations
from test_bose_forms import POINTS
from util import level_lengths


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def traced_peak_rise(step):
    """Bytes by which one call of step() raises tracemalloc's traced peak."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestBoseOccupations:
    X = np.concatenate([
        np.geomspace(1e-300, 800.0, 4001), POINTS, [709.7, 709.8, 745.0, 5e-324],
        [EXP_CUTOFF, np.nextafter(EXP_CUTOFF, np.inf), EXP_CUTOFF + 1e-9, 709.78, np.nan, np.inf],
    ])

    def test_out_forms_equal_the_allocating_form_bit_for_bit(self):
        # the allocating form is the one before the flush was left to overflow: clip to
        # EXP_CUTOFF, then zero past it
        with np.errstate(over="ignore"):
            flat = 1.0 / np.expm1(np.minimum(self.X, EXP_CUTOFF))
        expected = np.where(self.X > EXP_CUTOFF, 0.0, flat)
        allocated = _bose_occupations(self.X)
        separate = np.full_like(self.X, -1.0)
        assert _bose_occupations(self.X, out=separate) is separate
        in_place = self.X.copy()
        assert _bose_occupations(in_place, out=in_place) is in_place
        for result in (allocated, separate, in_place):
            np.testing.assert_array_equal(bits(result), bits(expected))
        # EXP_CUTOFF and beyond flush to 0, NaN stays NaN
        assert not allocated[-6:-3].any() and np.isnan(allocated[-2]) and allocated[-1] == 0.0

    def test_a_scalar_gives_a_zero_dimensional_array(self):
        assert _bose_occupations(np.float64(2.0)).shape == ()
        assert _bose_occupations(np.float64(2.0)) == 1.0 / np.expm1(2.0)


class TestFiniteKernelsBitIdentical:
    PART = sample_poisson_partition(1.0, 2000.0, 5)

    @pytest.mark.parametrize("beta", [0.25, 1.0])
    def test_table_and_observables_equal_the_allocating_expressions(self, beta):
        table = build_level_table(self.PART, beta)
        lengths = level_lengths(table)
        modes = np.rint(lengths * np.sqrt(table.energies) / C)
        np.testing.assert_array_equal(bits(table.energies), bits((C * modes / lengths) ** 2))
        mu = solve_mu_finite(table, 0.3)
        x = beta * (table.energies - mu)
        assert density_finite(table, mu) == (
            float(_bose_occupations(x).sum()) / table.total_length)
        logs = np.where(x > np.log(2.0), np.log1p(-np.exp(-x)), np.log(-np.expm1(-x)))
        assert pressure_finite(table, mu) == (
            -float(logs.sum()) / (beta * table.total_length))
        for r in (0.0, 2.5, 1e9):
            keep = lengths > r
            energies, lens = table.energies[keep], lengths[keep]
            occ = _bose_occupations(beta * (energies - mu))
            k = np.sqrt(2.0 * energies)
            weights = np.cos(k * r) * (1.0 - r / lens) + np.sin(k * r) / (k * lens)
            assert kernel_finite(table, mu, r) == (
                float((occ * weights).sum()) / table.total_length)


class TestNoTableSizedTemporaries:
    def test_one_type2_newton_step(self, monkeypatch):
        captured = {}

        def capture(density, target, gap, rtol, **_):
            captured["density"], captured["gap"] = density, gap
            return 1.0

        monkeypatch.setattr(hierarchical, "_log_newton", capture)
        rho = 2.0 * hierarchical_critical_density(1.0, 1.0)
        hierarchical.solve_type2_coefficient(1.0, 1.0, rho)
        step = captured["density"]
        size = 100_000 * 8
        assert traced_peak_rise(lambda: step(captured["gap"])) < size

    def test_one_finite_mu_newton_step(self):
        beta = 0.25
        table = build_level_table(sample_poisson_partition(1.0, 6e4, 3), beta)
        assert table.energies.size >= 200_000
        low = np.count_nonzero(beta * (table.energies - table.ground_energy)
                               < thermodynamics._SPLIT_EXPONENT)
        step = thermodynamics._table_density(table)
        mu = table.ground_energy - 1.0 / beta
        assert traced_peak_rise(lambda: step(mu)) < low * 8

    def test_finite_mu_setup_holds_no_level_sized_float_temporary(self):
        beta = 0.25
        table = build_level_table(sample_poisson_partition(1.0, 6e4, 3), beta)
        levels = table.energies.size
        high = np.count_nonzero(table.energies >= table.ground_energy
                                + thermodynamics._SPLIT_EXPONENT / beta)
        assert 0 < high < levels
        # the two compressed parts, the power work array over the high part and a bool mask
        bound = levels * 8 + high * 8 + levels
        assert traced_peak_rise(lambda: thermodynamics._table_density(table)) < bound

    def test_a_kernel_keeping_few_intervals_holds_no_interval_sized_array(self):
        # at r = 10 three intervals of 50k are kept: the intervals longer than r and their
        # mode blocks are found by binary search, without a mask or copy per interval
        beta = 0.25
        table = build_level_table(sample_poisson_partition(1.0, 6e4, 3), beta)
        mu = solve_mu_finite(table, 0.5)
        assert 0 < np.count_nonzero(table.lengths > 10.0) < 10 < table.lengths.size // 1000
        kernel_finite(table, mu, 10.0)
        assert traced_peak_rise(lambda: kernel_finite(table, mu, 10.0)) < table.lengths.size

    def test_small_r_kernel_holds_no_level_sized_float_array(self):
        # at r = 1 most levels are kept, so they pass in several blocks
        beta = 0.25
        table = build_level_table(sample_poisson_partition(1.0, 6e4, 3), beta)
        mu = solve_mu_finite(table, 0.5)
        lengths = level_lengths(table)
        keep = lengths > 1.0
        assert np.count_nonzero(keep) > 4 * thermodynamics._MOMENT_BLOCK
        value = kernel_finite(table, mu, 1.0)
        assert traced_peak_rise(lambda: kernel_finite(table, mu, 1.0)) < table.energies.size * 8
        energies, lens = table.energies[keep], lengths[keep]
        k = np.sqrt(2.0 * energies)
        weights = np.cos(k) * (1.0 - 1.0 / lens) + np.sin(k) / (k * lens)
        direct = float((_bose_occupations(beta * (energies - mu)) * weights).sum())
        assert value == pytest.approx(direct / table.total_length, rel=1e-12)
