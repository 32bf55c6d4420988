"""Property tests of the finite-volume thermodynamics over lam in [1e-3, 1e2], beta in [1e-3, 1e3].

Each example samples one Poisson partition on a box short enough that its
level table stays below 2e5 levels, and places mu below the spectral bottom
E0 at a gap drawn log-uniformly between 30/beta and a small fraction of E0.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bec1d import (
    C,
    build_level_table,
    density_finite,
    kernel_finite,
    pressure_finite,
    sample_poisson_partition,
    solve_mu_finite,
)
from bec1d.numerics import _bose_occupations
from bec1d.spectrum import TABLE_EXPONENT
from bec1d.thermodynamics import _MU_TOLERANCE, _table_density

MAX_LEVELS = 200_000


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


intensities = log_uniform(1e-3, 1e2)
betas = log_uniform(1e-3, 1e3)
seeds = st.integers(0, 2**31 - 1)
fractions = st.floats(0.0, 1.0)


def at_corners(**fixed):
    """One explicit example at each corner of the (lam, beta) square."""

    def wrap(test):
        for intensity in (1e-3, 1e2):
            for beta in (1e-3, 1e3):
                test = example(intensity=intensity, beta=beta, seed=1, **fixed)(test)
        return test

    return wrap


def box(intensity: float, beta: float, seed: int):
    """A Poisson partition whose table holds about 1e5 levels or fewer.

    A table holds about L sqrt(E0 + TABLE_EXPONENT / beta) / C levels; E0 stays
    below (C intensity)^2 unless the largest interval is shorter than the mean
    one, and the box budgets two more levels per expected interval as margin.
    """
    cutoff = (C * intensity) ** 2 + TABLE_EXPONENT / beta
    per_length = math.sqrt(cutoff) / C + 2.0 * intensity
    length = min(2000.0, 1e5 / per_length)
    return sample_poisson_partition(intensity, length, seed)


def gap_below_ground(beta: float, ground: float, fraction: float, smallest: float) -> float:
    """ground - mu, log-uniform from 30 / beta (fraction 0) down to `smallest` (fraction 1)."""
    top = 30.0 / beta
    low = min(smallest, top)
    return math.exp(math.log(top) + fraction * (math.log(low) - math.log(top)))


@given(intensity=intensities, beta=betas, seed=seeds, fraction=fractions)
@settings(max_examples=40)
@at_corners(fraction=1.0)
def test_split_sums_equal_direct_table_sums(intensity, beta, seed, fraction):
    table = build_level_table(box(intensity, beta, seed), beta)
    assert table.energies.size <= MAX_LEVELS
    ground = table.ground_energy
    mu = ground - gap_below_ground(beta, ground, fraction, 1e-9 * ground)
    occ = _bose_occupations(beta * (table.energies - mu))
    direct = float(occ.sum()) / table.total_length
    direct_slope = beta * float(occ @ (occ + 1.0)) / table.total_length
    density, slope = _table_density(table)(mu)
    assert density == pytest.approx(direct, rel=1e-13, abs=0.0)
    assert slope == pytest.approx(direct_slope, rel=1e-13, abs=0.0)


@given(intensity=intensities, beta=betas, seed=seeds, fraction=fractions)
@settings(max_examples=30)
@at_corners(fraction=1.0)
def test_solve_mu_finite_round_trips_under_the_sign_certificate(
    intensity, beta, seed, fraction
):
    table = build_level_table(box(intensity, beta, seed), beta)
    ground = table.ground_energy
    # at least 100 stopping widths below ground, so mu + tol stays below it
    target = ground - gap_below_ground(beta, ground, fraction, 1e-10 * max(1.0, ground))
    rho = density_finite(table, target)
    mu = solve_mu_finite(table, rho)
    tol = _MU_TOLERANCE * max(1.0, abs(mu))
    assert abs(mu - target) <= tol
    assert density_finite(table, mu - tol) < rho <= density_finite(table, mu + tol)


@given(intensity=intensities, beta=betas, seed=seeds, fractions=st.tuples(fractions, fractions))
@settings(max_examples=30)
@at_corners(fractions=(0.0, 1.0))
def test_density_finite_is_monotone_in_mu(intensity, beta, seed, fractions):
    table = build_level_table(box(intensity, beta, seed), beta)
    ground = table.ground_energy
    mus = sorted(ground - gap_below_ground(beta, ground, f, 1e-9 * ground) for f in fractions)
    assert density_finite(table, mus[0]) <= density_finite(table, mus[1])


@given(intensity=intensities, beta=betas, seed=seeds, fraction=fractions)
@settings(max_examples=30)
@at_corners(fraction=1.0)
def test_density_finite_is_the_mu_derivative_of_pressure_finite(intensity, beta, seed, fraction):
    # rho = dp/dmu per realization, by central differences on one table. The step is
    # 1e-4 of the shorter scale, ground - mu or 1/beta, so truncation costs ~3e-9 of
    # rho; the denominator is the float step actually taken. Tolerance as TestCriterion04.
    table = build_level_table(box(intensity, beta, seed), beta)
    ground = table.ground_energy
    gap = gap_below_ground(beta, ground, fraction, 1e-9 * ground)
    mu = ground - gap
    h = 1e-4 * min(gap, 1.0 / beta)
    lo, hi = mu - h, mu + h
    slope = (pressure_finite(table, hi) - pressure_finite(table, lo)) / (hi - lo)
    assert slope == pytest.approx(density_finite(table, mu), rel=1e-6, abs=0.0)


@given(
    intensity=intensities,
    beta=betas,
    seed=seeds,
    fraction=fractions,
    reach=st.floats(0.0, 1.5),
)
@settings(max_examples=30)
@at_corners(fraction=1.0, reach=0.5)
def test_kernel_finite_is_bounded_by_its_value_at_coincidence(
    intensity, beta, seed, fraction, reach
):
    part = box(intensity, beta, seed)
    table = build_level_table(part, beta)
    ground = table.ground_energy
    mu = ground - gap_below_ground(beta, ground, fraction, 1e-9 * ground)
    at_zero = kernel_finite(table, mu, 0.0)
    assert at_zero == density_finite(table, mu)
    r = reach * float(np.max(part.lengths))
    assert abs(kernel_finite(table, mu, r)) <= at_zero * (1.0 + 1e-12)
