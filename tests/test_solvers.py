"""Bracketed Newton solvers against the reference bisections, their cost and their failures."""

import math

import numpy as np
import pytest

import bisection_reference as ref
from bec1d import (
    C,
    ConvergenceError,
    ModelParams,
    build_layout,
    build_level_table,
    critical_density,
    density_finite,
    density_limit,
    hierarchical_critical_density,
    hierarchical_density,
    sample_poisson_partition,
    solve_mu_finite,
    solve_mu_hierarchical,
    solve_mu_limit,
    solve_type2_coefficient,
)
from bec1d import numerics, thermodynamics
from bec1d.numerics import _log_newton
from util import partition

#: the limiting critical densities of perfbench's (lambda, beta) grid, rounded down
RHO_C = {
    (0.5, 0.5): 1.9564, (0.5, 1.0): 0.86016, (0.5, 2.0): 0.35848,
    (1.0, 0.25): 1.7203, (1.0, 0.5): 0.71696, (1.0, 1.0): 0.27703, (1.0, 2.0): 0.096210,
    (2.0, 0.5): 0.19242, (2.0, 1.0): 0.057531, (2.0, 2.0): 0.013966,
}

PARAMS = ModelParams(1.0)
#: table passes allowed per finite solve; the bisection took 42-52
MAX_PASSES = 12


def mu_tol(mu: float, rtol: float = ref.MU_TOLERANCE) -> float:
    return rtol * max(1.0, abs(mu))


@pytest.fixture
def table_passes(monkeypatch):
    """Counts the level-table passes, i.e. calls of the per-step occupation helper."""
    calls = {"n": 0}
    real = thermodynamics._gap_occupations

    def counted(gaps, v, out):
        calls["n"] += 1
        return real(gaps, v, out)

    monkeypatch.setattr(thermodynamics, "_gap_occupations", counted)
    return calls


class TestFiniteSolver:
    @pytest.mark.parametrize("beta", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("fraction", [0.3, 0.9, 3.0])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_bisection_with_sign_certificate(self, beta, fraction, seed, table_passes):
        part = sample_poisson_partition(1.0, 1000.0, seed)
        table = build_level_table(part, beta)
        rho = fraction * critical_density(PARAMS, beta)
        table_passes["n"] = 0
        mu = solve_mu_finite(table, rho)
        passes = table_passes["n"]
        tol = mu_tol(mu)
        assert abs(mu - ref.finite_mu(part, beta, rho)) <= tol
        assert density_finite(table, mu - tol) < rho <= density_finite(table, mu + tol)
        assert passes <= MAX_PASSES

    def test_single_level_closed_form(self):
        # one interval of length pi at beta -> infinity holds all particles in
        # its ground level: rho * pi = 1 / expm1(beta (E_1 - mu))
        part = partition([math.pi])
        beta, rho = 50.0, 2.0
        mu = solve_mu_finite(build_level_table(part, beta), rho)
        expected = 0.5 - math.log1p(1.0 / (rho * math.pi)) / beta
        assert mu == pytest.approx(expected, abs=1e-12)

    def test_root_closer_to_ground_than_representable_raises(self):
        part = partition([1.0])
        ground = C * C
        with pytest.raises(ConvergenceError) as info:
            solve_mu_finite(build_level_table(part, 1.0), 1e16)
        lo, hi = info.value.bracket
        assert lo < hi <= ground


@pytest.fixture
def recorded_steps(monkeypatch):
    """Every (mu, density) a finite solve evaluates, in order; cleared by the caller."""
    steps = []
    real = thermodynamics._table_density

    def recording(table):
        density = real(table)

        def step(mu):
            n, slope = density(mu)
            steps.append((mu, n))
            return n, slope

        return step

    monkeypatch.setattr(thermodynamics, "_table_density", recording)
    return steps


def stopping_bracket(steps, rho, ground):
    """The bracket a solve stopped on, the highest mu it found below rho and the lowest at
    or above it, widened by 16 ulp of the gap ground - mu: the solve takes its last step
    in ln(ground - mu), so a solved mu carries a few ulp of the gap (up to 8 seen)."""
    lo = max(mu for mu, n in steps if n < rho)
    hi = min(mu for mu, n in steps if n >= rho)
    return lo - 16.0 * math.ulp(ground - lo), hi + 16.0 * math.ulp(ground - hi)


class TestWarmStart:
    """Newton started from the limit mu, as the CLI's --rho runners start it."""

    @pytest.mark.parametrize("box", [2000.0, 2e4])
    def test_lands_in_the_cold_bracket_in_fewer_passes(self, box, recorded_steps):
        cold_passes, warm_passes = [], []
        for (lam, beta), rho_c in RHO_C.items():
            for seed in (1, 2):
                table = build_level_table(sample_poisson_partition(lam, box, seed), beta)
                for fraction in (0.3, 0.6, 0.9):
                    rho = fraction * rho_c
                    recorded_steps.clear()
                    solve_mu_finite(table, rho)
                    lo, hi = stopping_bracket(recorded_steps, rho, table.ground_energy)
                    cold_passes.append(len(recorded_steps))
                    recorded_steps.clear()
                    warm = solve_mu_finite(table, rho,
                                           start=solve_mu_limit(ModelParams(lam), beta, rho))
                    warm_passes.append(len(recorded_steps))
                    assert lo <= warm <= hi
        assert np.mean(warm_passes) < np.mean(cold_passes)
        assert max(warm_passes) <= MAX_PASSES

    @pytest.mark.parametrize("start", ["ground", "above", "inf", "nan", "next_below",
                                       "far_below", "-1e300"])
    def test_a_start_at_or_above_ground_or_far_off_converges(self, start, recorded_steps):
        beta, rho = 1.0, 0.5 * RHO_C[(1.0, 1.0)]
        table = build_level_table(sample_poisson_partition(1.0, 2000.0, 1), beta)
        ground = table.ground_energy
        cold = solve_mu_finite(table, rho)
        lo, hi = stopping_bracket(recorded_steps, rho, ground)
        recorded_steps.clear()
        value = {"ground": ground, "above": ground + 1.0, "inf": math.inf, "nan": math.nan,
                 "next_below": math.nextafter(ground, 0.0), "far_below": ground - 1e3,
                 "-1e300": -1e300}[start]
        warm = solve_mu_finite(table, rho, start=value)
        assert lo <= warm <= hi and abs(warm - cold) <= mu_tol(cold)
        first = recorded_steps[0][0]
        if start in ("ground", "above", "inf", "nan"):
            assert first == ground - 1.0 / beta  # ignored: the cold start
        elif start == "next_below":
            floor = 4.0 * np.finfo(float).eps * ground  # of the bracket
            assert first == pytest.approx(ground - floor, rel=0.0, abs=1e-12 * floor)
        else:  # through exp(ln(ground - start))
            assert first == pytest.approx(value, rel=1e-12)


class TestLimitSolver:
    @pytest.mark.parametrize("beta", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("fraction", [0.3, 0.9])
    def test_matches_bisection_with_sign_certificate(self, beta, fraction):
        rho = fraction * critical_density(PARAMS, beta)
        mu = solve_mu_limit(PARAMS, beta, rho)
        tol = mu_tol(mu)
        assert abs(mu - ref.limit_mu(PARAMS, beta, rho)) <= tol
        assert density_limit(PARAMS, beta, mu - tol) < rho <= density_limit(PARAMS, beta, mu + tol)


class TestHierarchicalSolver:
    @pytest.mark.parametrize("kind", ["type1", "type2", "type3"])
    @pytest.mark.parametrize("box", [1e4, 1e6, 1e10])
    @pytest.mark.parametrize("fraction", [0.5, 3.0])
    def test_matches_bisection_with_sign_certificate(self, kind, box, fraction):
        beta = 1.0
        layout = build_layout(kind, box, 1.0)
        rho = fraction * hierarchical_critical_density(1.0, beta)
        mu = solve_mu_hierarchical(layout, beta, rho)
        assert abs(mu - ref.hierarchical_mu(layout, beta, rho)) <= mu_tol(mu)
        tol = mu_tol(mu, ref.HIERARCHICAL_MU_TOLERANCE)
        below = hierarchical_density(layout, beta, mu - tol)
        assert below < rho <= hierarchical_density(layout, beta, mu + tol)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("fraction", [1.5, 2.0, 3.0])
    def test_type2_coefficient_matches_bisection(self, beta, fraction):
        rho = fraction * hierarchical_critical_density(1.0, beta)
        target = rho - hierarchical_critical_density(1.0, beta)
        a = solve_type2_coefficient(1.0, beta, rho)
        tol = ref.TYPE2_TOLERANCE * max(1.0, a)
        assert abs(a - ref.type2_coefficient(1.0, beta, rho)) <= tol
        assert ref.type2_total(1.0, beta, a - tol) >= target > ref.type2_total(1.0, beta, a + tol)


class TestLogNewtonSafeguards:
    """_log_newton's exits that no physical density reaches, on synthetic densities."""

    def test_a_density_that_is_not_a_number_raises(self):
        with pytest.raises(ConvergenceError, match="not a number"):
            _log_newton(lambda x: (math.nan, 0.0), 1.0, 1.0, 1e-12)

    @pytest.mark.parametrize("gap", [1.0, 1e6])
    def test_zero_slope_steps_by_one_in_ln_g_and_still_brackets(self, gap):
        # n = 1 / g with x = -g, root at g = 1000; no slope, so no Newton step:
        # one unit steps in t = ln g until both bracket ends are finite, then midpoints
        calls = []

        def density(x):
            calls.append(-x)
            return -1.0 / x, 0.0

        x = _log_newton(density, 1e-3, gap, 1e-12)
        assert abs(x + 1000.0) <= 1e-12 * 1000.0
        first = [math.log(g) for g in calls[:4]]
        assert [b - a for a, b in zip(first, first[1:])] == pytest.approx(
            [1.0 if gap < 1000.0 else -1.0] * 3, abs=1e-12
        )

    def test_a_density_above_the_target_raises_after_the_step_limit(self):
        calls = []

        def density(x):
            calls.append(x)
            return 1.0, 0.0

        with pytest.raises(ConvergenceError, match="did not converge"):
            _log_newton(density, 0.5, 1.0, 1e-12)
        assert len(calls) == numerics._MAX_STEPS

    def test_an_unverified_lower_end_is_evaluated_before_returning(self):
        # anchor 1: the bracket's lower end g = 4 eps starts unverified. At
        # g = 1e-4 the density is below the target and the bracket is already
        # narrower than rtol, so the solver evaluates at g = 4 eps, finds it
        # above the target and returns from the verified bracket
        eps4 = 4.0 * float(np.finfo(float).eps)
        calls = []

        def density(x):
            g = 1.0 - x
            calls.append(g)
            return 1e-15 / g, 1e-15 / (g * g)

        x = _log_newton(density, 1.0, 1e-4, 1e-3, anchor=1.0)
        assert calls == pytest.approx([1e-4, eps4], rel=1e-9)
        assert 1.0 - 1e-4 <= x <= 1.0 - eps4
        assert 1.0 - x == pytest.approx(1e-15, rel=1e-3)
