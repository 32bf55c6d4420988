"""Bracketed Newton solvers against the reference bisections, their cost and their failures."""

import math

import pytest

import bisection_reference as ref
from bec1d import (
    C,
    ConvergenceError,
    ModelParams,
    PoissonParams,
    build_layout,
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
from bec1d import thermodynamics
from util import partition

PARAMS = ModelParams(1.0)
#: table passes allowed per finite solve; the bisection took 42-52
MAX_PASSES = 12


def mu_tol(mu: float, rtol: float = ref.MU_TOLERANCE) -> float:
    return rtol * max(1.0, abs(mu))


@pytest.fixture
def table_passes(monkeypatch):
    """Counts the level-table passes, i.e. calls of the array Bose helper."""
    calls = {"n": 0}
    real = thermodynamics._bose_occupations

    def counted(x, out=None):
        calls["n"] += 1
        return real(x, out=out)

    monkeypatch.setattr(thermodynamics, "_bose_occupations", counted)
    return calls


class TestFiniteSolver:
    @pytest.mark.parametrize("beta", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("fraction", [0.3, 0.9, 3.0])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_bisection_with_sign_certificate(self, beta, fraction, seed, table_passes):
        part = sample_poisson_partition(1000.0, PoissonParams(1.0, seed))
        rho = fraction * critical_density(PARAMS, beta)
        table_passes["n"] = 0
        mu = solve_mu_finite(part, beta, rho)
        passes = table_passes["n"]
        tol = mu_tol(mu)
        assert abs(mu - ref.finite_mu(part, beta, rho)) <= tol
        assert density_finite(part, beta, mu - tol) < rho <= density_finite(part, beta, mu + tol)
        assert passes <= MAX_PASSES

    def test_single_level_closed_form(self):
        # one interval of length pi at beta -> infinity holds all particles in
        # its ground level: rho * pi = 1 / expm1(beta (E_1 - mu))
        part = partition([math.pi])
        beta, rho = 50.0, 2.0
        mu = solve_mu_finite(part, beta, rho)
        expected = 0.5 - math.log1p(1.0 / (rho * math.pi)) / beta
        assert mu == pytest.approx(expected, abs=1e-12)

    def test_root_closer_to_ground_than_representable_raises(self):
        part = partition([1.0])
        ground = C * C
        with pytest.raises(ConvergenceError) as info:
            solve_mu_finite(part, 1.0, 1e16)
        lo, hi = info.value.bracket
        assert lo < hi <= ground


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
