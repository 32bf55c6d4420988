"""Space-averaged kernels, ODLRO, free gas, and decay-rate diagnostics."""

import math

import numpy as np
import pytest

from bec1d import correlations, numerics
from bec1d import (
    ConvergenceError,
    DomainError,
    ModelParams,
    build_level_table,
    condensate_density,
    critical_density,
    decay_rate_fit,
    density_finite,
    density_limit,
    free_kernel,
    kernel_finite,
    kernel_limit,
    kernel_with_condensate,
    odlro,
    sample_poisson_partition,
    solve_mu_limit,
)
from kernel_reference import kernel_finite_bruteforce
from util import kernel_route_bound, partition

PARAMS = ModelParams(1.0)


def free_kernel_gaussian_sum(beta, mu, r, terms=1200):
    """Heat-kernel series oracle: sum_s e^{beta mu s} (2 pi beta s)^{-1/2} e^{-r^2/(2 beta s)}.

    Every term is positive, so numpy's pairwise sum is exact to ~20 ulp of the total.
    """
    s = np.arange(1.0, terms + 1.0)
    values = np.exp(beta * mu * s - r * r / (2.0 * beta * s)) / np.sqrt(2.0 * np.pi * beta * s)
    return float(np.sum(values))


class TestKernelFinite:
    @pytest.mark.parametrize("box, beta", [(400.0, 1.0), (2000.0, 0.5), (6e4, 0.25)])
    def test_coincident_points_reproduce_density(self, box, beta):
        # every weight is exactly 1 at r = 0, so the value is density_finite's bit for bit
        table = build_level_table(sample_poisson_partition(1.0, box, 21), beta)
        for gap in (1e-3, 0.1, 2.0):
            mu = table.ground_energy - gap / beta
            assert kernel_finite(table, mu, 0.0) == density_finite(table, mu)

    def test_separation_beyond_every_interval(self):
        part = partition([2.0, 3.0, 1.0])
        assert kernel_finite(build_level_table(part, 1.0), -0.5, 3.5) == 0.0

    def test_symmetry_in_the_separation(self):
        part = partition([2.0, 3.0, 1.0])
        table = build_level_table(part, 1.0)
        assert kernel_finite(table, -0.5, 1.2) == kernel_finite(table, -0.5, -1.2)

    @pytest.mark.parametrize("r", [0.4, 1.1, 2.7])
    def test_bruteforce_equivalence_on_three_intervals(self, r):
        # direct eigenfunction double-integral evaluation, no reduction applied
        part = partition([2.0, 3.5, 1.2])
        beta, mu = 1.0, -0.4
        brute = kernel_finite_bruteforce(part, beta, mu, r)
        assert kernel_finite(build_level_table(part, beta), mu, r) == pytest.approx(brute, abs=1e-8)

    def test_domain_error_above_bottom(self):
        part = partition([2.0])
        with pytest.raises(DomainError):
            kernel_finite(build_level_table(part, 1.0), 5.0, 0.5)


class TestKernelLimit:
    def test_coincident_points_reproduce_density(self):
        assert kernel_limit(PARAMS, 1.0, -0.5, 0.0) == pytest.approx(
            density_limit(PARAMS, 1.0, -0.5), rel=1e-12
        )

    def test_dual_route_agreement(self):
        for lam in (0.7, 1.0, 2.0):
            params = ModelParams(lam)
            for beta in (0.5, 1.0):
                for mu in (-0.5, -1.0):
                    for r in (0.5, 2.0, 5.0, 10.0):
                        a = kernel_limit(params, beta, mu, r, method="panels")
                        b = kernel_limit(params, beta, mu, r, method="series")
                        assert a == pytest.approx(b, rel=1e-7), (lam, beta, mu, r)

    def test_disorder_average_oracle(self):
        # 60-seed Monte Carlo check at moderate separations
        lam, beta, mu, box = 1.0, 1.0, -0.5, 2000.0
        for r, tol in [(1.0, 0.02), (2.0, 0.03)]:
            vals = [
                kernel_finite(
                    build_level_table(sample_poisson_partition(lam, box, (31, t)), beta), mu, r
                )
                for t in range(60)
            ]
            assert np.mean(vals) == pytest.approx(kernel_limit(PARAMS, beta, mu, r), rel=tol)

    def test_routes_agree_where_one_rule_spans_many_oscillations(self):
        # one rule over the whole window of mode 49 returned -9.8e-9 against
        # -6.7e-12 with a 3e-17 estimate, so the series missed by 4.5e-10
        lam, beta, mu, r = 0.5, 0.5, -1.2483893662276093, 5.0
        params = ModelParams(lam)
        panels = kernel_limit(params, beta, mu, r, method="panels")
        series = kernel_limit(params, beta, mu, r, method="series")
        allowed = (kernel_route_bound(lam, beta, mu, r, "panels")
                   + kernel_route_bound(lam, beta, mu, r, "series"))
        assert abs(panels - series) <= allowed

    def test_vanishes_at_large_separation(self):
        assert abs(kernel_limit(PARAMS, 1.0, -0.5, 40.0)) < 1e-17

    def test_bounded_by_density(self):
        rho = density_limit(PARAMS, 1.0, -0.5)
        for r in (0.3, 1.0, 2.5, 7.0):
            assert abs(kernel_limit(PARAMS, 1.0, -0.5, r)) <= rho

    def test_accepts_zero_mu_but_not_positive_mu(self):
        assert math.isfinite(kernel_limit(PARAMS, 1.0, 0.0, 1.0))
        with pytest.raises(DomainError):
            kernel_limit(PARAMS, 1.0, 1e-12, 1.0)

    def test_coincident_points_at_zero_mu_give_the_critical_density(self):
        assert kernel_limit(PARAMS, 1.0, 0.0, 0.0) == critical_density(PARAMS, 1.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_routes_agree_at_zero_mu(self, lam, beta):
        params = ModelParams(lam)
        for r in (1.0, 5.0, 20.0):
            panels = kernel_limit(params, beta, 0.0, r, method="panels")
            series = kernel_limit(params, beta, 0.0, r, method="series")
            allowed = (kernel_route_bound(lam, beta, 0.0, r, "panels")
                       + kernel_route_bound(lam, beta, 0.0, r, "series"))
            assert abs(panels - series) <= allowed, r

    @pytest.mark.parametrize("method", ["panels", "series"])
    def test_no_quadrature_once_the_prefactor_underflows(self, monkeypatch, method):
        # e^{-1e4} is 0.0; cutting the panels or terms up to r = 1e4 never finished
        def no_quadrature(*args):
            raise AssertionError("a quadrature ran")

        monkeypatch.setattr(correlations, "_gauss_kronrod", no_quadrature)
        assert kernel_limit(ModelParams(1.0), 1.0, -1.0, 1e4, method=method) == 0.0

    @pytest.mark.parametrize("r", [0.0, 1.0])
    def test_unknown_method_raises(self, r):
        with pytest.raises(ValueError, match="unknown method"):
            kernel_limit(PARAMS, 1.0, -0.5, r, method="trapezoid")


class TestSeriesErrorCheck:
    """The series route raises when its summed error estimates exceed its tolerance."""

    def test_formerly_unresolved_point_agrees_with_panels(self):
        # quad's series raised here after ~2.7 s; the batched rule resolves it
        # (3.6e-17 against the panels' -7.2e-16, both far inside the bounds)
        lam, beta = 0.1, 1e-3
        mu = -1.0 / beta
        params = ModelParams(lam)
        series = kernel_limit(params, beta, mu, 5.0, method="series")
        panels = kernel_limit(params, beta, mu, 5.0, method="panels")
        allowed = (kernel_route_bound(lam, beta, mu, 5.0, "panels")
                   + kernel_route_bound(lam, beta, mu, 5.0, "series"))
        assert abs(series - panels) <= allowed

    def test_unresolved_first_chunk_raises(self, monkeypatch):
        # one round cannot resolve the first chunk's terms here; the chunk
        # holds 118 terms, as many as fit in _SERIES_PIECES pieces
        calls = []

        def counted(*args):
            calls.append(args[5])  # the owner count, one per term
            return numerics._gauss_kronrod(*args)

        monkeypatch.setattr(numerics, "_GK_MAX_ROUNDS", 1)
        monkeypatch.setattr(correlations, "_gauss_kronrod", counted)
        beta = 1e-3
        with pytest.raises(ConvergenceError, match="unresolved"):
            kernel_limit(ModelParams(0.1), beta, -1.0 / beta, 5.0, method="series")
        assert calls == [118]

    def test_terms_that_never_fall_exhaust_the_cap(self, monkeypatch):
        # unit terms with zero estimates: no term is ever small against the sum and no
        # estimate exceeds the tolerance, so the series runs to its cap and gives up
        def unit_terms(integrand, lo, hi, owner, budget, n_owners, epsrel):
            return np.ones(n_owners), np.zeros(n_owners), 0

        monkeypatch.setattr(correlations, "_gauss_kronrod", unit_terms)
        with pytest.raises(ConvergenceError, match="did not converge"):
            kernel_limit(PARAMS, 1.0, -0.5, 5.0, method="series")

    def test_summed_estimate_beyond_tolerance_raises(self, monkeypatch):
        # estimates inflated a billionfold exceed 5e-13 of the density at once
        calls = []

        def inflated(*args):
            value, error, neval = numerics._gauss_kronrod(*args)
            calls.append(args[5])
            return value, 1e9 * error, neval

        monkeypatch.setattr(correlations, "_gauss_kronrod", inflated)
        with pytest.raises(ConvergenceError, match="error estimate"):
            kernel_limit(PARAMS, 1.0, -0.5, 5.0, method="series")
        assert calls == [correlations._SERIES_CHUNK]

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_resolved_series_does_not_raise(self, lam, beta):
        for beta_mu in (-0.1, -0.5, -1.0):
            for r in (1.0, 5.0, 20.0):
                assert math.isfinite(
                    kernel_limit(ModelParams(lam), beta, beta_mu / beta, r, method="series")
                )


class TestCondensedKernel:
    def test_coincident_points_give_total_density(self):
        rho_c = critical_density(PARAMS, 1.0)
        for rho in (0.5 * rho_c, rho_c + 0.5):
            assert kernel_with_condensate(PARAMS, 1.0, rho, 0.0) == pytest.approx(rho, rel=1e-12)

    def test_odlro_plateau(self):
        rho_c = critical_density(PARAMS, 1.0)
        rho = rho_c + 0.5
        val = kernel_with_condensate(PARAMS, 1.0, rho, 50.0)
        assert val == pytest.approx(0.5, rel=1e-2)
        assert abs(kernel_with_condensate(PARAMS, 1.0, rho_c + 0.25, 100.0) - 0.25) < 1e-3

    def test_condensed_is_the_condensate_plus_the_critical_kernel(self):
        rho = critical_density(PARAMS, 1.0) + 0.5
        rho_0 = condensate_density(PARAMS, 1.0, rho).rho_0
        for r in (0.0, 2.0, 50.0):
            assert kernel_with_condensate(PARAMS, 1.0, rho, r) == (
                rho_0 + kernel_limit(PARAMS, 1.0, 0.0, r))

    def test_subcritical_matches_solved_mu(self):
        rho_c = critical_density(PARAMS, 1.0)
        rho = 0.5 * rho_c
        mu = solve_mu_limit(PARAMS, 1.0, rho)
        assert kernel_with_condensate(PARAMS, 1.0, rho, 2.0) == pytest.approx(
            kernel_limit(PARAMS, 1.0, mu, 2.0), rel=1e-10
        )

    def test_odlro_values(self):
        rho_c = critical_density(PARAMS, 1.0)
        assert odlro(PARAMS, 1.0, 0.5 * rho_c) == 0.0
        assert odlro(PARAMS, 1.0, rho_c + 0.25) == pytest.approx(0.25, rel=1e-12)


class TestFreeKernel:
    def test_density_against_gaussian_sum(self):
        # the heat-kernel series fixes the exponent convention numerically
        for beta, mu in [(1.0, -0.5), (2.0, -0.2), (0.5, -1.0)]:
            assert free_kernel(beta, mu, 0.0) == pytest.approx(
                free_kernel_gaussian_sum(beta, mu, 0.0), rel=1e-8
            )

    @pytest.mark.parametrize("r", [0.5, 2.0, 8.0])
    def test_kernel_against_gaussian_sum(self, r):
        beta, mu = 1.0, -0.5
        oracle = free_kernel_gaussian_sum(beta, mu, r)
        assert free_kernel(beta, mu, r) == pytest.approx(oracle, rel=1e-8)
        # the competing exponent convention e^{-r^2/(4 beta s)} is ruled out
        wrong = math.fsum(
            math.exp(beta * mu * s - r * r / (4.0 * beta * s))
            / math.sqrt(2.0 * math.pi * beta * s)
            for s in range(1, 1200)
        )
        assert abs(free_kernel(beta, mu, r) - wrong) > 0.02 * wrong

    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 4.0, 30.0, 1e3])
    @pytest.mark.parametrize("beta_mu", [-0.01, -0.1, -0.5, -1.0, -3.0, -30.0])
    def test_meets_its_tolerance_against_the_heat_kernel_series(self, beta, beta_mu):
        # the series to e^{-800} of its first term; QAWO at every r, omega = 0 at r = 0
        mu = beta_mu / beta
        terms = math.ceil(800.0 / abs(beta_mu)) + 10
        for r in (0.0, 0.1, 1.0, 5.0, 20.0, 50.0, 100.0, 200.0):
            exact = free_kernel_gaussian_sum(beta, mu, r, terms)
            assert abs(free_kernel(beta, mu, r) - exact) <= 1e-12 * abs(exact) + 1e-14

    @pytest.mark.xfail(strict=True, reason="QAWO's roundoff floor at beta <= 1e-2")
    def test_small_beta_tail_is_below_the_absolute_tolerance(self):
        # QAWO returns -7.04e-14 here, where the series gives 1.38e-28
        exact = free_kernel_gaussian_sum(1e-3, -1.0, 50.0, math.ceil(800.0 / 1e-3) + 10)
        assert abs(free_kernel(1e-3, -1.0, 50.0) - exact) <= 1e-12 * abs(exact) + 1e-14

    def test_weak_disorder_recovers_free_kernel(self):
        weak = kernel_limit(ModelParams(1e-3), 1.0, -0.5, 1.0)
        free = free_kernel(1.0, -0.5, 1.0)
        assert weak == pytest.approx(free, rel=0.01)

    def test_free_decay_rate(self):
        beta, mu = 1.0, -0.5
        rs = np.linspace(10.0, 20.0, 11)
        logs = [math.log(free_kernel(beta, mu, r)) for r in rs]
        slope = np.polyfit(rs, logs, 1)[0]
        assert slope == pytest.approx(-math.sqrt(2.0 * abs(mu)), rel=0.03)

    def test_needs_negative_mu(self):
        with pytest.raises(DomainError):
            free_kernel(1.0, 0.0, 1.0)


class TestDecayRateFit:
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_slope_equals_minus_intensity(self, lam):
        slope = decay_rate_fit(ModelParams(lam), 1.0, -0.5, (5.0, 15.0))
        assert slope == pytest.approx(-lam, rel=0.02)

    def test_pointwise_decay_bound(self):
        # disorder multiplies the free decay by e^{-lam r}; allow the fit tolerance
        lam, beta, mu = 1.0, 1.0, -0.5
        for r in np.linspace(5.0, 15.0, 6):
            k = kernel_limit(ModelParams(lam), beta, mu, float(r))
            bound = free_kernel(beta, mu, float(r)) * math.exp(-lam * r)
            assert k <= bound * 1.02

    def test_a_window_at_the_roundoff_floor_raises(self):
        # past r ~ 40 both kernels are roundoff at mu = -0.5; their ratio has no slope
        assert kernel_limit(PARAMS, 1.0, -0.5, 40.0) <= 0.0
        assert free_kernel(1.0, -0.5, 60.0) <= 0.0
        with pytest.raises(ConvergenceError, match="non-positive kernel value at r=40"):
            decay_rate_fit(PARAMS, 1.0, -0.5, (40.0, 60.0))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            decay_rate_fit(PARAMS, 1.0, -0.5, (1.0, 15.0))
        with pytest.raises(DomainError):
            decay_rate_fit(PARAMS, 1.0, 0.5, (5.0, 15.0))
