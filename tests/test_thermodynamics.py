"""Pressure, density, critical density, chemical-potential solvers, condensate."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from bec1d import (
    C,
    CondensateReport,
    DomainError,
    ModelParams,
    condensate_density,
    condensate_finite,
    critical_density,
    critical_density_bound,
    critical_density_by_parts,
    density_finite,
    density_limit,
    kernel_finite,
    level_table,
    pressure_finite,
    pressure_limit,
    sample_poisson_partition,
    solve_mu_finite,
    solve_mu_limit,
)
from bec1d import thermodynamics
from bec1d.correlations import _limit_integrand
from bec1d.numerics import EXP_CUTOFF, _bose_factor, _bose_slope
from bec1d.thermodynamics import (
    _ids_weight_q,
    _limit_density,
    _q_max,
)
from limit_quad_reference import _limit_integral
from util import partition, quad_bound

PARAMS = ModelParams(1.0)


class TestFiniteVolume:
    def test_pressure_single_interval_direct_sum(self):
        # direct high-precision summation oracle on one interval of length pi
        part = partition([math.pi])
        oracle = -math.fsum(
            math.log(-math.expm1(-(0.5 * s * s + 1.0))) for s in range(1, 40)
        ) / math.pi
        assert pressure_finite(part, 1.0, -1.0) == pytest.approx(oracle, rel=1e-13)

    def test_density_single_interval_direct_sum(self):
        part = partition([math.pi])
        oracle = math.fsum(
            1.0 / math.expm1(0.5 * s * s + 1.0) for s in range(1, 37)
        ) / math.pi
        assert density_finite(part, 1.0, -1.0) == pytest.approx(oracle, rel=1e-13)

    def test_empty_gas_limit(self):
        part = partition([2.0, 5.0, 1.0])
        assert pressure_finite(part, 1.0, -1e6) == 0.0
        assert density_finite(part, 1.0, -1e6) == 0.0

    def test_monotone_in_mu(self):
        part = partition([2.0, 5.0, 1.0])
        assert density_finite(part, 1.0, -0.3) > density_finite(part, 1.0, -0.6)

    def test_domain_error_at_spectral_bottom(self):
        part = partition([2.0])
        bottom = (C / 2.0) ** 2
        with pytest.raises(DomainError):
            pressure_finite(part, 1.0, bottom)
        with pytest.raises(DomainError):
            density_finite(part, 1.0, bottom + 0.1)


class TestLevelTable:
    PART = sample_poisson_partition(1.0, 300.0, 13)

    def test_a_covering_table_is_returned_unchanged(self):
        table = level_table(self.PART, 1.0, 0.5)
        assert level_table(table, 1.0, 0.5) is table
        assert level_table(table, 2.0) is table
        assert level_table(table, 1.0, 0.1) is table

    def test_observables_on_the_table_equal_those_on_the_partition(self):
        table = level_table(self.PART, 1.0)
        mu = solve_mu_finite(self.PART, 1.0, 0.4)
        assert solve_mu_finite(table, 1.0, 0.4) == mu
        assert density_finite(table, 1.0, mu) == density_finite(self.PART, 1.0, mu)
        assert pressure_finite(table, 1.0, mu) == pressure_finite(self.PART, 1.0, mu)
        for r in (0.0, 1.5, 7.0):
            assert kernel_finite(table, 1.0, mu, r) == kernel_finite(self.PART, 1.0, mu, r)

    def test_a_table_covers_its_own_cutoff(self):
        # here the scalar (C / L)^2 is one ulp below the table's ground level,
        # which pushed the recomputed cutoff past the table's own
        part = partition([7.8562202568770445, 1.0])
        table = level_table(part, 1.0)
        assert level_table(table, 1.0) is table
        assert solve_mu_finite(table, 1.0, 0.1) == solve_mu_finite(part, 1.0, 0.1)
        assert condensate_finite(part, 1.0, 0.1, 0.5) > 0.0

    def test_the_longest_length_is_cached_on_the_table(self):
        table = level_table(self.PART, 1.0)
        assert level_table(table, 1.0) is table
        assert vars(table)["longest_length"] == self.PART.lengths.max()

    def test_rejects_a_table_that_ends_too_low(self):
        table = level_table(self.PART, 2.0)
        with pytest.raises(ValueError, match="table ends"):
            level_table(table, 1.0)
        with pytest.raises(ValueError, match="table ends"):
            solve_mu_finite(table, 1.0, 0.4)
        with pytest.raises(ValueError, match="table ends"):
            level_table(table, 2.0, table.energy_cutoff * 2.0)

    def test_rejects_non_positive_beta(self):
        table = level_table(self.PART, 1.0)
        for beta in (0.0, -1.0, math.nan):
            for source in (self.PART, table):
                with pytest.raises(ValueError, match="beta"):
                    level_table(source, beta)


class TestLimits:
    def test_pressure_series_integral_oracle(self):
        # independent route: -(lam^2/beta) sum_s int dL e^{-lam L} ln(1 - e^{-beta((Cs/L)^2 - mu)})
        lam, beta, mu = 1.0, 1.0, -0.5
        total = 0.0
        for s in range(1, 60):
            def integrand(length):
                x = beta * ((C * s / length) ** 2 - mu)
                if x > 700.0:
                    return 0.0
                return math.exp(-lam * length) * math.log(-math.expm1(-x))
            val, _ = quad(integrand, 0.0, 90.0, limit=400, epsabs=1e-14, epsrel=1e-13)
            total += val
            if abs(val) < 1e-16:
                break
        oracle = -lam * lam / beta * total
        assert pressure_limit(PARAMS, beta, mu) == pytest.approx(oracle, rel=1e-8)

    def test_pressure_empty_gas(self):
        assert pressure_limit(PARAMS, 1.0, -1e6) == 0.0

    def test_pressure_needs_negative_mu(self):
        with pytest.raises(DomainError):
            pressure_limit(PARAMS, 1.0, 0.0)

    def test_thermodynamic_identity(self):
        for lam, beta, mu in [(1.0, 1.0, -0.5), (2.0, 0.7, -1.2)]:
            params = ModelParams(lam)
            h = 1e-4 * max(1.0, abs(mu))
            fd = (pressure_limit(params, beta, mu + h) - pressure_limit(params, beta, mu - h)) / (2 * h)
            assert fd == pytest.approx(density_limit(params, beta, mu), rel=1e-6)

    def test_density_disorder_average(self):
        lam, beta, mu, box = 1.0, 1.0, -0.5, 5000.0
        vals = [
            density_finite(sample_poisson_partition(lam, box, (41, t)), beta, mu)
            for t in range(40)
        ]
        assert np.mean(vals) == pytest.approx(density_limit(PARAMS, beta, mu), rel=0.02)

    def test_pressure_disorder_average(self):
        lam, beta, mu, box = 1.0, 1.0, -0.5, 5000.0
        vals = [
            pressure_finite(sample_poisson_partition(lam, box, (43, t)), beta, mu)
            for t in range(40)
        ]
        assert np.mean(vals) == pytest.approx(pressure_limit(PARAMS, beta, mu), rel=0.02)

    def test_density_limit_monotone_in_mu(self):
        vals = [density_limit(PARAMS, 1.0, mu) for mu in (-2.0, -1.0, -0.3, -0.05, 0.0)]
        assert all(b > a for a, b in zip(vals[:-1], vals[1:]))

    def test_density_limit_rejects_positive_mu(self):
        with pytest.raises(DomainError):
            density_limit(PARAMS, 1.0, 0.1)

    def test_self_averaging_variance_decay(self):
        lam, beta, mu = 1.0, 1.0, -0.5
        variances = []
        for box in (500.0, 2000.0, 8000.0):
            vals = [
                density_finite(
                    sample_poisson_partition(lam, box, (55, int(box), t)),
                    beta,
                    mu,
                )
                for t in range(40)
            ]
            variances.append(np.var(vals))
        assert variances[0] > variances[1] > variances[2]


class TestCriticalDensity:
    def test_finite_and_positive(self):
        value = critical_density(PARAMS, 1.0)
        assert 0.0 < value < math.inf
        assert value == pytest.approx(0.27703315144643703, rel=1e-10)

    def test_two_quadrature_routes_agree(self):
        for lam, beta in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)]:
            params = ModelParams(lam)
            assert critical_density(params, beta) == pytest.approx(
                critical_density_by_parts(params, beta), rel=1e-8
            )

    def test_equals_density_at_zero_mu(self):
        assert density_limit(PARAMS, 1.0, 0.0) == pytest.approx(
            critical_density(PARAMS, 1.0), rel=1e-12
        )

    def test_grows_as_intensity_vanishes(self):
        values = [critical_density(ModelParams(lam), 1.0) for lam in (1.0, 0.1, 0.01)]
        assert values[0] < values[1] < values[2]
        assert values[2] > 10.0 * values[0]


_TAIL_LAMBDAS = (1e-3, 1.0, 1e2)
_TAIL_BETAS = (1e-3, 1.0, 1e3)


class TestIntegrationRange:
    """The limit q-integrals end at the Bose tail, not at q^2 = EXP_CUTOFF / beta."""

    @pytest.mark.parametrize("lam", _TAIL_LAMBDAS)
    @pytest.mark.parametrize("beta", _TAIL_BETAS)
    @pytest.mark.parametrize("beta_mu", [0.0, -0.1, -1.0, -30.0])
    def test_discarded_tail_is_negligible(self, lam, beta, beta_mu):
        mu = beta_mu / beta
        q_cut, q_full = _q_max(beta, mu, lam), math.sqrt(EXP_CUTOFF / beta)
        assert q_cut <= q_full
        if q_cut == q_full:
            return
        rho = density_limit(ModelParams(lam), beta, mu)
        density_tail, _ = quad(
            lambda q: _ids_weight_q(q, lam) * _bose_factor(beta * (q * q - mu)),
            q_cut, q_full, limit=400, epsabs=0.0, epsrel=1e-6,
        )
        assert density_tail <= 1e-20 * rho

        def majorant(q):
            # |kernel integrand| at any r: e^{-t} <= 1, 0 <= 1 - u <= 1, |cos|, |sin| <= 1
            w = math.exp(-C * lam / q)
            d = -math.expm1(-C * lam / q)
            return (w / (d * d) + (1.0 + 1.0 / math.pi) / d) / (q * q) * _bose_factor(
                beta * (q * q - mu)
            )

        for q in np.linspace(q_cut, q_full, 2001):
            for r in (1.0, 5.0, 50.0):
                assert abs(_limit_integrand(q, lam, beta, mu, r)) <= majorant(q) * (1 + 1e-12)
        kernel_tail, _ = quad(majorant, q_cut, q_full, limit=400, epsabs=0.0, epsrel=1e-6)
        # the panels stop each quad at epsabs 1e-16 on this integrand
        assert kernel_tail <= 1e-19

    @pytest.mark.parametrize("lam, beta", [
        (lam, beta) for lam in _TAIL_LAMBDAS for beta in _TAIL_BETAS
    ])
    def test_by_parts_route_still_agrees(self, lam, beta):
        # by parts keeps the full range, so it checks the shortened one
        params = ModelParams(lam)
        assert critical_density(params, beta) == pytest.approx(
            critical_density_by_parts(params, beta), rel=1e-12, abs=2e-13
        )


class TestMuSolvers:
    def test_finite_round_trip(self):
        part = sample_poisson_partition(1.0, 800.0, 8)
        for rho in (0.05, 0.2, 0.6):
            mu = solve_mu_finite(part, 1.0, rho)
            assert density_finite(part, 1.0, mu) == pytest.approx(rho, rel=1e-10)

    def test_limit_round_trip_subcritical(self):
        rho = 0.5 * critical_density(PARAMS, 1.0)
        mu = solve_mu_limit(PARAMS, 1.0, rho)
        assert mu < 0
        assert density_limit(PARAMS, 1.0, mu) == pytest.approx(rho, rel=1e-10)

    def test_limit_solve_calls_quad_only_for_the_critical_density(self, monkeypatch):
        rho = 0.5 * critical_density(PARAMS, 1.0)  # cached from here on
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return quad(*args, **kwargs)

        monkeypatch.setattr(thermodynamics, "quad", counted)
        mu = solve_mu_limit(PARAMS, 1.0, rho)
        pressure_limit(PARAMS, 1.0, mu)
        critical_density_by_parts(PARAMS, 1.0)
        assert calls == []
        density_limit(PARAMS, 1.0, mu)  # the independent certificate stays on quad
        assert len(calls) == 1

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_batched_density_and_slope_equal_quad(self, lam, beta):
        # one closure over the three mu, as the Newton steps of one solve share it
        params = ModelParams(lam)
        density = _limit_density(lam, beta)
        for beta_mu in (-1.0, -0.1, -1e-4):
            mu = beta_mu / beta
            value, slope = density(mu)
            direct = density_limit(params, beta, mu)
            direct_slope = _limit_integral(
                params, beta, mu, lambda x: beta * _bose_slope(x)
            )
            assert abs(value - direct) <= quad_bound(value) + quad_bound(direct)
            assert abs(slope - direct_slope) <= quad_bound(slope) + quad_bound(direct_slope)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("deficit", [1e-4, 1e-7])
    def test_limit_round_trip_near_the_critical_density(self, lam, beta, deficit):
        # mu -> 0^-, far from the first Newton point mu = -1/beta the panels are cut for
        params = ModelParams(lam)
        rho = (1.0 - deficit) * critical_density(params, beta)
        mu = solve_mu_limit(params, beta, rho)
        tol = 1e-12 * max(1.0, abs(mu))
        assert mu < 0
        assert density_limit(params, beta, mu - tol) < rho <= density_limit(params, beta, mu + tol)

    def test_limit_condensed_pins_to_zero(self):
        rho_c = critical_density(PARAMS, 1.0)
        assert solve_mu_limit(PARAMS, 1.0, rho_c) == 0.0
        assert solve_mu_limit(PARAMS, 1.0, 2.0 * rho_c) == 0.0

    def test_subcritical_samples_cluster_near_limit_root(self):
        lam = beta = 1.0
        rho = 0.5 * critical_density(PARAMS, beta)
        mu_star = solve_mu_limit(PARAMS, beta, rho)
        mus = [
            solve_mu_finite(
                sample_poisson_partition(lam, 2000.0, (71, t)), beta, rho
            )
            for t in range(50)
        ]
        assert np.mean(mus) == pytest.approx(mu_star, rel=0.05)

    def test_invalid_targets(self):
        with pytest.raises(ValueError):
            solve_mu_limit(PARAMS, 1.0, -0.1)
        with pytest.raises(ValueError):
            solve_mu_finite(partition([1.0]), 1.0, 0.0)

    def test_nan_density_is_rejected(self):
        # NaN fails every comparison: a `rho <= 0` guard passes it on to the solver
        for solve in (solve_mu_limit, condensate_density):
            with pytest.raises(ValueError, match="rho"):
                solve(PARAMS, 1.0, math.nan)
        with pytest.raises(ValueError, match="rho"):
            solve_mu_finite(partition([1.0]), 1.0, math.nan)


class TestCondensate:
    def test_report_below_and_above(self):
        rho_c = critical_density(PARAMS, 1.0)
        low = condensate_density(PARAMS, 1.0, 0.5 * rho_c)
        assert isinstance(low, CondensateReport)
        assert low.rho_0 == 0.0
        assert low.mu_limit < 0.0
        high = condensate_density(PARAMS, 1.0, rho_c + 0.5)
        assert high.rho_0 == pytest.approx(0.5, rel=1e-12)
        assert high.mu_limit == 0.0
        assert high.rho_c == pytest.approx(rho_c, rel=1e-14)

    def test_window_below_ground_energy_is_empty(self):
        part = partition([2.0, 1.0, 1.5])
        ground = (C / 2.0) ** 2
        assert condensate_finite(part, 1.0, 0.5, epsilon=0.5 * ground) == 0.0

    def test_window_covering_everything_recovers_rho(self):
        part = sample_poisson_partition(1.0, 300.0, 13)
        rho = 0.4
        assert condensate_finite(part, 1.0, rho, epsilon=1e9) == pytest.approx(rho, rel=2e-9)

    def test_wide_interval_partition_captures_the_condensate(self):
        # one 30-length interval among 20000 unit intervals: the window below
        # 0.01 holds exactly the wide interval's ground level, which carries
        # nearly all of rho - (small-tower thermal mass)
        lengths = np.concatenate(([30.0], np.ones(20_000)))
        part = partition(lengths)
        rho = 0.5
        small_tower = math.fsum(
            1.0 / math.expm1((C * s) ** 2) for s in range(1, 12)
        ) * 20_000 / part.total_length
        captured = condensate_finite(part, 1.0, rho, epsilon=0.01)
        assert captured == pytest.approx(rho - small_tower, rel=0.02)


class TestCriticalDensityBound:
    def test_chain_inequality(self):
        rho_c = critical_density(PARAMS, 1.0)
        for amplitude in (0.5, 1.0, 10.0):
            assert rho_c <= critical_density_bound(PARAMS, 1.0, amplitude)

    def test_divergence_at_small_amplitude(self):
        small = critical_density_bound(PARAMS, 1.0, 0.01)
        mid = critical_density_bound(PARAMS, 1.0, 0.1)
        assert small > mid
        assert small > 100.0

    @pytest.mark.parametrize("lam, beta, amplitude, exact", [
        # mpmath at 30 digits; at small beta a^2 the integrand above the split
        # peaks like E^(-3/2) within (pi a / 8)^2 of it, where quad returned
        # negative "bounds" (-18.42 at the first point) with a divergence warning
        (1.0, 1e-3, 1e-3, 2292618.2496632507),
        (1.0, 1e-2, 1e-3, 229257.84132872311),
        (1.0, 1e-2, 1e-2, 22920.540758450875),
        (1.0, 1.0, 1e-3, 2292.0540758450875),
        (0.1, 1e-2, 1e-2, 22920.542245478084),
        (10.0, 1e-2, 1e-2, 22920.540758450875),
    ])
    def test_peak_at_the_split_is_resolved(self, lam, beta, amplitude, exact):
        params = ModelParams(lam)
        bound = critical_density_bound(params, beta, amplitude)
        assert bound == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert critical_density(params, beta) <= bound
