"""Pressure, density, critical density, chemical-potential solvers, condensate."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from bec1d import (
    C,
    CondensateReport,
    build_level_table,
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
    kernel_with_condensate,
    pressure_finite,
    pressure_limit,
    sample_poisson_partition,
    solve_mu_finite,
    solve_mu_limit,
)
from bec1d import cli, spectrum, thermodynamics
from bec1d.correlations import _limit_integrand
from bec1d.numerics import (
    EXP_CUTOFF,
    _bose_factor,
    _bose_gap,
    _bose_gaps,
    _bose_occupations,
    _bose_slope,
    _gap_occupations,
    _gauss_kronrod,
    _integrate_panels,
    _log1mexps,
)
from bec1d.spectrum import TABLE_EXPONENT
from bec1d.thermodynamics import (
    _ids_weight_q,
    _ids_weights_q,
    _limit_density,
    _limit_knots,
    _q_max,
)
from limit_quad_reference import _limit_integral
from util import omitted_share_bound, partition, quad_bound

PARAMS = ModelParams(1.0)

#: float.hex of critical_density and of solve_mu_limit at (0.3, 0.9, 1 - 1e-7) rho_c on
#: perfbench's (lambda, beta) grid: the limit model must keep both bit for bit
PINNED_LIMIT_VALUES = {
    (0.5, 0.5): ("0x1.f4d9843ce7b5ap+0", ("-0x1.12327f0382deap-1", "-0x1.e23ed78b87e60p-7",
                  "-0x1.8b047e8cd25fap-27")),
    (0.5, 1.0): ("0x1.b8674da44aadbp-1", ("-0x1.8252c33a48079p-2", "-0x1.9ee81d785f2d8p-7",
                  "-0x1.5cf8bc7120b19p-27")),
    (0.5, 2.0): ("0x1.6f15e47c29ad6p-2", ("-0x1.01f0b231ce397p-2", "-0x1.5357871d97015p-7",
                  "-0x1.264d7dbc41df7p-27")),
    (1.0, 0.5): ("0x1.6f15e47c29ad6p-1", ("-0x1.01f0b231ce397p+0", "-0x1.5357871d9701bp-5",
                  "-0x1.264d7db4f482ap-25")),
    (1.0, 1.0): ("0x1.1bae94157b260p-2", ("-0x1.475c81fb8dae7p-1", "-0x1.050530c49efd1p-5",
                  "-0x1.d3cf210b839e5p-26")),
    (1.0, 2.0): ("0x1.8a1403310aa91p-4", ("-0x1.8c57f0ac7573cp-2", "-0x1.765e2faf81339p-6",
                  "-0x1.5a30993d2a3e0p-26")),
    (2.0, 0.5): ("0x1.8a1403310aa91p-3", ("-0x1.8c57f0ac7573ep+0", "-0x1.765e2faf8133dp-4",
                  "-0x1.5a3099388af33p-24")),
    (2.0, 1.0): ("0x1.d74c28e2a7bdcp-5", ("-0x1.cbba0b9249774p-1", "-0x1.f250d0c4cb044p-5",
                  "-0x1.d94791ec460fep-25")),
    (2.0, 2.0): ("0x1.c9a950a93e21fp-7", ("-0x1.00a22f4cf7a4ap-1", "-0x1.342ff23c3774fp-5",
                  "-0x1.2a92bf8975239p-25")),
}


class TestFiniteVolume:
    def test_pressure_single_interval_direct_sum(self):
        # direct high-precision summation oracle on one interval of length pi
        part = partition([math.pi])
        oracle = -math.fsum(
            math.log(-math.expm1(-(0.5 * s * s + 1.0))) for s in range(1, 40)
        ) / math.pi
        table = build_level_table(part, 1.0)
        assert pressure_finite(table, -1.0) == pytest.approx(oracle, rel=1e-13)

    def test_density_single_interval_direct_sum(self):
        part = partition([math.pi])
        oracle = math.fsum(
            1.0 / math.expm1(0.5 * s * s + 1.0) for s in range(1, 37)
        ) / math.pi
        assert density_finite(build_level_table(part, 1.0), -1.0) == pytest.approx(oracle,
                                                                                   rel=1e-13)

    def test_empty_gas_limit(self):
        table = build_level_table(partition([2.0, 5.0, 1.0]), 1.0)
        assert pressure_finite(table, -1e6) == 0.0
        assert density_finite(table, -1e6) == 0.0

    def test_monotone_in_mu(self):
        table = build_level_table(partition([2.0, 5.0, 1.0]), 1.0)
        assert density_finite(table, -0.3) > density_finite(table, -0.6)

    def test_domain_error_at_spectral_bottom(self):
        table = build_level_table(partition([2.0]), 1.0)
        bottom = (C / 2.0) ** 2
        with pytest.raises(DomainError):
            pressure_finite(table, bottom)
        with pytest.raises(DomainError):
            density_finite(table, bottom + 0.1)


class TestTableCutoff:
    """A table cut at E0 + 40/beta against one cut at E0 + 60/beta: every observable
    moves by no more than spectrum._level_cutoff's bound b allows."""

    #: rounding of two sums over different level sets: a few ulps of the sum
    ROUNDING = 8 * np.finfo(float).eps

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [0.25, 1.0, 2.0])
    def test_observables_move_within_the_stated_bound(self, monkeypatch, lam, beta):
        part = sample_poisson_partition(lam, 2000.0, 1)
        table = build_level_table(part, beta)
        with monkeypatch.context() as patch:
            patch.setattr(spectrum, "TABLE_EXPONENT", 60.0)
            wide = build_level_table(part, beta)
        cutoff = spectrum._level_cutoff(wide.lengths[0], beta)
        past = wide.energies[wide.energies >= cutoff]
        assert 0 < past.size == wide.energies.size - table.energies.size
        bound = omitted_share_bound(table, spectrum.TABLE_EXPONENT)
        ground = table.ground_energy
        for mu in (ground - 1e-3 / beta, ground - 0.1 / beta, ground - 1.0 / beta):
            density = density_finite(table, mu)
            # the levels past the cutoff, summed exactly, hold at most b of the density
            omitted = math.fsum(_bose_occupations(beta * (past - mu))) / part.total_length
            assert omitted <= bound * density
            allowed = (bound + self.ROUNDING) * density
            assert abs(density_finite(wide, mu) - density) <= allowed
            pressure = pressure_finite(table, mu)
            assert abs(pressure_finite(wide, mu) - pressure) <= (
                (bound + self.ROUNDING) * pressure)
            for r in (1.0, 5.0):
                kernel = kernel_finite(table, mu, r)
                assert abs(kernel_finite(wide, mu, r) - kernel) <= allowed
            # d ln density / d mu >= beta, and each solve stops within its tolerance
            solved = solve_mu_finite(table, density)
            tolerance = 2.0 * thermodynamics._MU_TOLERANCE * max(1.0, abs(solved))
            assert abs(solve_mu_finite(wide, density) - solved) <= bound / beta + tolerance


class TestTableDensity:
    """_table_density against direct sums of the occupations and their slopes."""

    @staticmethod
    def direct(table, beta, mu):
        occupations = _bose_occupations(beta * (table.energies - mu))
        density = math.fsum(occupations) / table.total_length
        return density, beta * math.fsum(occupations * (occupations + 1.0)) / table.total_length

    def check(self, table, beta):
        step = thermodynamics._table_density(table)
        ground = table.ground_energy
        for gap in (1e-3, 0.1, 1.0, 10.0):
            density, slope = step(ground - gap / beta)
            expected, expected_slope = self.direct(table, beta, ground - gap / beta)
            assert density == pytest.approx(expected, rel=1e-15, abs=0.0)
            assert slope == pytest.approx(expected_slope, rel=1e-15, abs=0.0)

    def high_levels(self, table, beta):
        split = table.ground_energy + thermodynamics._SPLIT_EXPONENT / beta
        return int(np.count_nonzero(table.energies >= split))

    def test_several_blocks_and_a_partial_one(self):
        beta = 0.25
        table = build_level_table(sample_poisson_partition(1.0, 6e4, 3), beta)
        blocks, rest = divmod(self.high_levels(table, beta), thermodynamics._MOMENT_BLOCK)
        assert blocks >= 3 and rest > 0
        self.check(table, beta)

    def test_an_empty_high_part(self):
        # at beta = 1e3 the three ground levels lie within 4/beta of E0 and every second
        # level lies past E0 + 40/beta
        beta = 1e3
        table = build_level_table(partition([5.0, 5.0, 4.99]), beta)
        assert table.energies.size == 3 and self.high_levels(table, beta) == 0
        self.check(table, beta)

    def test_a_one_level_table(self):
        beta = 1e3
        table = build_level_table(partition([2.0, 1.0]), beta)
        assert table.energies.tolist() == [(C / 2.0) ** 2]
        self.check(table, beta)


class TestFactoredStep:
    """The factored occupations 1 / (A (V + 1) + V) of a Newton step against the direct
    _bose_occupations(beta (E - mu)) sums, from mu just below E0 to V's overflow."""

    #: y = beta (E0 - mu); up to 660 every table level's occupation is a normal double,
    #: so the direct sums keep their digits
    EXPONENTS = np.concatenate([np.geomspace(1e-9, 660.0, 60), np.linspace(64.0, 660.0, 30)])

    @staticmethod
    def tolerance(y):
        # the step rounds y once for all its levels, each level of the direct sums rounds
        # its own beta (E - mu): both carry up to eps y of error in the exponent
        return 1e-14 + 2.0 * np.finfo(float).eps * y

    @pytest.mark.parametrize("beta", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_density_and_slope_equal_the_direct_sums(self, beta, seed):
        table = build_level_table(sample_poisson_partition(1.0, 1000.0, seed), beta)
        ground = table.ground_energy
        step = thermodynamics._table_density(table)
        for mu in [ground * (1.0 - 1e-12), *(ground - self.EXPONENTS / beta)]:
            y = beta * (ground - mu)
            density, slope = step(mu)
            expected, expected_slope = TestTableDensity.direct(table, beta, mu)
            tol = self.tolerance(y)
            assert density == pytest.approx(expected, rel=tol, abs=0.0)
            assert slope == pytest.approx(expected_slope, rel=tol, abs=0.0)
            # within 1e-14 wherever the rounding of y is below it
            if y <= 64.0:
                assert density == pytest.approx(expected, rel=1e-14, abs=0.0)
                assert slope == pytest.approx(expected_slope, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("y", [709.79, 745.0, 1e4, math.inf])
    def test_occupations_past_the_overflow_are_exactly_zero(self, y):
        table = build_level_table(sample_poisson_partition(1.0, 1000.0, 1), 1.0)
        low = table.energies[table.energies < table.ground_energy + 4.0]
        gaps = _bose_gaps(low - table.ground_energy)
        assert gaps[0] == 0.0 and low.size > 1  # the ground level's A, and others
        v = _bose_gap(y)
        assert v == math.inf
        out = np.full_like(gaps, np.nan)
        assert _gap_occupations(gaps, v, out) is out
        assert not out.any()
        # as the direct form, whose e^x - 1 overflows there too
        assert not _bose_occupations(y + (low - table.ground_energy)).any()

    def test_occupations_just_below_the_overflow_are_finite(self):
        gaps = _bose_gaps(np.array([0.0, 1e-3, 3.9]))
        occupations = _gap_occupations(gaps, _bose_gap(709.0), np.empty(3))
        assert np.isfinite(occupations).all() and occupations[0] == 1.0 / math.expm1(709.0)


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
            density_finite(build_level_table(sample_poisson_partition(lam, box, (41, t)), beta), mu)
            for t in range(40)
        ]
        assert np.mean(vals) == pytest.approx(density_limit(PARAMS, beta, mu), rel=0.02)

    def test_pressure_disorder_average(self):
        lam, beta, mu, box = 1.0, 1.0, -0.5, 5000.0
        vals = [
            pressure_finite(build_level_table(sample_poisson_partition(lam, box, (43, t)), beta),
                            mu)
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
                    build_level_table(sample_poisson_partition(lam, box, (55, int(box), t)), beta),
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
        table = build_level_table(sample_poisson_partition(1.0, 800.0, 8), 1.0)
        for rho in (0.05, 0.2, 0.6):
            mu = solve_mu_finite(table, rho)
            assert density_finite(table, mu) == pytest.approx(rho, rel=1e-10)

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
                build_level_table(sample_poisson_partition(lam, 2000.0, (71, t)), beta), rho
            )
            for t in range(50)
        ]
        assert np.mean(mus) == pytest.approx(mu_star, rel=0.05)

    def test_invalid_targets(self):
        with pytest.raises(ValueError):
            solve_mu_limit(PARAMS, 1.0, -0.1)
        with pytest.raises(ValueError):
            solve_mu_finite(build_level_table(partition([1.0]), 1.0), 0.0)

    @pytest.mark.parametrize("lam, beta", sorted(PINNED_LIMIT_VALUES))
    def test_critical_density_and_limit_mu_are_pinned(self, lam, beta):
        params = ModelParams(lam)
        rho_c, mus = PINNED_LIMIT_VALUES[(lam, beta)]
        assert critical_density(params, beta).hex() == rho_c
        got = [solve_mu_limit(params, beta, f * float.fromhex(rho_c)).hex()
               for f in (0.3, 0.9, 1.0 - 1e-7)]
        assert got == list(mus)

    def test_nan_density_is_rejected(self):
        # NaN fails every comparison: a `rho <= 0` guard passes it on to the solver
        for solve in (solve_mu_limit, condensate_density):
            with pytest.raises(ValueError, match="rho"):
                solve(PARAMS, 1.0, math.nan)
        with pytest.raises(ValueError, match="rho"):
            solve_mu_finite(build_level_table(partition([1.0]), 1.0), math.nan)


def two_owner_pass(lam, beta, mu):
    """The adaptive two-owner pass a limit state stands for: w n and w beta n (n + 1) over
    the knots of mu = -1/beta, at quad's bound."""
    def integrand(q, owner):
        n = _bose_occupations(beta * (q * q - mu))
        return _ids_weights_q(q, lam) * n * np.where(owner == 0, 1.0, beta * (n + 1.0))

    return _integrate_panels(integrand, _limit_knots(beta, -1.0 / beta, lam), 2,
                             epsabs=1e-13, epsrel=1e-12)


def owner_zero_pressure_loop(state, mu):
    """The pressure by the _gauss_kronrod loop on a limit state's owner-0 subpanels, at
    quad's bound."""
    beta, lam = state.beta, state.intensity
    held = state.owner == 0

    def integrand(q, _):
        return _ids_weights_q(q, lam) * _log1mexps(beta * (q * q - mu))

    cut = state.lo[held], state.hi[held], state.owner[held], state.budget[held]
    return -_gauss_kronrod(integrand, *cut, 1, 1e-12)[0][0] / beta


def counted_loops(monkeypatch):
    """The owner count of each _gauss_kronrod loop thermodynamics runs from now on."""
    loops = []

    def counted(*args):
        loops.append(args[5])
        return _gauss_kronrod(*args)

    monkeypatch.setattr(thermodynamics, "_gauss_kronrod", counted)
    return loops


@pytest.fixture
def fresh_limit_states():
    thermodynamics._limit_density.cache_clear()
    yield
    thermodynamics._limit_density.cache_clear()


def log1mexp(x: float) -> float:
    """Scalar ln(1 - e^-x) for x > 0, in the form that keeps its digits on each side of ln 2."""
    return math.log(-math.expm1(-x)) if x <= math.log(2.0) else math.log1p(-math.exp(-x))


class TestLimitState:
    """The critical density, the limit mu solve and the pressure read one limit model per
    (lambda, beta), which holds one fixed first pass."""

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_state_equals_the_adaptive_pass(self, lam, beta):
        state = _limit_density(lam, beta)
        for beta_mu in (-1.0, -0.1, -1e-4):
            mu = beta_mu / beta
            for got, want in zip(state(mu), two_owner_pass(lam, beta, mu)):
                assert abs(got - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("lam, beta", [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)])
    def test_a_rejected_first_pass_returns_the_adaptive_pass(self, lam, beta, monkeypatch):
        # with no absolute budget some subpanels fail the first round at every point
        state = thermodynamics._LimitState(lam, beta)
        state.budget = np.zeros_like(state.budget)
        loops = counted_loops(monkeypatch)
        for beta_mu in (-1.0, -0.1, -1e-4):
            mu = beta_mu / beta
            assert state(mu) == tuple(two_owner_pass(lam, beta, mu))
        assert loops == [2, 2, 2]

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_pressure_equals_quad(self, lam, beta):
        params = ModelParams(lam)
        for beta_mu in (-10.0, -1.0, -0.1, -1e-4):
            mu = beta_mu / beta
            integral = -beta * pressure_limit(params, beta, mu)
            direct = _limit_integral(params, beta, mu, log1mexp)
            assert abs(integral - direct) <= quad_bound(integral) + quad_bound(direct)

    @pytest.mark.parametrize("lam, beta", [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)])
    def test_a_rejected_pressure_read_returns_the_adaptive_pass(self, lam, beta, monkeypatch):
        # the one-owner loop on owner 0's held subpanels, not a new cut of the knots
        state = thermodynamics._LimitState(lam, beta)
        state.budget = np.zeros_like(state.budget)
        monkeypatch.setattr(thermodynamics, "_limit_density", lambda *args: state)
        loops = counted_loops(monkeypatch)
        for beta_mu in (-1.0, -0.1, -1e-4):
            mu = beta_mu / beta
            adaptive = owner_zero_pressure_loop(state, mu)
            assert pressure_limit(ModelParams(lam), beta, mu) == adaptive
        assert loops == [1, 1, 1]

    @pytest.mark.parametrize("lam, beta", [(0.1, 0.5), (0.05, 0.05)])
    def test_a_natural_fallback_runs_one_loop_on_the_held_cut(self, lam, beta, monkeypatch):
        # here the held round fails at every point with its own budgets: the density read
        # is the two-owner pass, and the pressure read the loop on owner 0's subpanels
        state = _limit_density(lam, beta)
        loops = counted_loops(monkeypatch)
        for beta_mu in (-1.0, -0.1, -1e-4):
            mu = beta_mu / beta
            assert state(mu) == tuple(two_owner_pass(lam, beta, mu))
            assert pressure_limit(ModelParams(lam), beta, mu) == owner_zero_pressure_loop(
                state, mu)
        assert loops == [2, 1] * 3

    def test_one_model_per_pair_across_its_readers(self, tmp_path, monkeypatch,
                                                   fresh_limit_states):
        builds = []

        class Counted(thermodynamics._LimitState):
            def __init__(self, *args):
                builds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(thermodynamics, "_LimitState", Counted)
        rho = 0.5 * critical_density(PARAMS, 1.0)
        condensate_density(PARAMS, 1.0, rho)
        condensate_density(PARAMS, 1.0, 3.0 * rho)
        pressure_limit(PARAMS, 1.0, -0.5)
        code = cli.main([
            "thermo", "--lambda", "1", "--beta", "1", "--rho", repr(rho),
            "--l-ladder", "300 600", "--seeds", "2", "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 0
        pressure_limit(ModelParams(2.0), 0.5, -1.0)
        critical_density(ModelParams(2.0), 0.5)
        assert builds == [(1.0, 1.0), (2.0, 0.5)]

    def test_one_state_per_sweep_and_kernel(self, tmp_path, monkeypatch, fresh_limit_states):
        builds = []

        class Counted(thermodynamics._LimitState):
            def __init__(self, *args):
                builds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(thermodynamics, "_LimitState", Counted)
        rho = 0.5 * critical_density(PARAMS, 1.0)
        code = cli.main([
            "correlate", "--lambda", "1", "--beta", "1", "--r-grid", "0 1 2 5 10 50",
            "--box-length", "300", "--seeds", "3", "--rho", repr(rho),
            "--out", str(tmp_path / "c.csv"),
        ])
        assert code == 0
        kernel_with_condensate(PARAMS, 1.0, rho, 5.0)
        assert builds == [(1.0, 1.0)]


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
        assert condensate_finite(build_level_table(part, 1.0), 0.5, epsilon=0.5 * ground) == 0.0

    def test_window_covering_everything_recovers_rho(self):
        part = sample_poisson_partition(1.0, 300.0, 13)
        rho = 0.4
        table = build_level_table(part, 1.0)
        assert condensate_finite(table, rho, epsilon=1e9) == pytest.approx(rho, rel=2e-9)

    def test_a_window_above_the_table_cutoff_reads_the_one_table(self, monkeypatch):
        # at beta = 200 the table ends at E0 + 0.2 < 1: the window sums that table, and
        # a table cut past the window adds levels that hold under e^-40 of the ground level
        part, beta, rho, epsilon = sample_poisson_partition(1.0, 300.0, 13), 200.0, 0.4, 1.0
        assert (C / part.lengths.max()) ** 2 + TABLE_EXPONENT / beta < epsilon
        table = build_level_table(part, beta)
        with monkeypatch.context() as patch:
            patch.setattr(spectrum, "TABLE_EXPONENT", beta * epsilon)
            reference = build_level_table(part, beta)  # cut at E0 + 1
        mu = solve_mu_finite(reference, rho)
        window = reference.energies[reference.energies < epsilon]
        expected = float(_bose_occupations(beta * (window - mu)).sum()) / part.total_length
        assert condensate_finite(table, rho, epsilon) == pytest.approx(expected, rel=1e-15)

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
        captured = condensate_finite(build_level_table(part, 1.0), rho, epsilon=0.01)
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
