"""Grand-canonical thermodynamics of the disordered interval gas.

Finite-volume quantities are exact sums over one realization's level table
(spectrum.build_level_table), its Dirichlet levels below E0 + 40/beta at the
table's own beta, which leave out a share of the density that
spectrum._level_cutoff bounds (below 7e-16 on the benchmark tables);
thermodynamic-limit quantities are integrals against the
self-averaged density of states from :mod:`bec1d.spectrum`. The critical
density is finite, so above it the chemical potential pins to the spectral
bottom and the excess density condenses.

All improper integrals are evaluated after the substitution E = q^2, which
removes the E^(-3/2) steepness of the density of states; the integrands then
vanish with all derivatives at q = 0. The integrated density of states is a
Bose function, N(q^2) = lam n(C lam / q), so its measure over q is
lam^2 C n (n + 1) / q^2. Every occupation n, slope n (n + 1) and pressure
weight ln(1 - e^-x) here comes from the stable forms in bec1d.numerics.

The limit q-integrals (densities, pressures, kernels) end where the Bose tail
is negligible. Their integrands are bounded by the envelope
e^{-C lam / q - beta q^2} times slowly varying factors, and the envelope
exponent is smallest, phi* = 3 (C lam / 2)^(2/3) beta^(1/3), at the peak.
The range stops at beta q^2 = min(EXP_CUTOFF, phi* + TAIL_EXPONENT) above
max(mu, 0), where the envelope has fallen e^-60 below its peak: the
discarded density tail is below 1e-20 of the density. The critical density
by parts and the free kernel keep their full range, so the by-parts route
stays an independent check of the cut.

The critical density, the limit chemical-potential solve and the limit
pressure read one limit model per (intensity, beta), built once and cached
(_limit_density). It holds the critical density (density_limit at mu = 0, on
quad) and the first-pass cut (numerics._knot_cut) of a two-owner
numerics._integrate_panels pass at quad's bound (1e-13 split over the knot
panels plus 1e-12 of the integral) over _limit_knots (0, the knee
sqrt(1/beta + mu), 1/sqrt(beta), q_max) at mu = -1/beta, as no mu < 0 moves
the range: the subpanels, owner 0's first, with their budgets, G10K21 nodes,
q^2 and density-of-states measure w(q). A read at mu forms one row per owner
over the nodes of a prefix of the cut and returns their G10K21 sums when every
subpanel passes numerics._accepted, and otherwise runs the
numerics._gauss_kronrod loop on that same prefix: the model falls back on its
own cut. A Newton step reads the density w n and its slope w beta n (n + 1),
n the Bose occupation, as two owners: exactly what the two-owner pass returns.
The pressure reads w ln(1 - e^{-beta (q^2 - mu)}) on owner 0's subpanels.
density_limit stays on quad over the knots of its mu, the independent
certificate of the solved mu.

The finite chemical-potential solve splits the level table once, at the
energy E0 + 4/beta above its ground level E0, with one comparison per level.
For every mu below E0 a level at or above the split has x = beta (E - mu) >= 4
(up to the rounding of E0 + 4/beta), so its Bose factor is the geometric
series sum_{k=1..10} e^{-k x} with relative remainder
e^{-10 x} <= e^{-40} ~ 4e-18 (<= 11 e^{-40} ~ 5e-17 for the slope weight
n (n + 1) = sum k e^{-k x}). Those levels enter every Newton step through the
ten mu-independent moments Z_k = sum e^{-k beta (E - E0)}, times
e^{-k beta (E0 - mu)}; only the levels below the split are summed per step.
The moments are formed once, in blocks of the high part small enough to stay
in L2 through one exp pass and nine power passes each. The levels below the
split are turned once, in place, into A = e^{beta (E - E0)} - 1. With the
one scalar V = e^{beta (E0 - mu)} - 1 per step, a level's occupation is
1 / (A (V + 1) + V) (numerics._gap_occupations), a sum of positive terms, so
nothing cancels at any mu < E0, and a step is one multiply, one add, one
divide and one square, with the two sums of n and n^2. Past the overflow of
V, at beta (E0 - mu) ~ 709.78, those occupations are exactly 0. Newton starts
from a given mu below E0 when the caller has one (the CLI's --rho runners
pass the limit mu), and from E0 - 1/beta otherwise.
density_finite and pressure_finite stay direct sums over the table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import _require_below, _require_positive
from .numerics import (
    EXP_CUTOFF,
    _accepted,
    _bose_factor,
    _bose_gap,
    _bose_gaps,
    _bose_occupations,
    _bose_slope,
    _bose_slopes,
    _gap_occupations,
    _gauss_kronrod,
    _gk21_nodes,
    _gk21_rows,
    _integrate_panels,
    _knot_cut,
    _log1mexps,
    _log_newton,
)
from .spectrum import C, LevelTable, ModelParams

_TOLERANCE = dict(epsabs=1e-13, epsrel=1e-12)
#: the limit q-integrals end where beta q^2 lies this far past the envelope's peak
TAIL_EXPONENT = 60.0
_MU_TOLERANCE = 1e-12
#: table levels at or above E0 + _SPLIT_EXPONENT / beta enter the mu solve through moments
_SPLIT_EXPONENT = 4.0
#: geometric-series terms kept for those levels; the remainder is e^{-40} relative
_BOSE_TERMS = 10
#: levels per block of the moment passes, and of correlations.kernel_finite: a block and
#: its work arrays, 256 KiB each, stay in L2
_MOMENT_BLOCK = 32768


@dataclass(frozen=True)
class CondensateReport:
    """Critical density, condensate density and limiting chemical potential."""

    rho_c: float
    rho_0: float
    mu_limit: float


def pressure_finite(table: LevelTable, mu: float) -> float:
    """Grand-canonical pressure of one realization's level table, at the table's beta.

    -1/(beta L) * sum over levels of ln(1 - exp(-beta (E - mu))) over the
    table, whose cutoff leaves out a share of the sum that
    spectrum._level_cutoff bounds.
    """
    _require_below("mu", mu, table.ground_energy)
    x = np.subtract(table.energies, mu)  # beta (E - mu), then ln(1 - e^-x) in place
    logs = _log1mexps(np.multiply(table.beta, x, out=x), out=x)
    return -float(logs.sum()) / (table.beta * table.total_length)


def density_finite(table: LevelTable, mu: float) -> float:
    """Grand-canonical particle density of one realization's level table, at its beta."""
    _require_below("mu", mu, table.ground_energy)
    x = np.subtract(table.energies, mu)
    occupations = _bose_occupations(np.multiply(table.beta, x, out=x), out=x)
    return float(occupations.sum()) / table.total_length


def _ids_weight_q(q: float, intensity: float) -> float:
    """Density-of-states measure after E = q^2: intensity^2 C n (n + 1) / q^2.

    N(q^2) = intensity n(C intensity / q) with n the Bose factor, so its
    q-derivative is this slope form at the same argument.
    """
    if q <= 0.0:
        return 0.0
    return intensity * intensity * C / (q * q) * _bose_slope(C * intensity / q)


def _ids_weights_q(q: np.ndarray, intensity: float) -> np.ndarray:
    """Array form of _ids_weight_q, for q > 0."""
    return intensity * intensity * C / (q * q) * _bose_slopes(C * intensity / q)


def _q_max(beta: float, mu: float, intensity: float) -> float:
    """Upper end of the limit q-integrals: beta q^2 = phi* + TAIL_EXPONENT past the peak."""
    peak = 3.0 * (0.5 * C * intensity) ** (2.0 / 3.0) * beta ** (1.0 / 3.0)
    top = min(EXP_CUTOFF, peak + TAIL_EXPONENT) / beta + max(mu, 0.0)
    return math.sqrt(max(top, 1e-6))


def _limit_knots(beta: float, mu: float, intensity: float) -> np.ndarray:
    """Knots of the limit q-integrals: 0, the knee sqrt(1/beta + mu), 1/sqrt(beta), q_max."""
    qmax = _q_max(beta, mu, intensity)
    knee = math.sqrt(max(1.0 / beta + min(mu, 0.0), 1.0 / beta * 0.01))
    inner = [p for p in (knee, math.sqrt(1.0 / beta)) if 0.0 < p < qmax]
    return np.unique([0.0, *inner, qmax])


def pressure_limit(params: ModelParams, beta: float, mu: float) -> float:
    """Self-averaged pressure, -(1/beta) * integral of N'(E) ln(1 - e^{-beta(E-mu)}).

    Read off the cached limit model of (intensity, beta) (_limit_density): the G10K21
    sums on its owner-0 subpanels if each estimate is at most its share of 1e-13 or
    1e-12 of its part, else the adaptive loop on those subpanels; either way the summed
    estimate stays within 1e-12 |p| + 1e-13 / beta.
    """
    _require_positive("beta", beta)
    _require_below("mu", mu, 0.0)
    return _limit_density(params.intensity, beta).pressure(mu)


def density_limit(params: ModelParams, beta: float, mu: float) -> float:
    """Self-averaged particle density; mu = 0 gives the critical density."""
    _require_positive("beta", beta)
    _require_below("mu", mu, 0.0, inclusive=True)
    lam = params.intensity
    knots = _limit_knots(beta, mu, lam)

    def integrand(q: float) -> float:
        w = _ids_weight_q(q, lam)
        if w == 0.0:
            return 0.0
        return w * _bose_factor(beta * (q * q - mu))

    val, _ = quad(integrand, 0.0, knots[-1], points=knots[1:-1], limit=400, **_TOLERANCE)
    return val


def critical_density(params: ModelParams, beta: float) -> float:
    """Supremum of the limiting density over mu <= 0, attained at mu = 0 (finite); held by
    the cached limit model of (intensity, beta) (_limit_density)."""
    _require_positive("beta", beta)
    return _limit_density(params.intensity, beta).rho_c


def critical_density_by_parts(params: ModelParams, beta: float) -> float:
    """Critical density via integration by parts against the integrated DOS.

    Independent route used to cross-check critical_density: the boundary terms
    vanish because the integrated density of states has a Lifshitz tail.
    Integrated over E = q^2, with knots at q = C lam and q = 1/sqrt(beta).
    """
    _require_positive("beta", beta)
    lam = params.intensity

    def integrand(q, _):
        return 2.0 * q * lam * _bose_occupations(C * lam / q) * beta * _bose_slopes(beta * q * q)

    qmax = math.sqrt(EXP_CUTOFF / beta)
    knots = np.unique([0.0, *(p for p in (C * lam, 1.0 / math.sqrt(beta)) if p < qmax), qmax])
    return _integrate_panels(integrand, knots, 1, **_TOLERANCE)[0]


def _bose_moments(u: np.ndarray, ground: float, beta: float) -> np.ndarray:
    """Z_k = sum e^{-k beta (E - E0)}, k = 1.._BOSE_TERMS, over the energies u, which it
    overwrites; block by block of _MOMENT_BLOCK levels, each taking one exp pass and
    the power passes while it is in cache."""
    moments = np.zeros(_BOSE_TERMS)
    powers = np.empty(min(u.size, _MOMENT_BLOCK))
    for start in range(0, u.size, _MOMENT_BLOCK):
        block = u[start:start + _MOMENT_BLOCK]  # beta (E0 - E), then e^{-beta (E - E0)} in place
        np.exp(np.multiply(beta, np.subtract(ground, block, out=block), out=block), out=block)
        moments[0] += block.sum()
        power = np.square(block, out=powers[:block.size])
        moments[1] += power.sum()
        for k in range(2, _BOSE_TERMS):
            power *= block
            moments[k] += power.sum()
    return moments


def _table_density(table: LevelTable):
    """density(mu) -> (density, d density / d mu) of the table, for every mu below ground.

    Levels at or above E0 + _SPLIT_EXPONENT / beta, with E0 the ground level,
    enter through the mu-independent moments Z_k (_bose_moments), built once
    before the step's work array is allocated. The rest are turned once, in
    place, into A = e^{beta (E - E0)} - 1 (_bose_gaps), and each step sums
    their occupations 1 / (A (V + 1) + V), V = e^{beta (E0 - mu)} - 1
    (_gap_occupations).
    """
    volume, ground, beta = table.total_length, table.ground_energy, table.beta
    split = table.energies >= ground + _SPLIT_EXPONENT / beta
    moments = _bose_moments(table.energies[split], ground, beta)
    gaps = table.energies[np.logical_not(split, out=split)]  # E, then A in place
    del split
    _bose_gaps(np.multiply(beta, np.subtract(gaps, ground, out=gaps), out=gaps), out=gaps)
    orders = np.arange(1.0, _BOSE_TERMS + 1.0)
    occ = np.empty_like(gaps)  # reused per step

    def density(mu: float) -> tuple[float, float]:
        y = beta * (ground - mu)
        n = float(_gap_occupations(gaps, _bose_gap(y), occ).sum())
        # sum n (n + 1) as the pairwise sums of n and n^2, with n^2 squared in place
        n2 = float(np.square(occ, out=occ).sum())
        terms = np.exp(-y * orders) * moments
        return (n + float(terms.sum())) / volume, beta * (n2 + n + float(orders @ terms)) / volume

    return density


def solve_mu_finite(table: LevelTable, rho: float, start: float | None = None) -> float:
    """Unique mu below the table's ground level with density_finite == rho, at its beta.

    Newton in ln(ground - mu), slope beta * sum n(n+1) from the same occupations
    n; it stops on a sign-verified bracket of width 1e-12 * max(1, |mu|). The
    first step is at mu = start when a finite start lies below the ground level
    E0 (the CLI passes the limit mu of the same rho), but no closer to it than
    4 eps E0, and at E0 - 1/beta otherwise. Levels at or above E0 + 4/beta
    enter through ten Bose moments (module docstring), exact to 4e-18 relative
    per level (5e-17 for the slope); each Newton step sums only the levels
    below that split, in the factored form 1 / (A (V + 1) + V), with each
    level's A = e^{beta (E - E0)} - 1 formed once and V = e^{beta (E0 - mu)} - 1
    once per step.
    """
    _require_positive("rho", rho)
    ground = table.ground_energy
    gap = 1.0 / table.beta
    if start is not None and -math.inf < start < ground:
        # no closer to ground than the floor of _log_newton's bracket, 4 eps ground
        gap = max(ground - start, 4.0 * np.finfo(float).eps * ground)
    return _log_newton(_table_density(table), rho, gap, _MU_TOLERANCE, anchor=ground)


class _LimitState:
    """The limit model of one (intensity, beta), cached by _limit_density: rho_c and the
    first-pass cut of the two-owner _integrate_panels pass over the knots of mu = -1/beta.
    A read sums a prefix of the cut and falls back on the _gauss_kronrod loop over that
    prefix, so called at mu it returns exactly what the pass returns (density, slope)."""

    def __init__(self, intensity: float, beta: float):
        self.intensity, self.beta = intensity, beta
        self.rho_c = density_limit(ModelParams(intensity), beta, 0.0)
        self.lo, self.hi, self.owner, self.budget = _knot_cut(
            _limit_knots(beta, -1.0 / beta, intensity), 2, _TOLERANCE["epsabs"])
        q, self.half = _gk21_nodes(self.lo, self.hi)
        q = q[self.owner == 0]  # owner 1 integrates over the same subpanels
        self.q2, self.weights = q * q, _ids_weights_q(q, intensity)
        for held in (self.lo, self.hi, self.owner, self.budget, self.half, self.q2, self.weights):
            held.flags.writeable = False  # the cache hands one model to every caller

    def _integrals(self, owners: int, rows) -> list[float]:
        """Integrals over the knots of rows(q^2, w(q)), one row array per owner: the G10K21
        sums over the held subpanels of the first `owners` owners if all pass
        numerics._accepted, else the _gauss_kronrod loop on those subpanels."""
        held = slice(owners * self.q2.shape[0])
        value, estimate = _gk21_rows(np.concatenate(rows(self.q2, self.weights)), self.half[held])
        if _accepted(value, estimate, self.budget[held], _TOLERANCE["epsrel"]).all():
            return np.bincount(self.owner[held], value, owners).tolist()

        def integrand(q, owner):
            return np.choose(owner, rows(q * q, _ids_weights_q(q, self.intensity)))

        cut = self.lo[held], self.hi[held], self.owner[held], self.budget[held]
        return _gauss_kronrod(integrand, *cut, owners, _TOLERANCE["epsrel"])[0].tolist()

    def __call__(self, mu: float) -> tuple[float, float]:
        beta = self.beta

        def rows(q2, weights):
            n = _bose_occupations(beta * (q2 - mu))
            density = weights * n
            return density, density * (beta * (n + 1.0))

        return tuple(self._integrals(2, rows))

    def pressure(self, mu: float) -> float:
        beta = self.beta
        return -self._integrals(1, lambda q2, w: [w * _log1mexps(beta * (q2 - mu))])[0] / beta


@functools.lru_cache(maxsize=64)
def _limit_density(intensity: float, beta: float) -> _LimitState:
    """The limit model of (intensity, beta), built once per pair and cached: the one
    object behind critical_density, solve_mu_limit's Newton steps and pressure_limit.

    It holds rho_c and the first-pass cut (18 subpanels per owner on the benchmark
    grid) of the two-owner pass over _limit_knots(beta, -1/beta, intensity), which no
    mu < 0 moves, with the cut's G10K21 nodes, q^2, w(q) and half-widths. Called at
    mu < 0 it returns (density_limit, d density_limit / d mu) (_LimitState).
    """
    return _LimitState(intensity, beta)


def solve_mu_limit(params: ModelParams, beta: float, rho: float) -> float:
    """Limiting chemical potential: the root of density_limit below zero, or 0 if condensed.

    Newton in ln(-mu); it stops on a sign-verified bracket of width
    1e-12 * max(1, |mu|). The critical density and each step read the cached limit
    model of (intensity, beta) (_limit_density): one occupation pass over its G10K21
    nodes gives the density and its mu-derivative, whose error estimates stay below
    quad's bound, 1e-12 of the integral plus 1e-13, or the adaptive pass runs.
    density_limit stays on quad, an independent check.
    """
    _require_positive("rho", rho)
    _require_positive("beta", beta)
    model = _limit_density(params.intensity, beta)
    if rho >= model.rho_c:
        return 0.0
    return _log_newton(model, rho, 1.0 / beta, _MU_TOLERANCE)


def condensate_density(params: ModelParams, beta: float, rho: float) -> CondensateReport:
    """Split a target density into critical and condensed parts.

    rho exactly at the critical density counts as condensed with zero
    condensate, so mu_limit is 0 there.
    """
    mu = solve_mu_limit(params, beta, rho)
    rho_c = _limit_density(params.intensity, beta).rho_c
    return CondensateReport(rho_c=rho_c, rho_0=max(0.0, rho - rho_c), mu_limit=mu)


def condensate_finite(table: LevelTable, rho: float, epsilon: float) -> float:
    """Occupation density of the level table's levels below the energy window `epsilon`.

    Solves for the finite-volume chemical potential at target density rho and
    the table's beta first. A window below the table's ground level is empty
    and yields exactly zero; one above its cutoff E0 + 40/beta sums the whole
    table, as the levels past it hold a share of the density that
    spectrum._level_cutoff bounds (below 7e-16 on the benchmark tables).
    """
    return float(_window_occupations(table, rho, epsilon).sum()) / table.total_length


def _window_occupations(table: LevelTable, rho: float, epsilon: float) -> np.ndarray:
    """Occupations at the finite mu of density rho of the table's levels below epsilon, in order."""
    _require_positive("epsilon", epsilon)
    mu = solve_mu_finite(table, rho)
    window = table.energies[table.energies < epsilon]
    return _bose_occupations(table.beta * (window - mu))


def critical_density_bound(params: ModelParams, beta: float, amplitude: float) -> float:
    """Upper bound on the critical density for finite impurity amplitude.

    Integrates the finite-amplitude IDS bound below (pi a / 8)^2 and the free
    IDS above it, both against the Bose derivative weight. Diverges as the
    amplitude shrinks to zero.
    """
    _require_positive("beta", beta)
    _require_positive("amplitude", amplitude)
    lam = params.intensity
    e_split = (math.pi * amplitude / 8.0) ** 2
    emax = EXP_CUTOFF / beta

    def low(energy, _):
        exponent = lam * (C / np.sqrt(energy) - 4.0 / amplitude)
        return lam * _bose_occupations(exponent) * beta * _bose_slopes(beta * energy)

    def high(energy, _):
        return np.sqrt(energy) / C * beta * _bose_slopes(beta * energy)

    first = _integrate_panels(low, [0.0, min(e_split, emax)], 1, **_TOLERANCE)[0]
    second = 0.0
    if e_split < emax:
        pts = [p for p in (1.0 / beta,) if e_split < p < emax]
        second = _integrate_panels(high, [e_split, *pts, emax], 1, **_TOLERANCE)[0]
    return first + second
