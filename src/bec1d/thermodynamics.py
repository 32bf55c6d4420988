"""Grand-canonical thermodynamics of the disordered interval gas.

Finite-volume quantities are exact sums over the Dirichlet levels of one
partition; thermodynamic-limit quantities are integrals against the
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

Every limit integral here but density_limit runs numerics._integrate_panels,
the batched G10K21 rule over knot panels at quad's bound, 1e-13 split over
the panels plus 1e-12 of the integral. The limit q-integrals share
_limit_knots: 0, the knee sqrt(1/beta + mu), 1/sqrt(beta) and q_max. The
limit chemical-potential solve integrates the density and its mu-derivative
in one pass per Newton step, two owners over the same panels: w(q) n and
w(q) beta n (n + 1), with w the density-of-states measure and n the Bose
occupation. For mu < 0 the range [0, q_max] does not depend on mu, so every
step starts from the knots of mu = -1/beta, its first point. density_limit
(so the critical density) stays on quad over the same knots, the
independent certificate of the solved mu.

The finite chemical-potential solve splits the level table once, at
beta (E - E0) = 4 above its ground level E0. For every mu below E0 a level
above the split has x = beta (E - mu) >= 4, so its Bose factor is the
geometric series sum_{k=1..10} e^{-k x} with relative remainder
e^{-10 x} <= e^{-40} ~ 4e-18 (<= 11 e^{-40} ~ 5e-17 for the slope weight
n (n + 1) = sum k e^{-k x}). Those levels enter every Newton step through the
ten mu-independent moments Z_k = sum e^{-k beta (E - E0)}, times
e^{-k beta (E0 - mu)}; only the levels below the split are summed per step.
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
    _bose_factor,
    _bose_occupations,
    _bose_slope,
    _bose_slopes,
    _integrate_panels,
    _log1mexps,
    _log_newton,
)
from .poisson_geometry import IntervalPartition
from .spectrum import C, TAIL_EXPONENT, LevelTable, ModelParams, build_level_table

_TOLERANCE = dict(epsabs=1e-13, epsrel=1e-12)
_MU_TOLERANCE = 1e-12
#: table levels with beta (E - E0) at or above this split enter the mu solve through moments
_SPLIT_EXPONENT = 4.0
#: geometric-series terms kept for those levels; the remainder is e^{-40} relative
_BOSE_TERMS = 10


@dataclass(frozen=True)
class CondensateReport:
    """Critical density, condensate density and limiting chemical potential."""

    rho_c: float
    rho_0: float
    mu_limit: float


def level_table(source: IntervalPartition | LevelTable, beta: float,
                window: float = 0.0) -> LevelTable:
    """The level table of a realization, up to max(E0 + TAIL_EXPONENT / beta, window).

    A partition is enumerated; a table is returned unchanged if its cutoff
    covers that one (ValueError if not), so one table serves every observable.
    """
    _require_positive("beta", beta)
    _require_below("window", window, math.inf)
    longest = source.longest_length if isinstance(source, LevelTable) else source.lengths.max()
    # one expression for both paths: the scalar (C / L)^2 may be an ulp off the table's E0
    cutoff = max((C / longest) ** 2 + TAIL_EXPONENT / beta, window)
    if not isinstance(source, LevelTable):
        return build_level_table(source, cutoff)
    if source.energy_cutoff < cutoff:
        raise ValueError(f"the table ends at {source.energy_cutoff:g}, below {cutoff:g}")
    return source


def pressure_finite(source: IntervalPartition | LevelTable, beta: float, mu: float) -> float:
    """Grand-canonical pressure of one partition, or of its level table.

    -1/(beta L) * sum over levels of ln(1 - exp(-beta (E - mu))); the mode
    sums are truncated once beta (E - mu) exceeds TAIL_EXPONENT above the
    spectral bottom, with discarded tail below 1e-20 per level.
    """
    table = level_table(source, beta)
    _require_below("mu", mu, table.ground_energy)
    x = np.subtract(table.energies, mu)  # beta (E - mu), then ln(1 - e^-x) in place
    logs = _log1mexps(np.multiply(beta, x, out=x), out=x)
    return -float(logs.sum()) / (beta * table.total_length)


def density_finite(source: IntervalPartition | LevelTable, beta: float, mu: float) -> float:
    """Grand-canonical particle density of one partition, or of its level table."""
    table = level_table(source, beta)
    _require_below("mu", mu, table.ground_energy)
    x = np.subtract(table.energies, mu)
    return float(_bose_occupations(np.multiply(beta, x, out=x), out=x).sum()) / table.total_length


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
    """Self-averaged pressure, -(1/beta) * integral of N'(E) ln(1 - e^{-beta(E-mu)})."""
    _require_positive("beta", beta)
    _require_below("mu", mu, 0.0)
    lam = params.intensity

    def integrand(q, _):
        return _ids_weights_q(q, lam) * _log1mexps(beta * (q * q - mu))

    return -_integrate_panels(integrand, _limit_knots(beta, mu, lam), 1, **_TOLERANCE)[0] / beta


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


@functools.lru_cache(maxsize=1024)
def _critical_density_cached(intensity: float, beta: float) -> float:
    return density_limit(ModelParams(intensity), beta, 0.0)


def critical_density(params: ModelParams, beta: float) -> float:
    """Supremum of the limiting density over mu <= 0, attained at mu = 0 (finite)."""
    _require_positive("beta", beta)
    return _critical_density_cached(params.intensity, beta)


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


def _table_density(table: LevelTable, beta: float):
    """density(mu) -> (density, d density / d mu) of the table, for every mu below ground.

    Levels with beta (E - E0) >= _SPLIT_EXPONENT above the ground level E0
    enter through the mu-independent moments Z_k = sum e^{-k beta (E - E0)},
    k = 1.._BOSE_TERMS, built once; the rest are summed level by level.
    """
    volume = table.total_length
    ground = table.ground_energy
    x = np.subtract(table.energies, ground)
    np.multiply(beta, x, out=x)
    high = x >= _SPLIT_EXPONENT
    low_energies = np.compress(~high, table.energies)
    u = np.compress(high, x)
    del x, high
    np.negative(u, out=u)
    np.exp(u, out=u)
    moments = np.empty(_BOSE_TERMS)
    moments[0] = u.sum()
    power = u.copy()
    for k in range(1, _BOSE_TERMS):
        power *= u
        moments[k] = power.sum()
    orders = np.arange(1.0, _BOSE_TERMS + 1.0)
    occ, work = np.empty_like(low_energies), np.empty_like(low_energies)  # reused per step

    def density(mu: float) -> tuple[float, float]:
        np.multiply(beta, np.subtract(low_energies, mu, out=occ), out=occ)
        _bose_occupations(occ, out=occ)
        terms = np.exp(-beta * (ground - mu) * orders) * moments
        n = float(occ.sum()) + float(terms.sum())
        # einsum, not a BLAS dot: with OpenBLAS threads on, a dot of 2e4 or more
        # elements took ~8 ms on a 2-core VM, against ~0.02 ms on one thread
        slope = float(np.einsum("i,i->", occ, np.add(occ, 1.0, out=work))) + float(orders @ terms)
        return n / volume, beta * slope / volume

    return density


def solve_mu_finite(source: IntervalPartition | LevelTable, beta: float, rho: float) -> float:
    """Unique mu below the spectral bottom with density_finite == rho (partition or table).

    Newton in ln(ground - mu), slope beta * sum n(n+1) from the same occupations
    n; it stops on a sign-verified bracket of width 1e-12 * max(1, |mu|). Levels
    at beta (E - E0) >= 4 above the ground level E0 enter through ten Bose
    moments (module docstring), exact to 4e-18 relative per level (5e-17 for
    the slope); each Newton step sums only the levels below that split.
    """
    _require_positive("rho", rho)
    table = level_table(source, beta)
    return _log_newton(
        _table_density(table, beta), rho, 1.0 / beta, _MU_TOLERANCE, anchor=table.ground_energy
    )


def _limit_density(intensity: float, beta: float):
    """density(mu) -> (density_limit, d density_limit / d mu), for every mu < 0.

    Each call is one _integrate_panels pass with two owners over the same
    panels of [0, q_max]: owner 0 integrates w(q) n and owner 1 w(q) beta n
    (n + 1), with w the density-of-states measure (_ids_weight_q) and n the
    Bose occupation at beta (q^2 - mu). Neither q_max nor the panels depend on
    mu < 0: they are cut at _limit_knots of mu = -1/beta, the first Newton
    point of solve_mu_limit, and each call bisects what fails at its own mu.
    """
    knots = _limit_knots(beta, -1.0 / beta, intensity)

    def density(mu: float) -> tuple[float, float]:
        def integrand(q, owner):
            n = _bose_occupations(beta * (q * q - mu))
            return _ids_weights_q(q, intensity) * n * np.where(owner == 0, 1.0, beta * (n + 1.0))

        return tuple(_integrate_panels(integrand, knots, 2, **_TOLERANCE))

    return density


def solve_mu_limit(params: ModelParams, beta: float, rho: float) -> float:
    """Limiting chemical potential: the root of density_limit below zero, or 0 if condensed.

    Newton in ln(-mu); it stops on a sign-verified bracket of width
    1e-12 * max(1, |mu|). Each step integrates the density and its
    mu-derivative in one batched Gauss-Kronrod pass over panels shared by
    both integrals and by every step (_limit_density); each integral's error
    estimate stays below quad's bound, 1e-12 of the integral plus 1e-13.
    density_limit stays on quad, an independent check.
    """
    _require_positive("rho", rho)
    rho_c = critical_density(params, beta)
    if rho >= rho_c:
        return 0.0
    return _log_newton(_limit_density(params.intensity, beta), rho, 1.0 / beta, _MU_TOLERANCE)


def condensate_density(params: ModelParams, beta: float, rho: float) -> CondensateReport:
    """Split a target density into critical and condensed parts.

    rho exactly at the critical density counts as condensed with zero
    condensate, so mu_limit is 0 there.
    """
    _require_positive("rho", rho)
    rho_c = critical_density(params, beta)
    return CondensateReport(
        rho_c=rho_c, rho_0=max(0.0, rho - rho_c), mu_limit=solve_mu_limit(params, beta, rho)
    )


def condensate_finite(
    partition: IntervalPartition, beta: float, rho: float, epsilon: float
) -> float:
    """Occupation density of all levels below the energy window `epsilon`.

    Solves for the finite-volume chemical potential at target density rho
    first. A window below the partition's ground energy is empty and yields
    exactly zero.
    """
    _, occupations = _window_occupations(partition, beta, rho, epsilon)
    return float(occupations.sum()) / partition.total_length


def _window_occupations(
    partition: IntervalPartition, beta: float, rho: float, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """The levels below epsilon and their occupations at the finite mu of density rho."""
    _require_positive("epsilon", epsilon)
    table = level_table(partition, beta, epsilon)
    mu = solve_mu_finite(table, beta, rho)
    window = table.energies[table.energies < epsilon]
    return window, _bose_occupations(beta * (window - mu))


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
