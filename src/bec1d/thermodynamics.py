"""Grand-canonical thermodynamics of the disordered interval gas.

Finite-volume quantities are exact sums over the Dirichlet levels of one
partition; thermodynamic-limit quantities are integrals against the
self-averaged density of states from :mod:`bec1d.spectrum`. The critical
density is finite, so above it the chemical potential pins to the spectral
bottom and the excess density condenses.

All improper integrals are evaluated after the substitution E = q^2, which
removes the E^(-3/2) steepness of the density of states; the integrands then
vanish with all derivatives at q = 0.

The limit q-integrals (densities, pressures, kernels) end where the Bose tail
is negligible. Their integrands are bounded by the envelope
e^{-C lam / q - beta q^2} times slowly varying factors, and the envelope
exponent is smallest, phi* = 3 (C lam / 2)^(2/3) beta^(1/3), at the peak.
The range stops at beta q^2 = min(EXP_CUTOFF, phi* + TAIL_EXPONENT) above
max(mu, 0), where the envelope has fallen e^-60 below its peak: the
discarded density tail is below 1e-20 of the density. The critical density
by parts and the free kernel keep their full range, so the by-parts route
stays an independent check of the cut.

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

from .errors import DomainError
from .numerics import EXP_CUTOFF, _bose_factor, _bose_occupations, _log_newton
from .poisson_geometry import IntervalPartition
from .spectrum import C, TAIL_EXPONENT, LevelTable, ModelParams, build_level_table

_QUAD_OPTS = dict(limit=400, epsabs=1e-13, epsrel=1e-12)
_MU_TOLERANCE = 1e-12
#: table levels with beta (E - E0) at or above this split enter the mu solve through moments
_SPLIT_EXPONENT = 4.0
#: geometric-series terms kept for those levels; the remainder is e^{-40} relative
_BOSE_TERMS = 10


@dataclass(frozen=True)
class ThermoPoint:
    """A grand-canonical state, fixed either by mu or by target density."""

    beta: float
    mu: float | None = None
    rho: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if (self.mu is None) == (self.rho is None):
            raise ValueError("exactly one of mu and rho must be set")
        if self.rho is not None and self.rho <= 0:
            raise ValueError(f"rho must be positive, got {self.rho}")

    @property
    def mode(self) -> str:
        return "fixed-mu" if self.mu is not None else "fixed-rho"


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
    if not (np.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be positive, got {beta}")
    longest = source.longest_length if isinstance(source, LevelTable) else source.lengths.max()
    # one expression for both paths: the scalar (C / L)^2 may be an ulp off the table's E0
    cutoff = max((C / longest) ** 2 + TAIL_EXPONENT / beta, window)
    if not isinstance(source, LevelTable):
        return build_level_table(source, cutoff)
    if source.energy_cutoff < cutoff:
        raise ValueError(f"the table ends at {source.energy_cutoff:g}, below {cutoff:g}")
    return source


def _require_below_ground(mu: float, ground: float):
    if not np.isfinite(mu) or mu >= ground:
        raise DomainError(f"mu must lie below the spectral bottom {ground:g}, got {mu}")


def pressure_finite(source: IntervalPartition | LevelTable, beta: float, mu: float) -> float:
    """Grand-canonical pressure of one partition, or of its level table.

    -1/(beta L) * sum over levels of ln(1 - exp(-beta (E - mu))); the mode
    sums are truncated once beta (E - mu) exceeds TAIL_EXPONENT above the
    spectral bottom, with discarded tail below 1e-20 per level.
    """
    table = level_table(source, beta)
    _require_below_ground(mu, table.ground_energy)
    logs = np.subtract(table.energies, mu)  # x = beta (E - mu), then ln(1 - e^-x) in place
    np.negative(np.multiply(beta, logs, out=logs), out=logs)
    np.negative(np.expm1(logs, out=logs), out=logs)
    with np.errstate(divide="ignore"):
        np.log(logs, out=logs)
    return -float(logs.sum()) / (beta * table.total_length)


def density_finite(source: IntervalPartition | LevelTable, beta: float, mu: float) -> float:
    """Grand-canonical particle density of one partition, or of its level table."""
    table = level_table(source, beta)
    _require_below_ground(mu, table.ground_energy)
    x = np.subtract(table.energies, mu)
    return float(_bose_occupations(np.multiply(beta, x, out=x), out=x).sum()) / table.total_length


def _ids_weight_q(q: float, intensity: float) -> float:
    """Density-of-states measure after E = q^2: intensity^2 C w / (q^2 (1-w)^2)."""
    if q <= 0.0:
        return 0.0
    y = C * intensity / q
    if y > EXP_CUTOFF:
        return 0.0
    w = math.exp(-y)
    d = -math.expm1(-y)
    return intensity * intensity * C * w / (q * q * d * d)


def _q_max(beta: float, mu: float, intensity: float) -> float:
    """Upper end of the limit q-integrals: beta q^2 = phi* + TAIL_EXPONENT past the peak."""
    peak = 3.0 * (0.5 * C * intensity) ** (2.0 / 3.0) * beta ** (1.0 / 3.0)
    top = min(EXP_CUTOFF, peak + TAIL_EXPONENT) / beta + max(mu, 0.0)
    return math.sqrt(max(top, 1e-6))


def _interior_points(beta: float, mu: float, qmax: float) -> list[float]:
    knee = math.sqrt(max(1.0 / beta + min(mu, 0.0), 1.0 / beta * 0.01))
    return [p for p in (knee, math.sqrt(1.0 / beta)) if 0.0 < p < qmax]


def _limit_integral(params: ModelParams, beta: float, mu: float, weight) -> float:
    """Integral of the limiting density of states against weight(E - mu), over E = q^2."""
    lam = params.intensity
    qmax = _q_max(beta, mu, lam)

    def integrand(q: float) -> float:
        w = _ids_weight_q(q, lam)
        if w == 0.0:
            return 0.0
        return w * weight(q * q - mu)

    val, _ = quad(integrand, 0.0, qmax, points=_interior_points(beta, mu, qmax), **_QUAD_OPTS)
    return val


def pressure_limit(params: ModelParams, beta: float, mu: float) -> float:
    """Self-averaged pressure, -(1/beta) * integral of N'(E) ln(1 - e^{-beta(E-mu)})."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if not np.isfinite(mu) or mu >= 0:
        raise DomainError(f"the limit pressure needs mu < 0, got {mu}")

    def log_weight(e: float) -> float:
        x = beta * e
        return 0.0 if x > EXP_CUTOFF else math.log(-math.expm1(-x))

    return -_limit_integral(params, beta, mu, log_weight) / beta


def density_limit(params: ModelParams, beta: float, mu: float) -> float:
    """Self-averaged particle density; mu = 0 gives the critical density."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    if not np.isfinite(mu) or mu > 0:
        raise DomainError(f"the limit density needs mu <= 0, got {mu}")
    return _limit_integral(params, beta, mu, lambda e: _bose_factor(beta * e))


@functools.lru_cache(maxsize=1024)
def _critical_density_cached(intensity: float, beta: float) -> float:
    return density_limit(ModelParams(intensity), beta, 0.0)


def critical_density(params: ModelParams, beta: float) -> float:
    """Supremum of the limiting density over mu <= 0, attained at mu = 0 (finite)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    return _critical_density_cached(params.intensity, beta)


def _bose_derivative_weight(energy: float, beta: float) -> float:
    """beta e^{beta E} / (e^{beta E} - 1)^2, written in underflow-safe form."""
    x = beta * energy
    if x > EXP_CUTOFF:
        return 0.0
    u = math.exp(-x)
    d = -math.expm1(-x)
    return beta * u / (d * d)


def critical_density_by_parts(params: ModelParams, beta: float) -> float:
    """Critical density via integration by parts against the integrated DOS.

    Independent route used to cross-check critical_density: the boundary terms
    vanish because the integrated density of states has a Lifshitz tail.
    Integrated over E = q^2, with knots at q = C lam and q = 1/sqrt(beta).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    lam = params.intensity

    def integrand(q: float) -> float:
        w = _bose_derivative_weight(q * q, beta)
        if w == 0.0 or q <= 0.0:
            return 0.0
        y = C * lam / q
        if y > EXP_CUTOFF:
            return 0.0
        return 2.0 * q * lam * math.exp(-y) / (-math.expm1(-y)) * w

    qmax = math.sqrt(EXP_CUTOFF / beta)
    pts = sorted(p for p in {C * lam, 1.0 / math.sqrt(beta)} if p < qmax)
    val, _ = quad(integrand, 0.0, qmax, points=pts, **_QUAD_OPTS)
    return val


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
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    table = level_table(source, beta)
    return _log_newton(
        _table_density(table, beta), rho, 1.0 / beta, _MU_TOLERANCE, anchor=table.ground_energy
    )


def solve_mu_limit(params: ModelParams, beta: float, rho: float) -> float:
    """Limiting chemical potential: the root of density_limit below zero, or 0 if condensed.

    Newton in ln(-mu), one quad each for the density and its mu-derivative;
    it stops on a sign-verified bracket of width 1e-12 * max(1, |mu|).
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    rho_c = critical_density(params, beta)
    if rho >= rho_c:
        return 0.0

    def density(mu: float) -> tuple[float, float]:
        slope = _limit_integral(params, beta, mu, lambda e: _bose_derivative_weight(e, beta))
        return density_limit(params, beta, mu), slope

    return _log_newton(density, rho, 1.0 / beta, _MU_TOLERANCE)


def condensate_density(params: ModelParams, beta: float, rho: float) -> CondensateReport:
    """Split a target density into critical and condensed parts.

    rho exactly at the critical density counts as condensed with zero
    condensate, so mu_limit is 0 there.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
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
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    table = level_table(partition, beta, epsilon)
    mu = solve_mu_finite(table, beta, rho)
    window = table.energies[table.energies < epsilon]
    return float(_bose_occupations(beta * (window - mu)).sum()) / table.total_length


def critical_density_bound(params: ModelParams, beta: float, amplitude: float) -> float:
    """Upper bound on the critical density for finite impurity amplitude.

    Integrates the finite-amplitude IDS bound below (pi a / 8)^2 and the free
    IDS above it, both against the Bose derivative weight. Diverges as the
    amplitude shrinks to zero.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    lam = params.intensity
    e_split = (math.pi * amplitude / 8.0) ** 2
    emax = EXP_CUTOFF / beta

    def low(energy: float) -> float:
        w = _bose_derivative_weight(energy, beta)
        if w == 0.0 or energy <= 0.0:
            return 0.0
        exponent = lam * (C / math.sqrt(energy) - 4.0 / amplitude)
        if exponent > EXP_CUTOFF:
            return 0.0
        z = math.exp(-exponent)
        return lam * z / (-math.expm1(-exponent)) * w

    def high(energy: float) -> float:
        w = _bose_derivative_weight(energy, beta)
        return math.sqrt(energy) / C * w if w else 0.0

    first, _ = quad(low, 0.0, min(e_split, emax), **_QUAD_OPTS)
    second = 0.0
    if e_split < emax:
        pts = [p for p in (1.0 / beta,) if e_split < p < emax]
        second, _ = quad(high, e_split, emax, points=pts, **_QUAD_OPTS)
    return first + second
