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


def _table(partition: IntervalPartition, beta: float, extra_cutoff: float = 0.0) -> LevelTable:
    ground = (C / partition.lengths.max()) ** 2
    return build_level_table(partition, max(ground + TAIL_EXPONENT / beta, extra_cutoff))


def _require_below_ground(mu: float, ground: float):
    if not np.isfinite(mu) or mu >= ground:
        raise DomainError(f"mu must lie below the spectral bottom {ground:g}, got {mu}")


def pressure_finite(partition: IntervalPartition, beta: float, mu: float) -> float:
    """Grand-canonical pressure of one partition.

    -1/(beta L) * sum over levels of ln(1 - exp(-beta (E - mu))); the mode
    sums are truncated once beta (E - mu) exceeds TAIL_EXPONENT above the
    spectral bottom, with discarded tail below 1e-20 per level.
    """
    table = _table(partition, beta)
    _require_below_ground(mu, table.ground_energy)
    x = beta * (table.energies - mu)
    with np.errstate(divide="ignore"):
        logs = np.log(-np.expm1(-x))
    return -float(logs.sum()) / (beta * partition.total_length)


def density_finite(partition: IntervalPartition, beta: float, mu: float) -> float:
    """Grand-canonical particle density of one partition."""
    table = _table(partition, beta)
    _require_below_ground(mu, table.ground_energy)
    return float(_bose_occupations(beta * (table.energies - mu)).sum()) / partition.total_length


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
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    lam = params.intensity

    def integrand(energy: float) -> float:
        w = _bose_derivative_weight(energy, beta)
        if w == 0.0 or energy <= 0.0:
            return 0.0
        y = C * lam / math.sqrt(energy)
        if y > EXP_CUTOFF:
            return 0.0
        return lam * math.exp(-y) / (-math.expm1(-y)) * w

    emax = EXP_CUTOFF / beta
    pts = [p for p in (1.0 / beta,) if p < emax]
    val, _ = quad(integrand, 0.0, emax, points=pts, **_QUAD_OPTS)
    return val


def _solve_mu_on_table(table: LevelTable, beta: float, rho: float) -> float:
    """mu with table density rho; each Newton step is one pass over the table."""
    volume = table.total_length

    def density(mu: float) -> tuple[float, float]:
        occ = _bose_occupations(beta * (table.energies - mu))
        return float(occ.sum()) / volume, beta * float(occ @ (occ + 1.0)) / volume

    return _log_newton(density, rho, 1.0 / beta, _MU_TOLERANCE, anchor=table.ground_energy)


def solve_mu_finite(partition: IntervalPartition, beta: float, rho: float) -> float:
    """Unique mu below the partition's spectral bottom with density_finite == rho.

    Newton in ln(ground - mu), slope beta * sum n(n+1) from the same occupations
    n; it stops on a sign-verified bracket of width 1e-12 * max(1, |mu|).
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if beta <= 0:
        raise ValueError("beta must be positive")
    return _solve_mu_on_table(_table(partition, beta), beta, rho)


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
    table = _table(partition, beta, extra_cutoff=epsilon)
    mu = _solve_mu_on_table(table, beta, rho)
    occ = _bose_occupations(beta * (table.energies - mu))
    return float(occ[table.energies < epsilon].sum()) / partition.total_length


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
