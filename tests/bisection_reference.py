"""Reference bisection solvers for the chemical potential and the type2 coefficient.

These are the bracket-and-bisect loops bec1d used before its bracketed Newton
root finder, kept unchanged as the reference the Newton solvers are tested
against: the same brackets, the same stopping rules, one density evaluation
per halving.
"""

from __future__ import annotations

import numpy as np

from bec1d import critical_density, density_limit, hierarchical_critical_density
from bec1d.errors import ConvergenceError
from bec1d.hierarchical import hierarchical_density
from bec1d.numerics import _bose_occupations
from bec1d.spectrum import C_SQUARED
from bec1d.thermodynamics import _table

MU_TOLERANCE = 1e-12
HIERARCHICAL_MU_TOLERANCE = 1e-14
TYPE2_TOLERANCE = 1e-14


def finite_mu(partition, beta: float, rho: float) -> float:
    table = _table(partition, beta)
    ground = table.ground_energy
    volume = table.total_length

    def dens(mu: float) -> float:
        return float(_bose_occupations(beta * (table.energies - mu)).sum()) / volume

    gap = max(1e-6 / (volume * beta * rho), 8.0 * np.finfo(float).eps * abs(ground))
    hi = ground - gap
    shrink = 0
    while dens(hi) < rho:
        gap *= 0.125
        hi = ground - gap
        shrink += 1
        if shrink > 60 or gap <= 2.0 * np.finfo(float).eps * abs(ground):
            raise ConvergenceError(
                "could not bracket mu below the ground energy", (ground - gap, ground)
            )
    lo = ground - 1.0 / beta
    for _ in range(200):
        if dens(lo) < rho:
            break
        lo = ground - 2.0 * (ground - lo)
    else:
        raise ConvergenceError("no lower bracket for mu", (lo, hi))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if dens(mid) < rho:
            lo = mid
        else:
            hi = mid
        if hi - lo <= MU_TOLERANCE * max(1.0, abs(mid)):
            return 0.5 * (lo + hi)
    raise ConvergenceError("mu bisection did not converge", (lo, hi))


def limit_mu(params, beta: float, rho: float) -> float:
    if rho >= critical_density(params, beta):
        return 0.0
    lo = -1.0 / beta
    for _ in range(200):
        if density_limit(params, beta, lo) < rho:
            break
        lo *= 2.0
    else:
        raise ConvergenceError("no lower bracket for the limit mu", (lo, 0.0))
    hi = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if density_limit(params, beta, mid) < rho:
            lo = mid
        else:
            hi = mid
        if hi - lo <= MU_TOLERANCE * max(1.0, abs(mid)):
            return 0.5 * (lo + hi)
    raise ConvergenceError("limit-mu bisection did not converge", (lo, hi))


def hierarchical_mu(layout, beta: float, rho: float) -> float:
    ground = layout.ground_energy

    def dens(mu: float) -> float:
        return hierarchical_density(layout, beta, mu)

    gap = max(1e-6 / (layout.total_length * beta * rho), 8.0 * np.finfo(float).eps * abs(ground))
    hi = ground - gap
    for _ in range(80):
        if dens(hi) >= rho:
            break
        gap *= 0.125
        hi = ground - gap
    else:
        raise ConvergenceError("could not bracket mu below the ground energy", (hi, ground))
    lo = ground - 1.0 / beta
    for _ in range(300):
        if dens(lo) < rho:
            break
        lo = ground - 2.0 * (ground - lo)
    else:
        raise ConvergenceError("no lower bracket for mu", (lo, hi))
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if dens(mid) < rho:
            lo = mid
        else:
            hi = mid
        if hi - lo <= HIERARCHICAL_MU_TOLERANCE * max(1.0, abs(mid)):
            return 0.5 * (lo + hi)
    raise ConvergenceError("hierarchical mu bisection did not converge", (lo, hi))


def type2_total(intensity: float, beta: float, a: float) -> float:
    """sum_s 1/(beta intensity C^2 (s^2-1) + a), 1e5 terms plus an asymptotic tail."""
    b = beta * intensity * C_SQUARED
    s = np.arange(1.0, 100001.0)
    s_tail = 100000.5
    head = float(np.sum(1.0 / (b * (s * s - 1.0) + a)))
    return head + 1.0 / (b * s_tail) - (a - b) / (3.0 * b * b * s_tail**3)


def type2_coefficient(intensity: float, beta: float, rho: float) -> float:
    target = rho - hierarchical_critical_density(intensity, beta)
    b = beta * intensity * C_SQUARED
    lo = 1e-12
    if type2_total(intensity, beta, lo) < target:
        raise ConvergenceError("type2 coefficient bracket failed low", (0.0, lo))
    hi = max(1.0, b)
    for _ in range(200):
        if type2_total(intensity, beta, hi) < target:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("type2 coefficient bracket failed high", (lo, hi))
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if type2_total(intensity, beta, mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= TYPE2_TOLERANCE * max(1.0, mid):
            return 0.5 * (lo + hi)
    raise ConvergenceError("type2 coefficient bisection did not converge", (lo, hi))
