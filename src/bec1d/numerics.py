"""Numerical kernels shared by the physics modules: the stable Bose factor
1/(e^x - 1), in scalar and array form, and the root finder behind every
chemical-potential solve. Leading underscores keep the functions out of
perfbench's per-layer trace, so their time counts toward the calling layer.
"""

import math

import numpy as np

from .errors import ConvergenceError

#: exponent beyond which e^-x underflows; Bose factors there are exactly 0
EXP_CUTOFF = 745.0
_MAX_STEPS = 100
_MAX_JUMP = 30.0  # largest Newton step in t = ln g, a factor e^30 ~ 1e13 in g


def _bose_factor(x: float) -> float:
    """1 / (e^x - 1) for x > 0, stable against overflow and small-x cancellation."""
    if x > EXP_CUTOFF:
        return 0.0
    return math.exp(-x) / (-math.expm1(-x))


def _bose_occupations(x: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (e^x - 1) for x > 0, flushed to 0 beyond EXP_CUTOFF."""
    with np.errstate(over="ignore"):
        return np.where(x > EXP_CUTOFF, 0.0, 1.0 / np.expm1(np.minimum(x, EXP_CUTOFF)))


def _log_newton(density, target, gap, rtol, anchor=0.0, sign=-1.0) -> float:
    """Root x = anchor + sign * g of density(x) == target, by Newton steps in t = ln g.

    density(x) returns the density and its x-derivative; the density falls
    as g grows, crossing target once. Newton runs on F = ln density - ln target,
    close to linear in t near a condensate; a step leaving the sign bracket goes
    to its midpoint. A nonzero anchor bounds g below by 4 eps |anchor|, where
    anchor - g stops being representable; a root beyond raises ConvergenceError.

    Stopping rule: return x only from a bracket with verified signs at both ends
    and width <= rtol * max(1, |x|); a step moving g by under a quarter width is
    extended by a quarter width, onto the root's far side.
    """
    lo = math.log(4.0 * np.finfo(float).eps * abs(anchor)) if anchor else -math.inf
    hi, lo_ok = math.inf, not anchor
    t, log_target = math.log(gap), math.log(target)

    def bracket(a, b):
        return tuple(sorted((anchor + sign * math.exp(a), anchor + sign * math.exp(b))))

    for _ in range(_MAX_STEPS):
        g = math.exp(t)
        x = anchor + sign * g
        n, dn_dx = density(x)
        if math.isnan(n):
            raise ConvergenceError("the density is not a number", bracket(lo, hi))
        if n >= target:
            lo, lo_ok = t, True
        elif t <= lo:
            raise ConvergenceError("root within 4 eps |anchor| of anchor", bracket(-math.inf, t))
        else:
            hi = t
        tol = rtol * max(1.0, abs(x))
        slope = sign * g * dn_dx / n if 0.0 < n < math.inf else math.nan
        step = (log_target - math.log(n)) / slope if slope < 0.0 else math.nan
        if -1.0 < step < 0.0:
            # the same Newton step taken in g: exact where F is linear in g
            step = math.log1p(step)
        if math.exp(hi) - math.exp(lo) <= tol:
            if lo_ok:
                best = t + step if math.isfinite(step) else t
                return anchor + sign * math.exp(min(max(best, lo), hi))
            t = lo
            continue
        t_new = t + math.copysign(min(abs(step), _MAX_JUMP), step)
        if abs(math.exp(t_new) - g) <= 0.25 * tol:
            past = math.exp(t_new) + (0.25 * tol if n >= target else -0.25 * tol)
            t_new = math.log(past) if past > 0.0 else -math.inf
        if not lo < t_new < hi:
            if not lo_ok and t_new <= lo:
                t_new = lo
            elif math.isinf(lo) or math.isinf(hi):
                t_new = t + (1.0 if n >= target else -1.0)
            else:
                t_new = 0.5 * (lo + hi)
        t = t_new
    raise ConvergenceError("Newton iteration did not converge", bracket(lo, hi))
