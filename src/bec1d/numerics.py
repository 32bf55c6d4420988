"""Numerical kernels shared by the physics modules: the stable Bose forms,
the root finder behind every chemical-potential solve, and the batched
Gauss-Kronrod quadrature behind every smooth limit integral but two (the
density certificate and the free-gas Fourier kernel stay on scipy's quad).
Leading underscores keep the functions out of perfbench's per-layer trace,
so their time counts toward the calling layer.

The Bose forms are the only place in the package that calls expm1 or log1p:
the occupation n = 1/(e^x - 1) (_bose_factor, _bose_occupations), its slope
n (n + 1) = e^-x / (1 - e^-x)^2 = -dn/dx (_bose_slope, _bose_slopes) and the
pressure weight ln(1 - e^-x) (_log1mexps, array form only), each for x > 0.
The integrated density of states of the model is itself a Bose function,
N(E) = lam n(C lam / sqrt(E)), so its density of states is a slope.

Per-step array kernels write into work arrays allocated once per call (the
`out=` of numpy ufuncs and of _bose_occupations): a fresh temporary of 50k
doubles or more page-faults anew on every Newton step or separation.
"""

import math

import numpy as np

from .errors import ConvergenceError

#: exponent beyond which e^-x underflows; Bose factors there are exactly 0
EXP_CUTOFF = 745.0
_LN2 = math.log(2.0)
_MAX_STEPS = 100
_MAX_JUMP = 30.0  # largest Newton step in t = ln g, a factor e^30 ~ 1e13 in g

# QUADPACK's qk21 (Piessens et al. 1983): the 21 Kronrod abscissae on [-1, 1]
# with their weights, and the weights of the embedded 10-point Gauss rule,
# whose nodes are the odd-indexed Kronrod abscissae.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980284452, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_GK_KRONROD = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GK_GAUSS = np.zeros(21)
_GK_GAUSS[1:10:2] = _WG
_GK_GAUSS[11::2] = _WG[::-1]
#: the first pass splits the panels into at least this many subpanels
_GK_MIN_SUBPANELS = 32
#: bisection rounds before _gauss_kronrod gives up
_GK_MAX_ROUNDS = 60
#: most subpanels passed to the integrand at once
_GK_BLOCK = 1024


def _bose_factor(x: float) -> float:
    """1 / (e^x - 1) for x > 0, stable against overflow and small-x cancellation."""
    if x > EXP_CUTOFF:
        return 0.0
    return math.exp(-x) / (-math.expm1(-x))


def _bose_occupations(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise 1 / (e^x - 1) for x > 0, flushed to 0 beyond EXP_CUTOFF; out may be x."""
    beyond = x > EXP_CUTOFF
    out = np.minimum(x, EXP_CUTOFF, out=np.empty(np.shape(x)) if out is None else out)
    with np.errstate(over="ignore"):
        np.divide(1.0, np.expm1(out, out=out), out=out)
    np.copyto(out, 0.0, where=beyond)
    return out


def _bose_slope(x: float) -> float:
    """n (n + 1) = e^-x / (1 - e^-x)^2 for x > 0, flushed to 0 beyond EXP_CUTOFF."""
    if x > EXP_CUTOFF:
        return 0.0
    d = -math.expm1(-x)
    return math.exp(-x) / d / d  # d * d would underflow to 0 below x ~ 1e-162


def _bose_slopes(x: np.ndarray) -> np.ndarray:
    """Elementwise n (n + 1) for x > 0, with n = _bose_occupations(x)."""
    n = _bose_occupations(x)
    with np.errstate(over="ignore"):  # inf below x ~ 1e-154, as the scalar form
        return np.multiply(n, n + 1.0, out=n)


def _log1mexps(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise ln(1 - e^-x) for x > 0: ln(-expm1(-x)) up to x = ln 2,
    log1p(-e^-x) beyond; out may be x.

    The switch is Maechler's (2012): 1 - e^-x rounds near 1 for large x, so
    ln(-expm1(-x)) alone is off by 1e-3 of its value at x = 30, while
    log1p(-e^-x) loses the small-x digits that expm1 keeps.
    """
    far = x > _LN2
    near = ~far
    out = np.negative(x, out=np.empty(np.shape(x)) if out is None else out)
    np.exp(out, out=out, where=far)
    np.expm1(out, out=out, where=near)
    np.negative(out, out=out)
    np.log1p(out, out=out, where=far)
    with np.errstate(divide="ignore"):
        np.log(out, out=out, where=near)
    return out


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


def _gk21(f, lo, hi, owner):
    """G10K21 on each subpanel [lo_i, hi_i]: the Kronrod value and QUADPACK's
    error estimate resasc min(1, (200 |K - G| / resasc)^1.5), floored at
    50 eps resabs."""
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fx = f(centre[:, None] + half[:, None] * _GK_NODES, owner[:, None])
    kronrod = np.einsum("ij,j->i", fx, _GK_KRONROD)
    gauss = np.einsum("ij,j->i", fx, _GK_GAUSS)
    resabs = np.einsum("ij,j->i", np.abs(fx), _GK_KRONROD)
    resasc = np.einsum("ij,j->i", np.abs(fx - 0.5 * kronrod[:, None]), _GK_KRONROD)
    estimate = np.abs(kronrod - gauss)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * estimate / resasc) ** 1.5)
    estimate = np.where((resasc != 0.0) & (estimate != 0.0), scaled, estimate)
    estimate = np.maximum(estimate, 50.0 * np.finfo(float).eps * resabs)
    return kronrod * half, estimate * np.abs(half)


def _gauss_kronrod(f, a, b, owner, n_owners, epsabs, epsrel, width=math.inf):
    """Adaptive G10K21 quadrature over arrays of panels [a_i, b_i], summed per owner.

    f(x, owner) evaluates the integrand at an array of nodes x, one row per
    subpanel, with `owner` the matching column of owner indices. Returns the
    integral, the summed error estimate and the number of integrand
    evaluations for each of the n_owners owners.

    The first pass cuts every panel into pieces no wider than `width`, and
    the panels into at least _GK_MIN_SUBPANELS pieces in all. A single rule
    over many oscillations or a narrow peak can return a wrong value with a
    small estimate; `width` is the caller's scale of the integrand's features.

    A subpanel is accepted once its error estimate (see _gk21) is at most
    max(epsabs * its share of its initial panel, epsrel * |its integral|), so a
    panel's accepted estimates sum to at most epsabs + epsrel times its
    absolute integral. Only failing subpanels are bisected; one still failing
    after _GK_MAX_ROUNDS rounds raises ConvergenceError. f sees at most
    _GK_BLOCK rows per call, which bounds the integrand's temporaries; the
    caller bounds the number of panels.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    # the minimum split also spares a handful of panels one round of array
    # overhead per bisection level
    pieces = np.maximum(np.ceil((b - a) / width), -(-_GK_MIN_SUBPANELS // max(a.size, 1)))
    pieces = pieces.astype(np.intp)
    panel = np.repeat(np.arange(a.size), pieces)
    ends = np.cumsum(pieces)
    k = np.arange(panel.size) - np.repeat(ends - pieces, pieces)
    lo = a[panel] + (b - a)[panel] * (k / pieces[panel])
    hi = np.append(lo[1:], 0.0)
    hi[ends - 1] = b
    owner = np.asarray(owner, dtype=np.intp)[panel]
    budget = epsabs / pieces[panel]
    total, error = np.zeros(n_owners), np.zeros(n_owners)
    neval = np.zeros(n_owners, dtype=np.int64)
    for _ in range(_GK_MAX_ROUNDS):
        value, estimate = np.empty(lo.size), np.empty(lo.size)
        for start in range(0, lo.size, _GK_BLOCK):
            rows = slice(start, start + _GK_BLOCK)
            value[rows], estimate[rows] = _gk21(f, lo[rows], hi[rows], owner[rows])
        done = estimate <= np.maximum(budget, epsrel * np.abs(value))
        total += np.bincount(owner[done], value[done], n_owners)
        error += np.bincount(owner[done], estimate[done], n_owners)
        neval += 21 * np.bincount(owner, minlength=n_owners)
        if done.all():
            return total, error, neval
        keep = ~done
        centre = 0.5 * (lo[keep] + hi[keep])
        lo, hi = np.concatenate([lo[keep], centre]), np.concatenate([centre, hi[keep]])
        owner = np.tile(owner[keep], 2)
        budget = np.tile(0.5 * budget[keep], 2)
    raise ConvergenceError(
        f"Gauss-Kronrod quadrature left {lo.size} subpanels unresolved "
        f"after {_GK_MAX_ROUNDS} rounds"
    )


def _integrate_panels(f, edges, owners, epsabs, epsrel) -> list[float]:
    """Integrals of f(x, owner) over [edges[0], edges[-1]], one per owner < owners.

    Each knot panel [edges[i], edges[i + 1]] is one _gauss_kronrod panel per
    owner, and epsabs, the whole integral's budget, is split evenly over the
    panels: each integral's summed error estimate is at most epsabs plus
    epsrel times its absolute integral, quad's bound.
    """
    count = len(edges) - 1
    value, _, _ = _gauss_kronrod(
        f, np.tile(edges[:-1], owners), np.tile(edges[1:], owners),
        np.repeat(np.arange(owners), count), owners, epsabs / count, epsrel,
    )
    return value.tolist()
