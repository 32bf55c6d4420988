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
The scalar forms flush to 0 beyond EXP_CUTOFF; the array form of n flushes
by overflow, as e^x - 1 is inf past x ~ 709.78 and 1/inf is 0. The factored
occupation splits x = a + y over levels sharing y: with A = e^a - 1 per level
(_bose_gaps) and V = e^y - 1 once (_bose_gap), n = 1/(A (V + 1) + V)
(_gap_occupations), a sum of positive terms. The integrated density of
states of the model is itself a Bose function, N(E) = lam n(C lam / sqrt(E)),
so its density of states is a slope.

The batched G10K21 layer (QUADPACK's qk21 rule and error estimate) has one
cut and one loop. _first_pass is the one cut: it splits arrays of panels into
subpanels, each with an owner and a share of its panel's absolute budget.
_gauss_kronrod is the one loop: it runs the rule on such a cut, accepts, sums
per owner and bisects what fails. _integrate_panels cuts knot panels
(_knot_cut) and runs the loop; the kernel routes cut their own panels, and a
caller that holds a cut, as the limit model does, runs the loop on it.

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
    """Elementwise 1 / (e^x - 1) for x > 0; out may be x.

    e^x - 1 overflows to inf past x ~ 709.78, so the occupation there (and at
    x = inf) is exactly 0, as the scalar form's flush beyond EXP_CUTOFF.
    """
    out = np.empty(np.shape(x)) if out is None else out
    with np.errstate(over="ignore"):
        return np.divide(1.0, np.expm1(x, out=out), out=out)


def _bose_gap(x: float) -> float:
    """e^x - 1 for x >= 0, inf past its overflow (x ~ 709.78)."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def _bose_gaps(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise e^x - 1 for 0 <= x < 709, the level factor A of _gap_occupations;
    out may be x."""
    return np.expm1(x, out=np.empty(np.shape(x)) if out is None else out)


def _gap_occupations(gaps: np.ndarray, v: float, out: np.ndarray) -> np.ndarray:
    """Bose occupations 1 / (e^{a + y} - 1) of levels with gaps A = e^a - 1 (_bose_gaps),
    at one shared V = e^y - 1 (_bose_gap), y > 0; out may be gaps.

    e^{a + y} - 1 = A (V + 1) + V, a sum of positive terms, so nothing cancels at any
    y > 0, and a step over the levels is one multiply, one add and one divide. Where V,
    or A (V + 1), overflows to inf the occupation is exactly 0, as _bose_occupations'.
    """
    if math.isinf(v):
        out.fill(0.0)
        return out
    with np.errstate(over="ignore"):
        np.multiply(gaps, v + 1.0, out=out)
    out += v
    return np.divide(1.0, out, out=out)


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


def _gk21_nodes(lo, hi):
    """The 21 G10K21 nodes of each subpanel [lo_i, hi_i], one row per subpanel, and the
    subpanels' half-widths."""
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return centre[:, None] + half[:, None] * _GK_NODES, half


def _gk21_rows(fx, half):
    """G10K21 from the integrand's rows fx at _gk21_nodes of subpanels of half-width half:
    the Kronrod value and QUADPACK's error estimate
    resasc min(1, (200 |K - G| / resasc)^1.5), floored at 50 eps resabs."""
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


def _first_pass(a, b, owner, epsabs, width=math.inf):
    """The one first-pass cut of the G10K21 layer, over panels [a_i, b_i]: the ends lo and
    hi of the subpanels, their owners and their budgets, each an equal share of its
    panel's epsabs; _gauss_kronrod runs on it.

    Every panel is cut into equal pieces no wider than `width`, and the panels into at
    least _GK_MIN_SUBPANELS pieces in all. A single rule over many oscillations or a
    narrow peak can return a wrong value with a small estimate; `width` is the caller's
    scale of the integrand's features.
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
    return lo, hi, np.asarray(owner, dtype=np.intp)[panel], epsabs / pieces[panel]


def _accepted(value, estimate, budget, epsrel):
    """The acceptance rule of _gauss_kronrod: a subpanel's estimate is at most its budget
    or epsrel times the absolute value of its integral."""
    return estimate <= np.maximum(budget, epsrel * np.abs(value))


def _gauss_kronrod(f, lo, hi, owner, budget, n_owners, epsrel):
    """The adaptive G10K21 loop over subpanels [lo_i, hi_i] cut by _first_pass, with their
    owners and budgets, summed per owner.

    f(x, owner) evaluates the integrand at an array of nodes x, one row per
    subpanel, with `owner` the matching column of owner indices. Returns the
    integral, the summed error estimate and the number of integrand
    evaluations for each of the n_owners owners.

    A subpanel is accepted (_accepted) once its error estimate (_gk21_rows) is
    at most max(its budget, epsrel * |its integral|), so the accepted estimates
    of a first-pass panel sum to at most its epsabs plus epsrel times its
    absolute integral. Only failing subpanels are bisected, each half with half
    the budget; one still failing after _GK_MAX_ROUNDS rounds raises
    ConvergenceError. f sees at most _GK_BLOCK rows per call, which bounds the
    integrand's temporaries; the caller bounds the number of subpanels.
    """
    total, error = np.zeros(n_owners), np.zeros(n_owners)
    neval = np.zeros(n_owners, dtype=np.int64)
    for _ in range(_GK_MAX_ROUNDS):
        value, estimate = np.empty(lo.size), np.empty(lo.size)
        for start in range(0, lo.size, _GK_BLOCK):
            rows = slice(start, start + _GK_BLOCK)
            x, half = _gk21_nodes(lo[rows], hi[rows])
            value[rows], estimate[rows] = _gk21_rows(f(x, owner[rows, None]), half)
        done = _accepted(value, estimate, budget, epsrel)
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


def _knot_cut(edges, owners, epsabs):
    """The first-pass cut of _integrate_panels: every knot panel [edges[i], edges[i + 1]]
    once per owner, owner 0's panels first, each with an even share of epsabs."""
    count = len(edges) - 1
    return _first_pass(np.tile(edges[:-1], owners), np.tile(edges[1:], owners),
                       np.repeat(np.arange(owners), count), epsabs / count)


def _integrate_panels(f, edges, owners, epsabs, epsrel) -> list[float]:
    """Integrals of f(x, owner) over [edges[0], edges[-1]], one per owner < owners: the
    _gauss_kronrod loop on _knot_cut(edges, owners, epsabs).

    epsabs, the whole integral's budget, is split evenly over the knot panels, so
    each integral's summed error estimate is at most epsabs plus epsrel times its
    absolute integral, quad's bound.
    """
    value, _, _ = _gauss_kronrod(f, *_knot_cut(edges, owners, epsabs), owners, epsrel)
    return value.tolist()
