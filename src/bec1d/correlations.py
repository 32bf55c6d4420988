"""Space-averaged one-body reduced density matrix and ODLRO.

Averaging the two-point kernel over translations restores self-averaging.
For one interval of length L the average of the eigenfunction product reduces
exactly to

    cos(k r) (1 - r/L) + sin(k r) / (k L),        k = pi s / L,  r = |x - y|,

for r < L and zero otherwise (both terms survive; dropping the sine term is
not a valid reduction, which the brute-force tests pin down). Averaging over
the exponential length ensemble and resumming the mode index gives the exact
limit kernel

    K(r) = e^{-lam r} lam^2 C * integral dq q^{-2} f(q^2) e^{-m(1-u)}
           * { cos(pi y) [ w/(1-w)^2 + (1-u)/(1-w) ] + sin(pi y) / (pi (1-w)) }

with y = q r / C, u = y - floor(y), m = C lam / q, w = e^{-m} and f the Bose
occupation. The integrand is smooth between the knots y = n, which makes two
independent evaluation routes natural: panel-adaptive quadrature between
knots, and the absolutely convergent mode-index series of windowed integrals.

Both routes cut with numerics._first_pass, the one cut, and integrate the cut
with numerics._gauss_kronrod, the one loop: QUADPACK's G10K21 rule and error
estimate applied to arrays of subpanels at once. The panel route cuts every
knot panel in one call; the series cuts the window of every term of a chunk
(128 terms, doubling up to 8192) into pieces no longer than one period
2 C / r of cos(pi y). A subpanel is accepted once its estimate is at most
max(1e-16 * its share of its panel or window, 5e-13 * |its integral|); only
failing subpanels are bisected. So each route's error is at most 5e-13 of its
absolute integral plus 1e-16 per panel or term, times the prefactor. The
series keeps its stopping rule term by term and raises ConvergenceError once
its summed estimates exceed that tolerance.

kernel_limit is the one entry to both routes. It takes mu <= 0 (mu = 0 is
the critical gas), returns density_limit at r = 0, and returns 0.0 without
any quadrature where e^{-lam r} underflows. kernel_with_condensate is the
condensate density plus kernel_limit at the report's mu_limit, so at infinite
separation it tends to the condensate density; the impurities multiply the
free-gas decay by exactly e^{-lam r}.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .errors import ConvergenceError, _require_below, _require_positive
from .numerics import EXP_CUTOFF, _bose_factor, _bose_occupations, _first_pass, _gauss_kronrod
from .spectrum import C, LevelTable, ModelParams, _leading_levels
from .thermodynamics import (
    _MOMENT_BLOCK,
    _q_max,
    condensate_density,
    critical_density,
    density_finite,
    density_limit,
)

_SQRT2 = math.sqrt(2.0)
#: both kernel routes accept a subpanel at 1e-16 absolute per panel or term, 5e-13 relative
_EPSABS, _EPSREL = 1e-16, 5e-13
#: the series integrates its terms in chunks of this many, doubling up to the cap,
#: and of at most _SERIES_PIECES first-pass pieces
_SERIES_CHUNK, _SERIES_CHUNK_CAP = 128, 8192
_SERIES_PIECES = 1 << 15


def kernel_finite(table: LevelTable, mu: float, r: float) -> float:
    """Space-averaged kernel of one realization's level table at separation r, at its beta.

    Exactly equals the translation average of the eigenfunction double sum;
    only intervals longer than r contribute. They lead the table's lengths, so
    their levels and lengths are copied off the table in blocks of at most
    _MOMENT_BLOCK levels, each summed in three work arrays allocated once per
    call. At r = 0 every weight is exactly 1, so this is density_finite, which
    is returned.
    """
    r = abs(float(r))
    _require_below("|r|", r, math.inf)
    if r == 0.0:
        return density_finite(table, mu)
    _require_below("mu", mu, table.ground_energy)
    # the lengths fall, so read backwards they rise, without a copy
    longer = table.lengths.size - int(np.searchsorted(table.lengths[::-1], r, side="right"))
    if longer == 0:
        return 0.0
    total = 0.0
    work = None
    for energies, lens in _leading_levels(table, longer, _MOMENT_BLOCK):
        if work is None:  # occupations, sin(kr) and weights, reused by every block
            work = np.empty((3, energies.size))
        occ, sine, weights = work[:, :energies.size]
        np.subtract(energies, mu, out=occ)
        _bose_occupations(np.multiply(table.beta, occ, out=occ), out=occ)
        k = np.sqrt(np.multiply(2.0, energies, out=energies), out=energies)  # pi s / L
        np.multiply(k, r, out=sine)
        np.cos(sine, out=weights)  # to become cos(kr) (1 - r/L) + sin(kr) / (kL)
        np.divide(np.sin(sine, out=sine), np.multiply(k, lens, out=k), out=sine)
        weights *= np.subtract(1.0, np.divide(r, lens, out=k), out=k)
        weights += sine
        weights *= occ
        total += float(weights.sum())
    return total / table.total_length


def _limit_integrand(q, intensity: float, beta: float, mu: float, r: float):
    """Integrand of the exact limit kernel with e^{-lam r} factored out, elementwise in q."""
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = _bose_occupations(beta * (q * q - mu))
        m = C * intensity / q
        n = _bose_occupations(m)  # w / (1 - w), so 1 / (1 - w) = n + 1, w / (1 - w)^2 = n (n + 1)
        y = q * r / C
        u = y - np.floor(y)
        t = m * (1.0 - u)
        phase = np.pi * y
        bracket = (n + 1.0) * (np.cos(phase) * (n + 1.0 - u) + np.sin(phase) / np.pi)
        value = np.exp(-t) * bracket / (q * q) * f
    return np.where((q > 0.0) & (f > 0.0) & (t <= EXP_CUTOFF), value, 0.0)


def _kernel_integral_panels(intensity: float, beta: float, mu: float, r: float) -> float:
    qmax = _q_max(beta, mu, intensity)
    knot = C / r
    edges = np.append(knot * np.arange(int(qmax / knot) + 1), qmax)
    edges = edges[np.append(True, np.diff(edges) > 0.0)]
    cut = _first_pass(edges[:-1], edges[1:], np.zeros(edges.size - 1, dtype=int), _EPSABS)
    total, _, _ = _gauss_kronrod(
        lambda q, _: _limit_integrand(q, intensity, beta, mu, r), *cut, 1, _EPSREL)
    return math.exp(-intensity * r) * intensity * intensity * C * float(total[0])


def _kernel_integral_series(intensity: float, beta: float, mu: float, r: float) -> float:
    """Mode series; raises ConvergenceError once the summed error estimates
    exceed the route's tolerance, 5e-13 of the density plus 1e-16 per term.

    Term s is the windowed integral over 0 < q < min(C s / r, qmax) of
    e^{-m (s - y)} ((s - y) cos(pi y) + sin(pi y) / pi) f / q^2. The terms are
    integrated in chunks of _SERIES_CHUNK doubling to _SERIES_CHUNK_CAP, and the
    stopping and error rules run term by term in order within each chunk.
    """
    qmax = _q_max(beta, mu, intensity)
    s_window = int(qmax * r / C) + 1
    # beyond the window the terms decay like exp(-C intensity s / q), so the
    # tail length scales with qmax / intensity
    cap = s_window + int(45.0 * qmax / (C * intensity)) + 10
    prefactor = math.exp(-intensity * r) * intensity * intensity * C
    allowed = (_EPSREL * density_limit(ModelParams(intensity), beta, mu)
               + cap * _EPSABS * prefactor)
    total = abserr = 0.0
    small = 0
    # one rule over a window of many oscillations can miss a term's peak with
    # a small estimate (at lam = beta = 0.5, beta mu = -0.6242, r = 5 mode 49
    # came out as -9.8e-9 against -6.7e-12), so the first pass cuts each
    # window into pieces of at most one period 2 C / r of cos(pi y)
    width = 2.0 * C / r

    def integrand(q, owner):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            f = _bose_occupations(beta * (q * q - mu))
            depth = modes[owner] - q * r / C
            t = C * intensity / q * depth
            phase = _SQRT2 * q * r
            value = np.exp(-t) * (depth * np.cos(phase) + np.sin(phase) / np.pi) / (q * q) * f
        return np.where((f > 0.0) & (t <= EXP_CUTOFF), value, 0.0)

    # a chunk holds at most _SERIES_PIECES first-pass pieces, which bounds the
    # working arrays where a window spans many periods
    most = max(1, _SERIES_PIECES // math.ceil(qmax / width))
    first, size = 1, _SERIES_CHUNK
    while first < cap:
        modes = np.arange(first, min(first + min(size, most), cap), dtype=float)
        cut = _first_pass(np.zeros(modes.size), np.minimum(C * modes / r, qmax),
                          np.arange(modes.size), _EPSABS, width)
        terms, errors, _ = _gauss_kronrod(integrand, *cut, modes.size, _EPSREL)
        for s, term, err in zip(modes.tolist(), terms.tolist(), errors.tolist()):
            total += term
            abserr += err
            if prefactor * abserr > allowed:
                raise ConvergenceError(
                    f"kernel mode series error estimate {prefactor * abserr:.3g} "
                    f"exceeds {allowed:.3g}"
                )
            if s > s_window:
                small = small + 1 if abs(term) <= 1e-16 * max(abs(total), 1e-300) else 0
                if small >= 3:
                    return prefactor * total
        first += modes.size
        size = min(2 * size, _SERIES_CHUNK_CAP)
    raise ConvergenceError("kernel mode series did not converge")


def kernel_limit(
    params: ModelParams, beta: float, mu: float, r: float, method: str = "panels"
) -> float:
    """Thermodynamic-limit space-averaged kernel at mu <= 0.

    r = 0 gives density_limit, and a separation where e^{-lam r} underflows
    gives 0.0 before any quadrature runs. Otherwise `method` selects the
    evaluation route: "panels" integrates adaptively between the integer knots
    of the resummed integrand, "series" sums the windowed mode integrals. The
    two routes are independent and must agree; the panel route is the default.
    """
    _require_positive("beta", beta)
    _require_below("mu", mu, 0.0, inclusive=True)
    r = abs(float(r))
    _require_below("|r|", r, math.inf)
    if method not in ("panels", "series"):
        raise ValueError(f"unknown method {method!r}")
    if r == 0.0:
        return density_limit(params, beta, mu)
    if math.exp(-params.intensity * r) == 0.0:
        return 0.0
    route = _kernel_integral_panels if method == "panels" else _kernel_integral_series
    return route(params.intensity, beta, mu, r)


def kernel_with_condensate(params: ModelParams, beta: float, rho: float, r: float) -> float:
    """Limit kernel at fixed density, condensed or not.

    The condensate density plus kernel_limit at the solved chemical potential,
    which is 0 at or above the critical density; so the large-r limit exhibits
    ODLRO.
    """
    report = condensate_density(params, beta, rho)
    return report.rho_0 + kernel_limit(params, beta, report.mu_limit, r)


def odlro(params: ModelParams, beta: float, rho: float) -> float:
    """Off-diagonal long-range order: the large-separation limit of the kernel.

    Equals the condensate density max(0, rho - rho_c).
    """
    _require_positive("rho", rho)
    return max(0.0, rho - critical_density(params, beta))


def free_kernel(beta: float, mu: float, r: float) -> float:
    """Two-point kernel of the impurity-free gas.

    (1/pi) * integral dk cos(k r) / (e^{beta(k^2/2 - mu)} - 1), a Fourier-cosine
    integral, evaluated at every r (omega = r = 0 included) by quad's QAWO,
    the rule built for it.
    """
    _require_positive("beta", beta)
    _require_below("mu", mu, 0.0)
    r = abs(float(r))
    _require_below("|r|", r, math.inf)
    kmax = math.sqrt(2.0 * EXP_CUTOFF / beta)

    def integrand(k: float) -> float:
        return _bose_factor(beta * (0.5 * k * k - mu)) / math.pi

    # the cosine-weighted rule hits its roundoff floor near 1e-15 absolute (up
    # to 7e-14 at beta = 1e-3), far below any tolerance used downstream
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            integrand, 0.0, kmax, weight="cos", wvar=r,
            limit=1200, maxp1=100, epsabs=1e-14, epsrel=1e-12,
        )
    return val


def decay_rate_fit(
    params: ModelParams,
    beta: float,
    mu: float,
    r_window: tuple[float, float],
) -> float:
    """Fitted slope of ln(kernel_limit / free_kernel) at 11 separations evenly across a window.

    In the asymptotic regime the disorder multiplies the free decay by exactly
    e^{-intensity * r}, so the slope is -intensity. The window's lower edge
    must sit past the crossover scale 5 / min(intensity, sqrt(2|mu|)).
    """
    _require_below("mu", mu, 0.0)
    lo, hi = float(r_window[0]), float(r_window[1])
    if not (0 < lo < hi):
        raise ValueError(f"r_window must be an increasing positive pair, got {r_window}")
    _require_below("r_window end", hi, math.inf, error=ValueError)
    crossover = 5.0 / min(params.intensity, math.sqrt(2.0 * abs(mu)))
    if lo < crossover * (1.0 - 1e-12):
        raise ValueError(
            f"window lower edge {lo} sits before the asymptotic regime (needs >= {crossover:g})"
        )
    rs = np.linspace(lo, hi, 11)
    ratios = []
    for r in rs:
        k = kernel_limit(params, beta, mu, float(r))
        f = free_kernel(beta, mu, float(r))
        if k <= 0.0 or f <= 0.0:
            raise ConvergenceError(f"non-positive kernel value at r={r:g}; window too far out")
        ratios.append(math.log(k / f))
    slope = float(np.polyfit(rs, np.asarray(ratios), 1)[0])
    return slope
