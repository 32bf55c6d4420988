"""Scalar quad references for the limit integrals of bec1d.

The package integrates the limit densities and pressures with its batched
Gauss-Kronrod rule (density_limit alone stays on quad); this module keeps the
scalar quad route over the same knots, so a batched integral can be checked
against an integrand evaluated point by point with another rule. It also keeps
the free-gas kernel as a Fourier-cosine integral on QUADPACK's QAWO rule, a
route independent of the heat-kernel series.
"""

from __future__ import annotations

import math
import warnings

from scipy.integrate import IntegrationWarning, quad

from bec1d import ModelParams
from bec1d.numerics import EXP_CUTOFF, _bose_factor
from bec1d.thermodynamics import _ids_weight_q, _q_max

_QUAD_OPTS = dict(limit=400, epsabs=1e-13, epsrel=1e-12)


def _interior_points(beta: float, mu: float, qmax: float) -> list[float]:
    knee = math.sqrt(max(1.0 / beta + min(mu, 0.0), 1.0 / beta * 0.01))
    return [p for p in (knee, math.sqrt(1.0 / beta)) if 0.0 < p < qmax]


def _limit_integral(params: ModelParams, beta: float, mu: float, weight) -> float:
    """Integral of the limiting density of states against weight(beta (E - mu)), over E = q^2."""
    lam = params.intensity
    qmax = _q_max(beta, mu, lam)

    def integrand(q: float) -> float:
        w = _ids_weight_q(q, lam)
        if w == 0.0:
            return 0.0
        return w * weight(beta * (q * q - mu))

    val, _ = quad(integrand, 0.0, qmax, points=_interior_points(beta, mu, qmax), **_QUAD_OPTS)
    return val


def free_kernel_qawo(beta: float, mu: float, r: float) -> float:
    """Free-gas kernel (1/pi) * integral dk cos(k r) / (e^{beta(k^2/2 - mu)} - 1) on QAWO.

    Its tolerance is 1e-12 relative plus 1e-14 absolute; the cosine-weighted
    rule hits its roundoff floor near 1e-15 absolute (up to 7e-14 at
    beta = 1e-3), where it warns.
    """
    kmax = math.sqrt(2.0 * EXP_CUTOFF / beta)

    def integrand(k: float) -> float:
        return _bose_factor(beta * (0.5 * k * k - mu)) / math.pi

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            integrand, 0.0, kmax, weight="cos", wvar=abs(r),
            limit=1200, maxp1=100, epsabs=1e-14, epsrel=1e-12,
        )
    return val
