"""Scalar quad reference for the limit integrals of bec1d.thermodynamics.

The package integrates the limit densities and pressures with its batched
Gauss-Kronrod rule (density_limit alone stays on quad); this module keeps the
scalar quad route over the same knots, so a batched integral can be checked
against an integrand evaluated point by point with another rule.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

from bec1d import ModelParams
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
