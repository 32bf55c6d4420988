"""Small helpers shared by the test modules."""

from __future__ import annotations

import math

import numpy as np

from bec1d import C, IntervalPartition, ModelParams, density_limit
from bec1d.numerics import EXP_CUTOFF


def partition(lengths) -> IntervalPartition:
    """The partition of a segment into the given lengths, left to right."""
    lengths = np.asarray(lengths, dtype=float)
    return IntervalPartition(lengths, float(lengths.sum()))


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov sup distance between an empirical sample and a CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    theo = cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - theo)
    lower = np.max(theo - np.arange(0, n) / n)
    return float(max(upper, lower))


def fit_slope(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.polyfit(np.asarray(x, float), np.asarray(y, float), 1)[0])


def kernel_route_bound(lam: float, beta: float, mu: float, r: float, route: str) -> float:
    """Error bound of one limit-kernel route, in the form the benchmark checks.

    5e-13 of the density at mu, plus 1e-16 times the prefactor lam^2 C e^{-lam r}
    per panel ("panels") or per series term ("series"), both counted over the
    full range q < sqrt(EXP_CUTOFF / beta). Two routes agree to the sum of
    their bounds.
    """
    q_max = math.sqrt(EXP_CUTOFF / beta)
    calls = int(q_max * r / C) + 1
    if route == "series":
        calls += int(45.0 * q_max / (C * lam)) + 10
    prefactor = lam * lam * C * math.exp(-lam * r)
    return 5e-13 * density_limit(ModelParams(lam), beta, mu) + calls * 1e-16 * prefactor


def quad_bound(value: float) -> float:
    """Error bound of one thermodynamics quad result: epsrel 1e-12, epsabs 1e-13."""
    return 1e-12 * abs(value) + 1e-13
