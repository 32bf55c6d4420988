"""Brute-force reference for the finite-volume space-averaged kernel.

kernel_finite reduces the translation average of each eigenfunction product
to a closed form; this module integrates the shifted product directly with
quad, mode by mode, so the reduction is checked against no reduction at all.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

from bec1d import C
from bec1d.errors import _require_below


def kernel_finite_bruteforce(partition, beta: float, mu: float, r: float,
                             modes_per_interval: int = 200) -> float:
    """Direct quadrature of the translation-averaged eigenfunction double sum.

    Slow reference evaluation used to validate kernel_finite on small
    partitions; no reduction of the shift integral is applied.
    """
    r = abs(float(r))
    lengths = partition.lengths
    _require_below("mu", mu, (C / lengths.max()) ** 2)
    total = 0.0
    for length in lengths:
        if length <= r:
            continue
        for s in range(1, modes_per_interval + 1):
            energy = 0.5 * (math.pi * s / length) ** 2
            x = beta * (energy - mu)
            if x > 700.0:
                break
            occ = 1.0 / math.expm1(x)
            k = math.pi * s / length

            def shifted_product(a: float) -> float:
                return math.sin(k * (a + r)) * math.sin(k * a)

            val, _ = quad(shifted_product, 0.0, length - r, limit=200, epsabs=1e-14)
            total += occ * (2.0 / length) * val
    return total / partition.total_length
