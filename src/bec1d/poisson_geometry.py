"""Random interval partitions of a segment and their order statistics.

Impenetrable point impurities on a segment of length L split it into
independent intervals; every spectral and thermodynamic quantity of the gas
depends on the impurity configuration only through the interval lengths.
This module samples the two standard ensembles (fixed impurity count with
uniform positions, and Poisson-distributed count) and provides the exact
order statistics of the limiting ensemble, where a sample of k interval
lengths consists of k independent Exponential(lambda) variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _require_positive
from .rng import as_generator

# Euler-Mascheroni constant, stored as a literal to keep the module free of
# runtime special-function dependencies.
EULER_GAMMA = 0.5772156649015328606
# Apery's constant zeta(3), needed to seed the log-moment recurrences.
ZETA_3 = 1.2020569031595942854

_PI = math.pi

# Gamma^(s)(1) for s = 0..4, the t = 0 seeds of the log-moment table.
_GAMMA_DERIVATIVES_AT_ONE = (
    1.0,
    -EULER_GAMMA,
    EULER_GAMMA**2 + _PI**2 / 6.0,
    -(EULER_GAMMA**3) - EULER_GAMMA * _PI**2 / 2.0 - 2.0 * ZETA_3,
    EULER_GAMMA**4 + EULER_GAMMA**2 * _PI**2 + 3.0 * _PI**4 / 20.0 + 8.0 * EULER_GAMMA * ZETA_3,
)

LOG_MOMENT_MAX_POWER = 4
LOG_MOMENT_MAX_DEGREE = 60


@dataclass(frozen=True)
class IntervalPartition:
    """Ordered interval lengths tiling a segment.

    Attributes:
        lengths: positive interval lengths, left to right.
        total_length: segment length L; lengths sum to it within 1e-12 * L.
    """

    lengths: np.ndarray
    total_length: float

    def __post_init__(self):
        lengths = np.asarray(self.lengths, dtype=float)
        object.__setattr__(self, "lengths", lengths)
        if not np.isfinite(self.total_length) or self.total_length <= 0:
            raise ValueError(f"total_length must be positive and finite, got {self.total_length}")
        if lengths.ndim != 1 or lengths.size == 0:
            raise ValueError("lengths must be a non-empty 1-d array")
        if not np.all(lengths > 0):
            raise ValueError("every interval length must be positive")
        if abs(lengths.sum() - self.total_length) > 1e-12 * self.total_length:
            raise ValueError("interval lengths do not tile the segment")

    @property
    def n_intervals(self) -> int:
        return self.lengths.size

    @property
    def impurity_count(self) -> int:
        """Number of interior impurities, one fewer than the intervals."""
        return self.lengths.size - 1


@dataclass(frozen=True)
class PoissonParams:
    """Impurity intensity (points per unit length) and base seed."""

    intensity: float
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.intensity) and self.intensity > 0):
            raise ValueError(f"intensity must be positive, got {self.intensity}")


def _uniform_gaps(count: int, total_length: float, rng: np.random.Generator) -> np.ndarray:
    """total_length times the count + 1 gaps of count uniform points on the unit interval.

    A coincident pair (probability ~ count^2 * 2^-53) would make a zero-length
    interval; the points are then redrawn from the same stream.
    """
    while True:
        edges = np.concatenate(([0.0], np.sort(rng.random(count)), [1.0]))
        lengths = total_length * np.diff(edges)
        if np.all(lengths > 0):
            return lengths


def sample_uniform_partition(total_length: float, n_intervals: int, seed) -> IntervalPartition:
    """Drop n-1 independent uniform impurities on the segment.

    Positions are drawn on the unit interval and scaled afterwards, so two
    samples with the same seed and different total_length are exact rescalings
    of each other.
    """
    if not (np.isfinite(total_length) and total_length > 0):
        raise ValueError(f"total_length must be positive and finite, got {total_length}")
    if n_intervals < 1:
        raise ValueError(f"n_intervals must be >= 1, got {n_intervals}")
    lengths = _uniform_gaps(n_intervals - 1, total_length, as_generator(seed))
    return IntervalPartition(lengths, total_length)


def poisson_lengths(intensity: float, total_length: float, rng: np.random.Generator) -> np.ndarray:
    """Interval lengths of one Poisson impurity configuration (internal driver path)."""
    if not (math.isfinite(total_length) and total_length > 0):  # L = 0 would redraw forever
        raise DomainError(f"total_length must be positive and finite, got {total_length}")
    mean_count = intensity * total_length
    if mean_count > 2.0**62:
        raise DomainError(f"expected impurity count {mean_count:g} exceeds integer range")
    return _uniform_gaps(int(rng.poisson(mean_count)), total_length, rng)


def sample_poisson_partition(total_length: float, params: PoissonParams) -> IntervalPartition:
    """Poisson(intensity * L) impurities, uniformly placed; zero count gives one interval."""
    lengths = poisson_lengths(params.intensity, total_length, as_generator(params.seed))
    return IntervalPartition(lengths, total_length)


def sample_ordered_lengths(intensity: float, k: int, seed) -> np.ndarray:
    """k independent Exponential(intensity) lengths, sorted non-increasing.

    This is the limiting joint law of any k interval lengths of the Poisson
    ensemble, which is what the closed-form order statistics below refer to.
    """
    _require_positive("intensity", intensity)
    if k < 1:
        raise ValueError("k must be >= 1")
    return np.sort(as_generator(seed).exponential(1.0 / intensity, size=k))[::-1]


def expected_largest(intensity: float, k: int) -> float:
    """Mean of the largest of k exponential interval lengths: H_k / intensity."""
    _require_positive("intensity", intensity)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return math.fsum(1.0 / s for s in range(1, k + 1)) / intensity


def expected_second_largest(intensity: float, k: int) -> float:
    """Mean of the second largest of k exponential lengths: (H_k - 1) / intensity.

    The mean gap to the largest is 1/intensity for every k >= 2.
    """
    _require_positive("intensity", intensity)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return math.fsum(1.0 / s for s in range(2, k + 1)) / intensity


def largest_asymptotic(intensity: float, k: int, which: str = "first") -> float:
    """Large-k mean of the (first or second) largest length.

    Returns (ln k + P) / intensity with P the Euler constant for the largest
    and Euler constant - 1 for the second largest; the neglected remainder is
    O(1/k).
    """
    _require_positive("intensity", intensity)
    if k < 3:
        raise ValueError(f"asymptotic form needs k >= 3, got {k}")
    if which == "first":
        shift = EULER_GAMMA
    elif which == "second":
        shift = EULER_GAMMA - 1.0
    else:
        raise ValueError(f"which must be 'first' or 'second', got {which!r}")
    return (math.log(k) + shift) / intensity


def gap_exceedance_probability(intensity: float, delta: float) -> float:
    """P{largest - second largest > delta} = exp(-intensity * delta), any sample size."""
    _require_positive("intensity", intensity)
    if not delta >= 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    return math.exp(-intensity * delta)


def gap_variance(intensity: float) -> float:
    """Variance of (largest - second largest): 1 / intensity^2, any sample size."""
    _require_positive("intensity", intensity)
    return 1.0 / (intensity * intensity)


def log_moment(power: int, degree: int) -> float:
    """Integral of ln(x)^power * x^degree * e^(-x) over (0, inf).

    Equals the power-th derivative of Gamma at degree + 1. Evaluated from the
    two-index recurrence
        M(s, t) = t * M(s, t-1) + s * M(s-1, t-1),
    seeded by M(0, t) = t! and the Gamma derivatives at 1 in the t = 0 column.
    Supported for 0 <= power <= 4, 0 <= degree <= 60.
    """
    if not (0 <= power <= LOG_MOMENT_MAX_POWER):
        raise ValueError(f"power must be in [0, {LOG_MOMENT_MAX_POWER}], got {power}")
    if not (0 <= degree <= LOG_MOMENT_MAX_DEGREE):
        raise ValueError(f"degree must be in [0, {LOG_MOMENT_MAX_DEGREE}], got {degree}")
    return _log_moment_table()[power][degree]


def _log_moment_table():
    global _LOG_MOMENT_CACHE
    if _LOG_MOMENT_CACHE is None:
        t_max = LOG_MOMENT_MAX_DEGREE
        table = [[0.0] * (t_max + 1) for _ in range(LOG_MOMENT_MAX_POWER + 1)]
        table[0] = [float(math.factorial(t)) for t in range(t_max + 1)]
        for s in range(1, LOG_MOMENT_MAX_POWER + 1):
            table[s][0] = _GAMMA_DERIVATIVES_AT_ONE[s]
            for t in range(1, t_max + 1):
                table[s][t] = t * table[s][t - 1] + s * table[s - 1][t - 1]
        _LOG_MOMENT_CACHE = table
    return _LOG_MOMENT_CACHE


_LOG_MOMENT_CACHE = None
