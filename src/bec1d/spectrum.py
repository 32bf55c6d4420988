"""Dirichlet interval spectra and the integrated density of states.

Each impurity-free interval of length L carries the Dirichlet spectrum
E_s(L) = (1/2)(pi s / L)^2 = (C s / L)^2 with C = pi / sqrt(2) (units with
hbar = m = 1, kinetic operator -Laplacian/2). The volume-normalized level
count of a finite partition self-averages, and its closed-form limit

    N(E) = intensity * w / (1 - w),      w = exp(-C * intensity / sqrt(E)),

has a stretched-exponential (Lifshitz) tail at the spectral bottom and
approaches the free-line law sqrt(2 E) / pi as the intensity vanishes.
It is a Bose function, N(E) = intensity * n(C * intensity / sqrt(E)) with
n(x) = 1 / (e^x - 1), and its density of states carries the slope n (n + 1);
both come from the stable forms in bec1d.numerics. The series oracle
ids_series sums the geometric series on a plain exp instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _require_positive
from .numerics import _bose_factor, _bose_slope
from .poisson_geometry import IntervalPartition

#: Spectral constant: E_s(L) = (C s / L)^2.
C = math.pi / math.sqrt(2.0)
C_SQUARED = C * C

#: Occupation factors and level counts are truncated once
#: beta * (E - mu) exceeds this exponent; the discarded tail is below
#: 1e-20 per level.
TAIL_EXPONENT = 60.0

#: Most levels a table may hold (1 GiB of energies and lengths); a larger one
#: raises DomainError before anything is allocated, not MemoryError.
MAX_LEVELS = 2**26


@dataclass(frozen=True)
class ModelParams:
    """Impurity intensity; the spectral constant is the module's C."""

    intensity: float

    def __post_init__(self):
        if not (np.isfinite(self.intensity) and self.intensity > 0):
            raise ValueError(f"intensity must be positive, got {self.intensity}")


@dataclass(frozen=True)
class LevelTable:
    """Every level E = (C s / L)^2 of a partition up to a cutoff, with its interval length L.

    Grouped by interval; the wave number pi s / L is sqrt(2 E). One table is the
    state of a realization that every finite observable reads (see level_table).
    """

    energies: np.ndarray
    lengths: np.ndarray
    total_length: float
    energy_cutoff: float

    @functools.cached_property
    def ground_energy(self) -> float:
        return float(self.energies.min())

    @functools.cached_property
    def longest_length(self) -> np.float64:
        return self.lengths.max()


def dirichlet_eigenvalue(length: float, mode: int) -> float:
    """Energy of the mode-th Dirichlet level on an interval: (1/2)(pi*mode/length)^2."""
    if not (np.isfinite(length) and length > 0):
        raise ValueError(f"length must be positive, got {length}")
    if mode < 1:
        raise ValueError(f"mode must be >= 1, got {mode}")
    return 0.5 * (math.pi * mode / length) ** 2


def dirichlet_eigenfunction(length: float, left_endpoint: float, mode: int, x: float) -> float:
    """Normalized sine eigenfunction, zero outside the open interval."""
    if not (np.isfinite(length) and length > 0):
        raise ValueError(f"length must be positive, got {length}")
    if mode < 1:
        raise ValueError(f"mode must be >= 1, got {mode}")
    if not (left_endpoint < x < left_endpoint + length):
        return 0.0
    return math.sqrt(2.0 / length) * math.sin(math.pi * mode * (x - left_endpoint) / length)


def _modes_below(lengths: np.ndarray, energy: float) -> np.ndarray:
    """Number of modes with (C s / L)^2 strictly below `energy`, per interval.

    A level exactly at `energy` is not counted; the floor estimate is
    corrected by one strict comparison in each direction so float rounding of
    L * sqrt(E) / C cannot flip a boundary case.
    """
    n = lengths * (math.sqrt(energy) / C)
    np.floor(n, out=n)
    level = np.multiply(C, n)  # (C n / L)^2, then (C (n + 1) / L)^2, in place
    n -= np.square(np.divide(level, lengths, out=level), out=level) >= energy
    np.multiply(C, np.add(n, 1.0, out=level), out=level)
    n += np.square(np.divide(level, lengths, out=level), out=level) < energy
    return np.maximum(n, 0.0, out=n)


def counting_function(partition: IntervalPartition, energy: float) -> float:
    """Volume-normalized number of levels strictly below `energy`."""
    if not (np.isfinite(energy) and energy > 0):
        raise ValueError(f"energy must be positive, got {energy}")
    counts = _modes_below(partition.lengths, energy)
    return float(counts.sum()) / partition.total_length


def _level_modes(lengths: np.ndarray, energy_cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Level count per interval and the mode s of every level <= cutoff, grouped by interval."""
    _require_positive("energy_cutoff", energy_cutoff)
    # one extra mode keeps the cutoff inclusive; a float count cannot wrap at huge cutoffs
    counts = np.maximum(_modes_below(lengths, energy_cutoff), 1.0) + 1.0
    if counts.sum() > MAX_LEVELS:
        raise DomainError(f"{counts.sum():.3g} levels up to {energy_cutoff:g} exceed {MAX_LEVELS}")
    counts = counts.astype(np.int64)
    modes = np.ones(int(counts.sum()))
    # modes runs 1..count within each interval block, as exact floats to scale in place
    modes[np.cumsum(counts)[:-1]] -= counts[:-1]
    return counts, np.cumsum(modes, out=modes)


def build_level_table(partition: IntervalPartition, energy_cutoff: float) -> LevelTable:
    """Enumerate every level with energy <= energy_cutoff (at least one per interval)."""
    counts, energies = _level_modes(partition.lengths, energy_cutoff)
    lens = np.repeat(partition.lengths, counts)
    energies *= C  # (C s / L)^2 in place
    np.square(np.divide(energies, lens, out=energies), out=energies)
    return LevelTable(energies, lens, partition.total_length, energy_cutoff)


def ids_limit(params: ModelParams, energy: float) -> float:
    """Self-averaged integrated density of states, intensity * w / (1 - w).

    With w = exp(-C * intensity / sqrt(E)) this is intensity times the Bose
    factor at C * intensity / sqrt(E), so the Lifshitz-tail regime E -> 0
    underflows gracefully instead of overflowing.
    """
    if not (np.isfinite(energy) and energy > 0):
        raise DomainError(f"energy must be positive, got {energy}")
    return params.intensity * _bose_factor(C * params.intensity / math.sqrt(energy))


def ids_series(params: ModelParams, energy: float, tolerance: float = 1e-12) -> float:
    """Same quantity as a truncated geometric series, intensity * sum_s w^s.

    Serves as an independent oracle for ids_limit, so it shares none of its
    Bose forms; truncation stops once the certified geometric tail bound drops
    below `tolerance` relative to the accumulated sum.
    """
    if not (np.isfinite(energy) and energy > 0):
        raise DomainError(f"energy must be positive, got {energy}")
    _require_positive("tolerance", tolerance)
    w = math.exp(-C * params.intensity / math.sqrt(energy))
    if w == 0.0:
        return 0.0
    total = 0.0
    term = params.intensity
    for _ in range(100000):
        term *= w
        total += term
        if term * w / (1.0 - w) <= tolerance * total:
            break
    return total


def ids_free(energy: float) -> float:
    """Integrated density of states of the impurity-free line: sqrt(2 E) / pi."""
    if not (np.isfinite(energy) and energy > 0):
        raise DomainError(f"energy must be positive, got {energy}")
    return math.sqrt(2.0 * energy) / math.pi


def dos_limit(params: ModelParams, energy: float) -> float:
    """Density of states dN/dE: (intensity^2 C / 2) w / (E^(3/2) (1 - w)^2).

    w / (1 - w)^2 is the Bose slope n (n + 1) at C * intensity / sqrt(E).
    """
    if not (np.isfinite(energy) and energy > 0):
        raise DomainError(f"energy must be positive, got {energy}")
    lam = params.intensity
    return 0.5 * lam * lam * C / energy**1.5 * _bose_slope(C * lam / math.sqrt(energy))


def finite_amplitude_threshold(amplitude: float) -> float:
    """Upper edge pi^2 a^2 / 32 of the validity window of the finite-amplitude bound."""
    _require_positive("amplitude", amplitude)
    return (math.pi * amplitude) ** 2 / 32.0


def ids_finite_amplitude_bound(params: ModelParams, amplitude: float, energy: float) -> float:
    """Upper bound on the IDS when impurities have finite amplitude.

    Valid for energy < pi^2 amplitude^2 / 32, where the summed geometric form
    intensity * z / (1 - z) with z = exp(-intensity (C/sqrt(E) - 4/amplitude))
    converges. Recovers ids_limit as amplitude -> infinity.
    """
    limit = finite_amplitude_threshold(amplitude)
    if not (np.isfinite(energy) and 0 < energy < limit):
        raise DomainError(
            f"energy must lie in (0, pi^2 a^2/32) = (0, {limit:g}), got {energy}"
        )
    exponent = params.intensity * (C / math.sqrt(energy) - 4.0 / amplitude)
    return params.intensity * _bose_factor(exponent)
