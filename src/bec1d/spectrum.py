"""Dirichlet interval spectra and the integrated density of states.

Each impurity-free interval of length L carries the Dirichlet spectrum
E_s(L) = (1/2)(pi s / L)^2 = (C s / L)^2 with C = pi / sqrt(2) (units with
hbar = m = 1, kinetic operator -Laplacian/2). The volume-normalized level
count of a finite partition self-averages, and its closed-form limit

    N(E) = intensity * w / (1 - w),      w = exp(-C * intensity / sqrt(E)),

has a stretched-exponential (Lifshitz) tail at the spectral bottom and
approaches the free-line law sqrt(2 E) / pi as the intensity vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import EXP_CUTOFF
from .poisson_geometry import IntervalPartition

#: Spectral constant: E_s(L) = (C s / L)^2.
C = math.pi / math.sqrt(2.0)
C_SQUARED = C * C

#: Occupation factors and level counts are truncated once
#: beta * (E - mu) exceeds this exponent; the discarded tail is below
#: 1e-20 per level.
TAIL_EXPONENT = 60.0


@dataclass(frozen=True)
class ModelParams:
    """Impurity intensity together with the fixed spectral constant."""

    intensity: float
    c: float = C

    def __post_init__(self):
        if not (np.isfinite(self.intensity) and self.intensity > 0):
            raise ValueError(f"intensity must be positive, got {self.intensity}")
        if abs(self.c - C) > 4.0 * np.finfo(float).eps * C:
            raise ValueError("the spectral constant is fixed at pi/sqrt(2)")


@dataclass(frozen=True)
class SpectralLevel:
    """One Dirichlet level of one interval of a partition."""

    interval_index: int
    quantum_number: int
    energy: float


@dataclass(frozen=True)
class LevelTable:
    """Flat arrays of every level of a partition below an energy cutoff.

    Built once per partition and reused by occupation sums, chemical-potential
    solvers and correlation kernels; entries are grouped by interval.
    """

    energies: np.ndarray
    lengths: np.ndarray
    quantum_numbers: np.ndarray
    interval_indices: np.ndarray
    total_length: float
    energy_cutoff: float

    @property
    def ground_energy(self) -> float:
        return float(self.energies.min())


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
    x = lengths * (math.sqrt(energy) / C)
    n = np.floor(x)
    n = np.where((C * n / lengths) ** 2 >= energy, n - 1.0, n)
    n = np.where((C * (n + 1.0) / lengths) ** 2 < energy, n + 1.0, n)
    return np.maximum(n, 0.0)


def counting_function(partition: IntervalPartition, energy: float) -> float:
    """Volume-normalized number of levels strictly below `energy`."""
    if not (np.isfinite(energy) and energy > 0):
        raise ValueError(f"energy must be positive, got {energy}")
    counts = _modes_below(partition.lengths, energy)
    return float(counts.sum()) / partition.total_length


def build_level_table(partition: IntervalPartition, energy_cutoff: float) -> LevelTable:
    """Enumerate every level with energy <= energy_cutoff (at least one per interval)."""
    if energy_cutoff <= 0:
        raise ValueError("energy_cutoff must be positive")
    lengths = partition.lengths
    counts = np.maximum(_modes_below(lengths, energy_cutoff), 1.0).astype(np.int64)
    # one extra mode per interval so the cutoff comparison stays inclusive
    counts += 1
    total = int(counts.sum())
    modes = np.ones(total, dtype=np.int64)
    starts = np.zeros(len(counts), dtype=np.int64)
    starts[1:] = np.cumsum(counts)[:-1]
    # modes runs 1..count within each interval block
    modes[starts[1:]] -= counts[:-1]
    modes = np.cumsum(modes)
    owner = np.repeat(np.arange(len(counts)), counts)
    lens = lengths[owner]
    energies = (C * modes / lens) ** 2
    return LevelTable(
        energies=energies,
        lengths=lens,
        quantum_numbers=modes,
        interval_indices=owner,
        total_length=partition.total_length,
        energy_cutoff=energy_cutoff,
    )


def levels_below(partition: IntervalPartition, energy_cutoff: float) -> list[SpectralLevel]:
    """Per-level records below the cutoff, for inspection and small partitions."""
    table = build_level_table(partition, energy_cutoff)
    keep = table.energies <= energy_cutoff
    return [
        SpectralLevel(int(j), int(s), float(e))
        for j, s, e in zip(
            table.interval_indices[keep], table.quantum_numbers[keep], table.energies[keep]
        )
    ]


def _tail_weight(energy: float) -> float:
    """exp(-energy), flushed to zero below the representable range."""
    return math.exp(-energy) if energy < EXP_CUTOFF else 0.0


def ids_limit(params: ModelParams, energy: float) -> float:
    """Self-averaged integrated density of states, intensity * w / (1 - w).

    Evaluated through w = exp(-C * intensity / sqrt(E)) so the Lifshitz-tail
    regime E -> 0 underflows gracefully instead of overflowing.
    """
    if not (np.isfinite(energy) and energy > 0):
        raise DomainError(f"energy must be positive, got {energy}")
    y = C * params.intensity / math.sqrt(energy)
    w = _tail_weight(y)
    return params.intensity * w / (-math.expm1(-y))


def ids_series(params: ModelParams, energy: float, tolerance: float = 1e-12) -> float:
    """Same quantity as a truncated geometric series, intensity * sum_s w^s.

    Serves as an independent oracle for ids_limit; truncation stops once the
    certified geometric tail bound drops below `tolerance` relative to the
    accumulated sum.
    """
    if not (np.isfinite(energy) and energy > 0):
        raise DomainError(f"energy must be positive, got {energy}")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    y = C * params.intensity / math.sqrt(energy)
    w = _tail_weight(y)
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
    """Density of states dN/dE: (intensity^2 C / 2) w / (E^(3/2) (1 - w)^2)."""
    if not (np.isfinite(energy) and energy > 0):
        raise DomainError(f"energy must be positive, got {energy}")
    lam = params.intensity
    y = C * lam / math.sqrt(energy)
    w = _tail_weight(y)
    denom = -math.expm1(-y)
    return 0.5 * lam * lam * C * w / (energy**1.5 * denom * denom)


def finite_amplitude_threshold(amplitude: float) -> float:
    """Upper edge pi^2 a^2 / 32 of the validity window of the finite-amplitude bound."""
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
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
    z = _tail_weight(exponent)
    return params.intensity * z / (-math.expm1(-exponent))
