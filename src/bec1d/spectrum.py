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

from .errors import ConvergenceError, DomainError, _require_below, _require_positive
from .numerics import _bose_factor, _bose_slope
from .poisson_geometry import IntervalPartition

#: Spectral constant: E_s(L) = (C s / L)^2.
C = math.pi / math.sqrt(2.0)
C_SQUARED = C * C

#: Tables and towers end TABLE_EXPONENT / beta above their ground level;
#: _level_cutoff states the bound on what the levels past it could add.
TABLE_EXPONENT = 40.0

#: Most levels a table may hold (512 MiB of energies); a larger one raises
#: DomainError before anything is allocated, not MemoryError.
MAX_LEVELS = 2**26


@dataclass(frozen=True)
class ModelParams:
    """Impurity intensity; the spectral constant is the module's C."""

    intensity: float

    def __post_init__(self):
        _require_positive("intensity", self.intensity)


@dataclass(frozen=True)
class LevelTable:
    """Every level E = (C s / L)^2 of a partition below its cutoff (_level_cutoff), 8 bytes each.

    `lengths` are the intervals that have a level, longest first, and `counts`
    their numbers of levels, which fall with the length. `energies` is
    mode-major: block s holds the s-th level of every interval with at least s
    levels, a prefix of `lengths`, so each block ascends and the ground level E0
    comes first. build_level_table is the only constructor, so that order and
    that cutoff hold for every table. The wave number pi s / L is sqrt(2 E). One
    table is the state of a realization that every finite observable reads, at
    the `beta` the table was built at.
    """

    energies: np.ndarray
    lengths: np.ndarray
    counts: np.ndarray
    total_length: float
    beta: float

    @functools.cached_property
    def ground_energy(self) -> float:
        return float(self.energies[0])


def dirichlet_eigenvalue(length: float, mode: int) -> float:
    """Energy of the mode-th Dirichlet level on an interval: (1/2)(pi*mode/length)^2."""
    _require_positive("length", length)
    if mode < 1:
        raise ValueError(f"mode must be >= 1, got {mode}")
    return 0.5 * (math.pi * mode / length) ** 2


def dirichlet_eigenfunction(length: float, left_endpoint: float, mode: int, x: float) -> float:
    """Normalized sine eigenfunction, zero outside the open interval."""
    _require_positive("length", length)
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
    _require_positive("energy", energy)
    counts = _modes_below(partition.lengths, energy)
    return float(counts.sum()) / partition.total_length


def _level_cutoff(longest: float, beta: float) -> float:
    """E0 + TABLE_EXPONENT / beta, E0 = (C / longest)^2: where every table and tower ends.

    The cut costs at most a stated share of the density. With y = TABLE_EXPONENT,
    Ec the cutoff and S = sum e^{-beta (E - E0)} over the levels past it (S_om)
    or below it (S_kept), for every mu < E0 the levels past the cutoff add at most

        b = S_om / ((1 - e^{-y}) S_kept)

    of the table's density and of its beta p L, since e^{-x} <= n(x),
    -ln(1 - e^{-x}) <= e^{-x} / (1 - e^{-y}) for x >= y. A kernel weight is at
    most 1 in size, so the kernel moves by at most b times the density, and the
    solved mu by at most b / beta (d ln density / d mu >= beta). The levels below E
    number at most N(E) = L sqrt(E) / C, so by parts

        S_om <= L / (C sqrt(beta)) e^{-y} (sqrt(beta Ec) + sqrt(pi) / 2 erfcx(sqrt(beta Ec))).

    At y = 40, e^{-40} ~ 4e-18, b stays below 7e-16 on the benchmark's tables
    (L = 500 to 6e4, lambda and beta from 0.25 to 2; largest at lambda = beta = 2).
    """
    return (C / longest) ** 2 + TABLE_EXPONENT / beta


def build_level_table(partition: IntervalPartition, beta: float) -> LevelTable:
    """Enumerate every level strictly below E0 + TABLE_EXPONENT / beta, mode by mode.

    Block s holds the levels (C s / L)^2 of every interval with at least s
    such levels, longest interval first, so each block ascends and the table
    starts at its ground level E0. An interval without such a level is absent;
    DomainError if no level is left, as when the cutoff rounds to E0.
    """
    _require_positive("beta", beta)
    lengths = np.sort(partition.lengths)[::-1]
    cutoff = _level_cutoff(lengths[0], beta)
    counts = _modes_below(lengths, cutoff)  # a float count cannot wrap
    if not 0 < counts.sum() <= MAX_LEVELS:
        raise DomainError(f"{counts.sum():.3g} levels below {cutoff:g}, not 1..{MAX_LEVELS}")
    # counts fall with the length, so the intervals with a level are a prefix, and so are
    # those with at least s levels; a prefix of m intervals ends where the count drops,
    # and serves as many blocks as it drops by
    kept = np.count_nonzero(counts)
    lengths, counts = lengths[:kept].copy(), counts[:kept].astype(np.int64)
    drops = counts - np.append(counts[1:], 0)
    ends = np.flatnonzero(drops)[::-1]
    prefixes, repeats = (ends + 1).tolist(), drops[ends].tolist()
    energies = np.repeat(C * np.arange(1.0, counts[0] + 1.0), np.repeat(prefixes, repeats))
    start = 0
    for m, k in zip(prefixes, repeats):  # k blocks over the same m intervals: one (k, m) view
        run = energies[start:start + m * k].reshape(k, m)
        np.divide(run, lengths[:m], out=run)  # C s / L in place, no level-sized length array
        start += m * k
    np.square(energies, out=energies)
    return LevelTable(energies, lengths, counts, partition.total_length, beta)


def _leading_levels(table: LevelTable, n: int, block: int):
    """The energies and interval lengths of the levels of the table's n longest intervals,
    in table order, in successive blocks of at most `block` levels.

    Block s of the table holds its m_s intervals with at least s levels, longest first, so
    the n longest hold the first min(m_s, n) entries of every mode block, whose lengths are
    the table's first min(m_s, n) lengths; n >= 1 holds some of each. Those runs are copied
    off the table bit for bit into two work arrays allocated once, so each block overwrites
    the one before and is the caller's to overwrite.
    """
    counts = table.counts  # falling, so read backwards it rises, without a copy
    sizes = counts.size - np.searchsorted(counts[::-1], np.arange(1, counts[0] + 1), side="left")
    kept = np.minimum(sizes, n)
    size = min(int(kept.sum()), block)
    energies, lengths = np.empty(size), np.empty(size)
    runs, filled = [], 0
    for start, count in zip((np.cumsum(sizes) - sizes).tolist(), kept.tolist()):
        done = 0
        while done < count:
            take = min(count - done, size - filled)
            runs.append((start + done, done, take))
            done, filled = done + take, filled + take
            if filled == size:
                yield _copy_runs(table, runs, energies, lengths)
                runs, filled = [], 0
    if filled:
        yield _copy_runs(table, runs, energies[:filled], lengths[:filled])


def _copy_runs(table, runs, energies, lengths):
    """Fill energies and lengths with the table's runs (table start, length start, count)."""
    np.concatenate([table.energies[e:e + k] for e, _, k in runs], out=energies)
    np.concatenate([table.lengths[m:m + k] for _, m, k in runs], out=lengths)
    return energies, lengths


def _towers(lengths: np.ndarray, beta: float) -> list[np.ndarray]:
    """Each length's levels (C s / L)^2 in a level table of these lengths, in mode order;
    an interval without such a level has an empty tower."""
    cutoff = _level_cutoff(lengths.max(), beta)
    return [np.square(C * np.arange(1.0, n + 1.0) / length)
            for length, n in zip(lengths, _modes_below(lengths, cutoff))]


def ids_limit(params: ModelParams, energy: float) -> float:
    """Self-averaged integrated density of states, intensity * w / (1 - w).

    With w = exp(-C * intensity / sqrt(E)) this is intensity times the Bose
    factor at C * intensity / sqrt(E), so the Lifshitz-tail regime E -> 0
    underflows gracefully instead of overflowing.
    """
    _require_positive("energy", energy, DomainError)
    return params.intensity * _bose_factor(C * params.intensity / math.sqrt(energy))


def ids_series(params: ModelParams, energy: float, tolerance: float = 1e-12) -> float:
    """Same quantity as a truncated geometric series, intensity * sum_s w^s.

    Serves as an independent oracle for ids_limit, so it shares none of its
    Bose forms; truncation stops once the certified geometric tail bound drops
    below `tolerance` relative to the accumulated sum. ConvergenceError if 100000
    terms do not reach it, as at high energy, where w nears 1.
    """
    _require_positive("energy", energy, DomainError)
    _require_positive("tolerance", tolerance)
    w = math.exp(-C * params.intensity / math.sqrt(energy))
    if w == 0.0:
        return 0.0
    total = 0.0
    term = params.intensity
    for _ in range(100000):
        term *= w
        total += term
        if term * w <= tolerance * total * (1.0 - w):  # no division: w may round to 1
            return total
    raise ConvergenceError(f"ids_series: 100000 terms miss tolerance {tolerance:g} at {energy:g}")


def ids_free(energy: float) -> float:
    """Integrated density of states of the impurity-free line: sqrt(2 E) / pi."""
    _require_positive("energy", energy, DomainError)
    return math.sqrt(2.0 * energy) / math.pi


def dos_limit(params: ModelParams, energy: float) -> float:
    """Density of states dN/dE: (intensity^2 C / 2) w / (E^(3/2) (1 - w)^2).

    w / (1 - w)^2 is the Bose slope n (n + 1) at C * intensity / sqrt(E).
    """
    _require_positive("energy", energy, DomainError)
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
    _require_positive("energy", energy, DomainError)
    _require_below("energy (window pi^2 a^2/32)", energy, limit)
    exponent = params.intensity * (C / math.sqrt(energy) - 4.0 / amplitude)
    return params.intensity * _bose_factor(exponent)
