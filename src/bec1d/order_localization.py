"""Largest-interval statistics and condensate localization checks.

The largest of ~lam L Poisson intervals has typical length ln(lam L)/lam, and
the gap between the two largest ground energies shows level repulsion strong
enough to keep the condensate in a single interval. These drivers measure the
scaling law, the ground-state spacing probability (with an exact quadrature
companion on the batched Gauss-Kronrod rule of bec1d.numerics, so this module
needs no scipy), and the per-realization share of the low-energy occupation
held by the single lowest level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _require_positive
from .numerics import _integrate_panels, _log1mexps
from .poisson_geometry import IntervalPartition, poisson_lengths, sample_poisson_partition
from .rng import trial_rng
from .spectrum import C, C_SQUARED
from .thermodynamics import _window_occupations


def _spacing_threshold(sample_size: int, amplitude: float, exponent: float,
                       intensity: float) -> float:
    """Energy threshold amplitude / sample_size^(1 - exponent) of the spacing event."""
    if sample_size < 2:
        raise ValueError(f"sample_size must be >= 2, got {sample_size}")
    _require_positive("amplitude", amplitude)
    if not (0.0 < exponent <= 1.0):
        raise ValueError(f"exponent must lie in (0, 1], got {exponent}")
    _require_positive("intensity", intensity)
    return amplitude / sample_size ** (1.0 - exponent)


@dataclass(frozen=True)
class SpacingEstimate:
    """Probability estimate with its binomial standard error."""

    probability: float
    std_error: float
    trials: int


def spacing_probability_mc(
    sample_size: int, amplitude: float, exponent: float, intensity: float, trials: int,
    seed: int = 0,
) -> SpacingEstimate:
    """Frequency of {ground-energy gap of the two largest intervals > threshold}.

    Each trial draws sample_size independent exponential lengths, orders them,
    and compares E(second largest) - E(largest) against
    amplitude / sample_size^(1 - exponent). Trials are chunked but their
    count, not the chunking, determines the estimate.
    """
    threshold = _spacing_threshold(sample_size, amplitude, exponent, intensity)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    k = sample_size
    rng = trial_rng(seed, 0)
    hits = 0
    done = 0
    chunk = max(1, int(5_000_000 // k))
    while done < trials:
        m = min(chunk, trials - done)
        draws = rng.exponential(1.0 / intensity, size=(m, k))
        top_two = np.partition(draws, k - 2, axis=1)[:, -2:]
        second, largest = top_two[:, 0], top_two[:, 1]
        gap = C_SQUARED / second**2 - C_SQUARED / largest**2
        hits += int(np.count_nonzero(gap > threshold))
        done += m
    p = hits / trials
    return SpacingEstimate(p, math.sqrt(max(p * (1.0 - p), 0.0) / trials), trials)


def spacing_probability_exact(
    sample_size: int, amplitude: float, exponent: float, intensity: float
) -> float:
    """Exact spacing probability by quadrature over the top-two joint density.

    Reducing the (largest, second largest) joint density over the gap event
    leaves a single integral over the second-largest length:

        k (k-1) * int_0^{C/sqrt(t)} lam e^{-lam y} (1-e^{-lam y})^{k-2}
                                     e^{-lam y / sqrt(1 - t y^2 / C^2)} dy,

    with t the energy threshold. The prefactor k (k-1) lam is folded into the
    exponent of the integrand, so the quadrature tolerance applies to the
    probability itself rather than to an integral of size ~1/k^2. Stable for
    sample sizes far beyond Monte Carlo reach, so it doubles as the oracle for
    the k -> infinity limit.
    """
    threshold = _spacing_threshold(sample_size, amplitude, exponent, intensity)
    k = sample_size
    lam = intensity
    y_max = C / math.sqrt(threshold)
    log_prefactor = math.log(k) + math.log(k - 1) + math.log(lam)

    def integrand(y, _):
        root = np.maximum(1.0 - threshold * y * y / C_SQUARED, 0.0)
        with np.errstate(divide="ignore"):  # root = 0 at y_max, where e^{-lam x*} = 0
            x_star = y / np.sqrt(root)
        log_term = (k - 2) * _log1mexps(lam * y)
        return np.exp(log_prefactor - lam * y + log_term - lam * x_star)

    # the density concentrates near ln(k)/lam; pass it as a split point
    peak = math.log(k) / lam
    pts = [p for p in (peak, 2.0 * peak) if 0.0 < p < y_max]
    return _integrate_panels(integrand, [0.0, *pts, y_max], 1, epsabs=1e-13, epsrel=1e-11)[0]


def largest_interval_scaling(
    intensity: float, total_length: float, trials: int, seed: int
) -> tuple[float, float]:
    """Mean and std of L_max / (ln(lam L)/lam) over Poisson partitions."""
    if intensity * total_length <= math.e:
        raise ValueError("need intensity * total_length > e for the logarithmic scale")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    scale = math.log(intensity * total_length) / intensity
    ratios = np.empty(trials)
    for t in range(trials):
        lengths = poisson_lengths(intensity, total_length, trial_rng(seed, t))
        ratios[t] = lengths.max() / scale
    return float(ratios.mean()), float(ratios.std())


@dataclass(frozen=True)
class GroundStateShare:
    """Share of the low-energy occupation held by the single lowest level.

    `fraction` is NaN when no level lies below the window. `tie` flags two
    largest intervals equal to within relative 1e-12, where the lowest level
    is effectively degenerate and the share saturates near 1/2.
    """

    fraction: float
    tie: bool
    window_levels: int


def ground_state_share(
    partition: IntervalPartition, beta: float, rho: float, epsilon: float
) -> GroundStateShare:
    """Occupation of the lowest level over the total occupation below epsilon."""
    window, occ = _window_occupations(partition, beta, rho, epsilon)
    top_two = np.partition(partition.lengths, partition.lengths.size - 2)[-2:] \
        if partition.lengths.size >= 2 else partition.lengths
    tie = top_two.size == 2 and abs(top_two[1] - top_two[0]) < 1e-12 * top_two[1]
    if window.size == 0:
        return GroundStateShare(math.nan, tie, 0)
    # a non-empty window holds the lowest level, first among equals as in the table
    return GroundStateShare(float(occ[np.argmin(window)] / occ.sum()), tie, window.size)


def ground_state_occupation_fraction(
    intensity: float,
    beta: float,
    rho: float,
    total_length: float,
    seeds: list[int],
    epsilon: float = 0.01,
) -> list[GroundStateShare]:
    """Per-seed ground-state shares over Poisson partitions at fixed density."""
    partitions = (sample_poisson_partition(intensity, total_length, trial_rng(seed, 0))
                  for seed in seeds)
    return [ground_state_share(part, beta, rho, epsilon) for part in partitions]
