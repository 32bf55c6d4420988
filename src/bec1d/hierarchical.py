"""Deterministic hierarchical interval families and the condensation taxonomy.

Randomness is not essential for one-dimensional condensation: a nonrandom
segment cut into one class of "large" intervals plus a bulk of near-unit
small intervals reproduces the same critical density and lets the condensate
form in controlled ways. Three layouts are provided:

* type1 -- M identical large intervals of length ln(lam L)/lam: the
  condensate settles into the M ground states (finitely many states);
* type2 -- one large interval of length sqrt(L/lam): the condensate spreads
  over infinitely many states of that single interval;
* type3 -- floor(ln(n+1)) large logarithmic intervals: the condensate
  fragments over a growing number of intervals with vanishing share each.

The classifier reads occupation profiles over an increasing ladder of box
sizes and reports which scenario the data supports, or flags the signal as
indeterminate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, _require_below, _require_positive
from .numerics import _bose_occupations, _log_newton
from .spectrum import C_SQUARED, _towers

_MU_TOLERANCE = 1e-14


class LayoutKind(str, enum.Enum):
    TYPE_I = "type1"
    TYPE_II = "type2"
    TYPE_III = "type3"


class CondensateType(str, enum.Enum):
    TYPE_I = "type1"
    TYPE_II = "type2"
    TYPE_III = "type3"
    NONE = "none"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class HierarchicalLayout:
    """A deterministic two-class interval family tiling a segment."""

    kind: LayoutKind
    total_length: float
    intensity: float
    large_count: int
    large_length: float
    small_length: float
    small_count: int

    @property
    def n_intervals(self) -> int:
        return self.large_count + self.small_count

    @property
    def ground_energy(self) -> float:
        return C_SQUARED / max(self.large_length, self.small_length) ** 2


def build_layout(
    kind: LayoutKind | str,
    total_length: float,
    intensity: float,
    large_count: int = 1,
) -> HierarchicalLayout:
    """Construct a layout with n = floor(intensity * total_length) intervals.

    large_count is honoured for type1 only; type2 always has one large
    interval and type3 derives floor(ln(n+1)) internally. Raises if the box is
    too small for every derived length to be positive.
    """
    kind = LayoutKind(kind)
    _require_positive("total_length", total_length)
    _require_positive("intensity", intensity)
    if large_count < 1:
        raise ValueError(f"large_count must be >= 1, got {large_count}")
    if kind is not LayoutKind.TYPE_I and large_count != 1:
        raise ValueError(f"{kind.value} layouts derive their own large-interval count")
    n = int(math.floor(intensity * total_length))
    if kind is LayoutKind.TYPE_I:
        m = large_count
        large = math.log(intensity * total_length) / intensity
    elif kind is LayoutKind.TYPE_II:
        m = 1
        large = math.sqrt(total_length / intensity)
    else:
        m = int(math.floor(math.log(n + 1.0)))
        large = math.log(intensity * total_length) / intensity
    if large <= 0:
        raise ValueError("large_length is not positive; the box is too small")
    if n - m < 1:
        raise ValueError(f"need at least one small interval, got n={n}, large_count={m}")
    small = (total_length - m * large) / (n - m)
    if small <= 0:
        raise ValueError(
            f"small_length = (L - {m} * {large:g}) / {n - m} is not positive; enlarge the box"
        )
    return HierarchicalLayout(
        kind=kind,
        total_length=total_length,
        intensity=intensity,
        large_count=m,
        large_length=large,
        small_length=small,
        small_count=n - m,
    )


def _layout_towers(layout: HierarchicalLayout, beta: float) -> list[np.ndarray]:
    """Towers of one large and one small interval, cut as a level table of the two is."""
    return _towers(np.array([layout.large_length, layout.small_length]), beta)


def _layout_density(layout: HierarchicalLayout, beta: float):
    """density(mu) -> (density, slope beta sum n (n + 1) / L); each call computes only n."""
    _require_positive("beta", beta)
    weighted = list(zip(_layout_towers(layout, beta), (layout.large_count, layout.small_count)))

    def density(mu: float) -> tuple[float, float]:
        count = slope = 0.0
        for tower, weight in weighted:
            n = _bose_occupations(beta * (tower - mu))
            count += n.sum() * weight
            slope += np.einsum("i,i->", n, n + 1.0) * weight
        return float(count) / layout.total_length, beta * float(slope) / layout.total_length

    return density


def hierarchical_density(layout: HierarchicalLayout, beta: float, mu: float) -> float:
    """Particle density of the layout: large-interval towers plus the small bulk."""
    _require_below("mu", mu, layout.ground_energy)
    return _layout_density(layout, beta)(mu)[0]


def hierarchical_critical_density(intensity: float, beta: float) -> float:
    """Limiting critical density, the same for all three layout kinds: intensity * sum_s
    1 / (exp(beta E_s) - 1) over the tower E_s = (C s / intensity)^2 of one interval of
    length intensity, cut as a level table of that interval is."""
    _require_positive("intensity", intensity)
    _require_positive("beta", beta)
    (tower,) = _towers(np.array([intensity]), beta)
    return intensity * float(_bose_occupations(beta * tower).sum())


def solve_mu_hierarchical(layout: HierarchicalLayout, beta: float, rho: float) -> float:
    """Chemical potential below the layout's ground energy matching density rho.

    Newton in ln(ground - mu), slope beta * sum n(n+1) from the same tower
    occupations n; it stops on a sign-verified bracket of width 1e-14 * max(1, |mu|).
    """
    _require_positive("rho", rho)
    return _log_newton(_layout_density(layout, beta), rho, 1.0 / beta,
                       _MU_TOLERANCE, anchor=layout.ground_energy)


def solve_type2_coefficient(intensity: float, beta: float, rho: float) -> float:
    """Finite-size chemical-potential coefficient of the type2 layout.

    The unique A > 0 with rho - rho_c = sum_s 1/(beta intensity C^2 (s^2-1) + A);
    the ground-state term is 1/A and the condensate splits over the whole
    tower. Only defined above the critical density. Newton in ln A from
    A = 1/(rho - rho_c) stops on a sign-verified bracket of width 1e-14 * max(1, A).
    """
    _require_positive("rho", rho, DomainError)
    rho_c = hierarchical_critical_density(intensity, beta)
    target = rho - rho_c
    if not target > 0:
        raise DomainError(f"rho must exceed the critical density {rho_c:g}, got {rho}")
    b = beta * intensity * C_SQUARED
    s = np.arange(1.0, 100001.0)
    base = np.multiply(b, np.subtract(np.square(s, out=s), 1.0, out=s), out=s)  # b (s^2 - 1)
    terms = np.empty_like(base)  # reused by every Newton step
    s_tail = 100000.5

    def total(a: float) -> tuple[float, float]:
        np.add(base, a, out=terms)
        np.divide(1.0, terms, out=terms)
        tail = 1.0 / (b * s_tail) - (a - b) / (3.0 * b * b * s_tail**3)
        # einsum, not a BLAS dot: with OpenBLAS threads on, a dot of these 1e5
        # terms took ~8 ms on a 2-core Xeon VM, against ~0.05 ms on one thread
        slope = -float(np.einsum("i,i->", terms, terms)) - 1.0 / (3.0 * b * b * s_tail**3)
        return float(np.sum(terms)) + tail, slope

    return _log_newton(total, target, 1.0 / target, 1e-14, sign=1.0)


def _weighted_sum(large: np.ndarray, large_count: int, small: np.ndarray, small_count: int) -> float:
    """fsum of the per-state densities times their multiplicities, one rounding per product."""
    return math.fsum(np.concatenate((large * large_count, small * small_count)))


@dataclass(frozen=True, eq=False)
class OccupationProfile:
    """Per-state occupation densities of a layout at a target density.

    `large[s - 1]` is the volume-normalized occupation of mode s in one large
    interval and `small[s - 1]` that of mode s in one small interval, over the
    layout's towers (empty for a class without a level below the cutoff); the
    layout's large_count and small_count are their multiplicities.
    """

    large: np.ndarray
    small: np.ndarray
    large_count: int
    small_count: int
    mu_used: float
    box_length: float
    rho: float
    rho_c: float

    def total_density(self) -> float:
        return _weighted_sum(self.large, self.large_count, self.small, self.small_count)

    @property
    def macroscopic_threshold(self) -> float:
        """Per-state density that makes a state macroscopic: 1% of rho - rho_c,
        floored so that a gas at or below rho_c keeps a positive bar."""
        return 0.01 * max(self.rho - self.rho_c, 1e-300)

    def macroscopic_count(self, threshold: float) -> int:
        """States with density above threshold: each large interval's count
        separately, the identical small intervals once as one bulk."""
        return (int(np.count_nonzero(self.large > threshold)) * self.large_count
                + int(np.count_nonzero(self.small > threshold)))


def occupation_profile(layout: HierarchicalLayout, beta: float, rho: float) -> OccupationProfile:
    """Solve for mu and record the occupation density of each level of the layout's towers."""
    mu = solve_mu_hierarchical(layout, beta, rho)
    volume = layout.total_length
    large, small = (_bose_occupations(beta * (tower - mu)) / volume
                    for tower in _layout_towers(layout, beta))
    return OccupationProfile(
        large=large,
        small=small,
        large_count=layout.large_count,
        small_count=layout.small_count,
        mu_used=mu,
        box_length=volume,
        rho=rho,
        rho_c=hierarchical_critical_density(layout.intensity, beta),
    )


@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of the condensation-type classifier."""

    label: CondensateType
    diagnostics: dict = field(default_factory=dict)


def classify_condensate(profiles: list[OccupationProfile]) -> ClassificationResult:
    """Classify the condensation type from profiles over an increasing box ladder.

    A state is macroscopic when its per-state density exceeds 1% of the
    condensate density. Low excited states of a large interval cross that bar
    transiently at the smallest boxes, so the decision reads trends:

    * the number of intervals hosting macroscopic states stays constant and
      the states-per-interval count thins to one -> type1 (the survivors must
      carry the condensate);
    * hosts constant, but one interval keeps holding several macroscopic
      states at the largest boxes -> type2;
    * hosts strictly growing with one state each at the largest box -> type3;
    * no condensate density at all -> none.

    Conflicting signals yield INDETERMINATE rather than a guess.
    """
    if len(profiles) < 3:
        raise ValueError("need at least 3 profiles over an increasing box ladder")
    lengths = [p.box_length for p in profiles]
    if any(b <= 2.0 * a for a, b in zip(lengths[:-1], lengths[1:])):
        raise ValueError("box lengths must grow at least geometrically (ratio > 2)")
    rho0s = [p.rho - p.rho_c for p in profiles]
    if max(abs(r - rho0s[0]) for r in rho0s) > 1e-8 * max(abs(rho0s[0]), 1e-300):
        raise ValueError("profiles must share the same target and critical density")
    rho0 = rho0s[-1]
    if rho0 <= 0:
        return ClassificationResult(CondensateType.NONE, {"rho0": rho0})
    threshold = profiles[-1].macroscopic_threshold

    def census(profile: OccupationProfile):
        large = profile.large[profile.large > threshold]
        small = profile.small[profile.small > threshold]
        return {
            "count": profile.macroscopic_count(threshold),
            "spread": (profile.large_count if large.size else 0) + (1 if small.size else 0),
            "per_interval_max": max(large.size, small.size),
            "small_macro": small.size > 0,
            "mass": _weighted_sum(large, profile.large_count, small, profile.small_count),
            "max_density": float(max(large.max(initial=0.0), small.max(initial=0.0))),
        }

    stats = [census(p) for p in profiles]
    last, prev = stats[-1], stats[-2]
    diag = {"rho0": rho0, "threshold": threshold, "census": stats}

    if last["count"] == 0 or prev["count"] == 0:
        return ClassificationResult(CondensateType.INDETERMINATE, diag)
    if any(s["small_macro"] for s in stats):
        return ClassificationResult(CondensateType.INDETERMINATE, diag)
    spreads = [s["spread"] for s in stats]
    multiplicities = [s["per_interval_max"] for s in stats]
    if len(set(spreads)) == 1:
        thinning = all(b <= a for a, b in zip(multiplicities[:-1], multiplicities[1:]))
        if multiplicities[-1] == 1 and thinning:
            if 0.5 * rho0 <= last["mass"] <= 1.5 * rho0:
                return ClassificationResult(CondensateType.TYPE_I, diag)
            return ClassificationResult(CondensateType.INDETERMINATE, diag)
        if multiplicities[-1] >= 2 and prev["per_interval_max"] >= 2:
            return ClassificationResult(CondensateType.TYPE_II, diag)
        return ClassificationResult(CondensateType.INDETERMINATE, diag)
    if all(a < b for a, b in zip(spreads[:-1], spreads[1:])) and multiplicities[-1] == 1:
        return ClassificationResult(CondensateType.TYPE_III, diag)
    return ClassificationResult(CondensateType.INDETERMINATE, diag)
