"""Deterministic hierarchical layouts, their solvers, and the classifier."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from bec1d import (
    C,
    C_SQUARED,
    CondensateType,
    DomainError,
    LayoutKind,
    build_layout,
    build_level_table,
    classify_condensate,
    density_finite,
    hierarchical_critical_density,
    hierarchical_density,
    occupation_profile,
    solve_mu_hierarchical,
    solve_type2_coefficient,
)
from bec1d import hierarchical, spectrum
from util import level_lengths, partition

LAM = BETA = 1.0
RHO_C = hierarchical_critical_density(LAM, BETA)
RHO = 2.0 * RHO_C
LADDER = (1e4, 1e5, 1e6)


class TestLayouts:
    def test_type1_lengths(self):
        box = math.exp(2.0)  # ln(lam L) = 2
        layout = build_layout("type1", box, 1.0)
        assert layout.large_length == pytest.approx(2.0, rel=1e-15)
        assert layout.large_count == 1
        assert layout.n_intervals == int(box)

    def test_type1_small_length_tends_to_inverse_intensity(self):
        layout = build_layout("type1", 1e6, 1.0)
        assert abs(layout.small_length - 1.0) < 1e-4

    def test_type2_large_length(self):
        layout = build_layout("type2", 1e4, 1.0)
        assert layout.large_length == pytest.approx(100.0, rel=1e-15)

    def test_type3_counts(self):
        for box, expect in [(1e4, 9), (1e5, 11), (1e6, 13)]:
            layout = build_layout("type3", box, 1.0)
            assert layout.large_count == expect

    def test_rejects_boxes_too_small(self):
        with pytest.raises(ValueError):
            build_layout("type1", 3.0, 1.0, large_count=3)
        with pytest.raises(ValueError):
            build_layout("type1", 0.5, 1.0)
        with pytest.raises(ValueError):
            build_layout("type2", 1e4, 1.0, large_count=2)

    def test_tiling(self):
        for kind in LayoutKind:
            layout = build_layout(kind, 5e4, 1.3)
            total = (
                layout.large_count * layout.large_length
                + layout.small_count * layout.small_length
            )
            assert total == pytest.approx(layout.total_length, rel=1e-12)


class TestTowers:
    def test_towers_are_the_level_table_blocks_of_the_two_intervals(self):
        # every layout build_layout accepts on the grid; an empty tower is an absent interval
        empty = 0
        for lam, beta, kind, box in itertools.product(
            (0.5, 1.0, 2.0), (0.5, 1.0, 2.0, 9.0), LayoutKind, (2.0, 11.0, 1e4, 1e6)
        ):
            try:
                layout = build_layout(kind, box, lam)
            except ValueError:
                continue
            towers = hierarchical._layout_towers(layout, beta)
            lengths = [layout.large_length, layout.small_length]
            table = build_level_table(partition(lengths), beta)
            # the table is mode-major: each tower is its interval's levels there, in mode order
            assert layout.large_length != layout.small_length
            for length, tower in zip(lengths, towers):
                assert np.array_equal(table.energies[level_lengths(table) == length], tower)
            assert table.energies.size == sum(t.size for t in towers)
            empty += sum(t.size == 0 for t in towers)
        assert empty > 0

    def test_one_tower_build_per_solve(self, monkeypatch):
        builds, steps = [], []
        real_modes, real_occupations = spectrum._modes_below, hierarchical._bose_occupations
        monkeypatch.setattr(spectrum, "_modes_below",
                            lambda *a: builds.append(1) or real_modes(*a))
        monkeypatch.setattr(hierarchical, "_bose_occupations",
                            lambda x: steps.append(1) or real_occupations(x))
        for kind in LayoutKind:
            builds.clear()
            steps.clear()
            solve_mu_hierarchical(build_layout(kind, 1e6, 1.0), BETA, RHO)
            assert len(builds) == 1
            assert len(steps) >= 2 * 3  # two towers per Newton step, several steps


class TestDensity:
    def test_matches_generic_partition_density(self):
        layout = build_layout("type1", 2000.0, 1.0, large_count=2)
        lengths = np.concatenate(
            (np.full(layout.large_count, layout.large_length),
             np.full(layout.small_count, layout.small_length))
        )
        part = partition(lengths)
        for mu in (-0.5, 0.01):
            assert hierarchical_density(layout, BETA, mu) == pytest.approx(
                density_finite(build_level_table(part, BETA), mu), rel=1e-12
            )

    def test_large_box_limit_at_fixed_mu(self):
        mu = -0.3
        layout = build_layout("type1", 1e6, 1.0)
        limit = LAM * math.fsum(
            1.0 / math.expm1(BETA * ((C * s / LAM) ** 2 - mu)) for s in range(1, 12)
        )
        assert hierarchical_density(layout, BETA, mu) == pytest.approx(limit, rel=0.01)

    def test_monotone_in_mu(self):
        layout = build_layout("type2", 1e4, 1.0)
        assert hierarchical_density(layout, BETA, -0.2) > hierarchical_density(layout, BETA, -0.5)

    def test_domain_error_above_ground(self):
        layout = build_layout("type1", 1e4, 1.0)
        with pytest.raises(DomainError):
            hierarchical_density(layout, BETA, layout.ground_energy)


class TestCriticalDensity:
    def test_direct_sum(self):
        expect = math.fsum(1.0 / math.expm1((C * s) ** 2) for s in range(1, 12))
        assert RHO_C == pytest.approx(expect, rel=1e-14)

    def test_kind_independent(self):
        # a single formula in (intensity, beta): nothing layout-specific enters
        assert hierarchical_critical_density(2.0, 0.7) == pytest.approx(
            2.0 * math.fsum(1.0 / math.expm1(0.7 * (C * s / 2.0) ** 2) for s in range(1, 28)),
            rel=1e-13,
        )

    @pytest.mark.xfail(strict=True, reason="the formula sums the levels (C s / lam)^2 of "
                       "intervals of length lam, but the bulk intervals have length ~1/lam and "
                       "levels (C lam s)^2: the two agree only at lam = 1")
    def test_matches_the_bulk_density_at_zero_mu(self):
        # at lam = beta = 0.5 the formula gives 2.59e-5; a type1 layout at mu = 0
        # on L = 1e6 holds 0.6348, within 6.2e-4 of lam sum 1/expm1(beta (C lam s)^2)
        lam = beta = 0.5
        density = hierarchical_density(build_layout("type1", 1e6, lam), beta, 0.0)
        assert hierarchical_critical_density(lam, beta) == pytest.approx(density, rel=1e-3)

    def test_values_on_the_benchmark_grid_are_pinned(self):
        pinned = {
            (0.5, 0.5): "2.586293081509607e-05", (0.5, 1.0): "1.3376439991157046e-09",
            (0.5, 2.0): "3.578582917593029e-18", (1.0, 0.5): "0.09271500541170889",
            (1.0, 1.0): "0.007243983899107874", (1.0, 2.0): "5.172586163019214e-05",
            (2.0, 0.5): "2.5376628548699824", (2.0, 1.0): "0.8362400089939204",
            (2.0, 2.0): "0.18543001082341778",
        }
        for (lam, beta), value in pinned.items():
            assert repr(hierarchical_critical_density(lam, beta)) == value

    def test_vanishes_at_zero_temperature(self):
        assert hierarchical_critical_density(1.0, 100.0) < 1e-200


class TestMuSolver:
    @pytest.mark.parametrize("kind", ["type1", "type2", "type3"])
    def test_round_trip(self, kind):
        layout = build_layout(kind, 1e5, 1.0)
        mu = solve_mu_hierarchical(layout, BETA, RHO)
        assert hierarchical_density(layout, BETA, mu) == pytest.approx(RHO, rel=1e-10)

    def test_type1_pinning_scale_approaches_one(self):
        # beta (E_ground - mu_L) rho_0 L -> 1, with a logarithmic finite-size tail
        rho_0 = RHO - RHO_C
        scaled = []
        for box in LADDER:
            layout = build_layout("type1", box, 1.0)
            mu = solve_mu_hierarchical(layout, BETA, RHO)
            scaled.append(BETA * (layout.ground_energy - mu) * rho_0 * box)
        errs = [abs(s - 1.0) for s in scaled]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.04

    def test_type2_coefficient_round_trip(self):
        a = solve_type2_coefficient(LAM, BETA, RHO)
        b = BETA * LAM * C_SQUARED
        s = np.arange(1.0, 200_000.0)
        head = float(np.sum(1.0 / (b * (s * s - 1.0) + a)))
        tail = 1.0 / (b * 199_999.5)  # midpoint-rule remainder of the tower sum
        resid = RHO - RHO_C - head - tail
        assert abs(resid) < 1e-10

    @pytest.mark.xfail(
        strict=True,
        reason="the two-term tail 1/(b s) - (A - b)/(3 b^2 s^3) holds only for "
        "A << b s_tail^2 ~ 2.5e10 here; the solver returns 9.228e10",
    )
    def test_type2_coefficient_solves_the_sum_with_arctan_tail(self):
        # rho - rho_c = sum_s 1/(b (s^2 - 1) + A), its tail beyond s = 1e5 the
        # midpoint integral (pi/2 - atan(s sqrt(b/(A - b)))) / sqrt(b (A - b))
        lam, beta = 0.5, 1.0
        rho_c = hierarchical_critical_density(lam, beta)
        a = solve_type2_coefficient(lam, beta, 1.5 * rho_c)
        b = beta * lam * C_SQUARED
        s = np.arange(1.0, 100_001.0)
        s_tail = 100_000.5
        head = float(np.sum(1.0 / (b * (s * s - 1.0) + a)))
        root = math.sqrt(b * (a - b))
        tail = (0.5 * math.pi - math.atan(s_tail * b / root)) / root
        assert head + tail == pytest.approx(0.5 * rho_c, rel=1e-10)

    def test_type2_coefficient_monotone_in_density(self):
        values = [solve_type2_coefficient(LAM, BETA, RHO_C + extra) for extra in (0.1, 1.0, 10.0)]
        assert values[0] > values[1] > values[2]

    def test_type2_ground_share_is_partial(self):
        a = solve_type2_coefficient(LAM, BETA, RHO_C + 1.0)
        assert 1.0 / a < 1.0  # condensate split over many tower states

    def test_type2_requires_condensation(self):
        with pytest.raises(DomainError):
            solve_type2_coefficient(LAM, BETA, 0.5 * RHO_C)

    def test_type2_finite_size_scaling_approaches_coefficient(self):
        a_limit = solve_type2_coefficient(LAM, BETA, RHO)
        errs = []
        for box in LADDER:
            layout = build_layout("type2", box, 1.0)
            mu = solve_mu_hierarchical(layout, BETA, RHO)
            a_box = BETA * (layout.ground_energy - mu) * box
            errs.append(abs(a_box - a_limit) / a_limit)
        assert errs[0] > errs[1] > errs[2]


class TestProfiles:
    @pytest.mark.parametrize("kind", ["type1", "type2", "type3"])
    def test_total_density(self, kind):
        layout = build_layout(kind, 1e5, 1.0)
        profile = occupation_profile(layout, BETA, RHO)
        assert profile.total_density() == pytest.approx(RHO, abs=1e-8)

    def test_total_density_does_not_copy_the_large_towers(self):
        # 1e5 large intervals: the sum of each state density repeated large_count
        # times, the oracle, against the weighted sum, in O(modes) memory
        layout = build_layout("type1", 1e8, 1.0, large_count=100_000)
        profile = occupation_profile(layout, BETA, RHO)
        tiled = math.fsum(itertools.chain(
            itertools.chain.from_iterable(itertools.repeat(profile.large.tolist(), 100_000)),
            profile.small * profile.small_count,
        ))
        tracemalloc.start()
        try:
            total = profile.total_density()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(total - tiled) <= 2e-16 * tiled
        assert peak < 1_000_000

    def test_type1_equal_split_is_exact(self):
        layout = build_layout("type1", 1e6, 1.0, large_count=3)
        profile = occupation_profile(layout, BETA, RHO)
        grounds = [profile.large[0]] * profile.large_count
        assert len(grounds) == 3
        assert max(grounds) - min(grounds) <= 1e-15 * max(grounds)

    def test_type3_state_densities_below_equal_share(self):
        rho_0 = RHO - RHO_C
        shares = []
        for box in LADDER:
            layout = build_layout("type3", box, 1.0)
            profile = occupation_profile(layout, BETA, RHO)
            peak = max(profile.large.max(), profile.small.max())
            shares.append(rho_0 / layout.large_count)
            assert peak <= rho_0 / layout.large_count
        assert shares[0] > shares[1] > shares[2]

    def test_occupation_monotone_in_density(self):
        layout = build_layout("type1", 1e4, 1.0)
        low = occupation_profile(layout, BETA, RHO)
        high = occupation_profile(layout, BETA, RHO + 0.5 * RHO_C)
        for lows, highs in ((low.large, high.large), (low.small, high.small)):
            for a, b in zip(lows, highs):
                assert b >= a

    def test_large_count_is_a_multiplicity(self):
        # three identical large intervals: three macroscopic ground states,
        # one per interval, from a single stored tower
        profiles = [
            occupation_profile(build_layout("type1", box, 1.0, 3), BETA, RHO) for box in LADDER
        ]
        assert profiles[-1].box_length == 1e6 and profiles[-1].large_count == 3
        assert profiles[-1].macroscopic_count(0.01 * (RHO - RHO_C)) == 3
        census = classify_condensate(profiles).diagnostics["census"][-1]
        assert census["count"] == 3
        assert census["spread"] == 3
        assert census["per_interval_max"] == 1


class TestClassifier:
    def _profiles(self, kind, large_count=1, rho=RHO):
        return [
            occupation_profile(build_layout(kind, box, 1.0, large_count), BETA, rho)
            for box in LADDER
        ]

    def test_three_layouts(self):
        assert classify_condensate(self._profiles("type1")).label is CondensateType.TYPE_I
        assert classify_condensate(self._profiles("type2")).label is CondensateType.TYPE_II
        assert classify_condensate(self._profiles("type3")).label is CondensateType.TYPE_III

    def test_type1_with_three_large_intervals(self):
        result = classify_condensate(self._profiles("type1", large_count=3))
        assert result.label is CondensateType.TYPE_I

    def test_none_without_condensate(self):
        result = classify_condensate(self._profiles("type1", rho=0.5 * RHO_C))
        assert result.label is CondensateType.NONE

    def test_conflicting_signals_are_flagged(self):
        mixed = self._profiles("type3")[:2] + [self._profiles("type2")[-1]]
        result = classify_condensate(mixed)
        assert result.label is CondensateType.INDETERMINATE

    @pytest.mark.parametrize("larges", [
        # the last box has no macroscopic state
        ([0.9, 1e-3], [0.9, 1e-3], [1e-3, 1e-3]),
        # one host thins to a single state, but it holds 0.3 rho0 < 0.5 rho0
        ([0.5, 0.4], [0.6, 1e-3], [0.3, 1e-3]),
        # one host throughout, but its macroscopic states run 1, 2, 1
        ([0.9, 1e-3], [0.5, 0.4], [0.9, 1e-3]),
    ])
    def test_hand_built_conflicts_are_indeterminate(self, larges):
        # rho0 = 1, so a state is macroscopic above 0.01; the small intervals hold none
        profiles = [
            hierarchical.OccupationProfile(
                large=np.array(large), small=np.array([1e-3]), large_count=1, small_count=10,
                mu_used=-1e-6, box_length=box, rho=2.0, rho_c=1.0,
            )
            for box, large in zip(LADDER, larges)
        ]
        assert classify_condensate(profiles).label is CondensateType.INDETERMINATE

    def test_ladder_validation(self):
        profiles = self._profiles("type1")
        with pytest.raises(ValueError):
            classify_condensate(profiles[:2])
        with pytest.raises(ValueError):
            classify_condensate([profiles[0], profiles[0], profiles[1]])

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_type3_count_grows_over_every_valid_ladder(self, lam):
        # the classifier takes 3 or more boxes, each more than twice the last,
        # so a ladder spans a factor above 4 > e and floor(ln(n + 1)) grows on
        # it: no valid type3 ladder keeps its large-interval count, so none can
        # read as type1 for want of growth. The tightest ladders are swept.
        for smallest in np.geomspace(1.0 / lam, 1e6, 2000)[1:].tolist():
            boxes = [smallest]
            for _ in range(2):
                boxes.append(math.nextafter(2.0 * boxes[-1], math.inf))
            counts = [build_layout("type3", box, lam).large_count for box in boxes]
            assert counts[-1] > counts[0], (smallest, counts)
