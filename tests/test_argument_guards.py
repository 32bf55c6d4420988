"""NaN arguments fail fast, with the exception a non-positive value raises.

Every positivity guard is one helper, bec1d.errors._require_positive, whose
comparison NaN fails; a guard written `if x <= 0` lets NaN through to a
silent 0.0, a NaN result or an untyped error deep inside.
"""

import math

import pytest

from bec1d import ModelParams, build_layout, sample_poisson_partition, PoissonParams
from bec1d import correlations as corr
from bec1d import hierarchical as hier
from bec1d import order_localization as loc
from bec1d import poisson_geometry as geo
from bec1d import spectrum as spec
from bec1d import thermodynamics as thermo

P = ModelParams(1.0)
LAYOUT = build_layout("type1", 1e4, 1.0)
PART = sample_poisson_partition(50.0, PoissonParams(1.0, seed=3))

# "function argument": a call with that argument set, the others valid
CASES = {
    "density_limit beta": lambda v: thermo.density_limit(P, v, -1.0),
    "pressure_limit beta": lambda v: thermo.pressure_limit(P, v, -1.0),
    "critical_density beta": lambda v: thermo.critical_density(P, v),
    "critical_density_by_parts beta": lambda v: thermo.critical_density_by_parts(P, v),
    "critical_density_bound beta": lambda v: thermo.critical_density_bound(P, v, 1.0),
    "critical_density_bound amplitude": lambda v: thermo.critical_density_bound(P, 1.0, v),
    "kernel_limit beta": lambda v: corr.kernel_limit(P, v, -1.0, 1.0),
    "free_kernel beta": lambda v: corr.free_kernel(v, -1.0, 1.0),
    "hierarchical_density beta": lambda v: hier.hierarchical_density(LAYOUT, v, -1.0),
    "hierarchical_critical_density intensity": lambda v: hier.hierarchical_critical_density(v, 1.0),
    "hierarchical_critical_density beta": lambda v: hier.hierarchical_critical_density(1.0, v),
    "solve_mu_hierarchical beta": lambda v: hier.solve_mu_hierarchical(LAYOUT, v, 0.1),
    "solve_type2_coefficient beta": lambda v: hier.solve_type2_coefficient(1.0, v, 1.0),
    "solve_type2_coefficient rho": lambda v: hier.solve_type2_coefficient(1.0, 1.0, v),
    "build_level_table energy_cutoff": lambda v: spec.build_level_table(PART, v),
    "ids_series tolerance": lambda v: spec.ids_series(P, 1.0, v),
    "finite_amplitude_threshold amplitude": lambda v: spec.finite_amplitude_threshold(v),
    "sample_ordered_lengths intensity": lambda v: geo.sample_ordered_lengths(v, 3, 0),
    "expected_largest intensity": lambda v: geo.expected_largest(v, 5),
    "expected_second_largest intensity": lambda v: geo.expected_second_largest(v, 5),
    "largest_asymptotic intensity": lambda v: geo.largest_asymptotic(v, 5),
    "gap_exceedance_probability intensity": lambda v: geo.gap_exceedance_probability(v, 1.0),
    "gap_exceedance_probability delta": lambda v: geo.gap_exceedance_probability(1.0, v),
    "gap_variance intensity": lambda v: geo.gap_variance(v),
    "spacing_probability_exact amplitude": lambda v: loc.spacing_probability_exact(5, v, 0.5, 1.0),
    "spacing_probability_exact intensity": lambda v: loc.spacing_probability_exact(5, 1.0, 0.5, v),
    "SpacingQuery amplitude": lambda v: loc.SpacingQuery(5, v, 0.5, 1.0, 10),
    "SpacingQuery intensity": lambda v: loc.SpacingQuery(5, 1.0, 0.5, v, 10),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_nan_raises_what_a_non_positive_value_raises(case):
    call = CASES[case]
    with pytest.raises(ValueError) as non_positive:
        call(-1.0)
    with pytest.raises(ValueError, match=case.split()[1]) as nan:
        call(math.nan)
    assert type(nan.value) is type(non_positive.value)


def test_zero_delta_stays_allowed():
    assert geo.gap_exceedance_probability(1.0, 0.0) == 1.0
