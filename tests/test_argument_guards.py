"""NaN and infinite arguments fail fast, with the exception an out-of-range value raises.

Every argument check is one of two guards in bec1d.errors: _require_positive
(0 < value < inf) and _require_below (finite and below a bound). A guard
written `if x <= 0` lets NaN through to a silent 0.0, a NaN result or an
untyped error deep inside, and one without a finiteness test lets inf through
to the T -> 0 or empty-box value.
"""

import ast
import math
import pathlib
import re

import numpy as np
import pytest

import bec1d
from bec1d import ModelParams, build_layout, sample_poisson_partition
from bec1d import correlations as corr
from bec1d import hierarchical as hier
from bec1d import order_localization as loc
from bec1d import poisson_geometry as geo
from bec1d import spectrum as spec
from bec1d import thermodynamics as thermo
from bec1d.errors import DomainError

P = ModelParams(1.0)
LAYOUT = build_layout("type1", 1e4, 1.0)
PART = sample_poisson_partition(1.0, 50.0, 3)
TABLE = spec.build_level_table(PART, 1.0)

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
    "build_level_table beta": lambda v: spec.build_level_table(PART, v),
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
    "spacing_probability_mc amplitude": lambda v: loc.spacing_probability_mc(5, v, 0.5, 1.0, 10),
    "spacing_probability_mc intensity": lambda v: loc.spacing_probability_mc(5, 1.0, 0.5, v, 10),
    "ModelParams intensity": lambda v: ModelParams(v),
    "sample_poisson_partition intensity": lambda v: geo.sample_poisson_partition(v, 10.0, 0),
    "IntervalPartition total_length": lambda v: geo.IntervalPartition([1.0], v),
    "sample_uniform_partition total_length": lambda v: geo.sample_uniform_partition(v, 3, 0),
    "poisson_lengths intensity": lambda v: geo.poisson_lengths(v, 10.0, np.random.default_rng(0)),
    "poisson_lengths total_length": lambda v: geo.poisson_lengths(1.0, v, np.random.default_rng(0)),
    "largest_interval_scaling intensity": lambda v: loc.largest_interval_scaling(v, 100.0, 2, 0),
    "ground_state_occupation_fraction intensity":
        lambda v: loc.ground_state_occupation_fraction(v, 1.0, 0.5, 50.0, [0]),
    "dirichlet_eigenvalue length": lambda v: spec.dirichlet_eigenvalue(v, 1),
    "dirichlet_eigenfunction length": lambda v: spec.dirichlet_eigenfunction(v, 0.0, 1, 0.1),
    "counting_function energy": lambda v: spec.counting_function(PART, v),
    "ids_limit energy": lambda v: spec.ids_limit(P, v),
    "ids_series energy": lambda v: spec.ids_series(P, v),
    "ids_free energy": lambda v: spec.ids_free(v),
    "dos_limit energy": lambda v: spec.dos_limit(P, v),
    "ids_finite_amplitude_bound energy": lambda v: spec.ids_finite_amplitude_bound(P, 10.0, v),
    "build_layout total_length": lambda v: build_layout("type1", v, 1.0),
    "build_layout intensity": lambda v: build_layout("type1", 1e4, v),
    "solve_mu_finite rho": lambda v: thermo.solve_mu_finite(TABLE, v),
    "solve_mu_limit beta": lambda v: thermo.solve_mu_limit(P, v, 0.1),
    "solve_mu_limit rho": lambda v: thermo.solve_mu_limit(P, 1.0, v),
    "condensate_density beta": lambda v: thermo.condensate_density(P, v, 0.1),
    "condensate_density rho": lambda v: thermo.condensate_density(P, 1.0, v),
    "condensate_finite epsilon": lambda v: thermo.condensate_finite(TABLE, 0.5, v),
    "odlro beta": lambda v: corr.odlro(P, v, 0.1),
    "odlro rho": lambda v: corr.odlro(P, 1.0, v),
    "kernel_with_condensate beta": lambda v: corr.kernel_with_condensate(P, v, 0.1, 1.0),
    "solve_mu_hierarchical rho": lambda v: hier.solve_mu_hierarchical(LAYOUT, 1.0, v),
    "decay_rate_fit r_window": lambda v: corr.decay_rate_fit(P, 1.0, -0.5, (5.0, v)),
}

#: a threshold, not a positive parameter: P{gap > 0} = 1 and P{gap > inf} = 0 exactly
NON_NEGATIVE = {"gap_exceedance_probability delta"}

# "function mu": a call with that chemical potential, the others valid; each
# bound is 0 or the ground energy, which 10 lies above
MU_CASES = {
    "density_limit": lambda v: thermo.density_limit(P, 1.0, v),
    "pressure_limit": lambda v: thermo.pressure_limit(P, 1.0, v),
    "kernel_limit": lambda v: corr.kernel_limit(P, 1.0, v, 1.0),
    "free_kernel": lambda v: corr.free_kernel(1.0, v, 1.0),
    "hierarchical_density": lambda v: hier.hierarchical_density(LAYOUT, 1.0, v),
    "density_finite": lambda v: thermo.density_finite(TABLE, v),
    "pressure_finite": lambda v: thermo.pressure_finite(TABLE, v),
    "kernel_finite": lambda v: corr.kernel_finite(TABLE, v, 1.0),
    "decay_rate_fit": lambda v: corr.decay_rate_fit(P, 1.0, v, (5.0, 10.0)),
}

# arguments that must only be finite: separations (either sign)
FINITE_CASES = {
    "kernel_limit r": lambda v: corr.kernel_limit(P, 1.0, -1.0, v),
    "kernel_limit r series": lambda v: corr.kernel_limit(P, 1.0, -1.0, v, method="series"),
    "kernel_with_condensate r": lambda v: corr.kernel_with_condensate(P, 1.0, 0.1, v),
    "kernel_finite r": lambda v: corr.kernel_finite(TABLE, -1.0, v),
    "free_kernel r": lambda v: corr.free_kernel(1.0, -1.0, v),
}


def profile(box_length: float, rho: float) -> hier.OccupationProfile:
    """A hand-built profile with one macroscopic state in its one large interval."""
    return hier.OccupationProfile(
        large=np.array([0.5, 1e-3]), small=np.array([1e-3]), large_count=1, small_count=10,
        mu_used=-1e-6, box_length=box_length, rho=rho, rho_c=1.0,
    )


# counts, sizes and shapes out of range: a call and the ValueError message it must raise
VALUE_ERROR_CASES = {
    "spacing_probability_mc trials":
        (lambda: loc.spacing_probability_mc(10, 1.0, 0.5, 1.0, 0), "trials must be >= 1"),
    "largest_interval_scaling trials":
        (lambda: loc.largest_interval_scaling(1.0, 100.0, 0, 0), "trials must be >= 1"),
    "IntervalPartition empty lengths":
        (lambda: geo.IntervalPartition(np.array([]), 1.0), "non-empty 1-d"),
    "IntervalPartition 2-d lengths":
        (lambda: geo.IntervalPartition(np.ones((2, 2)), 4.0), "non-empty 1-d"),
    "sample_ordered_lengths k": (lambda: geo.sample_ordered_lengths(1.0, 0, 0), "k must be >= 1"),
    "expected_largest k": (lambda: geo.expected_largest(1.0, 0), "k must be >= 1"),
    "expected_second_largest k": (lambda: geo.expected_second_largest(1.0, 1), "k must be >= 2"),
    "dirichlet_eigenvalue mode": (lambda: spec.dirichlet_eigenvalue(1.0, 0), "mode must be >= 1"),
    "dirichlet_eigenfunction mode":
        (lambda: spec.dirichlet_eigenfunction(1.0, 0.0, 0, 0.5), "mode must be >= 1"),
    # (10 - 8 ln 10) / 2 < 0: eight large intervals leave no room for the small ones
    "build_layout small length":
        (lambda: build_layout("type1", 10.0, 1.0, 8), "small_length .* is not positive"),
    "classify_condensate rho": (lambda: hier.classify_condensate(
        [profile(1e4, 2.0), profile(1e5, 2.0), profile(1e6, 3.0)]), "same target"),
}


@pytest.mark.parametrize("case", sorted(VALUE_ERROR_CASES))
def test_out_of_range_counts_and_shapes_raise_value_error(case):
    call, message = VALUE_ERROR_CASES[case]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("case", sorted(CASES))
def test_nan_raises_what_a_non_positive_value_raises(case):
    call = CASES[case]
    with pytest.raises(ValueError) as non_positive:
        call(-1.0)
    invalid = (math.nan,) if case in NON_NEGATIVE else (math.nan, math.inf, 0.0)
    for value in invalid:
        with pytest.raises(ValueError, match=re.escape(case.split()[1])) as bad:
            call(value)
        assert type(bad.value) is type(non_positive.value), value


#: the readers of the cached limit model of one (intensity, beta)
LIMIT_MODEL_CASES = [
    "condensate_density beta", "critical_density beta", "kernel_with_condensate beta",
    "odlro beta", "pressure_limit beta", "solve_mu_limit beta",
]


@pytest.mark.parametrize("case", LIMIT_MODEL_CASES)
def test_a_bad_beta_raises_before_a_limit_model_is_built(case, monkeypatch):
    class Unbuildable(thermo._LimitState):
        def __init__(self, *args):
            raise AssertionError(f"a limit model was built at {args}")

    monkeypatch.setattr(thermo, "_LimitState", Unbuildable)
    for value in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="beta"):
            CASES[case](value)


def test_zero_delta_stays_allowed():
    assert geo.gap_exceedance_probability(1.0, 0.0) == 1.0


def test_infinite_delta_gives_zero():
    assert geo.gap_exceedance_probability(1.0, math.inf) == 0.0


@pytest.mark.parametrize("case", sorted(MU_CASES))
@pytest.mark.parametrize("mu", [10.0, math.nan, math.inf, -math.inf])
def test_mu_outside_its_domain_raises_domain_error(case, mu):
    with pytest.raises(DomainError, match="mu"):
        MU_CASES[case](mu)


def test_limit_density_accepts_mu_zero():
    assert thermo.density_limit(P, 1.0, 0.0) == thermo.critical_density(P, 1.0)
    with pytest.raises(DomainError, match="mu"):
        thermo.pressure_limit(P, 1.0, 0.0)


@pytest.mark.parametrize("case", sorted(FINITE_CASES))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_separation_or_window_raises_domain_error(case, value):
    with pytest.raises(DomainError, match="must be finite"):
        FINITE_CASES[case](value)


def test_only_errors_states_the_domain_rule():
    package = pathlib.Path(bec1d.__file__).parent
    offenders = [
        path.name for path in sorted(package.glob("*.py"))
        if path.name != "errors.py"
        and any(text in path.read_text(encoding="utf-8")
                for text in ("must be positive", "must lie below"))
    ]
    assert offenders == []


def test_only_poisson_geometry_builds_a_partition():
    # one realization constructor: every other module draws through sample_poisson_partition
    package = pathlib.Path(bec1d.__file__).parent
    builders = [path.name for path in sorted(package.glob("*.py"))
                if "IntervalPartition(" in path.read_text(encoding="utf-8")]
    assert builders == ["poisson_geometry.py"]


def test_only_spectrum_builds_a_level_table():
    # every reader relies on the order build_level_table gives a table (ground level and
    # longest interval first), so no other module may construct one
    package = pathlib.Path(bec1d.__file__).parent
    builders = [path.name for path in sorted(package.glob("*.py"))
                if "LevelTable(" in path.read_text(encoding="utf-8")]
    assert builders == ["spectrum.py"]


def test_a_level_table_is_read_at_its_own_beta():
    # a realization's finite state is one table, read at the beta it was built at: no
    # public function takes a table and a separate beta, none takes a partition or a
    # table, and a table comes only from build_level_table
    package = pathlib.Path(bec1d.__file__).parent
    both, unions = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            annotations = {a.arg: ast.unparse(a.annotation) for a in args if a.annotation}
            if (not node.name.startswith("_") and "beta" in {a.arg for a in args}
                    and any("LevelTable" in text for text in annotations.values())):
                both.append(node.name)
            unions += [node.name for text in annotations.values()
                       if re.search(r"IntervalPartition\s*\|\s*LevelTable", text)]
    assert both == []
    assert unions == []
    assert not hasattr(bec1d, "level_table")


def code_references(name: str) -> set[tuple[str, str | None]]:
    """(module, top-level function or class) of each reference to `name` in the package's
    code, imports included; None stands for module level."""
    package = pathlib.Path(bec1d.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if ((isinstance(node, ast.Name) and node.id == name)
                        or (isinstance(node, ast.Attribute) and node.attr == name)
                        or (isinstance(node, ast.alias) and node.name == name)):
                    found.add((path.name, owner))
    return found


def test_only_spectrum_applies_the_level_cutoff():
    # tables and hierarchical towers end at E0 + 40/beta by one rule in spectrum, so no
    # other module counts modes below an energy or writes the cutoff out itself
    package = pathlib.Path(bec1d.__file__).parent
    appliers = [path.name for path in sorted(package.glob("*.py"))
                if re.search(r"_modes_below|(TABLE|TAIL)_EXPONENT\s*/\s*beta",
                             path.read_text(encoding="utf-8"))]
    assert appliers == ["spectrum.py"]
    # the table exponent is defined once and read only by the rule; the limit
    # q-integrals keep their own exponent in thermodynamics
    assert code_references("TABLE_EXPONENT") == {("spectrum.py", None),
                                                 ("spectrum.py", "_level_cutoff")}
    assert code_references("TAIL_EXPONENT") == {("thermodynamics.py", None),
                                                ("thermodynamics.py", "_q_max")}


def test_cli_imports_no_private_name_but_the_guards():
    # the CLI reaches the package through its public names; only the two
    # domain guards of errors are shared with it
    package = pathlib.Path(bec1d.__file__).parent
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}" for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "bec1d")
        and (node.module or "").split(".")[-1] != "errors"
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def test_only_mc_rows_catches_trial_errors():
    # one trial loop: no other CLI function isolates a trial's failure
    package = pathlib.Path(bec1d.__file__).parent
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    catchers = sorted({
        func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Name)
        and node.type.id == "_TRIAL_ERRORS"
    })
    assert catchers == ["_mc_rows"]
