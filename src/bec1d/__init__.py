"""One-dimensional Bose gas fragmented by impenetrable point impurities.

Poisson-random and deterministic hierarchical interval models, their
self-averaged spectral statistics, grand-canonical thermodynamics with
condensation, space-averaged correlation kernels with ODLRO, and the
localization statistics of the largest intervals.
"""

from .errors import ConvergenceError, DomainError
from .poisson_geometry import (
    EULER_GAMMA,
    IntervalPartition,
    PoissonParams,
    expected_largest,
    expected_second_largest,
    gap_exceedance_probability,
    gap_variance,
    largest_asymptotic,
    log_moment,
    sample_ordered_lengths,
    sample_poisson_partition,
    sample_uniform_partition,
)
from .rng import as_generator, trial_rng
from .spectrum import (
    C,
    C_SQUARED,
    LevelTable,
    ModelParams,
    build_level_table,
    counting_function,
    dirichlet_eigenfunction,
    dirichlet_eigenvalue,
    dos_limit,
    finite_amplitude_threshold,
    ids_finite_amplitude_bound,
    ids_free,
    ids_limit,
    ids_series,
)
from .thermodynamics import (
    CondensateReport,
    condensate_density,
    condensate_finite,
    critical_density,
    critical_density_bound,
    critical_density_by_parts,
    density_finite,
    density_limit,
    level_table,
    pressure_finite,
    pressure_limit,
    solve_mu_finite,
    solve_mu_limit,
)
from .correlations import (
    decay_rate_fit,
    free_kernel,
    kernel_finite,
    kernel_limit,
    kernel_with_condensate,
    odlro,
)
from .hierarchical import (
    ClassificationResult,
    CondensateType,
    HierarchicalLayout,
    LayoutKind,
    OccupationProfile,
    build_layout,
    classify_condensate,
    hierarchical_critical_density,
    hierarchical_density,
    occupation_profile,
    solve_mu_hierarchical,
    solve_type2_coefficient,
)
from .order_localization import (
    GroundStateShare,
    SpacingEstimate,
    SpacingQuery,
    ground_state_occupation_fraction,
    ground_state_share,
    largest_interval_scaling,
    spacing_probability_exact,
    spacing_probability_mc,
)

__version__ = "0.1.0"
