"""Property tests of the thermodynamic-limit side.

The two kernel routes, panels between the knots and the mode series, share
only the quadrature rule; each must land within its own error bound, so they
agree to the sum of the two bounds. The same holds for the two critical
density routes. A solved limit mu brackets its target density within the
solver's stopping rule.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from bec1d import (
    ModelParams,
    critical_density,
    critical_density_by_parts,
    density_limit,
    kernel_limit,
    solve_mu_limit,
)
from util import kernel_route_bound, quad_bound


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@given(
    intensity=log_uniform(0.3, 3.0),
    beta=log_uniform(0.3, 3.0),
    beta_mu=st.floats(-1.0, -0.05),
    r=st.floats(0.5, 20.0),
)
@settings(max_examples=60)
def test_panels_equal_series(intensity, beta, beta_mu, r):
    mu = beta_mu / beta
    params = ModelParams(intensity)
    panels = kernel_limit(params, beta, mu, r, method="panels")
    series = kernel_limit(params, beta, mu, r, method="series")
    allowed = (kernel_route_bound(intensity, beta, mu, r, "panels")
               + kernel_route_bound(intensity, beta, mu, r, "series"))
    assert abs(panels - series) <= allowed


@given(
    intensity=log_uniform(0.3, 3.0),
    beta=log_uniform(0.3, 3.0),
    fraction=st.floats(0.3, 0.9),
)
@settings(max_examples=40)
def test_limit_mu_round_trip(intensity, beta, fraction):
    params = ModelParams(intensity)
    rho = fraction * critical_density(params, beta)
    mu = solve_mu_limit(params, beta, rho)
    tol = 1e-12 * max(1.0, abs(mu))
    assert density_limit(params, beta, mu - tol) < rho <= density_limit(params, beta, mu + tol)


@given(intensity=log_uniform(1e-3, 2.0), beta=log_uniform(1e-3, 20.0))
@settings(max_examples=60)
def test_critical_density_routes_agree(intensity, beta):
    params = ModelParams(intensity)
    direct = critical_density(params, beta)
    by_parts = critical_density_by_parts(params, beta)
    assert abs(direct - by_parts) <= quad_bound(direct) + quad_bound(by_parts)
