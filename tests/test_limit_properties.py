"""Property tests of the thermodynamic-limit side.

The two kernel routes, panels between the knots and the mode series, share
only the quadrature rule; each must land within its own error bound, so they
agree to the sum of the two bounds. The same holds for the two critical
density routes. A solved limit mu brackets its target density within the
solver's stopping rule, and the density is the mu-derivative of the pressure.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bec1d import (
    ModelParams,
    critical_density,
    critical_density_by_parts,
    density_limit,
    kernel_limit,
    pressure_limit,
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


@given(
    intensity=log_uniform(0.3, 3.0),
    beta=log_uniform(0.3, 3.0),
    beta_mu=st.floats(-35.0, -0.05),
)
@settings(max_examples=40)
@example(intensity=1.0, beta=1.0, beta_mu=-35.0)
def test_density_limit_is_the_mu_derivative_of_pressure_limit(intensity, beta, beta_mu):
    # rho = dp/dmu by central differences, as the finite-side property test. The step
    # is 1e-4 of the shorter scale, |mu| or 1/beta, so truncation costs ~2e-9 of rho
    # and the quadrature's ~1e-15 relative noise on p ~2e-10; the denominator is the float step
    # actually taken. Deep below zero p ~ e^{beta mu}, where ln(1 - e^-x) needs its
    # large-x form log1p(-e^-x): with ln(-expm1(-x)) alone the difference reads 0 at -35.
    params = ModelParams(intensity)
    mu = beta_mu / beta
    h = 1e-4 * min(-mu, 1.0 / beta)
    lo, hi = mu - h, mu + h
    slope = (pressure_limit(params, beta, hi) - pressure_limit(params, beta, lo)) / (hi - lo)
    assert slope == pytest.approx(density_limit(params, beta, mu), rel=1e-6, abs=0.0)
