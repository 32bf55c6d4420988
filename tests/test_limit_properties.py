"""Property tests of the thermodynamic-limit kernel over lam, beta in [0.3, 3].

The two kernel routes, panels between the knots and the mode series, share
only the quadrature rule; each must land within its own error bound, so they
agree to the sum of the two bounds.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from bec1d import ModelParams, kernel_limit
from util import kernel_route_bound


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
