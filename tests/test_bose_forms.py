"""The stable Bose forms of bec1d.numerics against decimal references.

n = 1/(e^x - 1), its slope n (n + 1) = e^-x / (1 - e^-x)^2 and the pressure
weight ln(1 - e^-x) each exist once: n and its slope in scalar and array
form, the weight in array form only. Each form is checked against decimal
arithmetic within a few ulp, and the array forms of n and its slope against
the scalar ones, on both sides of the ln 2 switch, at x -> 0+ (where the
slope overflows to inf), deep in the tail at x = 35 and beyond EXP_CUTOFF,
where the factors flush to 0. A source scan keeps every expm1 and log1p in
numerics, so the copies cannot grow back.
"""

import decimal
import math
import pathlib

import numpy as np
import pytest

import bec1d
from bec1d.numerics import (
    EXP_CUTOFF,
    _bose_factor,
    _bose_occupations,
    _bose_slope,
    _bose_slopes,
    _log1mexps,
)

LN2 = math.log(2.0)
POINTS = [
    1e-170, 1e-150, 1e-12, 1e-6, 0.1, 0.5,
    math.nextafter(LN2, 0.0), LN2, math.nextafter(LN2, 1.0),
    1.0, 5.0, 30.0, 35.0, 100.0, 700.0, 744.0,
    EXP_CUTOFF, math.nextafter(EXP_CUTOFF, math.inf), 800.0, 1e4,
]
ULPS = 4


def reference(form: str, x: float) -> float:
    # 400 digits keep 1 - e^-x exact enough from x = 1e-150 up to e^-x ~ 1e-350
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        u = (-decimal.Decimal(x)).exp()  # e^-x
        if form == "factor":
            value = u / (1 - u)
        elif form == "slope":
            value = u / ((1 - u) * (1 - u))
        else:
            value = (1 - u).ln()
        return float(value)


SCALAR = {"factor": _bose_factor, "slope": _bose_slope}
ARRAY = {"factor": _bose_occupations, "slope": _bose_slopes}


def close(value: float, exact: float) -> bool:
    """Within ULPS ulp of exact; an overflow must match as inf."""
    return value == exact or abs(value - exact) <= ULPS * math.ulp(exact)


@pytest.mark.parametrize("form", ["factor", "slope"])
@pytest.mark.parametrize("x", POINTS)
def test_scalar_form_matches_the_reference(form, x):
    value = SCALAR[form](x)
    if x > EXP_CUTOFF:
        assert value == 0.0  # flushed, not merely underflowed
    else:
        assert close(value, reference(form, x))


@pytest.mark.parametrize("x", POINTS)
def test_log_array_form_matches_the_reference(x):
    (value,) = _log1mexps(np.array([x])).tolist()
    assert close(value, reference("log", x))


@pytest.mark.parametrize("form", ["factor", "slope"])
def test_array_form_matches_the_scalar_form(form):
    x = np.array(POINTS)
    values = ARRAY[form](x)
    assert values.shape == x.shape
    for xi, value in zip(POINTS, values.tolist()):
        assert close(value, SCALAR[form](xi))


def test_log_array_form_writes_in_place():
    x = np.array(POINTS)
    expected = _log1mexps(x)
    assert _log1mexps(x, out=x) is x
    np.testing.assert_array_equal(x, expected)


def test_the_pressure_weight_has_no_scalar_form():
    assert not hasattr(bec1d.numerics, "_log1mexp")


def test_only_numerics_calls_expm1_or_log1p():
    package = pathlib.Path(bec1d.__file__).parent
    offenders = [
        path.name for path in sorted(package.glob("*.py"))
        if path.name != "numerics.py"
        and any(name in path.read_text(encoding="utf-8") for name in ("expm1", "log1p"))
    ]
    assert offenders == []
