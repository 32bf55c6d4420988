"""The batched Gauss-Kronrod quadrature behind the smooth limit integrals.

Only density_limit, the certificate of the limit mu solve, and free_kernel,
a Fourier-cosine integral for QUADPACK's QAWO, call scipy's quad; a source
scan keeps it so.
"""

import ast
import math
import pathlib

import numpy as np
import pytest

import bec1d
from bec1d import ConvergenceError
from bec1d import numerics
from bec1d.numerics import _gauss_kronrod, _integrate_panels


def integrate(func, a, b, epsabs=1e-14, epsrel=1e-13):
    """One owner over the panels [a_i, b_i] of an integrand of x alone."""
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    value, error, neval = _gauss_kronrod(
        lambda x, _: func(x), a, b, np.zeros(a.size, dtype=int), 1, epsabs, epsrel
    )
    return float(value[0]), float(error[0]), int(neval[0])


class TestExactness:
    @pytest.mark.parametrize("degree", range(30))
    def test_polynomials_up_to_degree_29_on_one_panel(self, degree, monkeypatch):
        # one application of the 21-point rule, with no split and no bisection
        monkeypatch.setattr(numerics, "_GK_MIN_SUBPANELS", 1)
        coeffs = np.random.default_rng(degree).uniform(-1.0, 1.0, degree + 1)
        poly = np.polynomial.Polynomial(coeffs)
        a, b = -0.3, 1.7
        exact = poly.integ()(b) - poly.integ()(a)
        value, _, neval = integrate(poly, a, b, epsabs=np.inf)
        scale = np.polynomial.Polynomial(np.abs(coeffs)).integ()(max(abs(a), abs(b)))
        assert neval == 21
        assert abs(value - exact) <= 1e-14 * scale

    def test_low_degree_takes_a_single_pass(self):
        # the 10-point Gauss rule is exact to degree 19, so no subpanel is bisected
        _, _, neval = integrate(lambda x: 3.0 * x**19 - x**4 + 2.0, 0.0, 1.0)
        assert neval == 21 * numerics._GK_MIN_SUBPANELS


    def test_first_pass_pieces_are_no_wider_than_width(self):
        # 50 pieces of width 0.2 over [0, 10], each accepted at once
        value, _, neval = _gauss_kronrod(
            lambda x, _: x * x, [0.0], [10.0], [0], 1, 1e-14, 1e-13, 0.2
        )
        assert neval[0] == 21 * 50
        assert value[0] == pytest.approx(1000.0 / 3.0, rel=1e-14)


class TestClosedForms:
    @pytest.mark.parametrize("func, a, b, exact", [
        (lambda x: np.exp(-x * x), -3.0, 3.0, math.sqrt(math.pi) * math.erf(3.0)),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, 10.0, math.atan(10.0)),
        (lambda x: np.cos(40.0 * x), 0.0, 2.0, math.sin(80.0) / 40.0),
    ])
    def test_matches_closed_form_and_estimate_covers_error(self, func, a, b, exact):
        value, error, _ = integrate(func, a, b, epsabs=1e-12, epsrel=1e-12)
        assert value == pytest.approx(exact, rel=1e-12)
        assert abs(value - exact) <= error

    @pytest.mark.parametrize("epsabs", [1e-6, 1e-8, 1e-10])
    def test_endpoint_singularity_estimate_covers_error(self, epsabs):
        # the derivative of sqrt(x) is unbounded at 0, so only the absolute
        # budget accepts the subpanels there: about 2 log2(1 / epsabs) rounds
        value, error, _ = integrate(np.sqrt, 0.0, 1.0, epsabs=epsabs, epsrel=0.0)
        assert abs(value - 2.0 / 3.0) <= error <= epsabs

    def test_panels_sum_to_the_whole_range(self):
        edges = np.linspace(0.0, 5.0, 7)
        whole, _, _ = integrate(np.exp, 0.0, 5.0)
        split, _, _ = integrate(np.exp, edges[:-1], edges[1:])
        assert split == pytest.approx(whole, rel=1e-14)
        assert whole == pytest.approx(math.expm1(5.0), rel=1e-14)


class TestOwners:
    @staticmethod
    def integrand(x, owner):
        return np.where(owner == 0, np.sin(x), np.where(owner == 1, np.exp(-x), x * x))

    def test_per_owner_sums_equal_separate_calls(self):
        a = np.array([0.0, 1.0, 0.0, 0.0, 2.0])
        b = np.array([1.0, 3.0, 4.0, 2.0, 5.0])
        owner = np.array([0, 0, 1, 2, 2])
        value, error, neval = _gauss_kronrod(self.integrand, a, b, owner, 3, 1e-14, 1e-13)
        exact = [1.0 - math.cos(3.0), -math.expm1(-4.0), 125.0 / 3.0]
        for j in range(3):
            mine = owner == j
            alone = _gauss_kronrod(
                self.integrand, a[mine], b[mine], np.full(mine.sum(), j), 3, 1e-14, 1e-13
            )
            assert value[j] == pytest.approx(alone[0][j], rel=1e-14)
            assert value[j] == pytest.approx(exact[j], rel=1e-13)
            assert abs(value[j] - exact[j]) <= error[j]
        assert neval.sum() % 21 == 0 and np.all(neval > 0)

    def test_an_owner_without_panels_gets_zero(self):
        value, error, neval = _gauss_kronrod(
            self.integrand, [0.0], [1.0], [2], 4, 1e-14, 1e-13
        )
        assert value[2] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert value[[0, 1, 3]].tolist() == [0.0, 0.0, 0.0]
        assert error[[0, 1, 3]].tolist() == [0.0, 0.0, 0.0]
        assert neval[[0, 1, 3]].tolist() == [0, 0, 0]

    def test_estimates_stay_within_the_acceptance_budget(self):
        # epsabs per initial panel plus epsrel of the absolute integral: the
        # bound the kernel routes' tolerance is written in
        a, b = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 30.0])
        value, error, _ = _gauss_kronrod(
            lambda x, _: 1.0 / (1.0 + x * x), a, b, np.zeros(3, dtype=int), 1, 1e-15, 1e-13
        )
        assert error[0] <= 3 * 1e-15 + 1e-13 * value[0]


class TestRoundLimit:
    def test_unresolvable_integrand_raises(self):
        # x^(-1/2): the error of every subpanel touching 0 is a fixed fraction
        # of its integral, so neither budget accepts it
        with pytest.raises(ConvergenceError, match="unresolved"):
            integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, epsabs=1e-10, epsrel=1e-10)

    def test_raises_at_the_round_limit(self, monkeypatch):
        monkeypatch.setattr(numerics, "_GK_MAX_ROUNDS", 3)
        with pytest.raises(ConvergenceError, match="after 3 rounds"):
            integrate(np.sqrt, 0.0, 1.0, epsabs=1e-12, epsrel=0.0)


class TestKnotPanels:
    def test_splits_the_whole_budget_over_the_panels(self):
        # quad's bound over the whole range: each knot panel gets epsabs / 3
        knots = [0.0, 1.0, 2.0, 30.0]
        (value,) = _integrate_panels(lambda x, _: 1.0 / (1.0 + x * x), knots, 1, 3e-15, 1e-13)
        direct, _, _ = _gauss_kronrod(
            lambda x, _: 1.0 / (1.0 + x * x), knots[:-1], knots[1:], np.zeros(3, dtype=int), 1,
            1e-15, 1e-13,
        )
        assert value == float(direct[0])
        assert value == pytest.approx(math.atan(30.0), rel=1e-13)

    def test_owners_share_the_panels(self):
        knots = np.array([0.0, 0.5, 2.0])
        both = _integrate_panels(lambda x, owner: x ** (owner + 1.0), knots, 2, 1e-13, 1e-12)
        assert both == pytest.approx([2.0, 8.0 / 3.0], rel=1e-14)
        assert [type(v) for v in both] == [float, float]


def test_quad_runs_only_the_certificate_and_the_fourier_kernel():
    package = pathlib.Path(bec1d.__file__).parent
    callers, scipy_importers = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in tree.body:
            if isinstance(func, ast.FunctionDef):
                callers += [
                    f"{path.stem}.{func.name}" for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "quad"
                ]
        scipy_importers += [
            path.stem for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy")
            or isinstance(node, ast.Import) and any(a.name.startswith("scipy") for a in node.names)
        ]
    assert callers == ["correlations.free_kernel", "thermodynamics.density_limit"]
    assert sorted(set(scipy_importers)) == ["correlations", "thermodynamics"]
