from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from oracles import QuadratureRule, integrate_kernel, poly_bvp_solution


def test_rule_validation():
    with pytest.raises(ValueError):
        QuadratureRule(points_per_panel=1)
    with pytest.raises(ValueError):
        QuadratureRule(breakpoints=(0.0, 0.5))
    with pytest.raises(ValueError):
        QuadratureRule(breakpoints=(0.0, 0.5, 1.0, 1.5))
    rule = QuadratureRule(breakpoints=(1.0, 0.5, 0.0, 0.5))
    assert rule.breakpoints == (0.0, 0.5, 1.0)


def test_kernel_selector_validation(params):
    with pytest.raises(ValueError):
        integrate_kernel(params, "bogus", 0.5, lambda s: s)
    with pytest.raises(ValueError):
        integrate_kernel(params, "G", 1.5, lambda s: s)


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_polynomial_oracle_equivalence(params, degree):
    qc = [0] * degree + [1]  # q(s) = s^degree
    u, du = poly_bvp_solution(Fraction(3, 2), Fraction(1, 2), qc)
    for t in np.linspace(0.0, 1.0, 101):
        got_u = integrate_kernel(params, "G", t, lambda s: s**degree)
        got_du = integrate_kernel(params, "dG", t, lambda s: s**degree)
        assert got_u == pytest.approx(u(t), abs=1e-10)
        assert got_du == pytest.approx(du(t), abs=1e-10)


def test_spot_values(params):
    assert integrate_kernel(params, "G", 1.0, lambda s: 1.0) == pytest.approx(11 / 24, abs=1e-13)
    assert integrate_kernel(params, "G", 1.0, lambda s: s) == pytest.approx(11 / 48, abs=1e-13)


def test_constant_source_closed_form(params):
    # -u''' = 1 integrates to (5/8) t^2 - t^3/6 for these parameters
    for t in (0.0, 0.25, 1 / 3, 0.5, 0.8, 1.0):
        got = integrate_kernel(params, "G", t, lambda s: 1.0)
        assert got == pytest.approx(5 / 8 * t**2 - t**3 / 6, abs=1e-13)


def test_zero_source(params):
    for t in (0.0, 0.3, 1.0):
        assert integrate_kernel(params, "G", t, lambda s: 0.0) == 0.0


def test_derivative_consistency(params):
    w = lambda s: np.exp(s) * (1 + s)
    h = 1e-5
    for t in (0.21, 0.47, 0.83):
        fd = (
            integrate_kernel(params, "G", t + h, w) - integrate_kernel(params, "G", t - h, w)
        ) / (2 * h)
        assert fd == pytest.approx(integrate_kernel(params, "dG", t, w), abs=1e-8)


def test_panel_refinement_converges(params):
    w = lambda s: np.sin(3 * s) + np.exp(-s)
    coarse = QuadratureRule(breakpoints=tuple(np.linspace(0, 1, 9)))
    fine = QuadratureRule(breakpoints=tuple(np.linspace(0, 1, 17)))
    for t in (0.1, 0.5, 0.9):
        a = integrate_kernel(params, "G", t, w, coarse)
        b = integrate_kernel(params, "G", t, w, fine)
        assert abs(a - b) <= 1e-12


def test_integrand_errors_propagate(params):
    def bad(s):
        raise FloatingPointError("boom")

    with pytest.raises(FloatingPointError):
        integrate_kernel(params, "G", 0.5, bad)
