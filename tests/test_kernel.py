from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import green_branches, green_dt_branches, select_first_match
from tripoint import (
    ProblemParams,
    g0_bound,
    g1_bound,
    green,
    green_dt,
)


@st.composite
def admissible_params(draw):
    eta = draw(st.floats(0.05, 0.95))
    frac = draw(st.floats(0.01, 0.99))
    return ProblemParams(1.0 + frac * (1.0 / eta - 1.0), eta)


def test_green_golden_values(params):
    assert green(params, 0.0, 0.7) == 0.0
    assert green(params, 0.75, 0.25) == pytest.approx(19 / 64, abs=1e-15)
    assert green(params, 0.5, 1.0) == 0.0


def test_green_dt_golden_values(params):
    assert green_dt(params, 0.0, 0.3) == 0.0
    assert green_dt(params, 0.75, 0.25) == pytest.approx(5 / 8, abs=1e-15)
    assert green_dt(params, 0.25, 1.0) == 0.0


def test_g0_golden_values(params):
    assert g0_bound(params, 0.5) == pytest.approx(2.5, abs=1e-15)
    assert g0_bound(params, 0.0) == 0.0
    assert g0_bound(params, 1.0) == 0.0


def test_g1_golden_values(params):
    assert g1_bound(params, 0.0) == pytest.approx(4.0, abs=1e-15)
    assert g1_bound(params, 1.0) == 0.0
    assert g1_bound(params, 0.5) == pytest.approx(2.0, abs=1e-15)


def test_cone_constants_golden(params):
    k0, k1 = params.k0, params.k1
    assert k0 == pytest.approx(1 / 90, rel=1e-15)
    assert k1 == pytest.approx(0.5, rel=1e-15)
    pb = ProblemParams(2.0, 1 / 3)
    k0b, k1b = pb.k0, pb.k1
    assert k0b == pytest.approx(1 / 216, rel=1e-14)
    assert k1b == pytest.approx(1 / 3, rel=1e-14)


@given(admissible_params())
def test_cone_constants_in_unit_interval(p):
    assert 0.0 < p.k0 < 1.0
    assert 0.0 < p.k1 < 1.0


@pytest.mark.parametrize(
    "alpha,eta",
    [
        (3.0, 0.5),      # alpha*eta > 1
        (1.0, 0.5),      # alpha not > 1
        (0.5, 0.5),
        (2.0, 0.0),      # eta at the boundary
        (2.0, 1.0),
        (1.5, -0.1),
        (2.0, 0.5 - 1e-13),  # 1 - alpha*eta below the 1e-9 margin
    ],
)
def test_construction_rejects_inadmissible(alpha, eta):
    with pytest.raises(ValueError):
        ProblemParams(alpha, eta)


def test_construction_error_names_the_constraint():
    with pytest.raises(ValueError, match=r"1 < alpha < 1/eta"):
        ProblemParams(3.0, 0.5)


@pytest.mark.parametrize("alpha, eta, name", [
    ("1.5", 0.5, "alpha"), (True, 0.5, "alpha"), ([1.5], 0.5, "alpha"),
    ({"x": 1}, 0.5, "alpha"), (None, 0.5, "alpha"), (1.5, "0.5", "eta"),
    (1.5, False, "eta"), (1.5, np.array([0.5]), "eta"),
])
def test_construction_rejects_a_value_that_is_not_a_number(alpha, eta, name):
    # the rule SolveConfig.validate uses: a boolean or a string is never a number
    with pytest.raises(ValueError, match=rf"^{name} must be a number, got "):
        ProblemParams(alpha, eta)


@pytest.mark.parametrize("alpha, eta", [
    (2, 0.25), (np.float64(1.5), np.float64(0.5)), (np.int64(2), np.float32(0.25)),
])
def test_construction_accepts_integers_and_numpy_scalars(alpha, eta):
    p = ProblemParams(alpha, eta)
    assert (type(p.alpha), type(p.eta)) == (float, float)
    assert (p.alpha, p.eta) == (float(alpha), float(eta))


def test_domain_errors(params):
    for t, s in [(-0.1, 0.5), (1.1, 0.5), (0.5, -0.1), (0.5, 1.2)]:
        with pytest.raises(ValueError):
            green(params, t, s)
        with pytest.raises(ValueError):
            green_dt(params, t, s)
    with pytest.raises(ValueError):
        g0_bound(params, 1.5)
    with pytest.raises(ValueError):
        g1_bound(params, -0.5)


def test_left_boundary_built_into_kernel(params):
    s = np.linspace(0.0, 1.0, 101)
    assert np.all(green(params, np.zeros_like(s), s) == 0.0)
    assert np.all(green_dt(params, np.zeros_like(s), s) == 0.0)


# seam pairs: (branch on the s< side, branch on the s> side)
def _seam_cases(p, t):
    cases = []
    for ti in t:
        if ti <= p.eta:
            cases.append((ti, ti, 0, 1))     # s = t seam
            cases.append((ti, p.eta, 1, 3))  # s = eta seam
        else:
            cases.append((ti, ti, 2, 3))
            cases.append((ti, p.eta, 0, 2))
    return cases


@pytest.mark.parametrize("branches", [green_branches, green_dt_branches])
def test_branch_continuity_at_seams(params, branches):
    t = np.linspace(0.0, 1.0, 500)
    for ti, s, b_lo, b_hi in _seam_cases(params, t):
        vals = branches(params, ti, s)
        assert abs(vals[b_lo] - vals[b_hi]) <= 1e-12


@settings(max_examples=50)
@given(admissible_params())
def test_branch_continuity_random_params(p):
    t = np.linspace(0.0, 1.0, 41)
    for branches in (green_branches, green_dt_branches):
        for ti, s, b_lo, b_hi in _seam_cases(p, t):
            vals = branches(p, ti, s)
            assert abs(vals[b_lo] - vals[b_hi]) <= 1e-12


def test_seam_selection_is_value_irrelevant(params):
    # the selected value equals both adjacent branch formulas at exact ties
    for ti in (0.2, 0.5, 0.8):
        for s, pair in ((ti, (0, 1) if ti <= params.eta else (2, 3)),
                        (params.eta, (1, 3) if ti <= params.eta else (0, 2))):
            g = green(params, ti, s)
            b = green_branches(params, ti, s)
            assert g == pytest.approx(b[pair[0]], abs=1e-13)
            assert g == pytest.approx(b[pair[1]], abs=1e-13)


@settings(max_examples=60)
@given(
    admissible_params(),
    st.lists(st.floats(0.0, 1.0), max_size=12),
    st.lists(st.floats(0.0, 1.0), max_size=12),
)
def test_kernels_match_first_match_selection_bitwise(p, t_extra, s_extra):
    # s holds both seams at every t: s = t and s = eta, plus eta/alpha
    t = np.array([0.0, p.eta / p.alpha, p.eta, 1.0, *t_extra])
    s = np.array([*s_extra, *t])
    T, S = np.meshgrid(t, s, indexing="ij")
    for kernel, branches in ((green, green_branches), (green_dt, green_dt_branches)):
        ref = select_first_match(p, T, S, branches(p, T, S))
        for got in (kernel(p, t[:, None], s[None, :]), kernel(p, T, S)):
            assert got.shape == ref.shape
            # the closed form t^2 R(s) - (t-s)_+^2/2 rounds differently from
            # the branches, except where both vanish exactly
            assert np.all(got[t == 0.0] == 0.0) and np.all(got[:, s == 0.0] == 0.0)
            assert np.max(np.abs(got - ref)) <= 32 * np.spacing(np.max(np.abs(ref)))


@settings(max_examples=30)
@given(admissible_params())
def test_scalar_points_match_the_array_path(p):
    e, w = p.eta, p.eta / p.alpha
    pts = [(0.3, 0.3), (0.8, 0.8), (e, e), (w, w), (0.1, e), (0.9, e), (w, e),
           (0.2, 0.9), (0.9, 0.2), (0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)]
    t = np.array([ti for ti, _ in pts])
    s = np.array([si for _, si in pts])
    for kernel in (green, green_dt):
        arr = kernel(p, t, s)
        for k, (ti, si) in enumerate(pts):
            v = kernel(p, ti, si)
            assert type(v) is float
            assert v.hex() == float(arr[k]).hex()


def test_green_dt_matches_finite_difference(params):
    # G is quadratic in t per branch, so the central difference is exact
    # away from the seams up to rounding
    rng = np.random.default_rng(7)
    h = 1e-5
    for _ in range(200):
        t = rng.uniform(2 * h, 1 - 2 * h)
        s = rng.uniform(0, 1)
        if min(abs(t - s), abs(t - params.eta)) < 2 * h:
            continue
        fd = (green(params, t + h, s) - green(params, t - h, s)) / (2 * h)
        assert fd == pytest.approx(green_dt(params, t, s), abs=1e-9)


def test_envelope_bounds_hold_on_grid(params):
    t = np.linspace(0, 1, 401)
    s = np.linspace(0, 1, 401)
    T, S = np.meshgrid(t, s, indexing="ij")
    G = green(params, T, S)
    D = green_dt(params, T, S)
    assert G.min() >= -1e-12
    assert np.max(G - g0_bound(params, S)) <= 1e-12
    assert D.min() >= -1e-12
    assert np.max(D - g1_bound(params, S)) <= 1e-12


def test_value_lower_bound_holds_on_window_grid(params):
    t = np.linspace(params.eta / params.alpha, params.eta, 401)
    s = np.linspace(0, 1, 401)
    T, S = np.meshgrid(t, s, indexing="ij")
    G = green(params, T, S)
    assert np.max(params.k0 * g0_bound(params, S) - G) <= 1e-12


@given(admissible_params())
@settings(max_examples=30)
def test_derivative_lower_bound_fails_at_s_zero(p):
    # dG/dt(t, 0) = 0 for every t while k1*g1(0) > 0, so no uniform
    # derivative lower bound with the g1 weight can hold near s = 0
    t_mid = (p.eta / p.alpha + p.eta) / 2
    assert green_dt(p, t_mid, 0.0) == 0.0
    assert p.k1 * g1_bound(p, 0.0) > 0.1 * p.k1


def _docstring_branches(a, e):
    """The module docstring's four branches of G and of dG/dt, exact in (a, e)."""
    t, s = sympy.symbols("t s")
    gap = 1 - a * e
    g = [(2 * t * s - s**2) * gap + t**2 * s * (a - 1), t**2 * gap + t**2 * s * (a - 1),
         (2 * t * s - s**2) * gap + t**2 * (a * e - s), t**2 * (1 - s)]
    dg = [s * gap + t * s * (a - 1), t * gap + t * s * (a - 1),
          s * gap + t * (a * e - s), t * (1 - s)]
    return (s, t), [b / (2 * gap) for b in g], [b / gap for b in dg]


@pytest.mark.parametrize("alpha, eta", [("3/2", "1/2"), ("5/2", "3/10"), ("6/5", "7/10")])
def test_coefficient_table_matches_the_paper_formulas(alpha, eta):
    from tripoint.kernel import _r_coefficients

    a, e = sympy.Rational(alpha), sympy.Rational(eta)
    (s, t), g, dg = _docstring_branches(a, e)
    A, gap = sympy.symbols("alpha gap")
    r_lo, r_hi = sympy.Rational(1, 2) + (A - 1) / (2 * gap) * s, (1 - s) / (2 * gap)
    # t^2 R(s) - (t-s)_+^2 / 2 and 2t R(s) - (t-s)_+ on the regions of the four
    # branches: s <= min(eta, t), t <= s <= eta, eta <= s <= t, max(eta, t) <= s
    for b, (r, ramp) in enumerate(((r_lo, t - s), (r_lo, 0), (r_hi, t - s), (r_hi, 0))):
        r = r.subs({A: a, gap: 1 - a * e})
        assert sympy.simplify(t**2 * r - ramp**2 / 2 - g[b]) == 0
        assert sympy.simplify(2 * t * r - ramp - dg[b]) == 0
    # the helper's (lo0, lo1, hi) within an ulp of R's exact coefficients, with
    # 1 - alpha*eta taken as the float p.gap, as in the package
    p = ProblemParams(float(a), float(e))
    at_p = {A: sympy.Rational(Fraction(p.alpha)), gap: sympy.Rational(Fraction(p.gap))}
    lo, hi = sympy.expand(r_lo), sympy.expand(r_hi)
    for got, coeff in zip(_r_coefficients(p), (lo.coeff(s, 0), lo.coeff(s, 1), -hi.coeff(s, 1))):
        err = sympy.Rational(Fraction(got)) - coeff.subs(at_p)
        assert abs(err) <= sympy.Rational(Fraction(np.spacing(got)))


def _exact_kernel(p, t, s, dt):
    """The docstring's first-match branch of G (or dG/dt) at (t, s), in rationals.

    ``1 - alpha*eta`` is the float ``p.gap``, as in the package.
    """
    a, t, s, gap = Fraction(p.alpha), Fraction(t), Fraction(s), Fraction(p.gap)
    if s <= min(p.eta, t):
        g, dg = (2 * t * s - s * s) * gap + t * t * s * (a - 1), s * gap + t * s * (a - 1)
    elif s <= p.eta:
        g, dg = t * t * gap + t * t * s * (a - 1), t * gap + t * s * (a - 1)
    elif s <= t:
        g, dg = (2 * t * s - s * s) * gap + t * t * (1 - gap - s), s * gap + t * (1 - gap - s)
    else:
        g, dg = t * t * (1 - s), t * (1 - s)
    return dg / gap if dt else g / (2 * gap)


@settings(max_examples=40)
@given(admissible_params(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
def test_closed_form_matches_the_exact_branches(p, extra):
    # both seams at every t (s = t and s = eta) and uniform points, so the
    # grid's max|G| is the kernel's scale on the square: the closed form's
    # error is an ulp or so of t^2 R(s), not of a small G
    t = np.array([*np.linspace(0.0, 1.0, 5), p.eta / p.alpha, p.eta, *extra])
    s = np.array([*np.linspace(0.0, 1.0, 9), p.eta, *t])
    for kernel, dt in ((green, False), (green_dt, True)):
        got = kernel(p, t[:, None], s[None, :])
        exact = [[_exact_kernel(p, ti, si, dt) for si in s] for ti in t]
        err = max(abs(Fraction(float(g)) - e) for row_g, row_e in zip(got, exact)
                  for g, e in zip(row_g, row_e))
        assert err <= 8 * np.spacing(float(max(abs(e) for row in exact for e in row)))


@settings(max_examples=40)
@given(admissible_params())
def test_closed_form_keeps_relative_accuracy_as_s_tends_to_1(p):
    # on branch 4 (s above eta and t) G = t^2 (1-s) / (2(1-alpha*eta)); R is
    # hi*(1-s) above eta, so G stays within a few ulps of itself, not of 1/gap
    s = 1.0 - np.logspace(-1, -15, 29)
    s = s[s > p.eta]
    for kernel, dt in ((green, False), (green_dt, True)):
        for t in (p.eta, 0.5 * (p.eta + s[0])):
            for si, got in zip(s, kernel(p, t, s)):
                exact = _exact_kernel(p, t, si, dt)
                assert abs(Fraction(float(got)) - exact) <= 4 * np.spacing(float(exact))


@settings(max_examples=60)
@given(admissible_params(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_kernels_vanish_exactly_at_t0_s0_and_s1(p, u):
    # R(0) = 1/2 and R1(0) = 1 exactly, and R(1) = R1(1) = 0
    u = np.array(u)
    for kernel in (green, green_dt):
        for t, s in ((0.0, u), (u, 0.0), (u, 1.0)):
            assert np.all(kernel(p, t, s) == 0.0)


@pytest.mark.parametrize(
    "x",
    [np.nan, np.inf, -np.inf, -1e-300, np.nextafter(1.0, 2.0), [0.2, np.nan, 0.7]],
    ids=["nan", "inf", "-inf", "tiny-negative", "one-plus-ulp", "nan-among-valid"],
)
def test_check_unit_rejects(x):
    from tripoint.kernel import _check_unit

    with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
        _check_unit(np.asarray(x, dtype=float), "t")


@pytest.mark.parametrize("x", [[], [0.0, 1.0], 0.0, 1.0, np.linspace(0.0, 1.0, 7)])
def test_check_unit_accepts(x):
    from tripoint.kernel import _check_unit

    _check_unit(np.asarray(x, dtype=float), "t")
