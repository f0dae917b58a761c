from __future__ import annotations

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import branch_table, green_branches, green_dt_branches, select_first_match
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


@settings(max_examples=60)
@given(
    admissible_params(),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    st.floats(0.0, 1.0),
)
def test_branch_coefficients_reproduce_the_branches(p, t, s):
    from tripoint.kernel import _coefficient_table

    t = np.array(t)
    # branch, kernel, power of s, t
    coef = np.stack([_coefficient_table(p, dt) @ [t**0, t, t**2] for dt in (False, True)], axis=1)
    assert coef.shape == (4, 2, 3, t.size)
    powers = s ** np.arange(3.0)
    for j, branches in enumerate((green_branches, green_dt_branches)):
        got = np.einsum("bkn,k->nb", coef[:, j], powers)
        scale = np.max(np.abs(coef[:, j]))
        assert np.max(np.abs(got - branches(p, t, s))) <= 1e-14 * scale


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
    for kernel, branches, dt in ((green, green_branches, False), (green_dt, green_dt_branches, True)):
        assert branches(p, T, S).tobytes() == branch_table(p, T, S, dt).tobytes()
        ref = select_first_match(p, T, S, branches(p, T, S))
        for got in (kernel(p, t[:, None], s[None, :]), kernel(p, T, S)):
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


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
    from tripoint.kernel import _coefficient_table

    a, e = sympy.Rational(alpha), sympy.Rational(eta)
    (s, t), g, dg = _docstring_branches(a, e)
    p = ProblemParams(float(a), float(e))
    tables = []
    for dt, branches in ((False, g), (True, dg)):
        exact = np.array([[[float(sympy.Poly(b, s, t).coeff_monomial(s**k * t**j))
                            for j in range(3)] for k in range(3)] for b in branches])
        tables.append(_coefficient_table(p, dt))
        assert tables[-1].shape == (4, 3, 3)
        # a few ulps of the table's scale
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(tables[-1] - exact)) <= 4 * np.finfo(float).eps * scale
    # dG/dt is G differentiated in t: C'[b, k, j] = (j + 1) C[b, k, j + 1]
    table, table_dt = tables
    assert np.all(table_dt[:, :, 2] == 0.0)
    assert np.allclose(table_dt[:, :, :2], table[:, :, 1:] * [1.0, 2.0], rtol=0, atol=1e-14 * scale)
