from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripoint import (
    CoupledState,
    EvalError,
    GridFunction,
    ProblemParams,
    apply_operator,
    integral_op,
    interpolate,
    parse,
    solver_nodes,
)

from conftest import EXAMPLE_F, EXAMPLE_H
from oracles import (QuadratureRule, half_sweep_reference, integrate_kernel, moment_weights,
                     panel_points_reference, poly_bvp_solution)
from test_kernel import admissible_params
from test_solver import _seeded_problem


@pytest.fixture(scope="module")
def nodes(params):
    return solver_nodes(65, params)


def _random_nonneg_state(nodes, rng, scale=1.0):
    # nonnegative polynomial coefficients give v >= 0 and v' >= 0 on [0, 1]
    deg = int(rng.integers(1, 5))
    coef = np.abs(rng.normal(size=deg + 1)) * scale
    vals = np.polynomial.polynomial.polyval(nodes, coef)
    ders = np.polynomial.polynomial.polyval(nodes, np.polynomial.polynomial.polyder(coef))
    return GridFunction(nodes, vals, ders)


def test_coupled_state_requires_shared_nodes(nodes):
    a = GridFunction.zeros(nodes)
    b = GridFunction.zeros(np.linspace(0, 1, 9))
    with pytest.raises(ValueError):
        CoupledState(a, b)


def test_zero_source_gives_zero_output(params, nodes):
    w = apply_operator(params, parse("0"), _random_nonneg_state(nodes, np.random.default_rng(0)))
    assert np.all(w.values == 0.0)
    assert np.all(w.derivs == 0.0)


def test_constant_source_matches_closed_form(params, nodes):
    w = apply_operator(params, parse("1"), GridFunction.zeros(nodes))
    assert np.max(np.abs(w.values - (5 / 8 * nodes**2 - nodes**3 / 6))) <= 1e-13
    assert np.max(np.abs(w.derivs - (5 / 4 * nodes - nodes**2 / 2))) <= 1e-13


def test_output_vanishes_at_left_end(params, nodes, f_example):
    w = apply_operator(params, f_example, _random_nonneg_state(nodes, np.random.default_rng(1)))
    assert w.values[0] == 0.0
    assert w.derivs[0] == 0.0


def test_example_source_at_zero_state_matches_oracle(params, nodes, f_example):
    # with v = v' = 0 the first source reduces to t^2 + 1
    w = apply_operator(params, f_example, GridFunction.zeros(nodes))
    u, du = poly_bvp_solution(Fraction(3, 2), Fraction(1, 2), [1, 0, 1])
    for i in range(0, nodes.size, 7):
        assert w.values[i] == pytest.approx(u(nodes[i]), abs=1e-12)
        assert w.derivs[i] == pytest.approx(du(nodes[i]), abs=1e-12)


def test_constant_pulls_out_of_the_integral(params, nodes, h_example):
    # with u = u' = 0 the second source is the constant atan(1) = pi/4
    w = apply_operator(params, h_example, GridFunction.zeros(nodes))
    base = apply_operator(params, parse("1"), GridFunction.zeros(nodes))
    assert np.max(np.abs(w.values - np.pi / 4 * base.values)) <= 1e-13
    assert np.max(np.abs(w.derivs - np.pi / 4 * base.derivs)) <= 1e-13


def test_linearity_in_the_source(params, nodes):
    v = GridFunction.zeros(nodes)
    f1, f2 = parse("t+1"), parse("t*t")
    combined = parse("2*(t+1)+3*(t*t)")
    w1, w2, wc = (apply_operator(params, e, v) for e in (f1, f2, combined))
    assert np.max(np.abs(wc.values - (2 * w1.values + 3 * w2.values))) <= 1e-12
    assert np.max(np.abs(wc.derivs - (2 * w1.derivs + 3 * w2.derivs))) <= 1e-12


def test_outputs_are_nonnegative_and_nondecreasing(params, nodes, f_example, h_example):
    rng = np.random.default_rng(5)
    for case in range(10):
        g = _random_nonneg_state(nodes, rng, scale=10.0 ** rng.uniform(-2, 2))
        w = apply_operator(params, f_example, g) if case % 2 == 0 else apply_operator(params, h_example, g)
        assert np.min(w.values) >= -1e-12
        assert np.min(w.derivs) >= -1e-12
        assert np.min(np.diff(w.values)) >= -1e-12


def test_value_cone_bound_preserved(params, nodes, f_example):
    # outputs w satisfy min w over [eta/alpha, eta] >= k0 * max|w| (value part)
    rng = np.random.default_rng(11)
    lo, hi = params.eta / params.alpha, params.eta
    window = (nodes >= lo - 1e-12) & (nodes <= hi + 1e-12)
    for _ in range(10):
        g = _random_nonneg_state(nodes, rng, scale=10.0 ** rng.uniform(-2, 2))
        w = apply_operator(params, f_example, g)
        assert np.min(w.values[window]) >= params.k0 * np.max(np.abs(w.values)) - 1e-9


def test_matches_pointwise_quadrature_path(params, nodes, f_example):
    # the node-moment fast path and the generic panel quadrature agree
    g = _random_nonneg_state(nodes, np.random.default_rng(2))
    w = apply_operator(params, f_example, g)
    rule = QuadratureRule(points_per_panel=10, breakpoints=tuple(np.linspace(0, 1, 65)))

    def source(s):
        y, yp = interpolate(g, s)
        return f_example.eval_array(s, np.maximum(y, 0.0), np.maximum(yp, 0.0))

    for i in (1, 17, 33, 49, nodes.size - 1):
        t = nodes[i]
        assert integrate_kernel(params, "G", t, source, rule) == pytest.approx(
            w.values[i], abs=1e-9
        )
        assert integrate_kernel(params, "dG", t, source, rule) == pytest.approx(
            w.derivs[i], abs=1e-9
        )


def test_output_derivatives_consistent_with_values(params, nodes, f_example):
    # finite differences of interpolated output values track the stored derivatives
    g = _random_nonneg_state(nodes, np.random.default_rng(8))
    w = apply_operator(params, f_example, g)
    t = np.linspace(0.01, 0.99, 197)
    h = 1e-6
    vp, _ = interpolate(w, t + h)
    vm, _ = interpolate(w, t - h)
    _, d = interpolate(w, t)
    assert np.max(np.abs((vp - vm) / (2 * h) - d)) <= 1e-5


@st.composite
def _params_down_to_tiny_gaps(draw):
    # 1 - alpha*eta log-uniform from 1e-8 to 0.99 (1 - eta), so alpha > 1
    eta = draw(st.floats(0.05, 0.95))
    gap = 10.0 ** draw(st.floats(-8.0, float(np.log10(0.99 * (1.0 - eta)))))
    return ProblemParams((1.0 - gap) / eta, eta)


@settings(max_examples=60, deadline=None)
@given(_params_down_to_tiny_gaps(), st.integers(9, 300),
       st.lists(st.floats(0.0, 10.0), min_size=2, max_size=6),
       st.sampled_from(("1", "1+t+y+yp", "(t^2+1)*sqrt(yp)+y^2")))
def test_outputs_meet_the_three_point_condition_to_rounding(p, n, coef, src):
    # w'(1) = alpha w'(eta) holds to a few ulps of max|w'| for any nonnegative
    # state, however small the gap, because both sides read the same c
    from tripoint.solver import bc_defect

    nodes = solver_nodes(n, p)
    P = np.polynomial.polynomial
    state = GridFunction(nodes, P.polyval(nodes, coef), P.polyval(nodes, P.polyder(coef)))
    w = apply_operator(p, parse(src), state)
    assert bc_defect(p, w) <= 8 * np.finfo(float).eps * np.max(np.abs(w.derivs))


def test_tabulated_basis_matches_interpolation(params, nodes, monkeypatch):
    from tripoint.integral_op import _MomentOperator

    monkeypatch.setattr(integral_op, "_QUAD_POINTS", 8)
    scale = 1e3
    g = GridFunction(nodes, scale * np.sin(3 * nodes), 3 * scale * np.cos(3 * nodes))
    op = _MomentOperator(params, nodes)
    assert op.basis is not None  # solver nodes hold eta: whole-interval panels
    vals, ders = op.sample(g.values, g.derivs)
    ref_vals, ref_ders = interpolate(g, op.s_flat)
    assert np.max(np.abs(vals - ref_vals)) <= 1e-13 * scale
    assert np.max(np.abs(ders - ref_ders)) <= 1e-13 * scale


def test_operator_rejects_unsupported_discretisations(params, nodes, f_example, monkeypatch):
    from tripoint.integral_op import _MomentOperator

    monkeypatch.setattr(integral_op, "_QUAD_POINTS", 8)
    no_eta = nodes[nodes != params.eta]
    with pytest.raises(ValueError, match="eta"):
        _MomentOperator(params, no_eta)
    with pytest.raises(ValueError, match="eta"):
        apply_operator(params, f_example, GridFunction.zeros(no_eta))
    # a prebuilt operator serves only its own parameters and nodes
    op = _MomentOperator(params, nodes, (f_example,))
    g = _random_nonneg_state(nodes, np.random.default_rng(3))
    other = ProblemParams(1.2, params.eta)  # same eta: the nodes still fit
    for call in (
        lambda: apply_operator(other, f_example, g, op),
        lambda: apply_operator(params, f_example, GridFunction.zeros(np.linspace(0, 1, 9)), op),
    ):
        with pytest.raises(ValueError, match="built for other"):
            call()
    # the operator is still usable after a rejected call
    _assert_same_bits(apply_operator(params, f_example, g, op),
                      apply_operator(params, f_example, g))


def test_workspace_and_operator_serve_only_their_own_sources(params, nodes, f_example, h_example,
                                                             monkeypatch):
    from tripoint.expr import Workspace
    from tripoint.integral_op import _MomentOperator

    monkeypatch.setattr(integral_op, "_QUAD_POINTS", 8)
    s = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ValueError, match="not built for"):
        h_example.eval_array(s, s, s, work=Workspace(s, (f_example,)))
    op = _MomentOperator(params, nodes, (f_example,))
    g = _random_nonneg_state(nodes, np.random.default_rng(5))
    with pytest.raises(ValueError, match="not built for"):
        apply_operator(params, h_example, g, op)
    # the operator is still usable after a rejected call
    _assert_same_bits(apply_operator(params, f_example, g, op),
                      apply_operator(params, f_example, g))


def _assert_same_bits(w, ref):
    assert w.values.tobytes() == ref.values.tobytes()
    assert w.derivs.tobytes() == ref.derivs.tobytes()


def test_one_operator_serves_alternating_sources(params, nodes, f_example, h_example, monkeypatch):
    # as in a solve, one operator (and its workspace) takes its sources in
    # turn; a third source needs more rows than either, and every source
    # keeps its own t-only values while the others run
    from tripoint.integral_op import _MomentOperator

    monkeypatch.setattr(integral_op, "_QUAD_POINTS", 8)
    k = parse("(t+2)*exp(0-yp) + t^3*(y*(y+yp) + sqrt(t)*yp)")
    bad = parse("log(y-1)")
    op = _MomentOperator(params, nodes, (f_example, h_example, k, bad))
    rng = np.random.default_rng(9)
    kept = []
    for src in (f_example, h_example, f_example, k, f_example, h_example, k):
        g = _random_nonneg_state(nodes, rng, scale=10.0 ** rng.uniform(-1, 1))
        w = apply_operator(params, src, g, op)
        _assert_same_bits(w, apply_operator(params, src, g))
        kept.append((w, w.values.tobytes(), w.derivs.tobytes()))
    for w, values, derivs in kept:  # earlier outputs do not share the workspace
        assert w.values.tobytes() == values and w.derivs.tobytes() == derivs
    # a domain fault in the middle of a tape leaves the operator usable
    with pytest.raises(EvalError):
        apply_operator(params, bad, GridFunction.zeros(nodes), op)
    for src in (f_example, h_example, k):
        g = _random_nonneg_state(nodes, rng)
        _assert_same_bits(apply_operator(params, src, g, op), apply_operator(params, src, g))


def test_operator_output_overflow_is_an_eval_error(f_example, monkeypatch):
    # R1 = 2R carries 1/(1 - alpha*eta) = 1000 here, so a source of 1e306
    # integrates to outputs beyond the float range
    import warnings

    from tripoint.integral_op import _MomentOperator

    monkeypatch.setattr(integral_op, "_QUAD_POINTS", 8)
    p = ProblemParams(1.998, 0.5)
    nodes = solver_nodes(65, p)
    big = parse("1e306")
    op = _MomentOperator(p, nodes, (big, f_example))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalError, match="non-finite operator output"):
            apply_operator(p, big, GridFunction.zeros(nodes), op)
    # the operator is still usable after the failed call
    g = _random_nonneg_state(nodes, np.random.default_rng(6))
    _assert_same_bits(apply_operator(p, f_example, g, op), apply_operator(p, f_example, g))


def test_warm_half_sweep_allocates_no_point_sized_array(params, f_example, monkeypatch):
    import tracemalloc

    from tripoint.integral_op import _MomentOperator

    nodes = solver_nodes(2049, params)
    quad_points = 8
    monkeypatch.setattr(integral_op, "_QUAD_POINTS", quad_points)
    op = _MomentOperator(params, nodes, (f_example,))
    g = _random_nonneg_state(nodes, np.random.default_rng(4))
    apply_operator(params, f_example, g, op)  # computes the t-only values
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        apply_operator(params, f_example, g, op)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the node-sized temporaries of the moment combination and the output
    # stay below one array of quadrature-point size
    point_array = 8 * quad_points * (nodes.size - 1)
    assert peak < point_array


@pytest.mark.parametrize("src, degree", [("1+y+yp", 5), ("t^2*y", 7)])
def test_default_order_is_exact_up_to_degree_seven(params, src, degree, monkeypatch):
    # on the cubic state w the panel integrand s^k * src(s, w, w') (k <= 2)
    # is a polynomial of the given degree, which 4 Gauss points integrate
    # exactly; 3 points are exact only up to degree 5
    P = np.polynomial.polynomial
    nodes = solver_nodes(17, params)
    a = [0.5, 0.25, 1.0, 0.125]
    g = GridFunction(nodes, P.polyval(nodes, a), P.polyval(nodes, P.polyder(a)))
    if src == "1+y+yp":
        q = [1 + a[0] + a[1], a[1] + 2 * a[2], a[2] + 3 * a[3], a[3]]
    else:
        q = [0, 0, *a]
    u, du = poly_bvp_solution(Fraction(3, 2), Fraction(1, 2), q)
    exact = GridFunction(nodes, np.array([u(t) for t in nodes]), np.array([du(t) for t in nodes]))
    outputs = []
    for order in (4, 8, 3):
        monkeypatch.setattr(integral_op, "_QUAD_POINTS", order)
        outputs.append(apply_operator(params, parse(src), g))
    w4, w8, w3 = outputs
    for w in (w4, w8):
        assert np.max(np.abs(w.values - exact.values)) <= 1e-14
        assert np.max(np.abs(w.derivs - exact.derivs)) <= 1e-14
    assert np.max(np.abs(w4.values - w8.values)) <= 1e-14
    assert np.max(np.abs(w4.derivs - w8.derivs)) <= 1e-14
    miss = max(np.max(np.abs(w3.values - exact.values)), np.max(np.abs(w3.derivs - exact.derivs)))
    assert (miss <= 1e-14) == (degree <= 5)


def _assert_weights_match_the_refit(p, nodes):
    # the closed-form contraction against the refitted weights of P_k(t),
    # P_k(eta) and P_k(1), both applied to the operator's own moments
    from tripoint.integral_op import _MomentOperator

    src = parse("1+t+y+yp")
    op = _MomentOperator(p, nodes, (src,))
    g = _random_nonneg_state(nodes, np.random.default_rng(nodes.size))
    got = op(src, g.values, g.derivs)
    cums = op._cums
    moments = np.stack(np.broadcast_arrays(cums, cums[:, [op.eta_pos]], cums[:, [-1]]))
    for w, out in zip(moment_weights(p, nodes), got):
        terms = w * moments
        scale = np.max(np.abs(terms))
        assert np.max(np.abs(out - terms.sum(axis=(0, 1)))) <= 1e-15 * scale


@pytest.mark.parametrize("n", [129, 8193])
def test_moment_weights_match_the_three_point_refit(params, n):
    _assert_weights_match_the_refit(params, solver_nodes(n, params))


@settings(max_examples=40, deadline=None)
@given(admissible_params(), st.integers(1, 3))
def test_moment_weights_at_and_next_to_eta(p, ulps):
    # the t == eta column takes the t <= eta regrouping; its neighbours, a few
    # ulps away on either side, take one regrouping each
    below, above = p.eta, p.eta
    for _ in range(ulps):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
    nodes = np.array([0.0, p.eta / 2, below, p.eta, above, (1 + p.eta) / 2, 1.0])
    _assert_weights_match_the_refit(p, nodes)


@pytest.mark.parametrize("n", [9, 129])
def test_panel_points_keep_their_shape_and_bits(params, n):
    from tripoint.integral_op import panel_points

    breaks = solver_nodes(n, params)
    for got, ref in zip(panel_points(breaks, 4), panel_points_reference(breaks, 4)):
        assert got.shape == ref.shape == (breaks.size - 1, 4)
        assert got.tobytes() == ref.tobytes()


def test_cached_gauss_rule_is_read_only():
    from tripoint.integral_op import _QUAD_POINTS, _leggauss

    for arr in _leggauss(_QUAD_POINTS):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_cached_gauss_basis_is_shared_and_read_only(params, f_example):
    from tripoint.expr import Workspace
    from tripoint.gridfn import _hermite_basis
    from tripoint.integral_op import _QUAD_POINTS, _MomentOperator, _leggauss

    sources = ((), (f_example,))
    ops = [_MomentOperator(params, solver_nodes(n, params), src)
           for n, src in zip((17, 65), sources)]
    x = (_leggauss(_QUAD_POINTS)[0] + 1.0) / 2.0
    for name, weights in zip(("basis", "slope_basis"), _hermite_basis(x)):
        first, second = (getattr(op, name) for op in ops)
        assert first is second
        assert first.shape == (_QUAD_POINTS, 4)
        assert first.tobytes() == np.column_stack(weights).tobytes()
        with pytest.raises(ValueError):
            first[0, 0] = 0.0
    for op, src in zip(ops, sources):
        # the views tile one block, in order, and the source registers fill the rest
        views = (op.s, op.w, op._vals, op._ders, op._stack, op._panel_sum, op._cums, op.t2,
                 *op._out, op.h)
        block = op.s.base
        start = at = block.__array_interface__["data"][0]
        for view in views:
            assert view.base is block
            assert view.__array_interface__["data"][0] == at
            at += view.nbytes
        assert start + block.nbytes - at == Workspace.rows_for(src) * op.s_flat.nbytes


def _clamp_messages(caplog):
    return [r.getMessage() for r in caplog.records if "clamped" in r.getMessage()]


@pytest.mark.parametrize("only_slopes", [False, True])
def test_clamp_logs_the_count_of_negative_samples(params, caplog, only_slopes):
    from tripoint.integral_op import _MomentOperator

    nodes = solver_nodes(65, params)
    values, derivs = np.random.default_rng(53).normal(size=(2, nodes.size))
    if only_slopes:  # values well above zero: only the slope samples dip below it
        values = 1.0 + nodes
    src = parse("1+y+yp")
    op = _MomentOperator(params, nodes, (src,))
    y, yp = op.sample(values, derivs)
    n_neg = np.count_nonzero(y < 0.0) + np.count_nonzero(yp < 0.0)
    assert 0 < n_neg < y.size + yp.size
    assert (y.min() >= 0.0) == only_slopes
    with caplog.at_level("DEBUG", logger="tripoint.integral_op"):
        op(src, values, derivs)
    assert _clamp_messages(caplog) == [
        f"clamped {n_neg} negative interpolated state samples to 0"]


def test_non_negative_samples_are_not_clamped(params, caplog):
    nodes = solver_nodes(65, params)
    # (a constant state is no example: its sampled slopes round to about -5e-14)
    states = (GridFunction.zeros(nodes), _random_nonneg_state(nodes, np.random.default_rng(59)))
    with caplog.at_level("DEBUG", logger="tripoint.integral_op"):
        for g in states:
            apply_operator(params, parse("1+y+yp"), g)
    assert _clamp_messages(caplog) == []


@pytest.mark.parametrize("src, big, message", [
    ("y+yp", "values", "non-finite state samples: overflow encountered in divide"),
    ("y*yp", "derivs", "domain error while evaluating expression: overflow encountered in multiply"),
])
def test_node_data_near_the_float_limit_raise_the_same_errors(params, src, big, message, caplog):
    # alternating +-1e308 node data; on the slopes it gets through sampling and the clamp
    nodes = solver_nodes(17, params)
    data = {"values": np.zeros_like(nodes), "derivs": np.zeros_like(nodes)}
    data[big] = 1e308 * np.where(np.arange(nodes.size) % 2, -1.0, 1.0)
    with caplog.at_level("DEBUG", logger="tripoint.integral_op"):
        with pytest.raises(EvalError) as err:
            apply_operator(params, parse(src), GridFunction(nodes, **data))
    assert str(err.value) == message
    assert len(_clamp_messages(caplog)) == (big == "derivs")


def _half_sweep_outcome(call):
    # the output bytes, or the message of the EvalError it raised
    try:
        return tuple(a.tobytes() for a in call())
    except EvalError as err:
        return str(err)


@settings(max_examples=80, deadline=None)
@given(admissible_params(), st.integers(9, 257), st.integers(0, 2**32 - 1),
       st.sampled_from(("bundled", "seeded")), st.booleans(), st.floats(1e-3, 10.0))
def test_half_sweep_matches_the_reference_bit_for_bit(p, n, seed, kind, signed, scale):
    from tripoint.integral_op import _MomentOperator

    rng = np.random.default_rng(seed)
    if kind == "bundled":
        sources = (parse(EXAMPLE_F), parse(EXAMPLE_H))
    else:
        sources = _seeded_problem(seed)[1:]
    nodes = solver_nodes(n, p)
    op = _MomentOperator(p, nodes, sources)
    for src in sources:
        if signed:  # node data of both signs: the negative samples take the clamp path
            values, derivs = scale * rng.normal(size=(2, nodes.size))
        else:
            g = _random_nonneg_state(nodes, rng, scale)
            values, derivs = g.values, g.derivs
        want = _half_sweep_outcome(lambda: half_sweep_reference(op, src, values, derivs))
        assert _half_sweep_outcome(lambda: op(src, values, derivs)) == want


def test_overflow_in_c_raises_the_reference_error():
    # gap 1e-8 puts (alpha - 1) / (2 gap) = 5e7 into c, so a source of 1e303
    # has finite moments and overflows only in c
    from tripoint.integral_op import _MomentOperator

    p = ProblemParams((1.0 - 1e-8) / 0.5, 0.5)
    src = parse("1e303")
    op = _MomentOperator(p, solver_nodes(17, p), (src,))
    zeros = np.zeros(op.nodes.size)
    want = _half_sweep_outcome(lambda: half_sweep_reference(op, src, zeros, zeros))
    assert want == "non-finite operator output: overflow encountered in scalar multiply"
    assert _half_sweep_outcome(lambda: op(src, zeros, zeros)) == want
