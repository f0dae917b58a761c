from __future__ import annotations

import json

import numpy as np
import pytest

import tripoint.solver as solver_module
from tripoint import (
    CoupledState,
    GridFunction,
    ProblemParams,
    SolveConfig,
    SolveError,
    apply_operator,
    bc_defect,
    integral_op,
    interpolate,
    parse,
    residual,
    solve,
    solver_nodes,
)
from conftest import CONFIG_DIR
from oracles import (bc_defect_reference, c1_norm, fd3_reference, interpolate_reference, lincomb,
                     picard_solve, poly_bvp_solution, residual_reference, shooting_reference)
from test_verify import _random_admissible

# nonnegative profiles phi(y, yp) for y, yp >= 0; the first group is positive
# at the zero state, so a source led by one cannot stop at the zero solution
_POSITIVE_PROFILES = (
    "exp(-y)", "exp(-yp)", "atan(y+1)", "atan(yp+1)",
    "1/(1+y)", "1/(1+yp)", "sqrt(1+y)", "sqrt(1+yp)",
)
_VANISHING_PROFILES = ("sqrt(abs(y))", "sqrt(abs(yp))", "log(1+y)", "log(1+yp)")


def _seeded_problem(seed):
    """Admissible (alpha, eta) and two sources of 3-8 terms c*t^m*phi(y, yp)."""
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0.2, 0.8)
    params = ProblemParams(rng.uniform(1.0, 0.8 / eta), eta)

    def source():
        terms = []
        for k in range(rng.integers(3, 9)):
            pool = _POSITIVE_PROFILES + (_VANISHING_PROFILES if k else ())
            phi = pool[rng.integers(len(pool))]
            terms.append(f"{rng.uniform(0.1, 1.0):.4f}*t^{rng.integers(0, 4)}*{phi}")
        return parse("+".join(terms))

    return params, source(), source()


def _poly_state(params, nodes=None):
    nodes = solver_nodes(65, params) if nodes is None else nodes
    g = GridFunction(nodes, 5 / 8 * nodes**2 - nodes**3 / 6, 5 / 4 * nodes - nodes**2 / 2)
    return CoupledState(g, g)


def test_zero_system_converges_immediately(params):
    state, report = solve(params, parse("0"), parse("0"), SolveConfig(nodes=17))
    assert report.converged
    assert report.iters == 1
    assert report.final_step_norm == 0.0
    assert c1_norm(state.u) == 0.0 and c1_norm(state.v) == 0.0


def test_constant_system_is_exact_after_one_sweep(params):
    state, report = solve(params, parse("1"), parse("1"), SolveConfig(nodes=65))
    assert report.converged
    exact = _poly_state(params, state.nodes)
    err = max(
        c1_norm(lincomb(1.0, state.u, -1.0, exact.u)),
        c1_norm(lincomb(1.0, state.v, -1.0, exact.v)),
    )
    assert err <= 1e-10
    assert report.bc_defect_u <= 1e-12
    assert report.bc_defect_v <= 1e-12


def test_step_increase_halves_the_relaxation_once(params, f_example, h_example, caplog):
    # a sweep whose step rose averages its input and output; from 1.0 the
    # example's step grows once
    with caplog.at_level("INFO", logger="tripoint.solver"):
        _, report = solve(params, f_example, h_example, SolveConfig(nodes=65, initial=1.0))
    drops = [r.getMessage() for r in caplog.records if "damping reduced to 0.5" in r.getMessage()]
    assert drops == ["step norm increased at iteration 2; damping reduced to 0.5"]
    assert report.history[1] > report.history[0]
    assert report.converged


def test_a_step_rise_costs_no_later_sweeps():
    # seeded sweep-129 problem (seed 7, input 382): its step rises once, at
    # sweep 2, and the secant steps that follow converge at full speed
    f = parse("0.894391*t^3*atan(y+1)+0.887033*t^2*sqrt(abs(yp))+0.566877*t*sqrt(abs(yp))"
              "+0.497731*t*log(1+yp)+0.985563*t*sqrt(abs(y))+0.196685*t*exp(-y)"
              "+0.875718*t^2*sqrt(1+y)+0.963221*t*sqrt(abs(yp))")
    h = parse("0.130091*t^3*atan(y+1)+0.330768*t*sqrt(abs(yp))+0.134715*1/(1+yp)"
              "+0.590646*sqrt(1+yp)")
    p = ProblemParams(1.9194417624960245, 0.41145255929117225)
    _, report = solve(p, f, h, SolveConfig(nodes=129, tol=1e-10))
    assert report.converged
    assert report.history[1] > report.history[0]
    assert report.iters <= 8


def test_oscillating_pair_needs_the_average_after_a_rise(params):
    # without the average after its step rise this pair runs out all 200 sweeps
    cfg = SolveConfig(nodes=65, initial=1.0)
    _, report = solve(params, parse("3*(1+y+yp)"), parse("100*exp(-y-yp)"), cfg)
    assert report.converged
    assert report.history[1] > report.history[0]
    assert report.iters <= 12


def test_every_step_rise_is_logged(params, caplog):
    # "1+20*y" diverges: its step rises at every sweep after the first
    with caplog.at_level("INFO", logger="tripoint.solver"):
        _, report = solve(params, parse("1+20*y"), parse("1+20*y"),
                          SolveConfig(nodes=129, max_iters=30))
    rises = [k + 1 for k in range(1, report.iters)
             if report.history[k] > report.history[k - 1]]
    drops = [r.getMessage() for r in caplog.records if "damping reduced to 0.5" in r.getMessage()]
    assert not report.converged
    assert len(rises) == report.iters - 1
    assert drops == [f"step norm increased at iteration {it}; damping reduced to 0.5"
                     for it in rises]


def test_config_validation(params):
    for bad in (
        SolveConfig(max_iters=0),
        SolveConfig(tol=0.0),
        SolveConfig(nodes=5),
        SolveConfig(initial="garbage"),
    ):
        with pytest.raises(ValueError):
            solve(params, parse("0"), parse("0"), bad)


def test_constant_initial_state(params):
    state, report = solve(params, parse("1"), parse("1"), SolveConfig(nodes=33, initial=2.5))
    assert report.converged  # source ignores the state, same fixed point
    exact = _poly_state(params, state.nodes)
    assert c1_norm(lincomb(1.0, state.u, -1.0, exact.u)) <= 1e-10


def test_provided_initial_state_resampled(params):
    coarse = solver_nodes(17, params)
    init = CoupledState(GridFunction.zeros(coarse), GridFunction.zeros(coarse))
    state, report = solve(params, parse("1"), parse("1"), SolveConfig(nodes=33, initial=init))
    assert report.converged


def test_resampled_initial_state_keeps_the_reference_bits(params, example_solution):
    state, _ = example_solution
    nodes = solver_nodes(257, params)
    got = solver_module._initial_state(state, nodes)
    for g, ref in ((got.u, state.u), (got.v, state.v)):
        values, derivs = interpolate_reference(ref, nodes)
        assert g.values.tobytes() == values.tobytes()
        assert g.derivs.tobytes() == derivs.tobytes()


def test_example_system_converges(params, example_solution):
    state, report = example_solution
    assert report.converged
    assert report.iters <= 200
    assert report.positivity_ok
    assert np.all(state.u.values[1:] > 0.0)
    assert np.all(state.v.values[1:] > 0.0)
    assert np.min(state.u.derivs) >= -1e-12
    assert report.bc_defect_u <= 1e-10
    assert report.bc_defect_v <= 1e-10


def test_history_tracks_steps(params, example_solution):
    _, report = example_solution
    assert len(report.history) == report.iters
    assert report.history[-1] == report.final_step_norm
    assert report.final_step_norm <= 1e-10


def test_fixed_point_certificate(params, f_example, h_example, example_solution):
    # the returned u is T_f of the last iterate x and v = T_h(u); the last
    # step bounds |v - x| by tol, so reapplying T_f to v moves u by about
    # tol times T_f's Lipschitz constant in the C1 norm
    state, report = example_solution
    w = apply_operator(params, f_example, state.v)
    assert c1_norm(lincomb(1.0, w, -1.0, state.u)) <= 1e-10 / 1.0


def test_residual_of_exact_polynomial_state(params):
    state = _poly_state(params)
    res_u, res_v = residual(params, state, parse("1"), parse("1"))
    # floor set by rounding noise under the 1/spacing^3 stencil amplification
    assert res_u <= 1e-6
    assert res_v <= 1e-6


def test_residual_of_zero_state(params):
    nodes = solver_nodes(17, params)
    state = CoupledState(GridFunction.zeros(nodes), GridFunction.zeros(nodes))
    res_u, res_v = residual(params, state, parse("0"), parse("0"))
    assert res_u == 0.0 and res_v == 0.0


def test_residual_detects_perturbation(params):
    nodes = solver_nodes(129, params)
    vals = 5 / 8 * nodes**2 - nodes**3 / 6
    ders = 5 / 4 * nodes - nodes**2 / 2
    good = GridFunction(nodes, vals, ders)
    # adding t^3/6 shifts the third derivative by exactly 1
    bad = GridFunction(nodes, vals + nodes**3 / 6, ders + nodes**2 / 2)
    res_u, _ = residual(params, CoupledState(bad, good), parse("1"), parse("1"))
    assert res_u == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("nodes", [33, 129])
def test_residual_matches_reference_bit_for_bit(params, f_example, h_example, nodes):
    state, report = solve(params, f_example, h_example, SolveConfig(nodes=nodes))
    got = residual(params, state, f_example, h_example)
    assert [x.hex() for x in got] == [x.hex() for x in residual_reference(params, state, f_example, h_example)]
    assert [report.residual_u.hex(), report.residual_v.hex()] == [x.hex() for x in got]


def test_residual_matches_reference_on_clamped_samples(params, f_example, h_example):
    # a random state whose samples go negative, so the source sees clamped inputs
    nodes = solver_nodes(33, params)
    rng = np.random.default_rng(11)
    u, v = (GridFunction(nodes, rng.normal(size=nodes.size), rng.normal(size=nodes.size)) for _ in range(2))
    state = CoupledState(u, v)
    got = residual(params, state, f_example, h_example)
    assert [x.hex() for x in got] == [x.hex() for x in residual_reference(params, state, f_example, h_example)]


def test_residual_decreases_with_resolution(params, f_example, h_example):
    _, coarse = solve(params, f_example, h_example, SolveConfig(nodes=65))
    _, fine = solve(params, f_example, h_example, SolveConfig(nodes=257))
    assert fine.residual_u < coarse.residual_u
    assert fine.residual_v < coarse.residual_v


def test_bc_defect_golden_values(params):
    nodes = solver_nodes(65, params)
    assert bc_defect(params, GridFunction.zeros(nodes)) == 0.0
    state = _poly_state(params, nodes)
    assert bc_defect(params, state.u) <= 1e-12
    # identity profile: defect = max(|g(0)|, |g'(0)|, |1 - alpha|)
    ident = GridFunction(nodes, nodes, np.ones_like(nodes))
    assert bc_defect(params, ident) == pytest.approx(1.0, abs=1e-15)
    p3 = ProblemParams(3.0, 0.25)
    nodes3 = solver_nodes(65, p3)
    ident3 = GridFunction(nodes3, nodes3, np.ones_like(nodes3))
    assert bc_defect(p3, ident3) == pytest.approx(p3.alpha - 1.0, abs=1e-15)


def test_bc_defect_reads_eta_at_its_node_bit_for_bit():
    rng = np.random.default_rng(19)
    for i, p in enumerate(_random_admissible(rng) for _ in range(200)):
        for n in (9 + i, 300 - i):  # together every n in 9..300
            nodes = solver_nodes(n, p)
            values, derivs = rng.normal(size=(2, nodes.size))
            if n > 150:  # let g'(1) - alpha*g'(eta) set the defect
                values[0] = derivs[0] = 0.0
            g = GridFunction(nodes, values, derivs)
            assert bc_defect(p, g).hex() == bc_defect_reference(p, g).hex()


def test_bc_defect_interpolates_off_the_nodes_bit_for_bit():
    rng = np.random.default_rng(23)
    for p in (_random_admissible(rng) for _ in range(50)):
        nodes = np.linspace(0.0, 1.0, int(rng.integers(9, 40)))
        if p.eta in nodes:
            continue
        values, derivs = rng.normal(size=(2, nodes.size))
        g = GridFunction(nodes, values, derivs)
        assert bc_defect(p, g).hex() == bc_defect_reference(p, g).hex()


@pytest.mark.parametrize("end_slope", [0.0, -0.0])
def test_bc_defect_of_a_signed_zero_slope_at_eta(params, end_slope):
    # only the sign of a zero g'(eta) can differ from the interpolated one
    nodes = solver_nodes(33, params)
    derivs = np.random.default_rng(29).normal(size=nodes.size)
    derivs[0] = 0.0
    derivs[-1] = end_slope
    derivs[int(np.searchsorted(nodes, params.eta))] = -0.0
    g = GridFunction(nodes, np.zeros_like(nodes), derivs)
    assert bc_defect(params, g).hex() == bc_defect_reference(params, g).hex() == "0x0.0p+0"


def test_fd3_equals_the_sum_into_zeros():
    from tripoint.solver import _fd3

    dense = np.random.default_rng(31).normal(size=1001)
    for x in (dense, np.zeros(1001), -np.abs(dense)):
        assert np.array_equal(_fd3(x, 1e-3), fd3_reference(x, 1e-3))


def test_bc_defect_structural_for_operator_outputs(params, f_example, h_example):
    # outputs satisfy the boundary conditions regardless of convergence
    _, report = solve(params, f_example, h_example, SolveConfig(nodes=33, max_iters=2))
    assert not report.converged
    assert report.bc_defect_u <= 1e-10
    assert report.bc_defect_v <= 1e-10


def test_nonconvergence_is_reported(params, f_example, h_example):
    _, report = solve(params, f_example, h_example, SolveConfig(nodes=33, max_iters=3))
    assert not report.converged
    assert report.iters == 3


def test_divergent_system_reports_nonconvergence(params):
    # strongly amplifying linear source: the sweep cannot settle
    cfg = SolveConfig(nodes=17, max_iters=12, initial=1.0)
    _, report = solve(params, parse("100*y"), parse("100*y"), cfg)
    assert not report.converged
    assert report.history[-1] > report.history[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverged_state_is_graded_with_an_infinite_residual():
    # 200 sweeps leave a finite state of ~1e305, whose dense samples overflow
    f = parse("3*(t^2+1)*(exp(-y)+sqrt(abs(yp)))")
    h = parse("100*(y+1)^2*atan(abs(yp)+1)")
    state, report = solve(ProblemParams(1.2, 0.7), f, h, SolveConfig(nodes=65, initial="zero"))
    assert not report.converged
    assert report.iters == 200
    assert report.residual_u == np.inf
    assert np.isfinite(state.v.values).all()


def test_state_overflow_is_a_solve_error_without_warnings(params):
    # divergent systems, run until the state no longer fits in a float
    import warnings

    cfg = SolveConfig(nodes=17, max_iters=200, initial=1.0)
    for src in ("100*y", "1e3*y+yp"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolveError) as exc:
                solve(params, parse(src), parse(src), cfg)
        message = str(exc.value)
        assert "non-finite state samples: overflow" in message
        assert f"iteration {exc.value.iteration}" in message


@pytest.mark.parametrize("alpha, f, h, initial, nodes, iteration", [
    (1.998, "1e5*y+yp", "1e5*y+yp", 1.0, 17, None),  # overflows after many sweeps
    (1.998, "1e306", "1", "zero", 65, 1),
])
def test_operator_overflow_is_a_solve_error_without_warnings(alpha, f, h, initial, nodes,
                                                             iteration):
    import warnings

    cfg = SolveConfig(nodes=nodes, max_iters=200, initial=initial)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolveError) as exc:
            solve(ProblemParams(alpha, 0.5), parse(f), parse(h), cfg)
    message = str(exc.value)
    assert "non-finite operator output" in message
    assert f"iteration {exc.value.iteration}:" in message
    if iteration is not None:
        assert exc.value.iteration == iteration


def test_non_finite_initial_is_rejected(params):
    for initial in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="initial"):
            SolveConfig(initial=initial).validate()


def test_evaluation_errors_carry_iteration_index(params):
    with pytest.raises(SolveError) as exc:
        solve(params, parse("log(y-1)"), parse("0"), SolveConfig(nodes=17, max_iters=5))
    assert exc.value.iteration == 1
    assert "iteration 1" in str(exc.value)


def test_t_only_domain_fault_fails_the_first_sweep(params):
    # a solve computes the t-only part sqrt(t-0.5) once, at its first sweep
    with pytest.raises(SolveError) as exc:
        solve(params, parse("sqrt(t-0.5)+y"), parse("1"), SolveConfig(nodes=17, max_iters=5))
    assert exc.value.iteration == 1


def test_report_serialization_round_trip(params, example_solution):
    import json

    _, report = example_solution
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["converged"] is True
    assert payload["iters"] == report.iters
    assert set(payload) == {
        "converged", "iters", "final_step_norm", "residual_u", "residual_v",
        "bc_defect_u", "bc_defect_v", "cone_ok_u", "cone_ok_v",
        "positivity_ok", "history",
    }


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name for the test; returns the list that grows by one per call."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_solve_builds_its_discretisation_once(params, f_example, h_example, monkeypatch):
    calls = _count_calls(monkeypatch, integral_op, "panel_points")
    _, report = solve(params, f_example, h_example, SolveConfig(nodes=65))
    assert report.iters >= 5
    assert len(calls) == 1


@pytest.mark.parametrize(
    "problem",
    [("example", 1.5, 0.5), ("example", 1.2, 0.3), ("example", 2.5, 0.3)]
    + [("seeded", seed) for seed in range(16)],
    ids=lambda c: "-".join(map(str, c)),
)
def test_solve_agrees_with_picard_reference(problem, f_example, h_example):
    if problem[0] == "example":
        p, f, h = ProblemParams(*problem[1:]), f_example, h_example
    else:
        p, f, h = _seeded_problem(problem[1])
    cfg = SolveConfig(nodes=129, tol=1e-10)
    state, report = solve(p, f, h, cfg)
    ref, ref_converged, ref_history = picard_solve(p, f, h, cfg)
    assert report.converged and ref_converged
    assert report.iters <= len(ref_history)
    for g, g_ref in ((state.u, ref.u), (state.v, ref.v)):
        assert c1_norm(lincomb(1.0, g, -1.0, g_ref)) <= 1e-8


@pytest.mark.parametrize("nodes", [65, 129])
def test_example_converges_in_few_sweeps(params, f_example, h_example, nodes):
    # plain substitution takes 13 sweeps here
    _, report = solve(params, f_example, h_example, SolveConfig(nodes=nodes, tol=1e-10))
    assert report.converged
    assert report.iters <= 8


@pytest.mark.parametrize("max_iters", [1, 2, 3, 4, 200])
def test_solve_returns_operator_outputs(params, f_example, h_example, max_iters):
    # v is T_h of the returned u, never an extrapolated iterate
    cfg = SolveConfig(nodes=129, max_iters=max_iters)
    state, report = solve(params, f_example, h_example, cfg)
    assert report.converged == (max_iters == 200)
    w = apply_operator(params, h_example, state.u)
    assert w.values.tobytes() == state.v.values.tobytes()
    assert w.derivs.tobytes() == state.v.derivs.tobytes()


@pytest.mark.parametrize("field, value", [
    ("nodes", 17.5), ("max_iters", True), ("nodes", False), ("max_iters", 2.5),
    ("nodes", "17"), ("max_iters", float("inf")),
])
def test_config_rejects_non_integral_or_boolean_counts(params, field, value):
    cfg = SolveConfig(**{"nodes": 17, field: value})
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        solve(params, parse("1"), parse("1"), cfg)


@pytest.mark.parametrize("field, value", [
    ("tol", True), ("tol", "1e-10"), ("tol", None), ("initial", "0.25"),
    ("initial", True), ("initial", False), ("initial", [1.0]), ("initial", None),
])
def test_config_rejects_non_real_or_boolean_settings(params, f_example, h_example, field, value):
    # the CLI's rule for every number: a real, never a boolean; tol=True
    # would otherwise stop the example after 2 sweeps as converged
    cfg = SolveConfig(**{"nodes": 17, field: value})
    with pytest.raises(ValueError, match=f"^{field} "):
        solve(params, f_example, h_example, cfg)


def test_config_takes_integral_floats_as_counts(params, f_example, h_example):
    # the CLI's rule: an integral number is a count, whatever its type
    a, _ = solve(params, f_example, h_example, SolveConfig(nodes=17, max_iters=50))
    b, _ = solve(params, f_example, h_example, SolveConfig(nodes=17.0, max_iters=50.0))
    for g, g_ref in ((b.u, a.u), (b.v, a.v)):
        assert g.values.tobytes() == g_ref.values.tobytes()
        assert g.derivs.tobytes() == g_ref.derivs.tobytes()


def test_gauss_order_4_and_8_solve_the_example_alike(params, f_example, h_example, monkeypatch):
    # the cubic Hermite state, not the Gauss order, sets the solution error:
    # the two orders agree to rounding at 129 nodes, and at 17 nodes they
    # differ by a small share of the error against a fine reference
    ref, _ = solve(params, f_example, h_example, SolveConfig(nodes=2049, tol=1e-13))

    def c1_distance(a, b):
        return max(c1_norm(lincomb(1.0, a.u, -1.0, b.u)), c1_norm(lincomb(1.0, a.v, -1.0, b.v)))

    for nodes in (17, 129):
        by_order = {}
        for q in (4, 8):
            monkeypatch.setattr(integral_op, "_QUAD_POINTS", q)
            by_order[q] = solve(params, f_example, h_example, SolveConfig(nodes=nodes))
        assert all(report.converged for _, report in by_order.values())
        drift = c1_distance(by_order[4][0], by_order[8][0])
        if nodes == 129:
            assert drift <= 1e-12
        else:
            grid = by_order[8][0].nodes
            exact = CoupledState(*(GridFunction(grid, *interpolate(g, grid)) for g in (ref.u, ref.v)))
            assert drift <= 0.01 * c1_distance(by_order[8][0], exact)


@pytest.fixture(scope="module")
def example_shot(params, f_example, h_example):
    return shooting_reference(params, f_example, h_example)


def _errors_against_shot(dense, state):
    # the largest value and slope error of either half over 4001 points
    t = np.linspace(0.0, 1.0, 4001)
    ref = dense(t)
    errors = [np.abs(np.subtract(interpolate(g, t), ref[k : k + 2])).max(axis=1)
              for g, k in ((state.u, 0), (state.v, 3))]
    return tuple(np.max(errors, axis=0))


def test_shooting_reference_meets_the_closed_form_for_a_constant_source(params):
    one = parse("1")
    dense, (a, b) = shooting_reference(params, one, one)
    u, du = poly_bvp_solution(params.alpha, params.eta, [1])
    t = np.linspace(0.0, 1.0, 101)
    exact = np.array([[u(x) for x in t], [du(x) for x in t]])
    for k in (0, 3):
        assert np.max(np.abs(dense(t)[k : k + 2] - exact)) <= 1e-14
    # u = t^2 c - t^3 / 6 with u''(0) = 2c = (1 - alpha eta^2) / (1 - alpha eta) / 2
    second = (1 - params.alpha * params.eta**2) / (2 * (1 - params.alpha * params.eta))
    assert a == pytest.approx(second, abs=1e-14) and b == pytest.approx(second, abs=1e-14)


# value and slope errors against the shooting reference, measured with it
@pytest.mark.parametrize("nodes, value_error, slope_error",
                         [(129, 2.83e-10, 6.67e-8), (2049, 1.77e-13, 1.64e-11)])
def test_example_solve_meets_the_shooting_reference(params, f_example, h_example, example_shot,
                                                   nodes, value_error, slope_error):
    dense, (a, b) = example_shot
    assert a == pytest.approx(2.63807312069821, abs=1e-11)
    assert b == pytest.approx(2.34093686903435, abs=1e-11)
    state, report = solve(params, f_example, h_example, SolveConfig(nodes=nodes, tol=1e-13))
    assert report.converged
    value, slope = _errors_against_shot(dense, state)
    assert value <= 2 * value_error and slope <= 2 * slope_error


@pytest.mark.parametrize("nodes", [17, 129])
def test_gauss_order_3_and_4_meet_the_shooting_reference_alike(
        params, f_example, h_example, example_shot, nodes, monkeypatch):
    # the cubic Hermite state, not the Gauss order, sets the error
    by_order = {}
    for q in (3, 4):
        monkeypatch.setattr(integral_op, "_QUAD_POINTS", q)
        state, report = solve(params, f_example, h_example, SolveConfig(nodes=nodes, tol=1e-13))
        assert report.converged
        by_order[q] = np.array(_errors_against_shot(example_shot[0], state))
    assert np.all(np.abs(by_order[3] / by_order[4] - 1.0) <= 0.05)


# From 4097 nodes up, a solve converges on a 257-node grid first and finishes
# on the fine grid; setting the panel ratio out of reach gives the one-grid solve.
_TWO_GRID_NODES = 4097


@pytest.mark.parametrize("problem", [("example", 1.5, 0.5), ("example", 2.5, 0.3), ("seeded", 3)],
                         ids=lambda c: "-".join(map(str, c)))
def test_two_grid_and_one_grid_solves_agree(problem, f_example, h_example, monkeypatch):
    if problem[0] == "example":
        p, f, h = ProblemParams(*problem[1:]), f_example, h_example
    else:
        p, f, h = _seeded_problem(problem[1])
    cfg = SolveConfig(nodes=_TWO_GRID_NODES, tol=1e-10)
    two, two_report = solve(p, f, h, cfg)
    monkeypatch.setattr(solver_module, "_COARSE_RATIO", 10**9)
    one, one_report = solve(p, f, h, cfg)
    assert two_report.converged and one_report.converged
    for g, g_ref in ((two.u, one.u), (two.v, one.v)):
        assert c1_norm(lincomb(1.0, g, -1.0, g_ref)) <= 1e-11


@pytest.mark.parametrize("max_iters", [1, 2, 3, 200])
def test_two_grid_solve_counts_sweeps_on_both_grids(params, f_example, h_example, max_iters):
    cfg = SolveConfig(nodes=_TWO_GRID_NODES, max_iters=max_iters)
    state, report = solve(params, f_example, h_example, cfg)
    assert report.converged == (max_iters == 200)
    assert len(report.history) == report.iters <= max_iters
    assert np.array_equal(state.nodes, solver_nodes(_TWO_GRID_NODES, params))
    w = apply_operator(params, h_example, state.u)
    assert w.values.tobytes() == state.v.values.tobytes()
    assert w.derivs.tobytes() == state.v.derivs.tobytes()


def test_two_grid_solve_builds_one_operator_per_grid(params, f_example, h_example,
                                                     monkeypatch, caplog):
    calls = _count_calls(monkeypatch, integral_op, "panel_points")
    with caplog.at_level("DEBUG", logger="tripoint.solver"):
        _, report = solve(params, f_example, h_example, SolveConfig(nodes=_TWO_GRID_NODES))
    assert report.converged
    assert len(calls) == 2
    assert any("257 nodes" in r.getMessage() for r in caplog.records)


def test_provided_initial_state_runs_no_coarse_grid(params, f_example, h_example, monkeypatch):
    nodes = solver_nodes(_TWO_GRID_NODES, params)
    init = CoupledState(GridFunction.zeros(nodes), GridFunction.zeros(nodes))
    calls = _count_calls(monkeypatch, integral_op, "panel_points")
    _, report = solve(params, f_example, h_example,
                      SolveConfig(nodes=_TWO_GRID_NODES, initial=init))
    assert report.converged
    assert len(calls) == 1


def test_two_grid_solve_makes_two_operator_calls_per_sweep(params, f_example, h_example,
                                                           monkeypatch):
    calls = _count_calls(monkeypatch, solver_module, "apply_operator")
    _, report = solve(params, f_example, h_example, SolveConfig(nodes=_TWO_GRID_NODES))
    assert report.converged
    assert len(calls) == 2 * report.iters


def _example_config_problem(nodes):
    """The committed example config's parameters, sources and settings at ``nodes``."""
    cfg = json.loads((CONFIG_DIR / "example.json").read_text(encoding="utf-8"))
    return (ProblemParams(cfg["alpha"], cfg["eta"]), parse(cfg["f"]), parse(cfg["h"]),
            SolveConfig(**{**cfg["solver"], "nodes": nodes}))


def test_solve_returns_u_and_v_on_one_node_array(example_solution):
    state, _ = example_solution
    assert state.u.nodes is state.v.nodes is state.nodes
    p, f, h, cfg = _example_config_problem(_TWO_GRID_NODES)
    state, report = solve(p, f, h, cfg)
    assert report.converged and state.u.nodes is state.v.nodes
    assert np.array_equal(state.nodes, solver_nodes(_TWO_GRID_NODES, p))


def test_operator_output_shares_its_input_nodes(params, f_example, example_solution):
    state, _ = example_solution
    op = integral_op._MomentOperator(params, state.nodes, (f_example,))
    for w in (apply_operator(params, f_example, state.u),
              apply_operator(params, f_example, state.u, op=op)):
        assert w.nodes is state.u.nodes


def test_warm_two_grid_solve_peaks_below_66_node_arrays():
    import tracemalloc

    p, f, h, cfg = _example_config_problem(_TWO_GRID_NODES)
    solve(p, f, h, cfg)  # fills the module caches and compiles the sources
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, report = solve(p, f, h, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.converged
    # the operator's block, the sweep's node vectors and grid functions, the
    # resample and the grading; one node array for each grid, shared by all
    assert peak <= 66 * 8 * (_TWO_GRID_NODES + 2)


def _warm_traced_solve(nodes, monkeypatch):
    """A warm example solve at ``nodes`` under tracemalloc: its traced peak above
    the level it started at, the same for its last grid's sweep loop, and that
    grid's operator block in bytes."""
    import tracemalloc

    p, f, h, cfg = _example_config_problem(nodes)
    solve(p, f, h, cfg)  # fills the module caches and compiles the sources
    blocks, loops = [], []
    build, sweeps = solver_module._MomentOperator, solver_module._sweeps

    def operator(*args):
        op = build(*args)
        blocks.append(op.s.base.nbytes)  # the operator is not kept past its grid
        return op

    def traced_sweeps(*args):
        tracemalloc.reset_peak()  # the peak of this grid alone
        out = sweeps(*args)
        loops.append(tracemalloc.get_traced_memory()[1])
        return out

    monkeypatch.setattr(solver_module, "_MomentOperator", operator)
    monkeypatch.setattr(solver_module, "_sweeps", traced_sweeps)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, report = solve(p, f, h, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert report.converged and len(blocks) == len(loops) == 2
    return peak, loops[-1] - before, blocks[-1]


def test_warm_two_grid_solve_peaks_below_55_node_arrays(monkeypatch):
    # the operator's phase-local buffers share storage, and the sweep lets the
    # initial state and its temporaries go: ~52 arrays
    peak, _, _ = _warm_traced_solve(_TWO_GRID_NODES, monkeypatch)
    assert peak <= 55 * 8 * (_TWO_GRID_NODES + 2)


def test_warm_two_grid_solve_peaks_below_47_node_arrays(monkeypatch):
    # three Gauss points per panel sample, evaluate and integrate a quarter
    # fewer points than four: ~44.6 arrays (~51.6 at four)
    peak, _, _ = _warm_traced_solve(_TWO_GRID_NODES, monkeypatch)
    assert peak <= 47 * 8 * (_TWO_GRID_NODES + 2)


def test_fine_sweep_stays_within_three_quarters_of_the_operator_block(monkeypatch):
    # glibc trims the heap top after a solve when its free space exceeds twice
    # the largest freed mmapped chunk, the operator's block; everything else the
    # fine sweep holds must stay well below that block (~0.5 of it), or every
    # large solve faults its pages back in
    _, fine_peak, block = _warm_traced_solve(_TWO_GRID_NODES, monkeypatch)
    assert 0 < fine_peak - block <= 0.75 * block
