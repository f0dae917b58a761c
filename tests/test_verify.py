from __future__ import annotations

import inspect
import warnings

import numpy as np
import pytest
from oracles import cone_membership_reference, green_branches, green_dt_branches, select_first_match

import tripoint
from tripoint import (
    EvalError,
    GridFunction,
    ProblemParams,
    apply_operator,
    certify_kernel,
    check_nonnegative_sampled,
    cone_membership,
    g0_bound,
    g1_bound,
    green,
    green_dt,
    growth_scan,
    parse,
    solver_nodes,
)
from tripoint.gridfn import chebyshev_nodes


def _random_admissible(rng):
    eta = rng.uniform(0.05, 0.95)
    frac = rng.uniform(0.01, 0.99)
    return ProblemParams(1.0 + frac * (1.0 / eta - 1.0), eta)


def test_certify_grid_too_coarse(params):
    with pytest.raises(ValueError, match="grid too coarse"):
        certify_kernel(params, grid_n=5)


def test_certify_grid_n_is_a_count(params):
    # an integral float is a count, as in SolveConfig; a fraction, a boolean or a
    # string is not, and each is refused before the grid is built
    want = certify_kernel(params, grid_n=801).to_dict()
    assert certify_kernel(params, grid_n=801.0).to_dict() == want
    assert certify_kernel(params, grid_n=np.int64(11)).grid_n == 11
    for bad in (11.5, True, "801", np.nan, np.inf):
        with pytest.raises(ValueError, match=r"grid_n must be an integer, got "):
            certify_kernel(params, grid_n=bad)
    with pytest.raises(ValueError, match="grid too coarse"):
        certify_kernel(params, grid_n=10.0)


def test_certify_kernel_example_params(params):
    report = certify_kernel(params, grid_n=401)
    by_name = {c.name: c for c in report.checks}
    assert by_name["green_envelope"].passed
    assert by_name["green_cone_lower"].passed
    assert by_name["green_dt_envelope"].passed
    # the derivative lower bound with weight g1 is violated near s = 0:
    # dG/dt(t, 0) = 0 while k1*g1(0) = k1/(1-alpha*eta) > 0
    failed = by_name["green_dt_cone_lower"]
    assert not failed.passed
    assert failed.worst_s == 0.0
    assert failed.worst_violation == pytest.approx(
        params.k1 / params.gap, rel=1e-12
    )
    assert not report.all_passed


def test_certify_kernel_random_params_envelopes_hold():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        p = _random_admissible(rng)
        report = certify_kernel(p, grid_n=101)
        by_name = {c.name: c for c in report.checks}
        assert by_name["green_envelope"].passed, (p.alpha, p.eta)
        assert by_name["green_cone_lower"].passed, (p.alpha, p.eta)
        assert by_name["green_dt_envelope"].passed, (p.alpha, p.eta)


def test_k0_is_a_valid_lower_constant(params):
    # grid minimum of G/g0 over the window strip stays above k0
    t = np.linspace(params.eta / params.alpha, params.eta, 201)
    s = np.linspace(0.0, 1.0, 201)[1:-1]  # interior: g0 > 0
    T, S = np.meshgrid(t, s, indexing="ij")
    ratio = green(params, T, S) / g0_bound(params, S)
    assert ratio.min() >= params.k0


def test_certify_detects_corrupted_kernel(params):
    negated = lambda p, t, s: -green(p, t, s)
    report = certify_kernel(params, grid_n=101, green_fn=negated)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["green_envelope"].passed
    assert by_name["green_envelope"].worst_violation > 0.1
    # untouched derivative checks keep their usual outcome
    assert by_name["green_dt_envelope"].passed


def _meshgrid_certification(p, grid_n, slack=1e-12):
    """The four gradings on materialised meshgrids with the oracle kernel."""
    sg = np.linspace(0.0, 1.0, grid_n)
    tg = np.linspace(0.0, 1.0, grid_n)
    tw = np.linspace(p.eta / p.alpha, p.eta, grid_n)
    T, S = np.meshgrid(tg, sg, indexing="ij")
    Tw, Sw = np.meshgrid(tw, sg, indexing="ij")
    G = select_first_match(p, T, S, green_branches(p, T, S))
    Gw = select_first_match(p, Tw, Sw, green_branches(p, Tw, Sw))
    D = select_first_match(p, T, S, green_dt_branches(p, T, S))
    Dw = select_first_match(p, Tw, Sw, green_dt_branches(p, Tw, Sw))
    graded = [
        ("green_envelope", np.maximum(-G, G - g0_bound(p, S)), tg),
        ("green_cone_lower", p.k0 * g0_bound(p, Sw) - Gw, tw),
        ("green_dt_envelope", np.maximum(-D, D - g1_bound(p, S)), tg),
        ("green_dt_cone_lower", p.k1 * g1_bound(p, Sw) - Dw, tw),
    ]
    rows = []
    for name, violation, ts in graded:
        i, j = np.unravel_index(int(np.argmax(violation)), violation.shape)
        v = float(violation[i, j])
        rows.append((name, v <= slack, v.hex(), float(ts[i]).hex(), float(sg[j]).hex()))
    return rows


def test_certify_matches_meshgrid_reference_bitwise(params):
    rng = np.random.default_rng(11)
    pairs = [params, ProblemParams(2.0, 1 / 3)] + [_random_admissible(rng) for _ in range(3)]
    for p in pairs:
        report = certify_kernel(p, grid_n=101)
        got = [(c.name, c.passed, c.worst_violation.hex(), c.worst_t.hex(), c.worst_s.hex())
               for c in report.checks]
        assert got == _meshgrid_certification(p, 101), (p.alpha, p.eta)


def _graded(report):
    return [(c.name, c.passed, c.worst_violation.hex(), c.worst_t.hex(), c.worst_s.hex())
            for c in report.checks]


def test_closed_form_certifies_like_the_branch_selection_at_801():
    # the closed-form kernel rounds differently from the first-match branches,
    # but the graded worst points and violations are the same
    def branch_green(p, t, s):
        return select_first_match(p, t, s, green_branches(p, t, s))

    def branch_green_dt(p, t, s):
        return select_first_match(p, t, s, green_dt_branches(p, t, s))

    for p in (ProblemParams(1.5, 0.5), ProblemParams(2.0, 1 / 3), ProblemParams(1.05, 0.94)):
        assert _graded(certify_kernel(p, grid_n=801)) == _graded(certify_kernel(
            p, grid_n=801, green_fn=branch_green, green_dt_fn=branch_green_dt)), (p.alpha, p.eta)


def test_certify_row_blocks_keep_the_full_grid_argmax(params, monkeypatch):
    import tripoint.verify as verify

    # 401 points per row: blocks of 81 rows, five of them
    for p in (params, ProblemParams(2.0, 1 / 3)):
        tw = np.linspace(p.eta / p.alpha, p.eta, 401)
        got = _graded(certify_kernel(p, grid_n=401))
        assert got == _meshgrid_certification(p, 401), (p.alpha, p.eta)
        # dG/dt(t, 0) = 0 on every row: the tie goes to the first row
        assert got[3][3:] == (tw[0].hex(), (0.0).hex())

    # three rows per block at grid 23: the last of eight blocks holds two rows
    monkeypatch.setattr(verify, "_BLOCK_POINTS", 3 * 23)
    for p in (params, ProblemParams(2.0, 1 / 3)):
        assert _graded(certify_kernel(p, grid_n=23)) == _meshgrid_certification(p, 23)
    monkeypatch.undo()

    # NaN at points in blocks 1 and 3: the first in row-major order is kept
    tg = sg = np.linspace(0.0, 1.0, 401)
    bad = ((tg[300], sg[20]), (tg[100], sg[370]), (tg[100], sg[371]))

    def nan_green(p, t, s):
        hit = np.zeros(np.broadcast_shapes(np.shape(t), np.shape(s)), dtype=bool)
        for tb, sb in bad:
            hit |= (t == tb) & (s == sb)
        return np.where(hit, np.nan, green(p, t, s))

    report = certify_kernel(params, grid_n=401, green_fn=nan_green)
    envelope = report.checks[0]
    assert not envelope.passed and np.isnan(envelope.worst_violation)
    assert (envelope.worst_t, envelope.worst_s) == (tg[100], sg[370])
    assert _graded(report)[1:] == _meshgrid_certification(params, 401)[1:]


def test_certify_allocates_less_than_one_grid(params):
    import tracemalloc

    certify_kernel(params, grid_n=801)  # warm: first-call caches do not count
    tracemalloc.start()
    try:
        certify_kernel(params, grid_n=801)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 801 * 801 * 8


def test_certify_only_reads_the_kernel_outputs(params, monkeypatch):
    import tripoint.verify as verify

    # a kernel may hand back a cached or read-only block: grading must not write it
    def read_only(kernel):
        def wrapped(p, t, s):
            out = kernel(p, t, s)
            out.setflags(write=False)
            return out
        return wrapped

    kernels = dict(green_fn=read_only(green), green_dt_fn=read_only(green_dt))
    for p in (params, ProblemParams(2.0, 1 / 3)):
        got = _graded(certify_kernel(p, grid_n=401, **kernels))
        assert got == _meshgrid_certification(p, 401), (p.alpha, p.eta)
    # three rows per block at grid 23: the short last block reads a buffer slice
    monkeypatch.setattr(verify, "_BLOCK_POINTS", 3 * 23)
    for p in (params, ProblemParams(2.0, 1 / 3)):
        got = _graded(certify_kernel(p, grid_n=23, **kernels))
        assert got == _meshgrid_certification(p, 23), (p.alpha, p.eta)


def test_certify_peaks_below_eight_block_arrays(params):
    import tracemalloc

    import tripoint.verify as verify

    block = (verify._BLOCK_POINTS // 801) * 801 * 8
    certify_kernel(params, grid_n=801)  # warm: first-call caches do not count
    tracemalloc.start()
    try:
        certify_kernel(params, grid_n=801)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * block, peak / block


def test_certify_report_serializes(params):
    report = certify_kernel(params, grid_n=51)
    d = report.to_dict()
    assert d["grid_n"] == 51
    assert len(d["checks"]) == 4
    assert {c["name"] for c in d["checks"]} == {
        "green_envelope", "green_cone_lower", "green_dt_envelope", "green_dt_cone_lower",
    }


def test_grading_slacks_and_lattice_are_constants(params):
    # each held one value as a parameter; the report still states the kernel's
    assert (tripoint.verify.KERNEL_SLACK, tripoint.verify.CONE_SLACK) == (1e-12, 1e-9)
    assert certify_kernel(params, grid_n=21).to_dict()["slack"] == 1e-12
    for fn in (certify_kernel, cone_membership):
        assert "slack" not in inspect.signature(fn).parameters
    assert list(inspect.signature(check_nonnegative_sampled).parameters) == ["e"]
    assert "SamplingPlan" not in tripoint.__all__


# -- cone membership ----------------------------------------------------------

def test_zero_function_is_a_member(params):
    nodes = solver_nodes(33, params)
    report = cone_membership(params, GridFunction.zeros(nodes))
    assert report.member
    assert report.nonneg_ok and report.value_lower_ok and report.deriv_lower_ok


def test_flat_profile_is_a_member(params):
    nodes = solver_nodes(33, params)
    g = GridFunction(nodes, np.ones_like(nodes), np.ones_like(nodes))
    assert cone_membership(params, g).member


def test_decreasing_profile_is_not_a_member(params):
    nodes = solver_nodes(33, params)
    g = GridFunction(nodes, 1.0 - nodes, -np.ones_like(nodes))
    report = cone_membership(params, g)
    assert not report.member
    assert not report.deriv_lower_ok  # g' = -1 < k1 * 1


def test_membership_requires_window_nodes(params):
    g = GridFunction.zeros(np.linspace(0, 1, 11))
    with pytest.raises(ValueError, match="eta"):
        cone_membership(params, g)


def test_operator_output_value_clause_holds(params, f_example):
    nodes = solver_nodes(65, params)
    rng = np.random.default_rng(1)
    coef = np.abs(rng.normal(size=3))
    v = GridFunction(
        nodes,
        np.polynomial.polynomial.polyval(nodes, coef),
        np.polynomial.polynomial.polyval(nodes, np.polynomial.polynomial.polyder(coef)),
    )
    report = cone_membership(params, apply_operator(params, f_example, v))
    assert report.nonneg_ok
    assert report.value_lower_ok
    # no assertion on deriv_lower_ok: k1 = 1/2 exceeds the sharp derivative
    # cone constant eta/alpha = 1/3, so the derivative clause fails for
    # generic outputs; the acceptance gate (criterion 6) asserts the clause at
    # 1/3 and pins the constant-source violation -1/72 at k1


def _cone_fields(check, p, g):
    """Every report field, floats by hex, or the ValueError's message."""
    try:
        report = check(p, g)
    except ValueError as err:
        return ("ValueError", str(err))
    return {k: v.hex() if isinstance(v, float) else v for k, v in report.to_dict().items()}


def _assert_cone_matches_reference(p, nodes, rng):
    values, derivs = rng.normal(0.5, 1.0, size=(2, nodes.size))
    if rng.random() < 0.5:
        values, derivs = np.abs(values), np.abs(derivs)
    g = GridFunction(nodes, values, derivs)
    got = _cone_fields(cone_membership, p, g)
    assert got == _cone_fields(cone_membership_reference, p, g)
    return got


def test_cone_membership_on_solver_nodes_bit_for_bit():
    rng = np.random.default_rng(41)
    for _ in range(200):
        p = _random_admissible(rng)
        _assert_cone_matches_reference(p, solver_nodes(int(rng.integers(9, 300)), p), rng)


def _nodes_without_window_ends(p, rng):
    x = chebyshev_nodes(int(rng.integers(9, 80)))
    return x[(np.abs(x - p.eta / p.alpha) > 1e-9) & (np.abs(x - p.eta) > 1e-9)]


@pytest.mark.parametrize("offset", [0.0, 1e-13, -1e-13, 9e-13, -9e-13, 1e-12, -1e-12,
                                    2e-12, -2e-12, 1e-6])
def test_cone_membership_near_and_off_the_window_ends_bit_for_bit(offset):
    # within 1e-12 of a node the ends count as present; beyond, the same ValueError
    rng = np.random.default_rng(43)
    errors = 0
    for _ in range(40):
        p = _random_admissible(rng)
        lo, hi = p.eta / p.alpha, p.eta
        x = _nodes_without_window_ends(p, rng)
        for ends in ((lo + offset, hi), (lo, hi + offset), (lo - offset, hi + offset), (lo,), (hi,)):
            got = _assert_cone_matches_reference(p, np.union1d(x, ends), rng)
            errors += isinstance(got, tuple)
    if abs(offset) != 1e-12:  # at 1e-12 the rounding of lo + offset decides
        assert errors == (200 if abs(offset) > 1e-12 else 80)  # (lo,) and (hi,) always raise


def test_cone_window_edges_bit_for_bit():
    # a node at the window's 1e-12 margin, or one ulp either side of it, holds
    # the window minimum, so including or excluding it shows in the margins
    rng = np.random.default_rng(47)
    for _ in range(40):
        p = _random_admissible(rng)
        lo, hi = p.eta / p.alpha, p.eta
        x = _nodes_without_window_ends(p, rng)
        for edge in (lo - 1e-12, hi + 1e-12):
            for extra in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)):
                nodes = np.union1d(x, (lo, hi, extra))
                at = int(np.searchsorted(nodes, extra))
                g = GridFunction(nodes, np.where(np.arange(nodes.size) == at, -1.0, 1.0),
                                 np.where(np.arange(nodes.size) == at, -1.0, 1.0))
                assert (_cone_fields(cone_membership, p, g)
                        == _cone_fields(cone_membership_reference, p, g))


def test_membership_report_serializes(params):
    nodes = solver_nodes(33, params)
    d = cone_membership(params, GridFunction.zeros(nodes)).to_dict()
    assert set(d) == {
        "member", "nonneg_ok", "value_lower_ok", "deriv_lower_ok",
        "value_margin", "deriv_margin", "k0", "k1",
    }


# -- growth scan --------------------------------------------------------------

def test_linear_expression_scans_flat():
    scan = growth_scan(parse("y+yp"))
    assert np.max(np.abs(scan.ratios - 1.0)) <= 1e-12


def test_example_f_growth_profile(f_example):
    one = lambda t: np.ones_like(t)
    scan = growth_scan(f_example, directions=[(one, one)], scales=np.array([1e-6, 1e6]))
    assert scan.ratios[0] >= 1e2
    assert scan.ratios[1] <= 1e-2


def test_example_h_growth_profile(h_example):
    # blows up at small scale like f, but stays superlinear at large scale:
    # (c+1)^2 atan(c+1) / (2c) grows ~ c * pi/4 along the (1,1) ray
    one = lambda t: np.ones_like(t)
    scan = growth_scan(h_example, directions=[(one, one)], scales=np.array([1e-6, 1e6]))
    assert scan.ratios[0] >= 1e2
    c = 1e6
    expected = (c + 1.0) ** 2 * np.arctan(c + 1.0) / (2.0 * c)
    assert scan.ratios[1] == pytest.approx(expected, rel=1e-12)
    assert scan.ratios[1] > 1e5


def test_degenerate_directions_are_usable(f_example):
    one = lambda t: np.ones_like(t)
    zero = lambda t: np.zeros_like(t)
    scan = growth_scan(f_example, directions=[(one, zero), (zero, one)],
                       scales=np.array([1e-3, 1e3]))
    assert np.all(np.isfinite(scan.ratios))


def test_scan_validates_scales_and_directions(f_example):
    with pytest.raises(ValueError):
        growth_scan(f_example, scales=np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        growth_scan(f_example, scales=np.array([-1.0, 1.0]))
    zero = lambda t: np.zeros_like(t)
    with pytest.raises(ValueError, match="identically zero"):
        growth_scan(f_example, directions=[(zero, zero)], scales=np.array([1.0, 2.0]))
    neg = lambda t: -np.ones_like(t)
    with pytest.raises(ValueError, match="nonnegative"):
        growth_scan(f_example, directions=[(neg, neg)], scales=np.array([1.0, 2.0]))


def test_scan_rejects_an_empty_direction_list(f_example):
    # no direction would leave every ratio at -inf
    with pytest.raises(ValueError, match="directions must not be empty"):
        growth_scan(f_example, directions=[], scales=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="directions must not be empty"):
        growth_scan(f_example, directions=iter(()))


def test_scan_rejects_non_finite_scales(f_example):
    # NaN fails every comparison and inf - inf warns: both are caught up front
    for bad in ([1.0, np.nan, 3.0], [1.0, np.inf], [np.inf, np.inf]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="scales must be positive, finite and strictly"):
                growth_scan(f_example, scales=np.array(bad))


def test_scan_errors_carry_scale_and_position():
    e = parse("log(y-5)")
    with pytest.raises(EvalError, match=r"scale c=.*t="):
        growth_scan(e, scales=np.array([1e-3, 1.0]))


def test_fault_locations_name_the_first_faulting_sample():
    # sqrt(0.5-t) first faults at the sixth of ten t samples, 5/9; sqrt(1-y)
    # along y = c*t at c = 2 first faults at t = 0.51 of 101 samples
    domain = "domain error while evaluating expression: invalid value encountered in sqrt"
    with pytest.raises(EvalError) as exc:
        check_nonnegative_sampled(parse("sqrt(0.5-t)"))
    assert str(exc.value) == f"{domain} at sample (t=0.555556, y=0, yp=0)"
    ramp = [(lambda t: t, lambda t: np.ones_like(t))]
    with pytest.raises(EvalError) as exc:
        growth_scan(parse("sqrt(1-y)"), directions=ramp, scales=np.array([0.5, 2.0]))
    assert str(exc.value) == f"{domain} at scale c=2, t=0.51"
