"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines and clause details.  Every tolerance is asserted at its
stated value.  Where a bound of the paper is false for the documented
constants (the ``k1*g1`` derivative bound, the paper's ``k1`` in the cone,
the growth of the bundled ``h`` at +infinity), the clause asserts the
closed-form violation derived next to it, so any change in a measured
violation fails the gate; the detail lines still print the violations.
"""
from __future__ import annotations

import time
from fractions import Fraction

import numpy as np
import pytest

from tripoint import (
    GridFunction,
    ProblemParams,
    apply_operator,
    bc_defect,
    certify_kernel,
    cone_membership,
    green_branches,
    green_dt,
    green_dt_branches,
    growth_scan,
    interpolate,
    parse,
    solve,
    solver_nodes,
    to_source,
)
from tripoint import ParseError, SolveConfig
from tripoint.expr import evaluate

from oracles import c1_norm, integrate_kernel, lincomb, poly_bvp_solution
from test_expr import GOLDEN


def _report(num: int, title: str, clauses: list[tuple[str, bool, str]]) -> None:
    ok = all(good for _, good, _ in clauses)
    print(f"\nACCEPTANCE {num} ({title}): {'PASS' if ok else 'FAIL'}")
    for name, good, detail in clauses:
        print(f"  [{'ok  ' if good else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({title}): " + "; ".join(
        f"{name} -- {detail}" for name, good, detail in clauses if not good
    )


# Sharp derivative cone constant at (alpha, eta) = (3/2, 1/2).  There
# 1 - alpha*eta = 1/4, the window is W = [1/3, 1/2], and the four branches of
# dG/dt (kernel module order) read
#     s(1+2t),   t(1+2s),   s + t(3-4s),   4t(1-s).
# Each increases in t on W, so min_W dG/dt is taken at t = 1/3.  The maximum
# over t in [0, 1] is 3s (first branch at t = 1) for s <= 1/2, and
# max(3(1-s), 4s(1-s)) = 4(1-s)*max(s, 3/4) (third branch at t = 1 or at the
# seam t = s) for s >= 1/2.  The ratio r(s) = min_W dG/dt / max_[0,1] dG/dt is
#     5/9                  for 0 < s <= 1/3,
#     (1+2s)/(9s)          for 1/3 <= s <= 1/2,
#     1/(3*max(s, 3/4))    for 1/2 <= s < 1,
# whose infimum, approached as s -> 1, is eta/alpha = 1/3.  Since dG/dt >= 0,
# every w = integral G q with q >= 0 therefore satisfies
# min_W w' >= (1/3) * max|w'|, while the paper's k1 = min(alpha*eta, eta) = 1/2
# exceeds the sharp constant.
SHARP_K1 = 1.0 / 3.0


def _sharp_ratio_closed_form(s: np.ndarray) -> np.ndarray:
    """r(s) above, for (alpha, eta) = (3/2, 1/2) and 0 < s < 1."""
    return np.where(
        s <= 1 / 3, 5 / 9,
        np.where(s <= 1 / 2, (1 + 2 * s) / (9 * s), 1 / (3 * np.maximum(s, 3 / 4))),
    )


def _deriv_margin(p: ProblemParams, g: GridFunction, k: float) -> float:
    """The derivative margin of ``cone_membership``, min_W g' - k*max|g'|, at constant k."""
    lo, hi = p.eta / p.alpha, p.eta
    window = (g.nodes >= lo - 1e-12) & (g.nodes <= hi + 1e-12)
    return float(np.min(g.derivs[window]) - k * np.max(np.abs(g.derivs)))


def test_criterion_1_kernel_certification():
    t0 = time.perf_counter()
    clauses = []
    rng = np.random.default_rng(2024)
    pairs = [ProblemParams(1.5, 0.5)]
    for _ in range(20):
        eta = rng.uniform(0.05, 0.95)
        frac = rng.uniform(0.01, 0.99)
        pairs.append(ProblemParams(1.0 + frac * (1.0 / eta - 1.0), eta))
    # The bound dG/dt >= k1*g1 is false.  At s = 0 the first branch of dG/dt,
    # s*(1-alpha*eta + t*(alpha-1))/(1-alpha*eta), applies and vanishes, while
    # k1*g1(0) = k1/(1-alpha*eta) > 0.  Elsewhere dG/dt >= 0 and g1 decreases,
    # so k1*g1(s) - dG/dt(t, s) <= k1*g1(0): the worst violation on the window
    # is exactly k1/(1-alpha*eta), taken at s = 0 (the first grid column).
    false_bound = "green_dt_cone_lower"
    worst: dict[str, tuple[float, ProblemParams]] = {}
    pinned = 0
    max_dev = 0.0
    for p in pairs:
        report = certify_kernel(p, grid_n=401, slack=1e-12)
        for check in report.checks:
            prev = worst.get(check.name, (-np.inf, p))
            if check.worst_violation > prev[0]:
                worst[check.name] = (check.worst_violation, p)
            if check.name == false_bound:
                expected = p.k1 / p.gap
                dev = abs(check.worst_violation - expected) / expected
                max_dev = max(max_dev, dev)
                pinned += (not check.passed) and check.worst_s == 0.0 and dev <= 1e-12
    elapsed = time.perf_counter() - t0
    for name, (violation, p) in worst.items():
        where = f"(at alpha={p.alpha:.4f}, eta={p.eta:.4f})"
        if name == false_bound:
            clauses.append((
                f"{name} fails by exactly k1/(1-alpha*eta) at s = 0",
                pinned == len(pairs),
                f"{pinned}/{len(pairs)} pairs reported failed with worst_s = 0 and "
                f"max relative deviation {max_dev:.1e}; worst violation "
                f"{violation:.3e} {where}",
            ))
        else:
            clauses.append((
                name,
                violation <= 1e-12,
                f"worst violation {violation:.3e} over {len(pairs)} parameter pairs {where}",
            ))
    clauses.append(("runtime", elapsed < 10.0, f"{elapsed:.2f} s (< 10 s)"))
    _report(1, "kernel inequality certification, 401x401, slack 1e-12", clauses)


def test_criterion_2_branch_continuity(params):
    t = np.linspace(0.0, 1.0, 500)
    worst = 0.0
    count = 0
    for branches in (green_branches, green_dt_branches):
        for ti in t:
            if ti <= params.eta:
                cases = [(ti, ti, 0, 1), (ti, params.eta, 1, 3)]
            else:
                cases = [(ti, ti, 2, 3), (ti, params.eta, 0, 2)]
            for tt, s, b_lo, b_hi in cases:
                vals = branches(params, tt, s)
                worst = max(worst, abs(float(vals[b_lo] - vals[b_hi])))
                count += 1
    clauses = [(
        "seam agreement",
        worst <= 1e-12,
        f"max adjacent-branch disagreement {worst:.2e} over {count} seam samples",
    )]
    _report(2, "branch continuity at s=t and s=eta, 1e-12", clauses)


def test_criterion_3_linear_oracle_equivalence(params):
    clauses = []
    worst = 0.0
    for degree in range(4):
        u, _ = poly_bvp_solution(Fraction(3, 2), Fraction(1, 2), [0] * degree + [1])
        for t in np.linspace(0.0, 1.0, 101):
            got = integrate_kernel(params, "G", t, lambda s: s**degree)
            worst = max(worst, abs(got - u(t)))
    clauses.append((
        "polynomial sources s^0..s^3",
        worst <= 1e-10,
        f"max deviation from the closed-form solution {worst:.2e} at 101 points",
    ))
    spot1 = integrate_kernel(params, "G", 1.0, lambda s: 1.0)
    spot2 = integrate_kernel(params, "G", 1.0, lambda s: s)
    clauses.append((
        "spot value 11/24", abs(spot1 - 11 / 24) <= 1e-10, f"got {spot1!r}",
    ))
    clauses.append((
        "spot value 11/48", abs(spot2 - 11 / 48) <= 1e-10, f"got {spot2!r}",
    ))
    _report(3, "linear oracle equivalence, 1e-10", clauses)


def test_criterion_4_constant_source_exactness(params):
    state, report = solve(params, parse("1"), parse("1"), SolveConfig(nodes=65))
    nodes = state.nodes
    exact = GridFunction(nodes, 5 / 8 * nodes**2 - nodes**3 / 6, 5 / 4 * nodes - nodes**2 / 2)
    err = max(
        c1_norm(lincomb(1.0, state.u, -1.0, exact)),
        c1_norm(lincomb(1.0, state.v, -1.0, exact)),
    )
    bc = max(report.bc_defect_u, report.bc_defect_v)
    clauses = [
        ("converged", report.converged, f"iters={report.iters}"),
        ("state equals (5/8)t^2 - t^3/6", err <= 1e-10, f"C1 error {err:.2e}"),
        ("boundary defect", bc <= 1e-12, f"max defect {bc:.2e}"),
    ]
    _report(4, "constant-source exactness after one sweep", clauses)


def test_criterion_5_example_problem(example_solution_fine):
    p, state, report, elapsed = example_solution_fine
    dense = np.linspace(0.0, 1.0, 2001)
    uv, ud = interpolate(state.u, dense)
    vv, vd = interpolate(state.v, dense)
    cone_u = cone_membership(p, state.u, slack=1e-9)
    cone_v = cone_membership(p, state.v, slack=1e-9)
    sharp_u = _deriv_margin(p, state.u, SHARP_K1)
    sharp_v = _deriv_margin(p, state.v, SHARP_K1)
    clauses = [
        ("converged within 200 iterations at tol 1e-10",
         report.converged and report.iters <= 200,
         f"iters={report.iters}, final step {report.final_step_norm:.2e}"),
        ("u, v positive on (0, 1]",
         bool(np.all(uv[dense > 0] > 0.0) and np.all(vv[dense > 0] > 0.0)),
         f"min over (0,1]: u {uv[dense > 0].min():.3e}, v {vv[dense > 0].min():.3e}"),
        ("u', v' >= -1e-10 everywhere",
         bool(ud.min() >= -1e-10 and vd.min() >= -1e-10),
         f"min derivatives u' {ud.min():.3e}, v' {vd.min():.3e}"),
        ("third-derivative residuals <= 1e-4",
         report.residual_u <= 1e-4 and report.residual_v <= 1e-4,
         f"res_u {report.residual_u:.3e}, res_v {report.residual_v:.3e}"),
        ("boundary defects <= 1e-8",
         report.bc_defect_u <= 1e-8 and report.bc_defect_v <= 1e-8,
         f"bc_u {report.bc_defect_u:.2e}, bc_v {report.bc_defect_v:.2e}"),
        ("cone constants are 1/90 and 1/2",
         abs(p.k0 - 1 / 90) <= 1e-15 and p.k1 == 0.5,
         f"k0={p.k0!r}, k1={p.k1!r}"),
        ("cone membership of u and v at slack 1e-9, derivative clause at eta/alpha = 1/3",
         cone_u.nonneg_ok and cone_v.nonneg_ok
         and cone_u.value_lower_ok and cone_v.value_lower_ok
         and sharp_u >= -1e-9 and sharp_v >= -1e-9,
         "value clause "
         f"{'holds' if cone_u.value_lower_ok and cone_v.value_lower_ok else 'fails'}; "
         f"derivative margins at 1/3: u {sharp_u:.4f}, v {sharp_v:.4f}; "
         f"at the paper's k1 = 1/2: u {cone_u.deriv_margin:.4f}, v {cone_v.deriv_margin:.4f} "
         "(k1 exceeds the sharp constant eta/alpha of the kernel derivative)"),
        ("runtime", elapsed < 30.0, f"{elapsed:.2f} s (< 30 s)"),
    ]
    _report(5, "bundled example system end to end", clauses)


def test_criterion_6_cone_preservation(params, f_example, h_example):
    nodes = solver_nodes(129, params)
    rng = np.random.default_rng(42)
    total = 50
    value_failures = 0
    deriv_failures = 0
    paper_failures = 0
    formula_mismatches = 0
    nonneg_failures = 0
    margins = []
    rel_margins = []
    paper_margins = []
    for case in range(total):
        deg = int(rng.integers(1, 5))
        coef = np.abs(rng.normal(size=deg + 1)) * 10.0 ** rng.uniform(-2, 2)
        vals = np.polynomial.polynomial.polyval(nodes, coef)
        ders = np.polynomial.polynomial.polyval(nodes, np.polynomial.polynomial.polyder(coef))
        g = GridFunction(nodes, vals, ders)
        w = (apply_operator(params, f_example, g) if case % 2 == 0
             else apply_operator(params, h_example, g))
        rep = cone_membership(params, w, slack=1e-9)
        nonneg_failures += not rep.nonneg_ok
        value_failures += not rep.value_lower_ok
        paper_failures += not rep.deriv_lower_ok
        paper_margins.append(rep.deriv_margin)
        formula_mismatches += _deriv_margin(params, w, params.k1) != rep.deriv_margin
        margin = _deriv_margin(params, w, SHARP_K1)
        deriv_failures += margin < -1e-9
        margins.append(margin)
        rel_margins.append(margin / np.max(np.abs(w.derivs)))

    # The sharp constant, read off the kernel: r(s) sampled on (0, 1).  The
    # t grids hold eta/alpha, 1 and every sampled s, where the derivation at
    # SHARP_K1 places the min over W and the max over [0, 1].
    t_all = np.linspace(0.0, 1.0, 1001)
    s = t_all[1:-1]
    t_win = np.linspace(params.eta / params.alpha, params.eta, 101)
    ratio = (green_dt(params, t_win[:, None], s[None, :]).min(axis=0)
             / green_dt(params, t_all[:, None], s[None, :]).max(axis=0))
    ratio_dev = float(np.max(np.abs(ratio / _sharp_ratio_closed_form(s) - 1.0)))
    # r(s) = 1/(3s) near s = 1: the sampled minimum sits at the last sample and
    # lies within the factor 1/s[-1] above the infimum SHARP_K1.
    sharp_ok = (ratio_dev <= 1e-12 and ratio.min() >= SHARP_K1
                and ratio.min() <= SHARP_K1 / s[-1] * (1 + 1e-12))

    # The paper's k1 fails on the simplest output.  A constant source q = 1
    # gives w' = (5/4)t - t^2/2 (increasing on [0, 1]), so min_W w' = w'(1/3)
    # = 13/36 and max|w'| = w'(1) = 3/4; the margin at k1 = 1/2 is
    # 13/36 - 3/8 = -1/72, and at the sharp constant 13/36 - 1/4 = 1/9.
    const_out = apply_operator(params, parse("1"), GridFunction.zeros(nodes))
    const_margin = cone_membership(params, const_out, slack=1e-9).deriv_margin
    clauses = [
        ("outputs nonnegative", nonneg_failures == 0, f"{nonneg_failures}/{total} failures"),
        ("value lower bound with k0", value_failures == 0, f"{value_failures}/{total} failures"),
        ("kernel derivative ratio has infimum eta/alpha = 1/3 as s -> 1", sharp_ok,
         f"max relative deviation from the closed form {ratio_dev:.1e} over "
         f"{s.size} samples; sampled minimum {ratio.min():.6f} at s = {s[np.argmin(ratio)]:.3f}"),
        ("derivative lower bound with eta/alpha = 1/3",
         deriv_failures == 0 and formula_mismatches == 0,
         f"{deriv_failures}/{total} failures, margins in "
         f"[{min(margins):.4f}, {max(margins):.4f}], smallest relative margin "
         f"{min(rel_margins):.3f}; at k1 the margin formula differs from "
         f"cone_membership on {formula_mismatches}/{total} "
         f"(with the paper's k1 = 1/2: {paper_failures}/{total} failures, margins in "
         f"[{min(paper_margins):.4f}, {max(paper_margins):.4f}])"),
        ("constant source violates the paper's k1 by exactly -1/72",
         abs(const_margin - (13 / 36 - 3 / 8)) <= 1e-12,
         f"deriv_margin {const_margin:.15f}, closed form {-1 / 72:.15f} "
         "(the k1*g1 bound breaks at s = 0; the sharp constant is reached as s -> 1)"),
    ]
    _report(6, "cone preservation for 50 randomized inputs, slack 1e-9", clauses)


def test_criterion_7_growth_diagnostics(f_example, h_example):
    one = lambda t: np.ones_like(t)
    scales = np.array([1e-6, 1e6])
    scan_f = growth_scan(f_example, directions=[(one, one)], scales=scales)
    scan_h = growth_scan(h_example, directions=[(one, one)], scales=scales)
    lin = growth_scan(parse("y+yp"))
    lin_dev = float(np.max(np.abs(lin.ratios - 1.0)))
    # Along (1,1) the state arguments are y = yp = c for every t, so
    # h = (c+1)^2*atan(c+1) and the scan's denominator is c*(1+1) = 2c:
    # the ratio is (c+1)^2*atan(c+1)/(2c) ~ c*pi/4, unbounded as c -> +infinity.
    c = scales[1]
    h_expected = (c + 1.0) ** 2 * np.arctan(c + 1.0) / (2.0 * c)
    clauses = [
        ("f ratio >= 1e2 at scale 1e-6", scan_f.ratios[0] >= 1e2,
         f"got {scan_f.ratios[0]:.3e}"),
        ("f ratio <= 1e-2 at scale 1e6", scan_f.ratios[1] <= 1e-2,
         f"got {scan_f.ratios[1]:.3e}"),
        ("h ratio >= 1e2 at scale 1e-6", scan_h.ratios[0] >= 1e2,
         f"got {scan_h.ratios[0]:.3e}"),
        ("h ratio at scale 1e6 equals (c+1)^2*atan(c+1)/(2c)",
         abs(scan_h.ratios[1] - h_expected) <= 1e-12 * h_expected,
         f"got {scan_h.ratios[1]:.3e}, closed form {h_expected:.3e} "
         "(h grows quadratically in y, so the ratio increases ~ c*pi/4 "
         "along the (1,1) ray instead of falling below 1e-2)"),
        ("linear source scans flat at 1 +- 1e-12", lin_dev <= 1e-12,
         f"max |ratio - 1| = {lin_dev:.2e}"),
    ]
    _report(7, "growth diagnostics, direction (1,1)", clauses)


def test_criterion_8_parser_golden_cases():
    clauses = []
    worst_rel = 0.0
    for src, args, expected in GOLDEN:
        got = evaluate(parse(src), *args)
        scale = max(abs(expected), 1e-300)
        worst_rel = max(worst_rel, abs(got - expected) / scale)
    clauses.append((
        f"{len(GOLDEN)} golden evaluations (>= 20)",
        len(GOLDEN) >= 20 and worst_rel <= 1e-14,
        f"worst relative error {worst_rel:.2e}",
    ))
    round_trip_ok = all(
        parse(to_source(parse(src))) == parse(src) for src, _, _ in GOLDEN
    )
    clauses.append(("print/parse round trip", round_trip_ok, "tree identity on all cases"))
    malformed = ["1+", "(1", "q+1", "foo(1)", "min(1)", "1 $ 2", "", "2 3", "^2", ")(", "1..2"]
    positioned = 0
    for src in malformed:
        try:
            parse(src)
        except ParseError as err:
            positioned += isinstance(err.offset, int)
        except Exception:  # noqa: BLE001 -- the clause below reports any other escape
            pass
    clauses.append((
        "malformed inputs yield positioned errors",
        positioned == len(malformed),
        f"{positioned}/{len(malformed)} raised ParseError with an offset",
    ))
    _report(8, "parser golden cases and total parsing", clauses)