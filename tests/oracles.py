"""Independent closed-form oracle for the linear problem with polynomial data.

For -u''' = q with q(s) = sum_m q_m s^m, u(0) = u'(0) = 0 and
u'(1) = alpha u'(eta), integrating the polynomial ansatz directly gives

    u_p(t)  = -sum_m q_m t^(m+3) / ((m+1)(m+2)(m+3))     (particular part)
    u(t)    = C t^2 + u_p(t)
    C       = (alpha u_p'(eta) - u_p'(1)) / (2 (1 - alpha eta))

with the homogeneous pieces 1 and t killed by the left boundary conditions.
Everything is evaluated in exact rational arithmetic and converted to float
at the end, so this path shares no code with the package under test.

For the Green's kernel, :func:`branch_table` writes out the four branch
formulas of G and dG/dt term by term on broadcast full-size arrays, and
:func:`select_first_match` picks the branch per point: the first region in
branch order that holds ``(t, s)`` wins, evaluated with four full-size
conditions and ``np.select``.  :func:`green_branches` and
:func:`green_dt_branches` are :func:`branch_table` for G and for dG/dt, the
one place the tests write the branch formulas.

:func:`eval_tree` is the recursive tree evaluator that ``Expr.eval_array``
used before it was compiled to a flat tape: one numpy operation per node,
children first, every intermediate a fresh array.

:func:`integrate_kernel` integrates ``K(t, s) w(s)`` for one ``t`` by
Gauss-Legendre panels split at the kernel seams ``s = t`` and ``s = eta``
(and at a :class:`QuadratureRule`'s breakpoints), evaluating the kernel
pointwise; it shares only ``panel_points`` with the moment operator.

:func:`c1_norm` and :func:`lincomb` compare grid functions node by node.

:func:`picard_solve` is the damped Gauss-Seidel successive substitution that
``solve`` ran before its sweeps were secant-accelerated, loop for loop.

:func:`residual_reference` is the finite-difference residual as it was before
each half was sampled only once: four :func:`interpolate_reference` calls,
the interior points sampled on their own, and the third difference
:func:`fd3_reference` summed into zeros.

:func:`bc_defect_reference` is ``solver.bc_defect`` as it was before g'(eta)
was read at its node: always interpolated.  :func:`cone_membership_reference`
is ``verify.cone_membership`` as it was before the window became a slice:
distances to every node and boolean-mask windows.

:func:`interpolate_reference` is ``gridfn.interpolate`` as it was before the
Hermite sampler was split from it: a ``searchsorted``, the panel widths and
the basis per call, in the same operations.  :func:`panel_points_reference`
is ``panel_points`` as it was computed in ``(panels, q)`` order.

:func:`solver_nodes_reference` is ``gridfn.solver_nodes`` as it was before
the extra points were placed by ``searchsorted``: an ``argmin`` over the
distances and a sort per inserted point.

:func:`moment_weights` is the operator's moment weights as they were built
before the moments were contracted through R in closed form: each branch of
:func:`branch_table` refitted in s at every node from its values at
``s = 0, 1/2, 1``, then regrouped above eta by masked subtraction.

:func:`half_sweep_reference` is ``_MomentOperator.__call__`` as it was before
its numpy calls were cut: one accumulate per moment and ``c`` from a
fancy-indexed 2 x 2 array unpacked into numpy scalars, into fresh arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from tripoint.expr import FUNCTIONS, Bin, EvalError, Neg, Num, Var
from tripoint.gridfn import GridFunction, _hermite_basis, chebyshev_nodes, interpolate, solver_nodes
from tripoint.integral_op import CoupledState, _MomentOperator, apply_operator, panel_points
from tripoint.kernel import ProblemParams, _check_unit, green, green_dt
from tripoint.solver import RESIDUAL_GRID, RESIDUAL_SKIP, SolveConfig, SolveError, _initial_state
from tripoint.verify import ConeMembershipReport


def poly_bvp_solution(alpha, eta, qcoeffs):
    """Return callables (u, du) solving -u''' = q for polynomial q.

    ``qcoeffs[m]`` is the coefficient of s^m; alpha, eta, and the
    coefficients may be ints, Fractions, or exactly-representable floats.
    """
    a = Fraction(alpha)
    e = Fraction(eta)
    q = [Fraction(c) for c in qcoeffs]

    def up_prime(t: Fraction) -> Fraction:
        return -sum(
            qm * t ** (m + 2) / ((m + 1) * (m + 2)) for m, qm in enumerate(q)
        )

    C = (a * up_prime(e) - up_prime(Fraction(1))) / (2 * (1 - a * e))

    def u(t):
        tf = Fraction(t)
        val = C * tf**2 - sum(
            qm * tf ** (m + 3) / ((m + 1) * (m + 2) * (m + 3)) for m, qm in enumerate(q)
        )
        return float(val)

    def du(t):
        tf = Fraction(t)
        return float(2 * C * tf + up_prime(tf))

    return u, du


def branch_table(p, t, s, dt=False):
    """The four branch formulas of G (or dG/dt), stacked on a trailing axis.

    Same operations in the same order as the closed forms in the
    ``tripoint.kernel`` docstring, so the package must agree bit for bit.
    """
    a, e, den = p.alpha, p.eta, 1.0 - p.alpha * p.eta
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    if dt:
        b = [s * den + t * s * (a - 1), t * den + t * s * (a - 1),
             s * den + t * (a * e - s), t * (1 - s)]
        return np.stack(b, axis=-1) / den
    b = [(2 * t * s - s**2) * den + t**2 * s * (a - 1), t**2 * den + t**2 * s * (a - 1),
         (2 * t * s - s**2) * den + t**2 * (a * e - s), t**2 * (1 - s)]
    return np.stack(b, axis=-1) / (2 * den)


def select_first_match(p, t, s, branches):
    """Select per point the first branch whose region holds (t, s).

    ``branches`` has a trailing axis of length 4 in branch order, as returned
    by ``green_branches``/``green_dt_branches``; ``t`` and ``s`` broadcast to
    its leading shape.  The regions are ``s <= min(eta, t)``,
    ``t <= s <= eta``, ``eta <= s <= t`` and ``max(eta, t) <= s``.
    """
    e = p.eta
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    conds = [
        s <= np.minimum(e, t),
        (t <= s) & (s <= e),
        (e <= s) & (s <= t),
        np.maximum(e, t) <= s,
    ]
    return np.select(conds, list(np.moveaxis(branches, -1, 0)))


def green_branches(p, t, s):
    """Evaluate all four branch formulas of G at (t, s), regardless of region.

    Returns an array with a trailing axis of length 4 in branch order.  Only
    the branch whose region contains (t, s) equals G there; adjacent branches
    agree on the seams ``s = t`` and ``s = eta`` (an algebraic identity).
    """
    return branch_table(p, t, s)


def green_dt_branches(p, t, s):
    """Branch formulas of dG/dt at (t, s); same layout as :func:`green_branches`."""
    return branch_table(p, t, s, dt=True)


KERNELS = ("G", "dG")


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss order per panel plus a base set of panel breakpoints.

    ``breakpoints`` must cover [0, 1] (0 and 1 included); per call the
    integration routines add the kernel seams {t, eta}.
    """

    points_per_panel: int = 8
    breakpoints: tuple[float, ...] = (0.0, 1.0)

    def __post_init__(self) -> None:
        if self.points_per_panel < 2:
            raise ValueError("points_per_panel must be >= 2")
        pts = tuple(sorted(set(float(b) for b in self.breakpoints)))
        if not pts or pts[0] != 0.0 or pts[-1] != 1.0:
            raise ValueError("breakpoints must include 0.0 and 1.0")
        if pts[0] < 0.0 or pts[-1] > 1.0:
            raise ValueError("breakpoints must lie in [0, 1]")
        object.__setattr__(self, "breakpoints", pts)


def _merged_breaks(rule: QuadratureRule, extra: tuple[float, ...]) -> np.ndarray:
    pts = np.array(sorted(set(rule.breakpoints) | {float(x) for x in extra}))
    keep = np.concatenate([[True], np.diff(pts) > 1e-15])
    return pts[keep]


def integrate_kernel(
    p: ProblemParams,
    kernel: str,
    t: float,
    w,
    rule: QuadratureRule = QuadratureRule(),
) -> float:
    """Approximate ``integral_0^1 K(t, s) w(s) ds`` with seam-split panels.

    ``kernel`` selects K: "G" for the Green's function, "dG" for its
    t-derivative.  ``w`` is a callable accepting a numpy array of s values
    (a scalar return value broadcasts).  Panels split at ``s = t`` and
    ``s = eta`` in addition to the rule's own breakpoints.
    """
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    breaks = _merged_breaks(rule, (t, p.eta))
    x, wts = panel_points(breaks, rule.points_per_panel)
    x_flat = x.ravel()
    kv = green(p, t, x_flat) if kernel == "G" else green_dt(p, t, x_flat)
    fv = np.asarray(w(x_flat), dtype=float)
    if fv.ndim == 0:
        fv = np.full_like(x_flat, float(fv))
    return float(np.sum(wts.ravel() * kv * fv))


def c1_norm(g: GridFunction) -> float:
    """max(max |values|, max |derivs|) over the nodes."""
    return float(max(np.max(np.abs(g.values)), np.max(np.abs(g.derivs))))


def lincomb(a: float, g1: GridFunction, b: float, g2: GridFunction) -> GridFunction:
    """a*g1 + b*g2 on a shared node set."""
    if not np.array_equal(g1.nodes, g2.nodes):
        raise ValueError("grid functions must share the same node set")
    return GridFunction(
        g1.nodes, a * g1.values + b * g2.values, a * g1.derivs + b * g2.derivs
    )


def _eval_node(node, env):
    if isinstance(node, Num):
        return np.asarray(node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval_node(node.operand, env)
    if isinstance(node, Bin):
        a = _eval_node(node.lhs, env)
        b = _eval_node(node.rhs, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return a / b
        return np.power(a, b)
    fn = FUNCTIONS[node.func][1]
    return fn(*(_eval_node(arg, env) for arg in node.args))


def eval_tree(e, t, y, yp):
    """Evaluate ``e`` over broadcastable arrays by walking its tree.

    Raises ``EvalError`` on a floating-point fault or a non-finite result,
    as ``Expr.eval_array`` does.
    """
    t, y, yp = np.broadcast_arrays(
        np.asarray(t, float), np.asarray(y, float), np.asarray(yp, float)
    )
    env = {"t": t, "y": y, "yp": yp}
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        try:
            out = _eval_node(e.root, env)
        except FloatingPointError as err:
            raise EvalError(f"domain error while evaluating expression: {err}") from err
    out = np.broadcast_to(np.asarray(out, float), t.shape)
    if not np.all(np.isfinite(out)):
        raise EvalError("expression produced a non-finite value")
    return out.copy()


def _relax(old: GridFunction, target: GridFunction, lam: float) -> tuple[GridFunction, float]:
    """Damped update (1-lam)*old + lam*target and its C^1-norm step from old."""
    new = GridFunction(
        old.nodes, (1 - lam) * old.values + lam * target.values,
        (1 - lam) * old.derivs + lam * target.derivs,
    )
    step = max(
        np.max(np.abs(new.values - old.values)),
        np.max(np.abs(new.derivs - old.derivs)),
    )
    return new, step


def picard_solve(p, f, h, cfg=SolveConfig()):
    """Damped Gauss-Seidel sweeps to a fixed point; returns (state, converged, history).

    One sweep refreshes u from v, then v from the new u, each as
    (1-lam)*old + lam*T(...), and a step-size increase drops lam to 0.5 once.
    """
    cfg.validate()
    nodes = solver_nodes(cfg.nodes, p)
    op = _MomentOperator(p, nodes, (f, h))
    state = _initial_state(cfg.initial, nodes)
    u, v = state.u, state.v

    lam = 1.0
    fell_back = False
    history: list[float] = []
    prev_step = np.inf
    converged = False
    for it in range(1, cfg.max_iters + 1):
        try:
            u, step_u = _relax(u, apply_operator(p, f, v, op=op), lam)
            v, step_v = _relax(v, apply_operator(p, h, u, op=op), lam)
        except EvalError as err:
            raise SolveError(f"evaluation failed at iteration {it}: {err}", it) from err
        step = float(max(step_u, step_v))
        history.append(step)
        if step <= cfg.tol:
            converged = True
            break
        if step > prev_step and not fell_back:
            lam = 0.5
            fell_back = True
        prev_step = step
    return CoupledState(u, v), converged, history


def interpolate_reference(g, t):
    """(value, derivative) of g's cubic Hermite interpolant at t, one call at a time."""
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    _check_unit(t_arr, "t")
    nodes, vals, ders = g.nodes, g.values, g.derivs
    i = np.clip(np.searchsorted(nodes, t_arr, side="right"), 1, nodes.size - 1)
    i0 = i - 1
    h = nodes[i] - nodes[i0]
    (b0, b1, b2, b3), (s0, s1, s2, s3) = _hermite_basis((t_arr - nodes[i0]) / h)
    value = b0 * vals[i0] + b1 * h * ders[i0] + b2 * vals[i] + b3 * h * ders[i]
    deriv = s0 / h * vals[i0] + s1 * ders[i0] + s2 / h * vals[i] + s3 * ders[i]
    if scalar:
        return float(value), float(deriv)
    return value, deriv


def panel_points_reference(breaks, q):
    """Gauss points and weights of shape (panels, q) for the panels of ``breaks``."""
    gx, gw = np.polynomial.legendre.leggauss(q)
    a = np.asarray(breaks[:-1], dtype=float)
    b = np.asarray(breaks[1:], dtype=float)
    half = (b - a)[:, None] / 2.0
    mid = (a + b)[:, None] / 2.0
    return mid + half * gx[None, :], half * gw[None, :]


def solver_nodes_reference(n, p):
    """Chebyshev nodes with eta/alpha and eta snapped onto a node or sorted in."""
    x = chebyshev_nodes(n).copy()
    for extra in (p.eta / p.alpha, p.eta):
        i = int(np.argmin(np.abs(x - extra)))
        if abs(x[i] - extra) <= 1e-12:
            x[i] = extra
        else:
            x = np.sort(np.append(x, extra))
    return x


def _refit_coefficients(p, t, dt):
    # s^0, s^1, s^2 coefficients (4, 3, nodes) from the values at s = 0, 1/2, 1
    out = np.empty((4, 3) + t.shape)
    v0, vh, v1 = (np.moveaxis(branch_table(p, t, s, dt), -1, 0) for s in (0.0, 0.5, 1.0))
    for c, a, b, e in zip(out, v0, vh, v1):
        c[0] = a
        c[1] = 4 * b - 3 * a - e
        c[2] = 2 * (a + e) - 4 * b
    return out


def moment_weights(p, nodes):
    """Weights of P_k(t), P_k(eta), P_k(1) in G and dG/dt: shape (2, 3, 3, nodes)."""
    nodes = np.asarray(nodes, dtype=float)
    weights = np.empty((2, 3, 3, nodes.size))
    hi = nodes > p.eta
    for (w_t, w_eta, w_1), dt in zip(weights, (False, True)):
        c1, c2, c3, c4 = _refit_coefficients(p, nodes, dt)
        np.subtract(c1, c2, out=w_t)
        np.subtract(c3, c4, out=w_t, where=hi)
        np.subtract(c2, c4, out=w_eta)
        np.subtract(c1, c3, out=w_eta, where=hi)
        w_1[:] = c4
    return weights


def residual_reference(p, state, f, h):
    """``solver.residual`` with the interior points interpolated separately."""
    tg = np.linspace(0.0, 1.0, RESIDUAL_GRID)
    spacing = tg[1] - tg[0]
    inner = tg[RESIDUAL_SKIP:-RESIDUAL_SKIP]
    out = []
    for g, other, src in ((state.u, state.v, f), (state.v, state.u, h)):
        gv, _ = interpolate_reference(g, tg)
        ov, od = interpolate_reference(other, inner)
        d3 = fd3_reference(gv, spacing)
        rhs = src.eval_array(inner, np.maximum(ov, 0.0), np.maximum(od, 0.0))
        out.append(float(np.max(np.abs(d3 + rhs))))
    return out[0], out[1]


_FD3_COEFF = np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0


def fd3_reference(dense, spacing):
    """Fourth-order third difference of dense samples, summed into zeros."""
    m = dense.size
    out = np.zeros(m - 2 * RESIDUAL_SKIP)
    for j, c in enumerate(_FD3_COEFF):
        if c:
            out += c * dense[j : m - 6 + j]
    return out / spacing**3


def bc_defect_reference(p, g):
    """max(|g(0)|, |g'(0)|, |g'(1) - alpha*g'(eta)|), with g'(eta) interpolated."""
    _, d_eta = interpolate(g, p.eta)
    return float(
        max(abs(g.values[0]), abs(g.derivs[0]), abs(g.derivs[-1] - p.alpha * d_eta))
    )


def cone_membership_reference(p, g, slack=1e-9):
    """The three cone conditions on g's node data, windowed by boolean masks."""
    nodes = g.nodes
    lo, hi = p.eta / p.alpha, p.eta
    if np.min(np.abs(nodes - lo)) > 1e-12 or np.min(np.abs(nodes - hi)) > 1e-12:
        raise ValueError("node set must contain eta/alpha and eta")
    window = (nodes >= lo - 1e-12) & (nodes <= hi + 1e-12)
    nonneg_ok = bool(np.min(g.values) >= -slack)
    value_margin = float(np.min(g.values[window]) - p.k0 * np.max(np.abs(g.values)))
    deriv_margin = float(np.min(g.derivs[window]) - p.k1 * np.max(np.abs(g.derivs)))
    value_lower_ok = value_margin >= -slack
    deriv_lower_ok = deriv_margin >= -slack
    return ConeMembershipReport(
        member=nonneg_ok and value_lower_ok and deriv_lower_ok,
        nonneg_ok=nonneg_ok,
        value_lower_ok=value_lower_ok,
        deriv_lower_ok=deriv_lower_ok,
        value_margin=value_margin,
        deriv_margin=deriv_margin,
        k0=p.k0,
        k1=p.k1,
    )


def half_sweep_reference(op, src, values, derivs):
    """(values, derivs) of one half-sweep of the moment operator ``op``, in fresh arrays."""
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        try:
            y, yp = op.sample(values, derivs)
        except FloatingPointError as err:
            raise EvalError(f"non-finite state samples: {err}") from err
        if not (y.min() >= 0.0 and yp.min() >= 0.0):
            np.maximum(y, 0.0, out=y)
            np.maximum(yp, 0.0, out=yp)
        wphi = src.eval_array(op.s_flat, y, yp, work=op.work).reshape(op.s.shape)
        m = op.nodes.size - 1
        panel_sum, cums = np.empty(m), np.zeros((3, m + 1))
        try:
            np.multiply(op.w, wphi, out=wphi)
            for k in range(3):
                if k:
                    wphi *= op.s
                np.add.reduce(wphi, axis=0, out=panel_sum)
                np.add.accumulate(panel_sum, out=cums[k, 1:])
            p0, p1, p2 = cums
            (e0, f0), (e1, f1) = cums[:2, (op.eta_pos, -1)]
            lo0, lo1, hi = op._r
            c = lo0 * e0 + lo1 * e1 + hi * ((f0 - e0) - (f1 - e1))
            value, slope = np.empty(m + 1), np.empty(m + 1)
            np.multiply(p0, -0.5, out=value)
            value += c
            value *= op.nodes * op.nodes
            value += np.multiply(op.nodes, p1, out=slope)
            value -= np.multiply(p2, 0.5, out=slope)
            np.subtract(2.0 * c, p0, out=slope)
            slope *= op.nodes
            slope += p1
        except FloatingPointError as err:
            raise EvalError(f"non-finite operator output: {err}") from err
    return value, slope
