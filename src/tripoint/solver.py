"""Secant-accelerated substitution for the coupled integral system.

A solution is a fixed point of the sweep map on v alone,
``Phi(x) = T_h(T_f(x))``, where ``T_f`` and ``T_h`` are the two halves of
the integral operator.  Sweep k evaluates it at the iterate x_k, which is
v's node data (values and derivatives, one 2n-vector)::

    u_k = T_f(x_k),   g_k = T_h(u_k),   r_k = g_k - x_k

and mixes the next iterate by a rule that keeps no state but the previous
sweep's ``(x, r)``::

    x_{k+1} = (x_k + g_k) / 2          if the step rose, else
    x_{k+1} = g_k - gamma (dx + dr),   gamma = (dr . r_k) / (dr . dr),
    dx = x_k - x_{k-1},   dr = r_k - r_{k-1}

The second is Anderson mixing of depth 1 (a secant step).  gamma is 0, which
is plain substitution, on the first sweep, on an unchanged step and when
``dr = 0``; on a diverging iteration an unguarded secant can steer towards
the trivial zero solution.  The step of sweep k is the larger of the C^1-norm
changes ``|u_k - u_{k-1}|`` and ``|r_k|``, and the iteration stops when it
drops to ``tol``.  There is no general contraction guarantee and no
``damping`` setting; if the iteration fails to settle within ``max_iters``
sweeps the report comes back with ``converged=False`` rather than guessing.

A large solve, from 4097 nodes up (16 times the panels of the 257-node
grid), starts on the coarse grid ``solver_nodes(257, p)`` from the
configured ``"zero"`` or constant initial state and runs the same loop there
for at most ``max_iters - 1`` sweeps.  Its operator outputs, resampled onto
the fine nodes, start the loop afresh on the fine grid, which therefore gets
at least one sweep.  At 8193 nodes this leaves 2 fine sweeps instead of 6-8.
A :class:`CoupledState` initial or ``max_iters = 1`` skips the coarse grid.
``max_iters``, the report's ``iters`` and ``history`` count the sweeps on
both grids, and a :class:`SolveError` numbers its sweep across both.

The returned state is the last fine sweep's operator outputs ``(u_k, g_k)``,
never the mixed iterate, so the boundary conditions hold to rounding and
the positivity and cone grading see true operator outputs, whether or not
the iteration converged.

The returned report also grades the end state: third-derivative residuals of
both differential equations (by finite differences of the interpolant on a
dense grid), boundary-condition defects, cone membership and positivity.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Union

import numpy as np

from . import verify
from .expr import EvalError, Expr, Workspace
from .gridfn import GridFunction, _sampler, interpolate, solver_nodes
from .integral_op import CoupledState, _MomentOperator, apply_operator
from .kernel import ProblemParams, _is_count, _is_real

__all__ = ["SolveConfig", "SolveReport", "SolveError", "solve", "residual", "bc_defect"]

#: dense residual grid: 1001 uniform points, 3 stencil points dropped per side
RESIDUAL_GRID = 1001
RESIDUAL_SKIP = 3

# fourth-order central stencil for the third derivative, offsets -3..3
_FD3_COEFF = np.array([1.0, -8.0, 13.0, 0.0, -13.0, 8.0, -1.0]) / 8.0
# the residual grid, its spacing and its interior slice, shared read-only by every solve
_RES_T = np.linspace(0.0, 1.0, RESIDUAL_GRID)
_RES_T.setflags(write=False)
_RES_SPACING, _RES_INNER = _RES_T[1] - _RES_T[0], slice(RESIDUAL_SKIP, -RESIDUAL_SKIP)

#: Chebyshev nodes of the coarse grid that a large solve converges on first
_COARSE_NODES = 257
#: the coarse grid runs when the fine grid has at least this many times its panels
_COARSE_RATIO = 16


class SolveError(RuntimeError):
    """Evaluation failure inside the iteration, tagged with the sweep index."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


@dataclass
class SolveConfig:
    """Settings of :func:`solve`; :meth:`validate` is their one rule, the CLI's too.

    ``max_iters`` (an integer >= 1) bounds the sweeps, which stop at a step of
    ``tol`` (a number > 0); ``nodes`` (an integer >= 9) counts the Chebyshev
    nodes before the cone window's ends are added; ``initial`` is ``"zero"``,
    a finite constant or a :class:`CoupledState`.  An integral float is an
    integer; a boolean or a string is never a number.  From 4097 nodes up, a
    ``"zero"`` or constant initial state is first iterated on a 257-node
    grid; ``max_iters`` bounds the sweeps of both grids together, at most
    ``max_iters - 1`` of them coarse.  No setting chooses the mixing: the
    module docstring states its one rule.
    """

    max_iters: int = 200
    tol: float = 1e-10
    nodes: int = 65
    initial: Union[str, float, CoupledState] = "zero"

    def validate(self) -> None:
        for name, least in (("max_iters", 1), ("nodes", 9)):
            value = getattr(self, name)
            if not _is_count(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
        if not _is_real(self.tol):
            raise ValueError(f"tol must be a number, got {self.tol!r}")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        init = self.initial
        if not (init == "zero" if isinstance(init, str)
                else isinstance(init, CoupledState) or _is_real(init)):
            raise ValueError(
                f"initial must be 'zero' or a number (or a CoupledState), got {init!r}")
        if _is_real(init) and not np.isfinite(init):
            raise ValueError(f"initial must be finite, got {init}")


@dataclass
class SolveReport:
    converged: bool
    iters: int
    final_step_norm: float
    residual_u: float
    residual_v: float
    bc_defect_u: float
    bc_defect_v: float
    cone_ok_u: bool
    cone_ok_v: bool
    positivity_ok: bool
    history: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _initial_state(init: Union[str, float, CoupledState], nodes: np.ndarray) -> CoupledState:
    if isinstance(init, CoupledState):
        if np.array_equal(init.nodes, nodes):
            return init
        # resample a state given on a different node set, onto one checked copy of it
        sample = _sampler(init.nodes, nodes)
        u = GridFunction(nodes, *sample(init.u.values, init.u.derivs))
        return CoupledState(u, GridFunction(u.nodes, *sample(init.v.values, init.v.derivs)))
    c = 0.0 if init == "zero" else float(init)
    const = GridFunction(nodes, np.full_like(nodes, c), np.zeros_like(nodes))
    return CoupledState(const, const)


def _node_data(g: GridFunction) -> np.ndarray:
    """g's values and derivs as one read-only 2n-vector, a view of the block that holds
    them; its max-abs entry is the C^1 norm."""
    return g.values.base.ravel()


def _sweeps(
    p: ProblemParams, f: Expr, h: Expr, init: Union[str, float, CoupledState],
    n_nodes: int, cfg: SolveConfig, max_iters: int, history: list[float],
) -> tuple[GridFunction, GridFunction, bool]:
    """Run the secant loop from the initial state ``init`` on ``solver_nodes(n_nodes, p)``
    until ``history`` holds ``max_iters`` steps or a step reaches ``cfg.tol``.

    Builds the grid's initial state and then its one operator on the state's
    checked nodes, which every sweep's grid functions then share; once the
    first sweep has read the state, only v's node data stays, as the secant's
    previous iterate.  Returns the last sweep's operator
    outputs ``(u_k, g_k)`` and whether the loop converged.  Sweeps are
    numbered on from ``len(history)``.
    """
    state = _initial_state(init, solver_nodes(n_nodes, p))
    nodes = state.nodes
    op = _MomentOperator(p, nodes, (f, h))
    n = nodes.size
    prev_step = np.inf
    x, u_prev = _node_data(state.v), _node_data(state.u)
    del state  # x and u_prev are all the first sweep reads of it
    secant = None  # (x, r) of the previous sweep
    for it in range(len(history) + 1, max_iters + 1):
        try:
            u = apply_operator(p, f, GridFunction(nodes, x[:n], x[n:]), op=op)
            v = apply_operator(p, h, u, op=op)
        except EvalError as err:
            raise SolveError(f"evaluation failed at iteration {it}: {err}", it) from err
        u_data, g = _node_data(u), _node_data(v)
        r = g - x
        # C^1 norms without a |.| temporary: in place on the fresh difference, and
        # max(|max r|, |min r|) for r, which the secant step reads on
        du = u_data - u_prev
        step = float(max(np.abs(du, out=du).max(), abs(r.max()), abs(r.min())))
        del du
        history.append(step)
        if step <= cfg.tol:
            return u, v, True
        if step > prev_step:
            import logging  # loaded by the first record, not by every solve
            logging.getLogger(__name__).info(
                "step norm increased at iteration %d; damping reduced to 0.5", it)
            x_next = 0.5 * x + 0.5 * g
        else:
            x_next = g
            if step < prev_step and secant is not None:
                dx, dr = x - secant[0], r - secant[1]
                drdr = float(dr @ dr)
                if drdr > 0.0:
                    x_next = g - float(dr @ r) / drdr * (dx + dr)
                del dx, dr
        secant = (x, r)
        x, u_prev, prev_step = x_next, u_data, step
    return u, v, False


def solve(
    p: ProblemParams, f: Expr, h: Expr, cfg: SolveConfig = SolveConfig()
) -> tuple[CoupledState, SolveReport]:
    """Iterate the coupled sweep to a fixed point and grade the result."""
    cfg.validate()
    max_iters = int(cfg.max_iters)
    init = cfg.initial
    history: list[float] = []
    if (not isinstance(init, CoupledState) and max_iters > 1
            and int(cfg.nodes) - 1 >= _COARSE_RATIO * (_COARSE_NODES - 1)):
        u, v, _ = _sweeps(p, f, h, init, _COARSE_NODES, cfg, max_iters - 1, history)
        import logging
        logging.getLogger(__name__).debug(
            "coarse grid of %d nodes took %d sweeps", _COARSE_NODES, len(history))
        init = CoupledState(u, v)
    u, v, converged = _sweeps(p, f, h, init, int(cfg.nodes), cfg, max_iters, history)

    state = CoupledState(u, v)
    res_u, res_v = residual(p, state, f, h)
    cone_u = verify.cone_membership(p, u)
    cone_v = verify.cone_membership(p, v)
    # nodes[0] = 0 is the only node not inside (0, 1]
    positivity_ok = bool(
        u.values[1:].min() > 0.0
        and v.values[1:].min() > 0.0
        and u.derivs.min() >= -1e-12
        and v.derivs.min() >= -1e-12
    )
    report = SolveReport(
        converged=converged,
        iters=len(history),
        final_step_norm=history[-1],
        residual_u=res_u,
        residual_v=res_v,
        bc_defect_u=bc_defect(p, u),
        bc_defect_v=bc_defect(p, v),
        cone_ok_u=cone_u.member,
        cone_ok_v=cone_v.member,
        positivity_ok=positivity_ok,
        history=history,
    )
    return state, report


def _fd3(dense: np.ndarray, spacing: float) -> np.ndarray:
    """Third derivative of dense samples at the interior stencil points."""
    m = dense.size
    out = _FD3_COEFF[0] * dense[: m - 6]
    for j, c in enumerate(_FD3_COEFF[1:], 1):
        if c:
            out += c * dense[j : m - 6 + j]
    return out / spacing**3


def residual(
    p: ProblemParams, state: CoupledState, f: Expr, h: Expr
) -> tuple[float, float]:
    """Max defect of -w''' = src over a dense interior grid, for both halves.

    Each half's Hermite interpolant is sampled once on a uniform 1001-point
    grid, by one sampler built for both.  The third derivative is a
    fourth-order finite difference of those samples, and the source reads
    the other half's samples at the interior points: 3 points are dropped at
    each end where the centered stencil does not fit.  Both sources evaluate
    in one workspace at those points.  A half whose defect is not finite,
    as on a diverged state whose samples overflow, reads inf.
    """
    inner, t_in = _RES_INNER, _RES_T[_RES_INNER]
    work = Workspace(t_in, (f, h))
    sample = _sampler(state.nodes, _RES_T)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        (uv, ud), (vv, vd) = (sample(g.values, g.derivs) for g in (state.u, state.v))
        for gv, ov, od, src in ((uv, vv, vd, f), (vv, uv, ud, h)):
            try:
                rhs = src.eval_array(t_in, np.maximum(ov[inner], 0.0),
                                     np.maximum(od[inner], 0.0), work=work)
            except EvalError:
                rhs = np.inf
            defect = float(np.abs(_fd3(gv, _RES_SPACING) + rhs).max())
            out.append(defect if np.isfinite(defect) else np.inf)
    return out[0], out[1]


def bc_defect(p: ProblemParams, g: GridFunction) -> float:
    """max(|g(0)|, |g'(0)|, |g'(1) - alpha*g'(eta)|), with g'(eta) read at its node when
    eta is one (as on every solver node set) and interpolated otherwise."""
    derivs = g.derivs
    k = int(g.nodes.searchsorted(p.eta))
    d_eta = derivs.item(k) if g.nodes.item(k) == p.eta else interpolate(g, p.eta)[1]
    return float(
        max(abs(g.values.item(0)), abs(derivs.item(0)), abs(derivs.item(-1) - p.alpha * d_eta))
    )
