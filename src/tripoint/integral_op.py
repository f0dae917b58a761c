"""Application of the coupled integral operator to grid functions.

Each half of the coupled system maps a state w (a :class:`GridFunction`)
through

    (value)       t  ->  integral_0^1 G(t, s)      src(s, w(s), w'(s)) ds
    (derivative)  t  ->  integral_0^1 dG/dt(t, s)  src(s, w(s), w'(s)) ds

where ``src`` is a parsed expression with (t, y, yp) bound to
(s, w(s), w'(s)).  Because G and dG/dt are polynomials of degree <= 2 in s
between the seams {t, eta}, every node integral is a fixed linear combination
of the cumulative source moments

    P_k(x) = integral_0^x s^k src(...) ds,   k = 0, 1, 2,

taken at t, eta and 1.  The operator requires the node set to contain eta,
as :func:`~tripoint.gridfn.solver_nodes` guarantees; then every seam is a
node, every quadrature panel is a whole node interval, and each node costs
O(1) arithmetic once the source has been evaluated at the Gauss points.  The
weights are quadratics in t read off the kernel's table of branch
coefficients (:func:`~tripoint.kernel._coefficient_table`); this module only
knows which branch covers which interval.  At t = 0 branches 2 and 4 vanish
and branch 1 spans [0, 0], so outputs vanish (value and derivative) exactly
there, and dG/dt(1, s) = alpha * dG/dt(eta, s) pointwise makes the
three-point derivative condition hold to rounding for any source.

Each panel carries ``_QUAD_POINTS`` = 4 Gauss points, the lowest order
exact for a degree-7 panel integrand: ``s^k * src`` (k <= 2) for a source
linear in (y, y') with constant coefficients has degree 5 on the cubic
Hermite state and 7 on a quintic one.  For other sources the Hermite state
sets a solve's error; orders 3 and 8 give the same error (README table).

A solve builds one :class:`_MomentOperator` for its parameters, node set and
sources, and a half-sweep is one call ``op(src, values, derivs)`` from the
state's node data to the output's, under one floating-point guard;
:func:`apply_operator` wraps it for grid functions.  A warm half-sweep
allocates only node-sized arrays, and the t-only parts of each source, such
as ``t^2+1``, are evaluated at its first half-sweep and kept for the solve.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .expr import EvalError, Expr, Workspace
# interpolate is not called here; perfbench/tracing.py wraps it by this name
from .gridfn import GridFunction, _hermite_basis, interpolate  # noqa: F401
from .kernel import ProblemParams, _coefficient_table

__all__ = ["CoupledState", "apply_operator"]

logger = logging.getLogger(__name__)


#: Gauss points per node panel: exact for panel integrands up to degree 7
_QUAD_POINTS = 4


@lru_cache(maxsize=None)
def _leggauss(q: int) -> tuple[np.ndarray, np.ndarray]:
    # read-only: every operator shares these arrays through the cache
    rule = np.polynomial.legendre.leggauss(q)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def panel_points(breaks: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points and weights for the panels defined by ``breaks``.

    Returns arrays of shape (panels, q), the transposes of the (q, panels)
    arrays they are computed in, which is how :class:`_MomentOperator`
    stores them.
    """
    gx, gw = _leggauss(q)
    a = np.asarray(breaks[:-1], dtype=float)
    b = np.asarray(breaks[1:], dtype=float)
    half = (b - a) / 2.0
    mid = (a + b) / 2.0
    return (mid + gx[:, None] * half).T, (gw[:, None] * half).T


@dataclass(frozen=True)
class CoupledState:
    """The pair (u, v) on a shared node set."""

    u: GridFunction
    v: GridFunction

    def __post_init__(self) -> None:
        if not np.array_equal(self.u.nodes, self.v.nodes):
            raise ValueError("u and v must share the same node set")

    @property
    def nodes(self) -> np.ndarray:
        return self.u.nodes


class _MomentOperator:
    """Cumulative-moment evaluation of the kernel integrals at the nodes.

    Built once per parameter pair and node set, which must contain eta, with
    ``_QUAD_POINTS`` Gauss points per panel; each call is then one half-sweep
    for a state on that node set.  The panels are the node intervals, and
    quadrature arrays are stored as (q, panels), so the per-panel sums run
    over contiguous rows.  The Hermite basis at the Gauss points is tabulated
    as two q x 4 matrices: one weighs (v_j, h_j d_j, v_{j+1}, h_j d_{j+1})
    into values, the other (v_j / h_j, d_j, v_{j+1} / h_j, d_{j+1}) into
    slopes, with h_j the width of panel j.

    One block holds everything a half-sweep needs beyond the state and the
    source: the samples, the node-data stack, the cumulative moments, the
    sources' workspace rows (:attr:`work`) and the weights of ``P_k(t)``,
    ``P_k(eta)`` and ``P_k(1)`` in G and dG/dt at every node (2 x 3 x 3 x
    nodes).  A node ``t`` integrates branch 1 over ``[0, min(t, eta)]``,
    branch 2 (``t <= eta``) or 3 between ``t`` and ``eta``, and branch 4 over
    ``[max(t, eta), 1]``.  So with the branches' coefficient tables ``c1..c4``
    the weights are ``c1 - c2``, ``c2 - c4``, ``c4`` up to eta (eta
    included) and ``c3 - c4``, ``c1 - c3``, ``c4`` above, each evaluated
    over ``[1, t, t^2]`` by one matmul per side.  The arrays :meth:`sample`
    returns are overwritten by the next half-sweep.
    """

    def __init__(self, p: ProblemParams, nodes: np.ndarray, sources: tuple[Expr, ...] = ()):
        if p.eta not in nodes:
            raise ValueError("the node set must contain eta")
        self.p = p
        self.nodes = nodes
        m, q = nodes.size - 1, _QUAD_POINTS
        n_rows = Workspace.rows_for(sources)
        # one block: Gauss points and weights, sampled values and slopes
        # (q x m each), the node-data stack (4 x m), panel sums (m),
        # cumulative moments (3 x (m+1)), the moment weights (2 x 3 x 3 x
        # nodes) and the source registers
        shapes = [(q, m)] * 4 + [(4, m), (m,), (3, m + 1), (2, 3, 3, nodes.size),
                                 (n_rows, q * m)]
        ends = np.cumsum([int(np.prod(sh)) for sh in shapes])
        block = np.empty(ends[-1])
        views = [block[end - np.prod(sh) : end].reshape(sh) for sh, end in zip(shapes, ends)]
        (self.s, self.w, self._vals, self._ders, self._stack, self._panel_sum, self._cums,
         self._weights, rows) = views
        self.s.T[:], self.w.T[:] = panel_points(nodes, q)
        self._cums[:, 0] = 0.0
        self.s_flat = self.s.ravel()
        self.work = Workspace(self.s_flat, sources, rows)
        self.eta_pos = int(np.searchsorted(nodes, p.eta))
        self.h = np.diff(nodes)
        values, slopes = _hermite_basis((_leggauss(q)[0] + 1.0) / 2.0)
        self.basis = np.column_stack(values)
        self.slope_basis = np.column_stack(slopes)

        # (kernel, moment point, power of s, power of t) rows of the weights
        c1, c2, c3, c4 = np.stack([_coefficient_table(p, dt) for dt in (False, True)], axis=1)
        powers = np.stack((np.ones_like(nodes), nodes, nodes * nodes))
        weights, split = self._weights.reshape(18, -1), self.eta_pos + 1
        for cols, table in ((slice(split), (c1 - c2, c2 - c4, c4)),
                            (slice(split, None), (c3 - c4, c1 - c3, c4))):
            coeffs = np.stack(table, axis=1).reshape(18, 3)
            np.matmul(coeffs, powers[:, cols], out=weights[:, cols])

    def sample(self, v: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Value and slope at the quadrature points of the interpolant of node data (v, d)."""
        h, stack = self.h, self._stack
        v0, v1, d0, d1 = v[:-1], v[1:], d[:-1], d[1:]
        stack[0] = v0
        np.multiply(h, d0, out=stack[1])
        stack[2] = v1
        np.multiply(h, d1, out=stack[3])
        np.matmul(self.basis, stack, out=self._vals)
        np.divide(v0, h, out=stack[0])
        stack[1] = d0
        np.divide(v1, h, out=stack[2])
        stack[3] = d1
        np.matmul(self.slope_basis, stack, out=self._ders)
        return self._vals.ravel(), self._ders.ravel()

    def __call__(self, src: Expr, values: np.ndarray, derivs: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """One half-sweep: integrate src(s, w, w') against G and dG/dt at every node.

        Takes the node data of the state w and returns the output's.  The
        sources are defined only for y, yp >= 0, so samples that interpolation
        pushes below zero are clamped (and logged).  A floating-point fault
        raises :class:`EvalError`, for the state samples or for the output.
        """
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            try:
                y, yp = self.sample(values, derivs)
            except FloatingPointError as err:
                raise EvalError(f"non-finite state samples: {err}") from err
            n_neg = np.count_nonzero(y < 0.0) + np.count_nonzero(yp < 0.0)
            if n_neg:
                logger.debug("clamped %d negative interpolated state samples to 0", n_neg)
                np.maximum(y, 0.0, out=y)
                np.maximum(yp, 0.0, out=yp)
            # w * s^k * src in the source register: one multiply by s per moment
            wphi = src.eval_array(self.s_flat, y, yp, work=self.work).reshape(self.s.shape)
            cums = self._cums
            try:
                np.multiply(self.w, wphi, out=wphi)
                for k in range(3):
                    if k:
                        wphi *= self.s
                    np.sum(wphi, axis=0, out=self._panel_sum)
                    np.cumsum(self._panel_sum, out=cums[k, 1:])
                # P_k at the nodes (einsum reports no overflow), P_0..2(eta), P_0..2(1)
                out = np.einsum("kn,jkn->jn", cums, self._weights[:, 0])
                if not np.isfinite(out).all():
                    raise FloatingPointError("overflow in the moment contraction")
                ends = cums[:, (self.eta_pos, -1)].T.ravel()
                out += ends @ self._weights[:, 1:].reshape(2, 6, -1)
            except FloatingPointError as err:
                raise EvalError(f"non-finite operator output: {err}") from err
        return out[0], out[1]


def apply_operator(p: ProblemParams, src: Expr, state: GridFunction,
                   op: Optional[_MomentOperator] = None) -> GridFunction:
    """One half of the coupled sweep: integrate src(s, state, state') against the kernel.

    Returns a grid function on the same node set whose values come from G and
    whose derivatives come from dG/dt.  Output value and derivative at t = 0
    are exactly zero.  The node set must contain eta.  ``op`` is a
    discretisation built beforehand for ``(p, state.nodes)`` and sources that
    include ``src``; without it one is built for this call.
    """
    if op is None:
        op = _MomentOperator(p, state.nodes, (src,))
    elif op.p != p or not np.array_equal(op.nodes, state.nodes):
        raise ValueError("the moment operator was built for other parameters or nodes")
    return GridFunction(state.nodes, *op(src, state.values, state.derivs))
