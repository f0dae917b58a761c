"""Application of the coupled integral operator to grid functions.

Each half of the coupled system maps a state w (a :class:`GridFunction`)
through

    (value)       t  ->  integral_0^1 G(t, s)      src(s, w(s), w'(s)) ds
    (derivative)  t  ->  integral_0^1 dG/dt(t, s)  src(s, w(s), w'(s)) ds

where ``src`` is a parsed expression with (t, y, yp) bound to
(s, w(s), w'(s)).  The kernel is ``G = t^2 R(s) - (t-s)_+^2 / 2`` with R
linear in s on each side of eta (:mod:`tripoint.kernel`), so with the
cumulative source moments

    P_k(x) = integral_0^x s^k src(...) ds,   k = 0, 1, 2,

and the one number ``c = integral_0^1 R(s) src(...) ds``, which R's
coefficients ``lo0 + lo1 s`` (up to eta) and ``hi (1 - s)`` (above) take
from ``P_0``, ``P_1`` at eta and 1, every node t reads

    w(t) = t^2 (c - P_0(t)/2) + t P_1(t) - P_2(t)/2,   w'(t) = t (2c - P_0(t)) + P_1(t).

The operator requires the node set to contain eta, as
:func:`~tripoint.gridfn.solver_nodes` guarantees; then every seam is a
node, every quadrature panel is a whole node interval, and each node costs
O(1) arithmetic once the source has been evaluated at the Gauss points.
Since P_k(0) = 0, outputs vanish (value and derivative) exactly at t = 0,
and both sides of w'(1) = alpha * w'(eta) read the same c, so the
three-point derivative condition holds to rounding for any source.

Each panel carries ``_QUAD_POINTS`` = 4 Gauss points, the lowest order
exact for a degree-7 panel integrand: ``s^k * src`` (k <= 2) for a source
linear in (y, y') with constant coefficients has degree 5 on the cubic
Hermite state and 7 on a quintic one.  For other sources the Hermite state
sets a solve's error; orders 3 and 8 give the same error (README table).

A solve builds one :class:`_MomentOperator` for its parameters, node set and
sources, and a half-sweep is one call ``op(src, values, derivs)`` from the
state's node data to the output's, under one floating-point guard;
:func:`apply_operator` wraps it for grid functions.  At a few hundred
quadrature points a half-sweep costs its number of numpy calls, so it makes
few (:class:`_MomentOperator`).  A warm half-sweep allocates no array, and
the t-only parts of each source, such as ``t^2+1``, are evaluated at its
first half-sweep and kept for the solve.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .expr import EvalError, Expr, Workspace
# interpolate is not called here; perfbench/tracing.py wraps it by this name
from .gridfn import GridFunction, _hermite_basis, interpolate  # noqa: F401
from .kernel import ProblemParams, _r_coefficients

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


@lru_cache(maxsize=None)
def _gauss_basis(q: int) -> tuple[np.ndarray, np.ndarray]:
    # read-only q x 4 Hermite value and slope weights at the Gauss points
    basis = tuple(np.column_stack(b) for b in _hermite_basis((_leggauss(q)[0] + 1.0) / 2.0))
    for arr in basis:
        arr.setflags(write=False)
    return basis


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
    once, as two shared q x 4 matrices: one weighs (v_j, h_j d_j, v_{j+1},
    h_j d_{j+1}) into values, the other (v_j / h_j, d_j, v_{j+1} / h_j,
    d_{j+1}) into slopes, with h_j the width of panel j.

    One block holds everything a half-sweep needs beyond the state and the
    source: the samples, the node-data stack, the cumulative moments, ``t^2``,
    the outputs, the panel widths and the sources' workspace rows
    (:attr:`work`).  A half-sweep reduces the three moments' panel sums into
    the rows of one (3, m) buffer, cumulates all three with one
    ``np.add.accumulate`` along the rows, and contracts the four Python floats
    ``P_0``, ``P_1`` at eta and 1 with R's three coefficients into the scalar
    ``c``; an overflow there is repeated in numpy scalars, which raise it
    under the guard.  It then evaluates the module docstring's closed forms
    at every node.  The arrays :meth:`sample` and a call return are
    overwritten by the next half-sweep.
    """

    def __init__(self, p: ProblemParams, nodes: np.ndarray, sources: tuple[Expr, ...] = ()):
        # the nodes increase, so eta is a node exactly when it sits at its insertion point
        self.eta_pos = int(nodes.searchsorted(p.eta))
        if self.eta_pos == nodes.size or nodes[self.eta_pos] != p.eta:
            raise ValueError("the node set must contain eta")
        self.p = p
        self.nodes = nodes
        m, q = nodes.size - 1, _QUAD_POINTS
        n_rows = Workspace.rows_for(sources)
        # one block: Gauss points and weights, sampled values and slopes
        # (q x m each), the node-data stack (4 x m), panel sums (3 x m),
        # cumulative moments (3 x (m+1)), t^2 and the outputs (3 x (m+1)),
        # the panel widths (m) and the source registers
        shapes = [(q, m)] * 4 + [(4, m), (3, m), (3, m + 1), (3, m + 1), (m,), (n_rows, q * m)]
        block, views, end = np.empty(sum(map(math.prod, shapes))), [], 0
        for sh in shapes:
            views.append(block[end : end + math.prod(sh)].reshape(sh))
            end += math.prod(sh)
        (self.s, self.w, self._vals, self._ders, self._stack, self._panel_sum, self._cums,
         (self.t2, *self._out), self.h, rows) = views
        self.s.T[:], self.w.T[:] = panel_points(nodes, q)
        self._cums[:, 0] = 0.0
        self.s_flat = self.s.ravel()
        self.work = Workspace(self.s_flat, sources, rows)
        np.subtract(nodes[1:], nodes[:-1], out=self.h)
        self.basis, self.slope_basis = _gauss_basis(q)
        np.multiply(nodes, nodes, out=self.t2)
        self._r = _r_coefficients(p)

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

    def _contract(self, e0, e1, f0, f1):
        # c = integral_0^1 R src: lo0 + lo1 s up to eta, hi (1 - s) above
        lo0, lo1, hi = self._r
        return lo0 * e0 + lo1 * e1 + hi * ((f0 - e0) - (f1 - e1))

    def __call__(self, src: Expr, values: np.ndarray, derivs: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """One half-sweep: integrate src(s, w, w') against G and dG/dt at every node.

        Takes the node data of the state w and returns the output's, as
        views that the next half-sweep overwrites.  The
        sources are defined only for y, yp >= 0: when the least sample is
        negative, the samples that interpolation pushed below zero are
        counted, clamped and logged.  A floating-point fault raises
        :class:`EvalError`, for the state samples or for the output.
        """
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            try:
                y, yp = self.sample(values, derivs)
            except FloatingPointError as err:
                raise EvalError(f"non-finite state samples: {err}") from err
            if not (y.min() >= 0.0 and yp.min() >= 0.0):
                n_neg = np.count_nonzero(y < 0.0) + np.count_nonzero(yp < 0.0)
                if n_neg:
                    logger.debug("clamped %d negative interpolated state samples to 0", n_neg)
                    np.maximum(y, 0.0, out=y)
                    np.maximum(yp, 0.0, out=yp)
            # w * s^k * src in the source register: one multiply by s per moment
            wphi = src.eval_array(self.s_flat, y, yp, work=self.work).reshape(self.s.shape)
            cums, sums = self._cums, self._panel_sum
            try:
                np.multiply(self.w, wphi, out=wphi)
                for k in range(3):
                    if k:
                        wphi *= self.s
                    np.add.reduce(wphi, axis=0, out=sums[k])
                np.add.accumulate(sums, axis=1, out=cums[:, 1:])
                # c = integral_0^1 R src from P_0, P_1 at eta and 1, in Python floats
                p0, p1, p2 = cums
                item, i = cums.item, self.eta_pos
                ends = item(0, i), item(1, i), item(0, -1), item(1, -1)
                c = self._contract(*ends)
                if not math.isfinite(c):
                    # an overflow: numpy scalars raise it as the guard's error
                    c = self._contract(*map(np.float64, ends))
                # t^2 (c - P_0/2) + t P_1 - P_2/2 and t (2c - P_0) + P_1
                value, slope = self._out
                np.multiply(p0, -0.5, out=value)
                value += c
                value *= self.t2
                value += np.multiply(self.nodes, p1, out=slope)
                value -= np.multiply(p2, 0.5, out=slope)
                np.subtract(2.0 * c, p0, out=slope)
                slope *= self.nodes
                slope += p1
            except FloatingPointError as err:
                raise EvalError(f"non-finite operator output: {err}") from err
        return value, slope


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
    elif ((op.p is not p and op.p != p) or op.nodes.shape != state.nodes.shape
          or not (op.nodes == state.nodes).all()):
        raise ValueError("the moment operator was built for other parameters or nodes")
    return GridFunction(state.nodes, *op(src, state.values, state.derivs))
