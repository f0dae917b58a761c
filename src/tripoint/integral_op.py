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

taken at panel boundaries.  The source is therefore evaluated once per sweep
on a shared panel decomposition (all nodes, eta, and the rule's breakpoints),
and each node costs O(1) arithmetic afterwards.  Every coefficient carries a
factor t or t^2, so outputs vanish (value and derivative) exactly at t = 0,
and dG/dt(1, s) = alpha * dG/dt(eta, s) pointwise makes the three-point
derivative condition hold to rounding for any source.

The discretisation (panels, Gauss points, node positions) depends only on
the parameters, the node set and the rule, so a solve builds one
:class:`_MomentOperator` and reuses it for every half-sweep.  When every
panel is a whole node interval (the node set holds eta and the rule's only
breakpoints are 0 and 1, as in a solve), the Gauss points sit at the same
reference coordinates in every panel, and sampling the state's cubic
Hermite interpolant is a product of the per-panel node data with a
tabulated q x 4 basis.  Panels that split node intervals fall back to
:func:`interpolate`.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import Expr
from .gridfn import GridFunction, interpolate
from .kernel import ProblemParams
from .quadrature import QuadratureRule, _leggauss, panel_points

__all__ = ["CoupledState", "apply_T1", "apply_T2", "apply_operator"]

logger = logging.getLogger(__name__)


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

    Built once per node set and rule; :meth:`sample` and :meth:`apply` may
    then be called for any number of states on that node set.  Quadrature
    arrays are stored as (q, panels), so the per-panel sums run over
    contiguous rows.  When the panel bounds are exactly the nodes, the
    Hermite basis at the Gauss points is tabulated as two q x 4 matrices:
    one weighs (v_j, h_j d_j, v_{j+1}, h_j d_{j+1}) into values, the other
    (v_j / h_j, d_j, v_{j+1} / h_j, d_{j+1}) into slopes, with h_j the width
    of panel j.
    """

    def __init__(self, p: ProblemParams, nodes: np.ndarray, rule: QuadratureRule):
        self.p = p
        self.nodes = nodes
        bounds = np.unique(np.concatenate([nodes, np.asarray(rule.breakpoints), [p.eta]]))
        s, w = panel_points(bounds, rule.points_per_panel)
        self.s, self.w = np.ascontiguousarray(s.T), np.ascontiguousarray(w.T)
        self.s_flat = self.s.ravel()
        self.node_pos = np.searchsorted(bounds, nodes)
        self.eta_pos = int(np.searchsorted(bounds, p.eta))
        self.basis = None
        if np.array_equal(bounds, nodes):
            x = (_leggauss(rule.points_per_panel)[0] + 1.0) / 2.0
            x2 = x * x
            x3 = x2 * x
            self.h = np.diff(nodes)
            self.basis = np.column_stack(
                [2 * x3 - 3 * x2 + 1, x3 - 2 * x2 + x, -2 * x3 + 3 * x2, x3 - x2]
            )
            self.slope_basis = np.column_stack(
                [6 * x2 - 6 * x, 3 * x2 - 4 * x + 1, -6 * x2 + 6 * x, 3 * x2 - 2 * x]
            )

    def sample(self, g: GridFunction) -> tuple[np.ndarray, np.ndarray]:
        """Value and slope of g's Hermite interpolant at the quadrature points."""
        if self.basis is None:
            return interpolate(g, self.s_flat)
        v, d, h = g.values, g.derivs, self.h
        v0, v1, d0, d1 = v[:-1], v[1:], d[:-1], d[1:]
        vals = self.basis @ np.stack([v0, h * d0, v1, h * d1])
        ders = self.slope_basis @ np.stack([v0 / h, d0, v1 / h, d1])
        return vals.ravel(), ders.ravel()

    def apply(self, src_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Integrate the sampled source against G and dG/dt at every node."""
        p, t = self.p, self.nodes
        a, e, den = p.alpha, p.eta, p.gap
        # w * s^k * src: one in-place multiply by s per further moment
        wphi = self.w * src_vals.reshape(self.s.shape)
        cums = []
        for k in range(3):
            if k:
                wphi *= self.s
            cums.append(np.concatenate([[0.0], np.cumsum(np.sum(wphi, axis=0))]))
        # P_k(x) at the node positions and at the seam eta / the right end
        P = [c[self.node_pos] for c in cums]
        Pe = [c[self.eta_pos] for c in cums]
        P1 = [c[-1] for c in cums]

        lo = t <= e
        t2 = t * t
        # value combination: branch polynomials of G grouped by s-interval
        A1 = t + t2 * (a - 1) / (2 * den)
        B0 = t2 / 2
        B1 = t2 * (a - 1) / (2 * den)
        C0 = t2 * a * e / (2 * den)
        C1 = t - t2 / (2 * den)
        D0 = t2 / (2 * den)
        values = np.where(
            lo,
            A1 * P[1] - 0.5 * P[2]
            + B0 * (Pe[0] - P[0]) + B1 * (Pe[1] - P[1])
            + D0 * ((P1[0] - Pe[0]) - (P1[1] - Pe[1])),
            A1 * Pe[1] - 0.5 * Pe[2]
            + C0 * (P[0] - Pe[0]) + C1 * (P[1] - Pe[1]) - 0.5 * (P[2] - Pe[2])
            + D0 * ((P1[0] - P[0]) - (P1[1] - P[1])),
        )
        # derivative combination: branch polynomials of dG/dt
        a1 = 1 + t * (a - 1) / den
        b1 = t * (a - 1) / den
        c0 = t * a * e / den
        c1 = 1 - t / den
        d0 = t / den
        derivs = np.where(
            lo,
            a1 * P[1]
            + t * (Pe[0] - P[0]) + b1 * (Pe[1] - P[1])
            + d0 * ((P1[0] - Pe[0]) - (P1[1] - Pe[1])),
            a1 * Pe[1]
            + c0 * (P[0] - Pe[0]) + c1 * (P[1] - Pe[1])
            + d0 * ((P1[0] - P[0]) - (P1[1] - P[1])),
        )
        return values, derivs


def _sample_state(op: _MomentOperator, g: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """Sample the state at the quadrature points, clamped to y, yp >= 0.

    The source expressions are only defined for nonnegative state arguments;
    interpolation may overshoot below zero by a rounding-level amount, which
    is clamped (and logged) rather than passed through.
    """
    vals, ders = op.sample(g)
    n_neg = np.count_nonzero(vals < 0.0) + np.count_nonzero(ders < 0.0)
    if n_neg:
        logger.debug("clamped %d negative interpolated state samples to 0", n_neg)
        vals, ders = np.maximum(vals, 0.0), np.maximum(ders, 0.0)
    return vals, ders


def apply_operator(
    p: ProblemParams,
    src: Expr,
    state: GridFunction,
    rule: QuadratureRule = QuadratureRule(),
    op: Optional[_MomentOperator] = None,
) -> GridFunction:
    """One half of the coupled sweep: integrate src(s, state, state') against the kernel.

    Returns a grid function on the same node set whose values come from G and
    whose derivatives come from dG/dt.  Output value and derivative at t = 0
    are exactly zero.  ``op`` is a discretisation built beforehand for
    ``(p, state.nodes, rule)``; without it one is built for this call.
    """
    if op is None:
        op = _MomentOperator(p, state.nodes, rule)
    elif not np.array_equal(op.nodes, state.nodes):
        raise ValueError("the moment operator was built for a different node set")
    y, yp = _sample_state(op, state)
    src_vals = src.eval_array(op.s_flat, y, yp)
    values, derivs = op.apply(src_vals)
    return GridFunction(state.nodes, values, derivs)


def apply_T1(
    p: ProblemParams, f: Expr, v: GridFunction, rule: QuadratureRule = QuadratureRule()
) -> GridFunction:
    """First component: new u from the current v through the source f."""
    return apply_operator(p, f, v, rule)


def apply_T2(
    p: ProblemParams, h: Expr, u: GridFunction, rule: QuadratureRule = QuadratureRule()
) -> GridFunction:
    """Second component: new v from the current u through the source h."""
    return apply_operator(p, h, u, rule)
