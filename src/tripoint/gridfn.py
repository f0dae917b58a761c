"""C^1 grid functions on [0, 1]: node values plus node derivatives.

A :class:`GridFunction` stores samples of a continuously differentiable
function and of its first derivative on a strictly increasing node set that
starts at 0 and ends at 1.  Point evaluation between nodes uses the piecewise
cubic Hermite interpolant built from both arrays, so stored data is
reproduced exactly at the nodes and quadratic polynomials are reproduced
exactly everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import ProblemParams

__all__ = [
    "GridFunction",
    "interpolate",
    "c1_norm",
    "chebyshev_nodes",
    "solver_nodes",
    "lincomb",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GridFunction:
    """Immutable (nodes, values, derivs) triple representing a C^1 function."""

    nodes: np.ndarray
    values: np.ndarray
    derivs: np.ndarray

    def __post_init__(self) -> None:
        nodes = _frozen(self.nodes)
        values = _frozen(self.values)
        derivs = _frozen(self.derivs)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need a one-dimensional node set with at least 2 nodes")
        if values.shape != nodes.shape or derivs.shape != nodes.shape:
            raise ValueError("values and derivs must match the node set in shape")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(values)) and np.all(np.isfinite(derivs))):
            raise ValueError("nodes, values and derivs must be finite")
        if nodes[0] != 0.0 or nodes[-1] != 1.0 or np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must increase strictly from 0.0 to 1.0")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivs", derivs)

    @classmethod
    def zeros(cls, nodes) -> "GridFunction":
        nodes = np.asarray(nodes, dtype=float)
        z = np.zeros_like(nodes)
        return cls(nodes, z, z)

    def __call__(self, t):
        return interpolate(self, t)


def interpolate(g: GridFunction, t):
    """Evaluate (value, derivative) of the cubic Hermite interpolant at t.

    t may be a scalar or an array inside [0, 1]; node points return the
    stored data exactly.
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    if t_arr.size and (not np.all(np.isfinite(t_arr)) or t_arr.min() < 0.0 or t_arr.max() > 1.0):
        raise ValueError("t must lie in [0, 1]")
    nodes, vals, ders = g.nodes, g.values, g.derivs
    i = np.clip(np.searchsorted(nodes, t_arr, side="right"), 1, nodes.size - 1)
    i0 = i - 1
    h = nodes[i] - nodes[i0]
    x = (t_arr - nodes[i0]) / h
    x2 = x * x
    x3 = x2 * x
    value = (
        (2 * x3 - 3 * x2 + 1) * vals[i0]
        + (x3 - 2 * x2 + x) * h * ders[i0]
        + (-2 * x3 + 3 * x2) * vals[i]
        + (x3 - x2) * h * ders[i]
    )
    deriv = (
        (6 * x2 - 6 * x) / h * vals[i0]
        + (3 * x2 - 4 * x + 1) * ders[i0]
        + (-6 * x2 + 6 * x) / h * vals[i]
        + (3 * x2 - 2 * x) * ders[i]
    )
    if scalar:
        return float(value), float(deriv)
    return value, deriv


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


def chebyshev_nodes(n: int) -> np.ndarray:
    """n Chebyshev extrema mapped to [0, 1], endpoints exact."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    k = np.arange(n)
    x = (1.0 - np.cos(np.pi * k / (n - 1))) / 2.0
    x[0], x[-1] = 0.0, 1.0
    return x


def solver_nodes(n: int, p: ProblemParams) -> np.ndarray:
    """Chebyshev nodes augmented with eta/alpha and eta.

    The two extra points anchor the window [eta/alpha, eta] used by the cone
    checks, so those checks read exact node data.
    """
    x = chebyshev_nodes(n)
    for extra in (p.eta / p.alpha, p.eta):
        i = int(np.argmin(np.abs(x - extra)))
        if abs(x[i] - extra) <= 1e-12:
            x[i] = extra  # snap a rounding-level neighbour onto the exact point
        else:
            x = np.sort(np.append(x, extra))
    return x
