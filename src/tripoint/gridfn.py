"""C^1 grid functions on [0, 1]: node values plus node derivatives.

A :class:`GridFunction` stores samples of a continuously differentiable
function and of its first derivative on a strictly increasing node set that
starts at 0 and ends at 1.  The three arrays are the rows of one read-only
``(3, n)`` block, copied and checked once at construction.  Point
evaluation between nodes uses the piecewise cubic Hermite interpolant built
from both arrays, so stored data is reproduced exactly at the nodes and
quadratic polynomials are reproduced exactly everywhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import ProblemParams

__all__ = ["GridFunction", "interpolate", "solver_nodes"]


@dataclass(frozen=True)
class GridFunction:
    """Immutable (nodes, values, derivs) triple representing a C^1 function.

    The three fields are the rows of one read-only ``(3, n)`` float block
    that holds a copy of the inputs, so a grid function never aliases them.
    """

    nodes: np.ndarray
    values: np.ndarray
    derivs: np.ndarray

    def __post_init__(self) -> None:
        shape = np.shape(self.nodes)
        if len(shape) != 1 or shape[0] < 2:
            raise ValueError("need a one-dimensional node set with at least 2 nodes")
        if np.shape(self.values) != shape or np.shape(self.derivs) != shape:
            raise ValueError("values and derivs must match the node set in shape")
        block = np.array((self.nodes, self.values, self.derivs), dtype=float)
        if not np.isfinite(block).all():
            raise ValueError("nodes, values and derivs must be finite")
        nodes = block[0]
        if nodes[0] != 0.0 or nodes[-1] != 1.0 or (nodes[1:] <= nodes[:-1]).any():
            raise ValueError("nodes must increase strictly from 0.0 to 1.0")
        block.setflags(write=False)
        for name, row in zip(("nodes", "values", "derivs"), block):
            object.__setattr__(self, name, row)

    @classmethod
    def zeros(cls, nodes) -> "GridFunction":
        nodes = np.asarray(nodes, dtype=float)
        z = np.zeros_like(nodes)
        return cls(nodes, z, z)


def _hermite_basis(x) -> tuple[tuple, tuple]:
    """Cubic Hermite weights at the reference coordinates x in [0, 1].

    Returns the four value weights and the four slope weights, each in the
    order (v_j, d_j, v_{j+1}, d_{j+1}).  Value weights multiply
    (v_j, h d_j, v_{j+1}, h d_{j+1}) and slope weights multiply
    (v_j / h, d_j, v_{j+1} / h, d_{j+1}) on an interval of width h.
    """
    x2 = x * x
    x3 = x2 * x
    return (
        (2 * x3 - 3 * x2 + 1, x3 - 2 * x2 + x, -2 * x3 + 3 * x2, x3 - x2),
        (6 * x2 - 6 * x, 3 * x2 - 4 * x + 1, -6 * x2 + 6 * x, 3 * x2 - 2 * x),
    )


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
    (b0, b1, b2, b3), (s0, s1, s2, s3) = _hermite_basis((t_arr - nodes[i0]) / h)
    value = b0 * vals[i0] + b1 * h * ders[i0] + b2 * vals[i] + b3 * h * ders[i]
    deriv = s0 / h * vals[i0] + s1 * ders[i0] + s2 / h * vals[i] + s3 * ders[i]
    if scalar:
        return float(value), float(deriv)
    return value, deriv


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
