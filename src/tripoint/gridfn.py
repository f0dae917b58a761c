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
from functools import lru_cache

import numpy as np

from .kernel import ProblemParams, _check_unit

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
        nodes, values, derivs = self.nodes, self.values, self.derivs
        # an ndarray's own shape; np.shape only for lists, tuples and scalars
        shape = nodes.shape if type(nodes) is np.ndarray else np.shape(nodes)
        if len(shape) != 1 or shape[0] < 2:
            raise ValueError("need a one-dimensional node set with at least 2 nodes")
        if ((values.shape if type(values) is np.ndarray else np.shape(values)) != shape
                or (derivs.shape if type(derivs) is np.ndarray else np.shape(derivs)) != shape):
            raise ValueError("values and derivs must match the node set in shape")
        block = np.array((nodes, values, derivs), dtype=float)
        if not np.isfinite(block).all():
            raise ValueError("nodes, values and derivs must be finite")
        block.setflags(write=False)  # before the rows are taken: views keep their flags
        nodes, values, derivs = block
        if nodes[0] != 0.0 or nodes[-1] != 1.0 or (nodes[1:] <= nodes[:-1]).any():
            raise ValueError("nodes must increase strictly from 0.0 to 1.0")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "derivs", derivs)

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


def _sampler(nodes: np.ndarray, t):
    """The cubic Hermite interpolant on ``nodes`` at the points t, for any node data.

    Checks t, finds each point's panel and weighs its Hermite basis once.
    The returned ``apply(values, derivs)`` gives the (value, derivative)
    arrays, shaped like t, of the interpolant of one function's node data.
    """
    t_arr = np.asarray(t, dtype=float)
    _check_unit(t_arr, "t")
    i = np.clip(np.searchsorted(nodes, t_arr, side="right"), 1, nodes.size - 1)
    i0 = i - 1
    h = nodes[i] - nodes[i0]
    (b0, b1, b2, b3), (s0, s1, s2, s3) = _hermite_basis((t_arr - nodes[i0]) / h)
    b1, b3, s0, s2 = b1 * h, b3 * h, s0 / h, s2 / h

    def apply(values: np.ndarray, derivs: np.ndarray):
        v0, d0, v1, d1 = values[i0], derivs[i0], values[i], derivs[i]
        value, deriv = b0 * v0, s0 * v0
        for bk, sk, x in ((b1, s1, d0), (b2, s2, v1), (b3, s3, d1)):
            value += bk * x
            deriv += sk * x
        return value, deriv

    return apply


def interpolate(g: GridFunction, t):
    """Evaluate (value, derivative) of the cubic Hermite interpolant at t.

    t may be a scalar or an array inside [0, 1]; node points return the
    stored data exactly.
    """
    value, deriv = _sampler(g.nodes, t)(g.values, g.derivs)
    return (float(value), float(deriv)) if np.ndim(t) == 0 else (value, deriv)


@lru_cache(maxsize=16)
def chebyshev_nodes(n: int) -> np.ndarray:
    """n Chebyshev extrema mapped to [0, 1], endpoints exact.

    The array is cached per ``n`` and read-only; a caller that edits the
    nodes works on a copy, as :func:`solver_nodes` does.
    """
    if n < 2:
        raise ValueError("need at least 2 nodes")
    k = np.arange(n)
    x = (1.0 - np.cos(np.pi * k / (n - 1))) / 2.0
    x[0], x[-1] = 0.0, 1.0
    x.setflags(write=False)
    return x


def solver_nodes(n: int, p: ProblemParams) -> np.ndarray:
    """Chebyshev nodes augmented with eta/alpha and eta.

    The two extra points anchor the window [eta/alpha, eta] used by the cone
    checks, so those checks read exact node data.  The result is a fresh
    writable array, never the cached Chebyshev nodes.
    """
    x = chebyshev_nodes(n).copy()
    for extra in (p.eta / p.alpha, p.eta):
        k = int(x.searchsorted(extra))  # x[k - 1] < extra <= x[k]
        i = k - 1 if extra - x[k - 1] <= x[k] - extra else k  # nearest, ties low
        if abs(x[i] - extra) <= 1e-12:
            x[i] = extra  # snap a rounding-level neighbour onto the exact point
        else:
            x = np.concatenate((x[:k], [extra], x[k:]))
    return x
