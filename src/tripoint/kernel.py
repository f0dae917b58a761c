"""Green's kernel of the third-order three-point boundary value operator.

The linear problem

    -u'''(t) = q(t),   u(0) = u'(0) = 0,   u'(1) = alpha * u'(eta)

on [0, 1] is inverted by ``u(t) = integral_0^1 G(t, s) q(s) ds``.  This module
evaluates the kernel ``G``, its t-derivative, the comparison envelopes ``g0``
and ``g1``, and the cone constants ``k0``, ``k1`` used by the positivity
checks in :mod:`tripoint.verify`.

``G`` is piecewise polynomial in ``s`` with seams at ``s = t`` and ``s = eta``;
the four branches (in selection order) are::

    2*(1-alpha*eta) * G(t,s) = (2ts - s^2)(1-alpha*eta) + t^2 s (alpha-1),   s <= min(eta, t)
                               t^2 (1-alpha*eta) + t^2 s (alpha-1),          t <= s <= eta
                               (2ts - s^2)(1-alpha*eta) + t^2 (alpha*eta-s), eta <= s <= t
                               t^2 (1-s),                                    max(eta, t) <= s

and the t-derivative has the same branch structure with::

    (1-alpha*eta) * dG/dt(t,s) = s(1-alpha*eta) + ts(alpha-1)
                                 t(1-alpha*eta) + ts(alpha-1)
                                 s(1-alpha*eta) + t(alpha*eta - s)
                                 t(1-s)

At t = 0 every s > 0 selects branch 2 or 4, which carry a factor t or t^2,
and branch 1 covers only s = 0, where it vanishes; so G(0, s) = dG/dt(0, s)
= 0: the left boundary conditions are built into the kernel.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ProblemParams",
    "green",
    "green_dt",
    "g0_bound",
    "g1_bound",
]

#: minimum admissible gap 1 - alpha*eta; smaller gaps amplify rounding in the
#: 1/(1-alpha*eta) prefactors beyond what the verification slacks absorb
MIN_GAP = 1e-9


@dataclass(frozen=True)
class ProblemParams:
    """Validated parameter pair (alpha, eta) with derived cone constants.

    Requires ``0 < eta < 1`` and ``1 < alpha < 1/eta`` (with margin
    ``1 - alpha*eta >= MIN_GAP``).  The derived constants are

    * ``k0 = eta^2 * min(alpha-1, 1) / (2 alpha^2 (1+alpha))``
    * ``k1 = min(alpha*eta, eta)``

    both strictly inside (0, 1).  Instances are immutable.
    """

    alpha: float
    eta: float
    k0: float = field(init=False, repr=False)
    k1: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        a, e = float(self.alpha), float(self.eta)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "eta", e)
        if not np.isfinite(a) or not np.isfinite(e):
            raise ValueError("alpha and eta must be finite")
        if not 0.0 < e < 1.0:
            raise ValueError(f"eta must lie strictly inside (0, 1), got eta={e!r}")
        if a <= 1.0 or 1.0 - a * e < MIN_GAP:
            raise ValueError(
                "parameters must satisfy 1 < alpha < 1/eta "
                f"(with 1 - alpha*eta >= {MIN_GAP:g}); got alpha={a!r}, eta={e!r}, "
                f"alpha*eta={a * e!r}"
            )
        object.__setattr__(self, "k0", e * e * min(a - 1.0, 1.0) / (2.0 * a * a * (1.0 + a)))
        object.__setattr__(self, "k1", min(a * e, e))

    @property
    def gap(self) -> float:
        """The positive quantity 1 - alpha*eta."""
        return 1.0 - self.alpha * self.eta


def _check_unit(x: np.ndarray, name: str) -> None:
    if x.size and (not np.all(np.isfinite(x)) or x.min() < 0.0 or x.max() > 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")


def _prepare(t, s) -> tuple[np.ndarray, np.ndarray, bool]:
    t_arr = np.asarray(t, dtype=float)
    s_arr = np.asarray(s, dtype=float)
    _check_unit(t_arr, "t")
    _check_unit(s_arr, "s")
    return t_arr, s_arr, (t_arr.ndim == 0 and s_arr.ndim == 0)


def _green_terms(p: ProblemParams, t, s) -> tuple[tuple, float]:
    """The four branches of G at (t, s) in branch order, undivided, and their divisor."""
    den = p.gap
    t2 = t**2
    cross = 2 * t * s
    cross -= s**2
    cross *= den  # branches 1 and 3
    rise = t2 * s
    rise *= p.alpha - 1  # branches 1 and 2
    b1 = cross + rise
    rise += t2 * den
    cross += t2 * (p.alpha * p.eta - s)
    return (b1, rise, cross, t2 * (1 - s)), 2 * den


def _green_dt_terms(p: ProblemParams, t, s) -> tuple[tuple, float]:
    """The four branches of dG/dt at (t, s), as :func:`_green_terms`."""
    den = p.gap
    rise = t * s
    rise *= p.alpha - 1  # branches 1 and 2
    sden = s * den  # branches 1 and 3
    b1 = sden + rise
    rise += t * den
    return (b1, rise, sden + t * (p.alpha * p.eta - s), t * (1 - s)), den


#: inverse of the Vandermonde matrix of the points 0, 1/2, 1: it maps a
#: quadratic's values there to its coefficients of x^0, x^1, x^2
_LATTICE_FIT = np.array([[1.0, 0.0, 0.0], [-3.0, 4.0, -1.0], [2.0, -4.0, 2.0]])
#: the lattice {0, 1/2, 1}^2 as s and t grids, in extended precision where the
#: platform has it, so that the table comes out rounded once
_LATTICE_S, _LATTICE_T = np.meshgrid(*[np.array([0.0, 0.5, 1.0], dtype=np.longdouble)] * 2,
                                     indexing="ij")


def _coefficient_table(p: ProblemParams, dt: bool = False) -> np.ndarray:
    """The coefficients of the four branches of G (or dG/dt) as a 4 x 3 x 3 table.

    ``C[b, k, j]`` is the coefficient of ``s^k t^j`` in branch b, so branch b
    is ``sum C[b, k, j] s^k t^j``.  Each branch has degree <= 2 in s and in t,
    so its values on the lattice ``{0, 1/2, 1}^2`` fix the table.
    """
    branches, den = (_green_dt_terms if dt else _green_terms)(p, _LATTICE_T, _LATTICE_S)
    return (_LATTICE_FIT @ np.array(branches) @ _LATTICE_FIT.T / den).astype(float)


def _kernel(p: ProblemParams, t, s, terms):
    # where(s <= eta, where(s <= t, b1, b2), where(s <= t, b3, b4)), written
    # into the branch temporaries: the first region in branch order that
    # holds (t, s) wins, and at the seams adjacent branches agree
    t_arr, s_arr, scalar = _prepare(t, s)
    (b1, b2, b3, b4), den = terms(p, t_arr, s_arr)
    b2, b4 = np.asarray(b2), np.asarray(b4)  # scalar inputs give numpy scalars
    lo = s_arr <= t_arr
    np.copyto(b2, b1, where=lo)
    np.copyto(b4, b3, where=lo)
    np.copyto(b4, b2, where=s_arr <= p.eta)
    b4 /= den
    return float(b4) if scalar else b4


def green(p: ProblemParams, t, s):
    """Green's function G(t, s) on the unit square.

    Accepts scalars or broadcastable arrays; raises ``ValueError`` if any
    argument leaves [0, 1].  Nonnegative everywhere, zero at t = 0 and on
    s = 1 for t <= s.  Broadcast inputs such as ``t[:, None]`` and
    ``s[None, :]`` keep the t-only and s-only subterms at vector size; only
    the terms that mix t and s are evaluated on the full grid.
    """
    return _kernel(p, t, s, _green_terms)


def green_dt(p: ProblemParams, t, s):
    """t-derivative of the Green's function on the unit square.

    Continuous across the branch seams and nonnegative; zero at t = 0 and at
    s = 1 for t <= s.  Away from the seams it matches a central finite
    difference of :func:`green` in t to rounding (G is quadratic in t per
    branch).  Broadcasts like :func:`green`.
    """
    return _kernel(p, t, s, _green_dt_terms)


def g0_bound(p: ProblemParams, s):
    """Envelope g0(s) = (1+alpha)/(1-alpha*eta) * s(1-s), an upper bound for G."""
    s_arr = np.asarray(s, dtype=float)
    _check_unit(s_arr, "s")
    out = (1.0 + p.alpha) / p.gap * s_arr * (1.0 - s_arr)
    return float(out) if s_arr.ndim == 0 else out


def g1_bound(p: ProblemParams, s):
    """Envelope g1(s) = (1-s)/(1-alpha*eta), an upper bound for dG/dt."""
    s_arr = np.asarray(s, dtype=float)
    _check_unit(s_arr, "s")
    out = (1.0 - s_arr) / p.gap
    return float(out) if s_arr.ndim == 0 else out

