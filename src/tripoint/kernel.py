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

The four branches are one closed form, ``G = t^2 R(s) - (t-s)_+^2 / 2`` and
``dG/dt = t R1(s) - (t-s)_+``, with R1 = 2R linear in s on each side of eta:
``2(1-alpha*eta) R(s)`` is ``(1-alpha*eta) + s(alpha-1)`` for s <= eta and
``1-s`` above.  :func:`green` and :func:`green_dt` read R and R1 off ``_coefficient_table``
(the t^2 and t coefficients of branches 2 and 4), fitted from the branches as written once
in ``_green_terms``/``_green_dt_terms``.  R(0) = 1/2, R1(0) = 1 and R(1) = R1(1) = 0, so G
and dG/dt vanish exactly at t = 0 (the left boundary conditions), at s = 0 and on s = 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):  # NaN fails both
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


@lru_cache(maxsize=64)
def _coefficient_table(p: ProblemParams, dt: bool = False) -> np.ndarray:
    """The coefficients of the four branches of G (or dG/dt) as a 4 x 3 x 3 table.

    ``C[b, k, j]`` is the coefficient of ``s^k t^j`` in branch b, so branch b
    is ``sum C[b, k, j] s^k t^j``.  Each branch has degree <= 2 in s and in t,
    so its values on the lattice ``{0, 1/2, 1}^2`` fix the table.  Cached, so read-only.
    """
    branches, den = (_green_dt_terms if dt else _green_terms)(p, _LATTICE_T, _LATTICE_S)
    table = (_LATTICE_FIT @ np.array(branches) @ _LATTICE_FIT.T / den).astype(float)
    table.setflags(write=False)
    return table


def _closed_form(p: ProblemParams, t, s, dt: bool):
    # t^2 R(s) (or t R1(s)) and the ramp (t - s)_+ on the broadcast grid; R above
    # eta is expanded about s = 1, where it vanishes, to keep its relative accuracy
    t_arr, s_arr, scalar = _prepare(t, s)
    ramp = np.asarray(t_arr - s_arr)
    np.maximum(ramp, 0.0, out=ramp)
    (lo0, lo1), (hi0, hi1) = _coefficient_table(p, dt)[1::2, :2, 1 if dt else 2]
    r = np.where(s_arr <= p.eta, lo0 + lo1 * s_arr, (hi0 + hi1) + hi1 * (s_arr - 1.0))
    return np.asarray((t_arr if dt else t_arr**2) * r), ramp, scalar


def green(p: ProblemParams, t, s):
    """Green's function G(t, s) = t^2 R(s) - (t - s)_+^2 / 2 on the unit square.

    Accepts scalars or broadcastable arrays; raises ``ValueError`` if any
    argument leaves [0, 1].  Nonnegative everywhere, zero at t = 0, at s = 0
    and on s = 1.  Broadcast inputs such as ``t[:, None]`` and ``s[None, :]``
    keep ``t^2`` and ``R(s)`` at vector size; only the product and the ramp fill the grid.
    """
    out, ramp, scalar = _closed_form(p, t, s, False)
    ramp *= ramp
    ramp *= 0.5
    out -= ramp
    return float(out) if scalar else out


def green_dt(p: ProblemParams, t, s):
    """t-derivative dG/dt(t, s) = t R1(s) - (t - s)_+ of the Green's function.

    Continuous across the seams and nonnegative; zero at t = 0, at s = 0 and
    on s = 1.  Away from the seams it matches a central finite difference of
    :func:`green` in t to rounding.  Broadcasts like :func:`green`.
    """
    out, ramp, scalar = _closed_form(p, t, s, True)
    out -= ramp
    return float(out) if scalar else out


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

