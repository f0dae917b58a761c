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
``1-s`` above.  Those three coefficients, read through ``_r_coefficients``, are
the whole kernel: :func:`green` and :func:`green_dt` evaluate the closed forms, and
the moment operator contracts ``integral R(s) src(s) ds`` with them.  R(0) = 1/2,
R1(0) = 1 and R(1) = R1(1) = 0, so G and dG/dt vanish exactly at t = 0 (the left
boundary conditions), at s = 0 and on s = 1.
"""
from __future__ import annotations

import numbers
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

    Requires numbers, read as :func:`_is_real` reads them (never a boolean or
    a string), with ``0 < eta < 1`` and ``1 < alpha < 1/eta`` (with margin
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
        for name in ("alpha", "eta"):
            if not _is_real(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
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


def _is_real(value) -> bool:
    """A number is a real, never a boolean, as the CLI reads it."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_count(value) -> bool:
    """A count is an integral real: an integer, or an integral float such as 801.0."""
    return _is_real(value) and (isinstance(value, numbers.Integral) or float(value).is_integer())


def _prepare(t, s) -> tuple[np.ndarray, np.ndarray, bool]:
    t_arr = np.asarray(t, dtype=float)
    s_arr = np.asarray(s, dtype=float)
    _check_unit(t_arr, "t")
    _check_unit(s_arr, "s")
    return t_arr, s_arr, (t_arr.ndim == 0 and s_arr.ndim == 0)


def _r_coefficients(p: ProblemParams) -> tuple[float, float, float]:
    """R's coefficients ``(lo0, lo1, hi)``: R(s) = lo0 + lo1*s for s <= eta, hi*(1-s) above."""
    den = 2.0 * p.gap
    return 0.5, (p.alpha - 1.0) / den, 1.0 / den


def _closed_form(p: ProblemParams, t, s, dt: bool):
    # t^2 R(s) (or t R1(s), R1 = 2R) and the ramp (t - s)_+ on the broadcast
    # grid; R above eta is hi*(1-s), so it vanishes exactly on s = 1
    t_arr, s_arr, scalar = _prepare(t, s)
    ramp = np.asarray(t_arr - s_arr)
    np.maximum(ramp, 0.0, out=ramp)
    lo0, lo1, hi = (2.0 * c if dt else c for c in _r_coefficients(p))
    r = np.where(s_arr <= p.eta, lo0 + lo1 * s_arr, hi * (1.0 - s_arr))
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

