"""Numerical certification of the kernel bounds, cone membership, and growth.

The kernel checks sweep dense grids and grade four inequalities against their
stated envelopes with the absolute slack ``KERNEL_SLACK`` for rounding:

* ``0 <= G(t,s) <= g0(s)``            on [0,1]^2
* ``G(t,s) >= k0*g0(s)``              on [eta/alpha, eta] x [0,1]
* ``0 <= dG/dt(t,s) <= g1(s)``        on [0,1]^2
* ``dG/dt(t,s) >= k1*g1(s)``          on [eta/alpha, eta] x [0,1]

The sweep evaluates the kernels on blocks of rows, a ``(b, 1)`` t-column
against the ``(1, m)`` s-row, grades each kernel block into two block buffers
allocated once per call, and keeps a running worst point per check, so no
array of the full grid is built.  These are grid sweeps, not proofs; a PASS
means no violation beyond the slack was found at the requested resolution.
The growth scan likewise only samples ratio curves along four default rays,
or along directions a library caller chooses; it claims nothing about limits.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .kernel import ProblemParams, _is_count, g0_bound, g1_bound, green, green_dt

__all__ = [
    "KernelCheck",
    "CertificationReport",
    "certify_kernel",
    "ConeMembershipReport",
    "cone_membership",
    "GrowthScan",
    "growth_scan",
]

if TYPE_CHECKING:
    from .expr import Expr
    from .gridfn import GridFunction

MIN_GRID = 11
#: points per row block of the kernel sweep: 40 rows, 256 KiB per array, at grid 801
_BLOCK_POINTS = 1 << 15
#: numpy's ufunc buffer size during the sweep, the smallest it accepts (see certify_kernel)
_ITER_BUFFER = 16
#: uniform t samples on [0, 1] of a growth scan
_SCAN_T_POINTS = 101
#: absolute slacks for rounding: of the kernel inequalities, and of the cone conditions
KERNEL_SLACK = 1e-12
CONE_SLACK = 1e-9


@dataclass(frozen=True)
class KernelCheck:
    name: str
    description: str
    passed: bool
    worst_violation: float
    worst_t: float
    worst_s: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CertificationReport:
    grid_n: int
    slack: float
    checks: tuple[KernelCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "grid_n": self.grid_n,
            "slack": self.slack,
            "all_passed": self.all_passed,
            "checks": [c.to_dict() for c in self.checks],
        }


#: the four graded inequalities, in report order
_CHECKS = (
    ("green_envelope", "0 <= G(t,s) <= g0(s) on [0,1]^2"),
    ("green_cone_lower", "G(t,s) >= k0*g0(s) on [eta/alpha,eta]x[0,1]"),
    ("green_dt_envelope", "0 <= dG/dt(t,s) <= g1(s) on [0,1]^2"),
    ("green_dt_cone_lower", "dG/dt(t,s) >= k1*g1(s) on [eta/alpha,eta]x[0,1]"),
)


def certify_kernel(
    p: ProblemParams,
    grid_n: int = 401,
    green_fn: Callable = green,
    green_dt_fn: Callable = green_dt,
) -> CertificationReport:
    """Grade the four kernel inequalities on grid_n x grid_n sweeps.

    ``grid_n`` is a count, read as :class:`~tripoint.solver.SolveConfig` reads
    one: an integer or an integral float, never a boolean or a string.

    The t-grid is swept in blocks of ``b`` rows, about ``_BLOCK_POINTS``
    points each, so no array of the full grid is built.  Two block buffers are
    allocated once per call, and every check is graded into them as soon as
    its kernel returns.  Each check keeps a running worst ``(violation, t, s)``;
    a later block replaces it only when strictly larger, and a NaN, once
    found, is never replaced.  That is the point ``np.argmax`` picks on the
    full grid: the first maximum in row-major order, or the first NaN.

    ``green_fn``/``green_dt_fn`` exist so the harness itself can be exercised
    against a deliberately corrupted kernel.  They are called with
    broadcastable ``(b, 1)`` t-columns and a ``(1, m)`` s-row and must return
    the broadcast ``(b, m)`` block, as :func:`~tripoint.kernel.green` does.
    Their returns are only read, so they may be cached or read-only.  They
    run with numpy's ufunc buffer at ``_ITER_BUFFER`` elements; the caller's
    size is back when ``certify_kernel`` returns or raises.
    """
    if not _is_count(grid_n):
        raise ValueError(f"grid_n must be an integer, got {grid_n!r}")
    if grid_n < MIN_GRID:
        raise ValueError(f"grid too coarse: grid_n must be >= {MIN_GRID}")
    grid_n = int(grid_n)
    tg = sg = np.linspace(0.0, 1.0, grid_n)
    tw = np.linspace(p.eta / p.alpha, p.eta, grid_n)
    S = sg[None, :]
    g0 = g0_bound(p, S)
    g1 = g1_bound(p, S)
    # per check, in report order: kernel, t-grid, envelope, and whether the
    # envelope bounds the kernel above (with 0 below) or is a cone lower bound
    plan = ((green_fn, tg, g0, True), (green_fn, tw, p.k0 * g0, False),
            (green_dt_fn, tg, g1, True), (green_dt_fn, tw, p.k1 * g1, False))
    rows = max(1, _BLOCK_POINTS // grid_n)
    buf = np.empty((2, min(rows, grid_n), grid_n))
    worst = [None] * 4
    # With its default 8192-element buffer, numpy's ufunc iterator grows the inner
    # loop of a (b, 1)-by-(1, m) broadcast across rows and copies every operand
    # through the buffer: a (40, 801) broadcast subtract takes ~4x as long as at
    # 16 elements, in the kernels and in the grading alike, with the same
    # arithmetic.  The caller's size comes back on return and on any exception.
    old = np.setbufsize(_ITER_BUFFER)
    try:
        for lo in range(0, grid_n, rows):
            a, b = buf[:, :min(rows, grid_n - lo)]
            for c, (kernel, ts, env, upper) in enumerate(plan):
                K = kernel(p, ts[lo:lo + rows, None], S)
                if upper:  # max(-K, K - env), in that operand order for NaNs and zeros
                    np.subtract(K, env, out=a)
                    violation = np.maximum(np.negative(K, out=b), a, out=b)
                else:
                    violation = np.subtract(env, K, out=a)
                del K  # freed before the next kernel call: one output alive at a time
                k = int(np.argmax(violation))
                v = float(violation.flat[k])
                w = worst[c]
                if w is None or not math.isnan(w[0]) and (math.isnan(v) or v > w[0]):
                    i, j = np.unravel_index(k, violation.shape)
                    worst[c] = (v, float(ts[lo + i]), float(sg[j]))
    finally:
        np.setbufsize(old)
    checks = tuple(
        KernelCheck(name, description, v <= KERNEL_SLACK, v, vt, vs)
        for (name, description), (v, vt, vs) in zip(_CHECKS, worst)
    )
    return CertificationReport(grid_n=grid_n, slack=KERNEL_SLACK, checks=checks)


@dataclass(frozen=True)
class ConeMembershipReport:
    member: bool
    nonneg_ok: bool
    value_lower_ok: bool
    deriv_lower_ok: bool
    value_margin: float
    deriv_margin: float
    k0: float
    k1: float

    def to_dict(self) -> dict:
        return asdict(self)


def cone_membership(p: ProblemParams, g: GridFunction) -> ConeMembershipReport:
    """Check the three cone conditions on the node data of g.

    Requires the node set to contain eta/alpha and eta, so the window
    [eta/alpha, eta] is read at exact nodes.  The conditions are
    ``g >= -CONE_SLACK`` everywhere, ``min_window g >= k0 * max|g| - CONE_SLACK``
    and ``min_window g' >= k1 * max|g'| - CONE_SLACK``.
    """
    nodes = g.nodes
    lo, hi = p.eta / p.alpha, p.eta
    # the nodes increase strictly from 0 to 1, so each end's nearest node is a
    # neighbour of its insertion point, and the window is one slice
    i, j = nodes.searchsorted((lo, hi))
    if (min(lo - nodes[i - 1], nodes[i] - lo) > 1e-12
            or min(hi - nodes[j - 1], nodes[j] - hi) > 1e-12):
        raise ValueError("node set must contain eta/alpha and eta")
    window = slice(nodes.searchsorted(lo - 1e-12), nodes.searchsorted(hi + 1e-12, side="right"))
    values, derivs = g.values, g.derivs
    nonneg_ok = bool(values.min() >= -CONE_SLACK)
    # in Python floats: the same roundings as numpy scalars, without their overhead
    value_margin = float(values[window].min()) - p.k0 * float(np.abs(values).max())
    deriv_margin = float(derivs[window].min()) - p.k1 * float(np.abs(derivs).max())
    value_lower_ok = value_margin >= -CONE_SLACK
    deriv_lower_ok = deriv_margin >= -CONE_SLACK
    return ConeMembershipReport(
        member=nonneg_ok and value_lower_ok and deriv_lower_ok,
        nonneg_ok=nonneg_ok,
        value_lower_ok=value_lower_ok,
        deriv_lower_ok=deriv_lower_ok,
        value_margin=value_margin,
        deriv_margin=deriv_margin,
        k0=p.k0,
        k1=p.k1,
    )


Direction = tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]


def _default_directions() -> list[Direction]:
    """(phi, psi) profiles: (1,1), (1,0), (0,1), (t,1).

    The degenerate profiles keep one of the two state amplitudes pinned while
    the other grows, probing growth that depends on only one norm.
    """
    one = lambda t: np.ones_like(t)
    zero = lambda t: np.zeros_like(t)
    ident = lambda t: np.asarray(t, dtype=float)
    return [(one, one), (one, zero), (zero, one), (ident, one)]


@dataclass(frozen=True)
class GrowthScan:
    scales: np.ndarray
    ratios: np.ndarray

    def to_dict(self) -> dict:
        return {"scales": self.scales.tolist(), "ratios": self.ratios.tolist()}


def growth_scan(
    e: Expr,
    directions: Sequence[Direction] | None = None,
    scales: np.ndarray | None = None,
) -> GrowthScan:
    """Sample ratio(c) = max over t and directions of e(t, c*phi, c*psi)/(c*(|phi|+|psi|)).

    This is a diagnostic: it plots how the expression compares to the sum of
    its state arguments along the chosen rays.  Samples where |phi|+|psi| = 0
    cannot define a ratio and are skipped.
    """
    from .expr import EvalError, _first_faulting_sample  # only a scan evaluates sources

    dirs = list(directions) if directions is not None else _default_directions()
    if not dirs:
        raise ValueError("directions must not be empty")
    sc = np.asarray(scales if scales is not None else np.geomspace(1e-6, 1e6, 25), dtype=float)
    # finiteness first: a NaN fails no comparison, and np.diff of infinities warns
    if sc.size == 0 or not np.isfinite(sc).all() or np.any(sc <= 0) or np.any(np.diff(sc) <= 0):
        raise ValueError("scales must be positive, finite and strictly increasing")
    tg = np.linspace(0.0, 1.0, _SCAN_T_POINTS)
    profiles = []
    for phi, psi in dirs:
        ph = np.broadcast_to(np.asarray(phi(tg), dtype=float), tg.shape)
        ps = np.broadcast_to(np.asarray(psi(tg), dtype=float), tg.shape)
        if np.any(ph < 0) or np.any(ps < 0) or not (ph + ps > 0).any():
            raise ValueError("directions must be nonnegative and not identically zero")
        profiles.append((ph, ps))
    ratios = np.empty_like(sc)
    for i, c in enumerate(sc):
        best = -np.inf
        for ph, ps in profiles:
            ok = ph + ps > 0.0
            denom = c * (np.abs(ph[ok]) + np.abs(ps[ok]))
            try:
                num = e.eval_array(tg[ok], c * ph[ok], c * ps[ok])
            except EvalError as err:
                t_bad = _first_faulting_sample(e, tg[ok], c * ph[ok], c * ps[ok])[0]
                raise EvalError(f"{err} at scale c={c:g}, t={t_bad:g}") from err
            best = max(best, float(np.max(num / denom)))
        ratios[i] = best
    return GrowthScan(scales=sc, ratios=ratios)
