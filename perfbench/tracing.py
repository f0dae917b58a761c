"""Outside-in spans around the calls into tripoint's modules.

A :class:`Tracer` replaces module and class attributes of the program, such
as ``tripoint.solver.apply_operator`` or ``Expr.eval_array``, with wrappers
that record a span per call: name, start, end, parent span and the number of
points the call worked on.  Nothing inside ``src/`` changes; each wrapper
sits where one module looks up another, so a span covers exactly one call
from a caller module into a callee module.

A span's name is ``<layer>.<function>``, where the layer is the package
module that does the work.  A layer's self time is the duration of its spans
minus the time covered by their child spans.

This module imports only the standard library, so the traced CLI child can
load it before timing its own imports.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _arg_points(i: int):
    return lambda args, kwargs: _size(args[i])


def _grid_points(args, kwargs) -> int:
    return max(_size(args[1]), _size(args[2]))


def _panel_points(args, kwargs) -> int:
    return (len(args[0]) - 1) * int(args[1])


#: (module, attribute path, span name, points counter).  One callee function
#: appears once per caller module that imported it by name.
PATCHES = (
    ("tripoint.solver", "solve", "solver.solve", None),
    ("tripoint.cli", "solve", "solver.solve", None),
    ("tripoint.solver", "residual", "solver.residual", None),
    ("tripoint.solver", "bc_defect", "solver.bc_defect", None),
    ("tripoint.solver", "apply_operator", "integral_op.apply_operator", None),
    ("tripoint.solver", "solver_nodes", "gridfn.solver_nodes", None),
    ("tripoint.solver", "interpolate", "gridfn.interpolate", _arg_points(1)),
    ("tripoint.integral_op", "interpolate", "gridfn.interpolate", _arg_points(1)),
    ("tripoint.gridfn", "GridFunction.__post_init__", "gridfn.construct", None),
    ("tripoint.integral_op", "panel_points", "quadrature.panel_points", _panel_points),
    ("tripoint.expr", "Expr.eval_array", "expr.eval_array", _arg_points(1)),
    ("tripoint.expr", "parse", "expr.parse", None),
    ("tripoint.cli", "parse", "expr.parse", None),
    ("tripoint.verify", "cone_membership", "verify.cone_membership", None),
    ("tripoint.verify", "certify_kernel", "verify.certify_kernel", None),
    ("tripoint.verify", "g0_bound", "kernel.bound", None),
    ("tripoint.verify", "g1_bound", "kernel.bound", None),
    ("tripoint.kernel", "green", "kernel.green", _grid_points),
    ("tripoint.kernel", "green_dt", "kernel.green_dt", _grid_points),
)


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent, points]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str, points: int = 0) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, points])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def adopt(self, spans: list, parent: int) -> None:
        """Append spans recorded elsewhere, hanging their roots under ``parent``."""
        base = len(self.spans)
        for name, start, end, par, points in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par, points])

    def wrap(self, fn, name: str, points=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name, points(args, kwargs) if points else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def patch(self, owner, attr: str, name: str, points=None) -> None:
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(orig, name, points))

    def install(self) -> None:
        """Wrap every entry of :data:`PATCHES` in the imported program."""
        for module, path, name, points in PATCHES:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self.patch(owner, attr, name, points)
        # the CLI calls certify_kernel with the kernels bound as defaults at
        # definition time; pass the wrapped kernels so their spans appear
        cli = importlib.import_module("tripoint.cli")
        verify = importlib.import_module("tripoint.verify")
        kernel = importlib.import_module("tripoint.kernel")
        self._undo.append((cli, "certify_kernel", cli.certify_kernel))
        cli.certify_kernel = lambda p, **kw: verify.certify_kernel(
            p, green_fn=kernel.green, green_dt_fn=kernel.green_dt, **kw
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def summary(self) -> "Summary":
        return Summary(self.spans)


class Summary:
    """Per-span-name and per-layer totals of a finished trace."""

    def __init__(self, spans: list) -> None:
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, sp in enumerate(spans):
            if sp[2] is None:
                raise RuntimeError(f"span {sp[0]} never closed")
            self.children[sp[3]].append(i)
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.points: dict[str, int] = defaultdict(int)
        self.layer_self: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, points) in enumerate(spans):
            own = (end - start) - sum(spans[c][2] - spans[c][1] for c in self.children[i])
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_s[name] += own
            self.points[name] += points
            self.layer_self[name.split(".")[0]] += own

    def sweep_s(self) -> float:
        """Time from each solve's start to the end of its last operator call."""
        out = 0.0
        for i, sp in enumerate(self.spans):
            if sp[0] == "solver.solve":
                ends = [self.spans[c][2] for c in self.children[i]
                        if self.spans[c][0] == "integral_op.apply_operator"]
                out += (max(ends) - sp[1]) if ends else 0.0
        return out
