#!/usr/bin/env python3
"""Benchmark for tripoint: one seeded workload per run, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload example-8193 --seed 1 --seconds 25 --trace 0

``--trace 0`` times operations in a closed loop for ``--seconds`` and prints
the end-to-end metrics.  Times are rescaled to a reference host speed by a
calibration probe (see :class:`Clock`); the raw values are in the details.  ``--trace 1`` alternates untraced and traced passes
over a fixed, seed-determined list of inputs for ``--seconds`` and prints the
per-layer metrics (see README.md).  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the details: samples, tail percentile, failures, output
digest and machine.  The exit code is 0 when the run completed, whether or
not its outputs were correct, and non-zero when it could not run at all.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import mmap
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = 5
#: reference probe time: medians of Clock.probe() were 4.6-5.2 ms, by host
#: load, on the machine the benchmark was defined on (2-vCPU Intel Xeon VM,
#: Python 3.11.7, numpy 2.4.6)
PROBE_REF_S = 0.005
#: least wall time between two probes, which keeps their cost near 5%
PROBE_EVERY_S = 0.2
#: lowest share of operation time the layer self times must explain
MIN_COVERAGE = 0.9

LAYERS = ("cli", "solver", "integral_op", "gridfn", "quadrature", "expr", "kernel", "verify")


class Clock:
    """Rescales wall times to the reference speed of the host.

    The benchmark runs on a small VM that shares its host.  Host load moved
    the raw medians of one workload by 10-30% between runs and within one,
    while the ratio of operation time to probe time moved by about 5%.  So
    probes run between operations, outside the timed calls, and every
    reported time is its raw value times ``PROBE_REF_S / median probe``.

    The probe does the kinds of work the operations do: numpy elementwise
    work on 64 Ki points, an interpreter loop, and page faults on 1024
    fresh pages.  It allocates its arrays once and maps its own pages, so
    the state an operation leaves in the allocator cannot change its time,
    and a change to tripoint cannot move it.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._x = np.linspace(0.0, 1.0, 65536)
        self._a = np.empty_like(self._x)
        self._b = np.empty_like(self._x)
        self.samples: list[float] = []
        self._last = -float("inf")

    def _work(self) -> None:
        np, x, a, b = self._np, self._x, self._a, self._b
        for _ in range(4):
            np.multiply(x, x, out=a)
            np.add(a, 1.0, out=a)
            np.sqrt(a, out=a)
            np.negative(x, out=b)
            np.exp(b, out=b)
            np.multiply(a, b, out=a)
        acc = 0
        for i in range(20000):
            acc += i * i
        with mmap.mmap(-1, 1024 * mmap.PAGESIZE) as pages:
            view = np.frombuffer(pages, dtype=np.uint8)
            view[:: mmap.PAGESIZE] = 1
            del view

    def probe(self) -> float:
        """Wall time of the second of two back-to-back runs of the work."""
        self._work()
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    def tick(self) -> None:
        """Probe, unless the last probe ended less than PROBE_EVERY_S ago."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.samples.append(self.probe())
            self._last = time.perf_counter()

    @property
    def factor(self) -> float:
        return PROBE_REF_S / statistics.median(self.samples)


class Loop:
    """Runs, times and checks operations; counts failures and digests outputs."""

    def __init__(self, wl, clock: Clock):
        self.wl = wl
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.digests: dict[int, str] = {}
        self.seconds = 0.0
        self.iters = 0

    def one(self, i: int) -> bool:
        """Run input ``i`` of the pool; returns whether its output is correct.

        The wall time of the call alone lands in ``self.seconds``.
        """
        wl = self.wl
        inp = wl.pool[i % len(wl.pool)]
        self.attempted += 1
        self.iters = 0
        t0 = time.perf_counter()
        t1 = None
        try:
            out = wl.run(inp)
            t1 = time.perf_counter()
            bad = wl.check(inp, out)
            self.iters = wl.iters(out)
            if i < wl.pass_size and i not in self.digests:
                self.digests[i] = hashlib.sha256(wl.digest(out)).hexdigest()
        except Exception as err:  # a failed operation is counted, not fatal
            t1 = t1 or time.perf_counter()
            if not self.failed:
                traceback.print_exc(file=sys.stderr)
            bad = [type(err).__name__]
        self.seconds = t1 - t0
        self.clock.tick()
        for reason in bad:
            self.failures[reason] = self.failures.get(reason, 0) + 1
        self.failed += bool(bad)
        return not bad

    def digest(self) -> str | None:
        """sha256 over the outputs of pool inputs 0..pass_size-1, in order."""
        if len(self.digests) < self.wl.pass_size:
            return None
        return hashlib.sha256("".join(self.digests[i] for i in sorted(self.digests)).encode()).hexdigest()


def time_setup(name: str, seed: int) -> float:
    """Seconds for a fresh interpreter to import tripoint and build the inputs.

    Measured from just before the child is spawned to the moment it has
    built the workload's inputs (perf_counter is system-wide on Linux).
    """
    code = (
        "import sys, time\n"
        "import workloads\n"
        "workloads.build(sys.argv[1], int(sys.argv[2]))\n"
        "sys.stdout.write(repr(time.perf_counter()))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, name, str(seed)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout) - t0


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def machine() -> dict:
    import numpy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_model": None,
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        base = "/sys/devices/system/cpu/cpu0/cache"
        for entry in sorted(os.listdir(base)):
            def read(field, entry=entry):
                with open(os.path.join(base, entry, field), encoding="utf-8") as fh:
                    return fh.read().strip()
            info["caches"][f"L{read('level')} {read('type')}"] = read("size")
    except OSError:
        pass  # not Linux, or no cache topology exported
    return info


def timed_run(wl, loop: Loop, seconds: float) -> tuple[dict, dict]:
    """Closed loop over the pool for ``seconds``; end-to-end metrics."""
    import numpy

    loop.one(0)  # warm-up: first-call caches and lazy set-up, not timed
    times, ok = [], 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        ok += loop.one(len(times))
        times.append(loop.seconds)
    metrics = {
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (float(numpy.percentile(times, wl.tail_pct)), "s"),
        "ops_per_s": (ok / sum(times), "1/s"),
    }
    details = {
        "samples": len(times),
        "tail_pct": wl.tail_pct,
        "tail_samples_beyond": sum(t > metrics["op_s_tail"][0] for t in times),
    }
    return metrics, details


def _pass_metrics(wl, tracer, times: list, iters: int) -> dict:
    """Per-operation layer metrics of one traced pass."""
    s = tracer.summary()
    n = len(times)
    applies = s.calls["integral_op.apply_operator"]
    m = {
        "cli.import_s": s.total["cli.import"] / n,
        "cli.numpy_import_s": s.total["cli.numpy_import"] / n,
        "cli.main_self_s": s.self_s["cli.main"] / n,
        "solver.iters": iters / n,
        "solver.sweep_s": s.sweep_s() / n,
        "solver.residual_s": s.total["solver.residual"] / n,
        "solver.bc_defect_s": s.total["solver.bc_defect"] / n,
        "integral_op.apply_calls": applies / n,
        "integral_op.apply_s": s.total["integral_op.apply_operator"] / n,
        "gridfn.interpolate_s": s.total["gridfn.interpolate"] / n,
        "gridfn.interpolate_points": s.points["gridfn.interpolate"] / n,
        "gridfn.construct_calls": s.calls["gridfn.construct"] / n,
        "gridfn.construct_s": s.total["gridfn.construct"] / n,
        "quadrature.panel_points_calls": s.calls["quadrature.panel_points"] / n,
        "quadrature.panel_points_s": s.total["quadrature.panel_points"] / n,
        "quadrature.points_per_apply": s.points["quadrature.panel_points"] / applies if applies else 0.0,
        "expr.eval_calls": s.calls["expr.eval_array"] / n,
        "expr.eval_points": s.points["expr.eval_array"] / n,
        "expr.eval_s": s.total["expr.eval_array"] / n,
        "verify.cone_membership_s": s.total["verify.cone_membership"] / n,
        "verify.certify_self_s": s.self_s["verify.certify_kernel"] / n,
        "kernel.green_s": s.total["kernel.green"] / n,
        "kernel.green_dt_s": s.total["kernel.green_dt"] / n,
        "kernel.bound_s": s.total["kernel.bound"] / n,
        "kernel.points": (s.points["kernel.green"] + s.points["kernel.green_dt"]) / n,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = s.layer_self[layer] / n
    m["trace.coverage"] = sum(s.layer_self.values()) / sum(times)
    return m


COUNT_METRICS = ("solver.iters", "integral_op.apply_calls", "gridfn.construct_calls",
                 "gridfn.interpolate_points", "quadrature.panel_points_calls",
                 "quadrature.points_per_apply", "expr.eval_calls", "expr.eval_points",
                 "kernel.points")


def traced_run(wl, loop: Loop, seconds: float, seed: int, workdir: str) -> tuple[dict, dict, list]:
    """Alternate untraced and traced passes over pool[:pass_size]; layer metrics."""
    import tracing
    import workloads

    loop.one(0)  # warm-up, as in the timed run
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workloads.build(wl.name, seed, workdir)
    finally:
        tracer.uninstall()
    parse_s = tracer.summary().total["expr.parse"]

    plain, traced, passes = [], [], []
    deadline = time.perf_counter() + seconds
    while not (plain and traced) or time.perf_counter() < deadline:
        if len(plain) > len(traced):
            tracer = tracing.Tracer()
            cli = isinstance(wl.run, workloads.CliRunner)
            if cli:
                wl.run.tracer = tracer
            else:
                tracer.install()
            times, iters = [], 0
            try:
                for i in range(wl.pass_size):
                    loop.one(i)
                    times.append(loop.seconds)
                    iters += loop.iters
            finally:
                if cli:
                    wl.run.tracer = None
                tracer.uninstall()
            traced += times
            passes.append(_pass_metrics(wl, tracer, times, iters))
        else:
            for i in range(wl.pass_size):
                loop.one(i)
                plain.append(loop.seconds)

    problems = []
    metrics = {}
    for key in passes[0]:
        values = [p[key] for p in passes]
        if key in COUNT_METRICS:
            if len(set(values)) != 1:
                problems.append(f"{key} differs between traced passes: {values}")
            metrics[key] = (values[0], "count")
        else:
            unit = "share" if key == "trace.coverage" else "s"
            metrics[key] = (statistics.median(values), unit)
    metrics["expr.parse_s"] = (parse_s, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    m = metrics
    if m["integral_op.apply_calls"][0] != 2 * m["solver.iters"][0]:
        problems.append("integral_op.apply_calls != 2 * solver.iters")
    coverage = min(p["trace.coverage"] for p in passes)
    if not MIN_COVERAGE <= coverage <= 1.0:
        problems.append(f"layer self times explain {coverage:.3f} of operation time")
    details = {
        "traced_passes": len(passes),
        "pass_size": wl.pass_size,
        "untraced_op_s_p50": statistics.median(plain),
        "traced_op_s_p50": statistics.median(traced),
        # computed, not measured: quadrature points x 8 point-length float64
        # arrays (s, w, state value and slope, source, w*s^k*phi for k=0..2)
        "computed_bytes_per_apply": m["quadrature.points_per_apply"][0] * 8 * 8,
    }
    return metrics, details, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tripoint", "__init__.py")):
        print(f"error: no tripoint sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.chdir(ROOT)
    import tripoint

    if not os.path.abspath(tripoint.__file__).startswith(SRC + os.sep):
        print(f"error: tripoint imported from {tripoint.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    clock = Clock()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        setup = []
        for _ in range(SETUP_REPEATS):
            setup.append(time_setup(args.workload, args.seed))
            clock.tick()
        # set-up is calibrated by the probes taken between its samples
        factors = {"setup_s": clock.factor}
        wl = workloads.build(args.workload, args.seed, workdir)
        loop = Loop(wl, clock)
        problems = []
        if args.trace:
            metrics, details, problems = traced_run(wl, loop, args.seconds, args.seed, workdir)
        else:
            metrics, details = timed_run(wl, loop, args.seconds)
            metrics["setup_s"] = (statistics.median(setup), "s")
            metrics["peak_rss_mb"] = (peak_rss_mb(children=args.workload == "cli-cold"), "MB")

    def calibrated(name: str, value: float, unit: str) -> float:
        f = factors.get(name, clock.factor)
        return value * f if unit == "s" else value / f if unit == "1/s" else value

    details.update({
        "raw_metrics": {k: v for k, (v, u) in metrics.items() if u in ("s", "1/s")},
        "probe": {"samples": len(clock.samples), "median_s": statistics.median(clock.samples),
                  "reference_s": PROBE_REF_S, "factor": clock.factor,
                  "setup_factor": factors["setup_s"]},
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": wl.info,
        "fail_rate": loop.failed / loop.attempted,
        "failures": loop.failures,
        "harness_problems": problems,
        "digest": loop.digest(),
        "digest_inputs": wl.pass_size,
        "setup_samples_s": setup,
        "machine": machine(),
    })
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": loop.failed == 0 and not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": calibrated(k, v, u), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
