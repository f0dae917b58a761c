"""Smoke runs of the benchmark harness: short traced passes of three workloads.

The tracer in ``perfbench/tracing.py`` wraps program attributes by name, so
a rename in ``src/`` breaks the benchmark without failing any other test.
These tests run the harness as a subprocess and check its verdict and its
bookkeeping; they assert no timings.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_traced_sweep_run_is_correct():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sweep-129",
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    details_line, result_line = proc.stdout.strip().splitlines()[-2:]
    details, result = json.loads(details_line), json.loads(result_line)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert details["harness_problems"] == []
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["integral_op.apply_calls"] == 2 * metrics["solver.iters"]
    assert metrics["expr.eval_calls"] >= metrics["integral_op.apply_calls"]


def test_traced_example_run_counts_both_grids():
    # the only workload whose solves run the coarse grid: its sweeps and its
    # second operator build must show in the bookkeeping
    cmd = [sys.executable, "perfbench/run.py", "--workload", "example-8193",
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    details_line, result_line = proc.stdout.strip().splitlines()[-2:]
    details, result = json.loads(details_line), json.loads(result_line)
    assert result["correct"] is True
    assert details["harness_problems"] == []
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["integral_op.apply_calls"] == 2 * metrics["solver.iters"]
    assert metrics["quadrature.panel_points_calls"] == 2


def test_traced_certify_run_reaches_the_kernels():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "certify-801",
           "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    details_line, result_line = proc.stdout.strip().splitlines()[-2:]
    details, result = json.loads(details_line), json.loads(result_line)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert details["harness_problems"] == []
    assert result["metrics"]["kernel.green_s"]["value"] > 0
