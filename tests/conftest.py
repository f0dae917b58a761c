from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py

from tripoint import ProblemParams, SolveConfig, parse, solve

EXAMPLE_F = "(t^2+1)*(exp(-y)+sqrt(abs(yp)))"
EXAMPLE_H = "(y+1)^2*atan(abs(yp)+1)"
CONFIG_DIR = Path(__file__).parent.parent / "configs"
SRC = Path(__file__).parent.parent / "src"


def fresh_python(code: str, *argv: str) -> str:
    """stdout of ``code`` run with ``argv`` in a new interpreter that imports tripoint from src."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="session")
def params():
    return ProblemParams(1.5, 0.5)


@pytest.fixture(scope="session")
def f_example():
    return parse(EXAMPLE_F)


@pytest.fixture(scope="session")
def h_example():
    return parse(EXAMPLE_H)


@pytest.fixture(scope="session")
def example_solution(params, f_example, h_example):
    """Converged example system on a coarse grid, for module-level tests."""
    state, report = solve(params, f_example, h_example, SolveConfig(nodes=129))
    return state, report


@pytest.fixture(scope="session")
def example_solution_fine():
    """Run of the committed example config, with wall time attached."""
    import json

    cfg = json.loads((CONFIG_DIR / "example.json").read_text(encoding="utf-8"))
    p = ProblemParams(cfg["alpha"], cfg["eta"])
    f = parse(cfg["f"])
    h = parse(cfg["h"])
    solve_cfg = SolveConfig(**cfg["solver"])
    t0 = time.perf_counter()
    state, report = solve(p, f, h, solve_cfg)
    elapsed = time.perf_counter() - t0
    return p, state, report, elapsed
