from __future__ import annotations

import dataclasses
import gc
import importlib
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from tripoint import SolveConfig, cli, growth_scan, parse
from tripoint.cli import DEFAULT_CONFIG, build_parser, main
from tripoint.gridfn import GridFunction

from conftest import CONFIG_DIR, EXAMPLE_F, EXAMPLE_H, fresh_env, fresh_python
from oracles import write_csv_reference


def _write_config(tmp_path, **overrides):
    cfg = {
        "alpha": 1.5,
        "eta": 0.5,
        "f": "0",
        "h": "0",
        "solver": {"nodes": 17, "tol": 1e-10, "max_iters": 50},
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_solve_zero_system(tmp_path, capsys):
    csv = tmp_path / "out.csv"
    rep = tmp_path / "rep.json"
    code = main([
        "solve", "--alpha", "1.5", "--eta", "0.5", "--f", "0", "--h", "0",
        "--nodes", "17", "--out-csv", str(csv), "--out-json", str(rep),
    ])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,u,du,v,dv"
    body = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert np.all(body[:, 1:] == 0.0)
    payload = json.loads(rep.read_text())
    assert payload["converged"] is True
    assert set(payload) == {
        "converged", "iters", "final_step_norm", "residual_u", "residual_v",
        "bc_defect_u", "bc_defect_v", "cone_ok_u", "cone_ok_v",
        "positivity_ok", "history",
    }


def test_solve_rejects_inadmissible_parameters(capsys):
    code = main(["solve", "--alpha", "3", "--eta", "0.5", "--f", "0", "--h", "0"])
    assert code == 1
    assert "1 < alpha < 1/eta" in capsys.readouterr().err


def test_solve_rejects_bad_expression(capsys):
    code = main(["solve", "--alpha", "1.5", "--eta", "0.5", "--f", "q+1", "--h", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert "unknown identifier" in err and "offset 0" in err


def test_solve_rejects_too_deeply_nested_expression(capsys):
    deep = "(" * 198 + "y" + ")" * 198
    code = main(["solve", "--alpha", "1.5", "--eta", "0.5", "--h", "y", "--f", deep])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nested deeper" in err and "Traceback" not in err


def test_solve_reports_nonconvergence_with_exit_2(tmp_path):
    cfg = _write_config(
        tmp_path, f=EXAMPLE_F, h=EXAMPLE_H,
        solver={"nodes": 17, "max_iters": 2},
    )
    assert main(["solve", "--config", str(cfg)]) == 2


def test_solve_grades_a_diverged_state_with_exit_2(tmp_path):
    # the state stays finite but its dense samples overflow: an infinite residual
    rep = tmp_path / "rep.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["solve", "--alpha", "1.2", "--eta", "0.7", "--nodes", "65",
                     "--f", f"3*({EXAMPLE_F})", "--h", f"100*({EXAMPLE_H})",
                     "--out-json", str(rep)])
    assert code == 2
    text = rep.read_text()
    assert '"residual_u": Infinity' in text
    assert json.loads(text)["converged"] is False


def test_solve_missing_required_input(capsys):
    code = main(["solve", "--alpha", "1.5", "--eta", "0.5", "--f", "0"])
    assert code == 1
    assert "h is required" in capsys.readouterr().err


def test_bundled_example_config_runs(tmp_path):
    # fast override of the committed high-resolution settings
    code = main([
        "solve", "--config", str(CONFIG_DIR / "example.json"),
        "--nodes", "33", "--tol", "1e-8",
        "--out-csv", str(tmp_path / "ex.csv"),
    ])
    assert code == 0
    body = np.array([
        [float(x) for x in ln.split(",")]
        for ln in (tmp_path / "ex.csv").read_text().splitlines()[1:]
    ])
    assert np.all(body[1:, 1] > 0.0)  # u > 0 for t > 0
    assert np.all(body[1:, 3] > 0.0)  # v > 0 for t > 0


def test_csv_output_is_bit_stable(tmp_path):
    args = ["solve", "--alpha", "1.5", "--eta", "0.5", "--f", "t+1", "--h", "1",
            "--nodes", "33"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out-csv", str(a)]) == 0
    assert main(args + ["--out-csv", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _special_state():
    # signed zero, the smallest subnormal, a huge value and two values .17g
    # must round-trip, in every column
    special = np.array([-0.0, 5e-324, 1e308, 0.1 + 0.2, 1 / 3])
    nodes = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    u = GridFunction(nodes, special, np.roll(special, 1))
    v = GridFunction(nodes, np.roll(special, 2), -np.roll(special, 3))
    return nodes, u, v


def test_csv_bytes_match_the_reference_writer(tmp_path, example_solution_fine):
    state = example_solution_fine[1]
    cases = [(state.nodes, state.u, state.v), _special_state()]
    for k, (nodes, u, v) in enumerate(cases):
        got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
        cli._write_csv(str(got), nodes, u, v)
        write_csv_reference(str(want), nodes, u, v)
        assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().splitlines()[1] == b"0,-0,0.33333333333333331,0.30000000000000004,-1e+308"


def test_csv_bytes_match_the_reference_writer_on_random_bits(tmp_path):
    # finite doubles drawn from their bit patterns: every exponent, subnormals, signed zeros
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**64, size=(5, 4001), dtype=np.uint64).view(float)
    bits[~np.isfinite(bits)] = 1.0
    bits[:, :4] = [0.0, -0.0, 5e-324, -2.2250738585072014e-308]
    nodes = np.linspace(0.0, 1.0, bits.shape[1])
    u, v = GridFunction(nodes, bits[1], bits[2]), GridFunction(nodes, bits[3], bits[4])
    for k, first in enumerate((nodes, bits[0])):  # the writer takes the node column as given
        got, want = tmp_path / f"got{k}.csv", tmp_path / f"want{k}.csv"
        cli._write_csv(str(got), first, u, v)
        write_csv_reference(str(want), first, u, v)
        assert got.read_bytes() == want.read_bytes()


def test_dump_config_round_trip(tmp_path, capsys):
    base = _write_config(tmp_path, f=EXAMPLE_F, h=EXAMPLE_H)
    assert main(["solve", "--config", str(base), "--nodes", "99", "--dump-config"]) == 0
    first = capsys.readouterr().out
    echo = tmp_path / "echo.json"
    echo.write_text(first, encoding="utf-8")
    assert main(["solve", "--config", str(echo), "--dump-config"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["solver"]["nodes"] == 99


def test_config_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha": 1.5, "etaa": 0.5}), encoding="utf-8")
    assert main(["solve", "--config", str(path)]) == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("quad_points", 4), ("damping", 1.0)])
def test_config_rejects_a_dropped_setting(tmp_path, capsys, key, value):
    # the Gauss order and the relaxation are fixed; a config dumped when they
    # were settings fails loudly
    cfg = _write_config(tmp_path, solver={"nodes": 17, key: value})
    assert main(["solve", "--config", str(cfg)]) == 1
    assert f"unknown config key solver.{key}" in capsys.readouterr().err


def test_bundled_example_config_names_every_setting(capsys):
    # a key missing from the committed config would fall back to its default
    path = CONFIG_DIR / "example.json"
    assert main(["solve", "--config", str(path), "--dump-config"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(path.read_text(encoding="utf-8"))


def test_every_solver_setting_is_a_config_key_and_a_flag():
    fields = {f.name for f in dataclasses.fields(SolveConfig)}
    assert set(DEFAULT_CONFIG["solver"]) == fields
    assert fields <= set(vars(build_parser().parse_args(["solve"])))


def test_config_settings_reach_the_solver(tmp_path, monkeypatch):
    settings = {"max_iters": 7, "tol": 1e-6, "nodes": 33, "initial": 0.25}
    assert set(settings) == {f.name for f in dataclasses.fields(SolveConfig)}
    assert all(getattr(SolveConfig(), k) != v for k, v in settings.items())
    real_solve, seen = cli.solve, []

    def recording_solve(p, f, h, cfg):
        seen.append(cfg)
        return real_solve(p, f, h, cfg)

    monkeypatch.setattr(cli, "solve", recording_solve)
    cfg = _write_config(tmp_path, solver=settings)
    assert main(["solve", "--config", str(cfg)]) == 0
    assert seen == [SolveConfig(**settings)]


@pytest.mark.parametrize("key, value", [
    ("nodes", 17.9), ("nodes", True), ("max_iters", True), ("max_iters", 5.5),
    ("quad_points", 8.5), ("quad_points", False), ("tol", True), ("damping", True),
    ("nodes", "17"), ("tol", "1e-10"), ("initial", "0.25"),
])
def test_config_rejects_truncated_or_boolean_settings(tmp_path, capsys, key, value):
    cfg = _write_config(tmp_path, solver={key: value})
    assert main(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"solver.{key}" in err


def test_solve_types_the_initial_flag(capsys):
    # --initial is "zero" or a float, a usage error otherwise, like --tol abc
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--initial", "garbage"])
    assert exc.value.code == 2
    assert "--initial" in capsys.readouterr().err


@pytest.mark.parametrize("initial", ["nan", "inf", "-inf"])
def test_solve_rejects_non_finite_initial(capsys, initial):
    code = main(["solve", "--alpha", "1.5", "--eta", "0.5", "--f", "0", "--h", "0",
                 "--nodes", "17", f"--initial={initial}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solver.initial must be finite")


@pytest.mark.parametrize("initial", [True, False])
def test_config_rejects_boolean_initial(tmp_path, capsys, initial):
    cfg = _write_config(tmp_path, f="y", h="y", solver={"nodes": 17, "initial": initial})
    assert main(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solver.initial must be 'zero' or a number")


def test_solve_operator_overflow_is_an_evaluation_error(capsys):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--alpha", "1.998", "--eta", "0.5", "--f", "1e306", "--h", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: evaluation failed at iteration 1")
    assert "non-finite operator output" in err


def test_verify_green_output_and_exit(tmp_path, capsys):
    rep = tmp_path / "cert.json"
    code = main(["verify-green", "--alpha", "1.5", "--eta", "0.5",
                 "--grid", "101", "--out-json", str(rep)])
    out = capsys.readouterr().out
    # one line per inequality, PASS/FAIL plus worst violation and location
    check_lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(check_lines) == 4
    payload = json.loads(rep.read_text())
    assert code == (0 if payload["all_passed"] else 1)
    assert len(payload["checks"]) == 4


def _assert_unwritable_reported(capsys, code, path):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot write {str(path)!r}: "), err
    assert "Traceback" not in err


def test_solve_reports_an_unwritable_csv_path_as_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    code = main(["solve", "--config", str(CONFIG_DIR / "example.json"), "--nodes", "33",
                 "--out-csv", str(out)])
    _assert_unwritable_reported(capsys, code, out)


def test_verify_green_reports_an_unwritable_json_path_as_an_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code = main(["verify-green", "--alpha", "1.5", "--eta", "0.5", "--grid", "101",
                 "--out-json", str(out)])
    _assert_unwritable_reported(capsys, code, out)


def test_verify_green_grid_too_coarse(capsys):
    assert main(["verify-green", "--alpha", "1.5", "--eta", "0.5", "--grid", "5"]) == 1
    assert "grid too coarse" in capsys.readouterr().err


def test_verify_green_rejects_bad_params(capsys):
    assert main(["verify-green", "--alpha", "3", "--eta", "0.5"]) == 1
    assert "1 < alpha < 1/eta" in capsys.readouterr().err


def test_scan_linear_expression_is_flat(capsys):
    code = main(["scan", "--f", "y+yp"])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["scale", "ratio_f"]
    ratios = [float(r.split()[1]) for r in rows[1:]]
    assert all(abs(r - 1.0) <= 1e-12 for r in ratios)


def test_scan_both_sources_over_the_default_rays(tmp_path, capsys):
    rep = tmp_path / "scan.json"
    code = main(["scan", "--f", EXAMPLE_F, "--h", EXAMPLE_H, "--out-json", str(rep)])
    assert code == 0
    payload = json.loads(rep.read_text())
    assert payload["f"]["ratios"][0] >= 1e2
    assert payload["f"]["ratios"][-1] <= 1e-2


def test_scan_rejects_unknown_variable(capsys):
    assert main(["scan", "--f", "q+1"]) == 1
    assert "offset 0" in capsys.readouterr().err


@pytest.mark.parametrize("sources", [
    {"f": EXAMPLE_F, "h": EXAMPLE_H}, {"f": "y+yp"},
], ids=["example-pair", "linear-f"])
def test_scan_prints_and_writes_the_librarys_default_scan(sources, tmp_path, capsys):
    # scan runs growth_scan with its default rays and scales, and nothing else
    rep = tmp_path / "scan.json"
    argv = ["scan", "--out-json", str(rep)]
    for name, src in sources.items():
        argv += [f"--{name}", src]
    assert main(argv) == 0
    scans = {name: growth_scan(parse(src)) for name, src in sources.items()}
    rows = ["scale" + "".join(f"  ratio_{name}" for name in scans)]
    for i, c in enumerate(scans["f"].scales):
        rows.append(f"{c:.17g}" + "".join(f"  {s.ratios[i]:.17g}" for s in scans.values()))
    rows.append(f"wrote report: {rep}")
    assert capsys.readouterr().out == "\n".join(rows) + "\n"
    payload = {name: s.to_dict() for name, s in scans.items()}
    assert rep.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("flag, value", [
    ("--direction", "1,1"), ("--scale-min", "1e-6"),
    ("--scale-max", "1e6"), ("--scale-count", "25"),
])
def test_scan_rejects_a_retired_flag(flag, value, capsys):
    # the rays and scales are the library's defaults; the old flags are usage errors
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--f", "y", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_scan_requires_a_source(capsys):
    assert main(["scan"]) == 1
    assert "nothing to scan" in capsys.readouterr().err


def test_scan_rejects_solver_flags(capsys):
    # scan reads only the sources; a solver flag is a usage error, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--f", "y", "--nodes", "5"])
    assert exc.value.code == 2
    assert "--nodes" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ZeroDivisionError, RuntimeError])
def test_main_lets_other_errors_propagate(monkeypatch, error):
    # main maps exactly ValueError, SolveError and EvalError to "error:" and
    # exit 1; a bug such as a ZeroDivisionError (an ArithmeticError, as
    # EvalError is) or a bare RuntimeError (SolveError's base) surfaces
    def broken_solve(p, f, h, cfg):
        raise error("a bug, not an input error")

    monkeypatch.setattr(cli, "solve", broken_solve)
    with pytest.raises(error):
        main(["solve", "--alpha", "1.5", "--eta", "0.5", "--f", "1", "--h", "1", "--nodes", "17"])


# the library modules that only solve and scan run
SOLVE_ONLY = {"tripoint.expr", "tripoint.solver", "tripoint.integral_op", "tripoint.gridfn"}


def _modules_loaded_by(*argv: str) -> set[str]:
    # a fresh interpreter runs one command; only tripoint's own modules are
    # compared, since site hooks may import any standard module
    code = (
        "import sys, tripoint.cli\n"
        "try:\n"
        "    tripoint.cli.main(sys.argv[1:])\n"
        "except SystemExit:\n"
        "    pass\n"
        "print(' '.join(m for m in sys.modules if m.startswith('tripoint')))\n"
    )
    return set(fresh_python(code, *argv).splitlines()[-1].split())


def test_verify_green_loads_only_the_kernel_and_verify():
    loaded = _modules_loaded_by("verify-green", "--alpha", "1.5", "--eta", "0.5", "--grid", "21")
    assert "tripoint.verify" in loaded
    assert not loaded & SOLVE_ONLY, loaded


def test_help_loads_no_solver_module():
    assert not _modules_loaded_by("--help") & SOLVE_ONLY


def test_solve_loads_every_library_module():
    loaded = _modules_loaded_by("solve", "--alpha", "1.5", "--eta", "0.5", "--f", "1", "--h", "1",
                                "--nodes", "17")
    assert SOLVE_ONLY | {"tripoint.kernel", "tripoint.verify"} <= loaded


def test_example_solve_leaves_numpy_polynomial_unloaded():
    code = (
        "import sys, tripoint.cli\n"
        "assert tripoint.cli.main(sys.argv[1:]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    out = fresh_python(code, "solve", "--config", str(CONFIG_DIR / "example.json"))
    assert out.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", [
    ("solve", "--config", str(CONFIG_DIR / "example.json")),
    # from 4097 nodes the solve starts on a coarse grid and records it at DEBUG,
    # which no handler can show in a process that never loaded logging
    ("solve", "--config", str(CONFIG_DIR / "example.json"), "--nodes", "4097"),
    ("verify-green", "--alpha", "1.5", "--eta", "0.5"),
], ids=["solve", "two-grid-solve", "verify-green"])
def test_a_command_that_logs_nothing_leaves_logging_unloaded(argv):
    code = (
        "import sys, tripoint.cli\n"
        "tripoint.cli.main(sys.argv[1:])\n"
        "print('logging' in sys.modules)\n"
    )
    assert fresh_python(code, *argv).splitlines()[-1] == "False"


@pytest.mark.parametrize("overrides", [
    {"outputs": {"csv": True}},
    {"outputs": {"csv": 2}},
    {"outputs": {"json": 1}},
    {"f": 3},
    {"alpha": [1.5]},
    {"alpha": {"x": 1}},
    {"alpha": "1.5"},
    {"alpha": True},
], ids=["csv-true", "csv-2", "json-1", "f-number", "alpha-list", "alpha-object",
        "alpha-string", "alpha-true"])
def test_config_value_of_the_wrong_type_is_an_input_error(tmp_path, overrides):
    # an integer or boolean output path would be opened as a file descriptor;
    # each is refused before anything is solved or written
    cfg = _write_config(tmp_path, **overrides)
    proc = subprocess.run([sys.executable, "-m", "tripoint.cli", "solve", "--config", cfg.name],
                          cwd=tmp_path, env=fresh_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert [path.name for path in tmp_path.iterdir()] == [cfg.name]


@pytest.mark.parametrize("argv, overrides, err", [
    (["solve", "--out-csv", ""], {}, "error: --out-csv must name a file"),
    (["solve", "--out-json", ""], {}, "error: --out-json must name a file"),
    (["solve"], {"outputs": {"csv": ""}}, "error: config key 'outputs.csv' must name a file"),
    (["solve"], {"outputs": {"json": ""}}, "error: config key 'outputs.json' must name a file"),
    (["solve", "--dump-config"], {"outputs": {"csv": ""}}, "error: config key 'outputs.csv'"),
    (["verify-green", "--alpha", "1.5", "--eta", "0.5", "--out-json", ""], None,
     "error: --out-json must name a file"),
    (["scan", "--out-json", ""], {}, "error: --out-json must name a file"),
], ids=["out-csv", "out-json", "config-csv", "config-json", "dump-config", "verify-green",
        "scan"])
def test_an_empty_output_path_is_an_input_error(tmp_path, monkeypatch, capsys, argv, overrides,
                                                err):
    # an empty path names no file: refused before anything is solved or written,
    # not taken for "no output"
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    for name in ("solve", "certify_kernel", "growth_scan"):
        monkeypatch.setattr(cli, name, must_not_run)
    monkeypatch.chdir(tmp_path)
    if overrides is not None:
        argv = argv + ["--config", _write_config(tmp_path, **overrides).name]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(err) and out.err.count("\n") == 1, out.err
    assert "got an empty path" in out.err
    assert [path.name for path in tmp_path.iterdir()] == ([] if overrides is None else ["cfg.json"])


@pytest.mark.parametrize("overrides, flags", [
    ({"alpha": "1.5"}, []),
    ({"alpha": 3.0}, []),
    ({"eta": None}, []),
    ({"f": "1+"}, []),
    ({}, ["--nodes", "4"]),
    ({"solver": {"nodes": "17"}}, []),
    ({"solver": {"initial": "one"}}, []),
], ids=["alpha-string", "alpha-inadmissible", "eta-missing", "f-syntax", "nodes-flag",
        "nodes-string", "initial"])
def test_dump_config_refuses_what_solve_refuses(tmp_path, monkeypatch, capsys, overrides, flags):
    monkeypatch.setattr(cli, "solve", lambda *args: pytest.fail("solved"))
    cfg = str(_write_config(tmp_path, **overrides))
    assert main(["solve", "--config", cfg, *flags]) == 1
    want = capsys.readouterr()
    assert want.err.startswith("error: ") and want.err.count("\n") == 1, want.err
    assert main(["solve", "--config", cfg, *flags, "--dump-config"]) == 1
    assert capsys.readouterr() == ("", want.err)


def test_dump_config_of_a_valid_config_is_unchanged(capsys):
    # the effective config, as json.dump writes it with sorted keys and a newline
    path = CONFIG_DIR / "example.json"
    want = json.loads(path.read_text(encoding="utf-8"))
    want["solver"] = dict(want["solver"], nodes=99)
    want["outputs"] = {"csv": "out.csv", "json": None}
    assert main(["solve", "--config", str(path), "--nodes", "99", "--out-csv", "out.csv",
                 "--dump-config"]) == 0
    assert capsys.readouterr() == (json.dumps(want, indent=2, sort_keys=True) + "\n", "")


# the script paths: ``python -m tripoint.cli`` and the console script run
# main through cli._script, which freezes the collector on the way out

EXAMPLE = ["solve", "--config", str(CONFIG_DIR / "example.json")]


def _run_script(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "tripoint.cli", *argv], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)


def _run_main(capsys, argv: list[str]) -> tuple[int, str, str]:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv, code, err", [
    (EXAMPLE, 0, ""),
    (["verify-green", "--alpha", "1.5", "--eta", "0.5", "--grid", "41"], 1, ""),
    (EXAMPLE + ["--alpha", "3", "--eta", "0.5"], 1, "error: parameters must satisfy "),
    (EXAMPLE + ["--max-iter", "2"], 2, ""),
    (EXAMPLE + ["--no-such-flag"], 2, "usage: tripoint "),
], ids=["solve", "verify-green-fails", "input-error", "not-converged", "usage-error"])
def test_script_exits_as_main_returns(capsys, argv, code, err):
    proc = _run_script(*argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(err)
    assert (proc.returncode, proc.stdout, proc.stderr) == _run_main(capsys, argv)


def test_script_writes_the_bytes_main_writes(tmp_path, capsys):
    def outputs(run, tag):
        paths = [tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json", tmp_path / f"{tag}-green.json"]
        run(EXAMPLE + ["--out-csv", str(paths[0]), "--out-json", str(paths[1])])
        run(["verify-green", "--alpha", "1.5", "--eta", "0.5", "--out-json", str(paths[2])])
        return [path.read_bytes() for path in paths]

    assert outputs(lambda argv: _run_script(*argv), "script") == \
        outputs(lambda argv: _run_main(capsys, argv), "main")


def test_main_never_freezes_the_collector(capsys):
    before = gc.get_freeze_count()
    _run_main(capsys, ["verify-green", "--alpha", "1.5", "--eta", "0.5", "--grid", "21"])
    _run_main(capsys, ["solve", "--no-such-flag"])
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv, exit_code", [
    (("verify-green", "--alpha", "1.5", "--eta", "0.5", "--grid", "21"), 1),
    (("solve", "--no-such-flag"), 2),
])
def test_script_entry_freezes_the_collector_on_every_exit(argv, exit_code):
    code = (
        "import gc, sys, tripoint.cli\n"
        "before = gc.get_freeze_count()\n"
        "try:\n"
        "    status = tripoint.cli._script()\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "print(status, before, gc.get_freeze_count())\n"
    )
    status, before, after = map(int, fresh_python(code, *argv).split()[-3:])
    assert status == exit_code
    assert after > before


def test_console_script_names_a_cli_function():
    tomllib = pytest.importorskip("tomllib")
    with open(CONFIG_DIR.parent / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["tripoint"]
    module, _, attr = entry.partition(":")
    assert module == "tripoint.cli"
    assert callable(getattr(importlib.import_module(module), attr))
