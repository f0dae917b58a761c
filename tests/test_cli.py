from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from tripoint import SolveConfig, cli
from tripoint.cli import DEFAULT_CONFIG, build_parser, main

from conftest import CONFIG_DIR, EXAMPLE_F, EXAMPLE_H


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


def test_config_rejects_a_dropped_setting(tmp_path, capsys):
    # the Gauss order is fixed; a config dumped when it was a setting fails loudly
    cfg = _write_config(tmp_path, solver={"nodes": 17, "quad_points": 4})
    assert main(["solve", "--config", str(cfg)]) == 1
    assert "unknown config key solver.quad_points" in capsys.readouterr().err


def test_every_solver_setting_is_a_config_key_and_a_flag():
    fields = {f.name for f in dataclasses.fields(SolveConfig)}
    assert set(DEFAULT_CONFIG["solver"]) == fields
    assert fields <= set(vars(build_parser().parse_args(["solve"])))


def test_config_settings_reach_the_solver(tmp_path, monkeypatch):
    settings = {"max_iters": 7, "tol": 1e-6, "damping": 0.5, "nodes": 33, "initial": 0.25}
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
])
def test_config_rejects_truncated_or_boolean_settings(tmp_path, capsys, key, value):
    cfg = _write_config(tmp_path, solver={key: value})
    assert main(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"solver.{key}" in err


@pytest.mark.parametrize("initial", ["nan", "inf", "-inf"])
def test_solve_rejects_non_finite_initial(capsys, initial):
    code = main(["solve", "--alpha", "1.5", "--eta", "0.5", "--f", "0", "--h", "0",
                 "--nodes", "17", f"--initial={initial}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: initial must be finite")


@pytest.mark.parametrize("initial", [True, False])
def test_config_rejects_boolean_initial(tmp_path, capsys, initial):
    cfg = _write_config(tmp_path, f="y", h="y", solver={"nodes": 17, "initial": initial})
    assert main(["solve", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: initial must be 'zero' or a number")


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


def test_verify_green_grid_too_coarse(capsys):
    assert main(["verify-green", "--alpha", "1.5", "--eta", "0.5", "--grid", "5"]) == 1
    assert "grid too coarse" in capsys.readouterr().err


def test_verify_green_rejects_bad_params(capsys):
    assert main(["verify-green", "--alpha", "3", "--eta", "0.5"]) == 1
    assert "1 < alpha < 1/eta" in capsys.readouterr().err


def test_scan_linear_expression_is_flat(capsys):
    code = main(["scan", "--f", "y+yp", "--scale-count", "7"])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["scale", "ratio_f"]
    ratios = [float(r.split()[1]) for r in rows[1:]]
    assert all(abs(r - 1.0) <= 1e-12 for r in ratios)


def test_scan_both_sources_with_direction(tmp_path, capsys):
    rep = tmp_path / "scan.json"
    code = main([
        "scan", "--f", EXAMPLE_F, "--h", EXAMPLE_H, "--direction", "1,1",
        "--scale-min", "1e-6", "--scale-max", "1e6", "--scale-count", "5",
        "--out-json", str(rep),
    ])
    assert code == 0
    payload = json.loads(rep.read_text())
    assert payload["f"]["ratios"][0] >= 1e2
    assert payload["f"]["ratios"][-1] <= 1e-2


def test_scan_direction_with_profile_in_t(capsys):
    assert main(["scan", "--f", "y+yp", "--direction", "t,1", "--scale-count", "3"]) == 0


def test_scan_rejects_unknown_variable(capsys):
    assert main(["scan", "--f", "q+1"]) == 1
    assert "offset 0" in capsys.readouterr().err


def test_scan_rejects_state_variables_in_direction(capsys):
    assert main(["scan", "--f", "y+yp", "--direction", "y,1"]) == 1
    assert "variable t" in capsys.readouterr().err


def test_scan_requires_a_source(capsys):
    assert main(["scan"]) == 1
    assert "nothing to scan" in capsys.readouterr().err


def test_scan_rejects_solver_flags(capsys):
    # scan reads only the sources; a solver flag is a usage error, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--f", "y", "--nodes", "5"])
    assert exc.value.code == 2
    assert "--nodes" in capsys.readouterr().err
