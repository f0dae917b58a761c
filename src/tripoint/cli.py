"""Command line frontend.

Subcommands::

    tripoint solve        solve a coupled system (config file and/or flags)
    tripoint verify-green grade the four kernel inequalities for (alpha, eta)
    tripoint scan         growth-ratio diagnostic for the source expressions

Exit codes: 0 success, 1 input error or failed certification, 2 solver did
not converge or an argparse usage error.  Numeric text output uses 17
significant digits so files round-trip to the same doubles.
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import sys
from typing import TYPE_CHECKING

import numpy as np

from .kernel import ProblemParams

if TYPE_CHECKING:
    from .gridfn import GridFunction

__all__ = ["main", "build_parser", "DEFAULT_CONFIG"]

#: library names the commands call, each looked up on first access through
#: the package, which loads only the module that declares it: a command loads
#: only what it runs.  The commands call them through this module, where a
#: caller may replace them.
_LIBRARY = ("solve", "SolveConfig", "SolveError", "parse", "EvalError",
            "certify_kernel", "growth_scan")


def __getattr__(name: str):
    if name == "DEFAULT_CONFIG":
        value = {
            "alpha": None,
            "eta": None,
            "f": None,
            "h": None,
            "solver": dataclasses.asdict(_cli.SolveConfig()),
            "outputs": {"csv": None, "json": None},
        }
    elif name in _LIBRARY:
        value = getattr(sys.modules[__package__], name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


# this module, also when run as __main__: the commands read the names above here
_cli = sys.modules[__name__]


class InputError(ValueError):
    pass


def _load_config(path: str) -> dict:
    import json  # only the commands that read or write JSON load it

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read config {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"config {path!r} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise InputError(f"config {path!r} must hold a JSON object")
    cfg = copy.deepcopy(_cli.DEFAULT_CONFIG)
    for key, value in data.items():
        if key not in cfg:
            raise InputError(f"unknown config key {key!r}")
        if key in ("solver", "outputs"):
            if not isinstance(value, dict):
                raise InputError(f"config key {key!r} must hold an object")
            for sub, subval in value.items():
                if sub not in cfg[key]:
                    raise InputError(f"unknown config key {key}.{sub}")
                cfg[key][sub] = subval
        else:
            cfg[key] = value
    return cfg


def _effective_config(args: argparse.Namespace) -> dict:
    cfg = _load_config(args.config) if args.config else copy.deepcopy(_cli.DEFAULT_CONFIG)
    for name in ("alpha", "eta", "f", "h"):
        value = getattr(args, name, None)
        if value is not None:
            cfg[name] = value
    for section, prefix in (("solver", ""), ("outputs", "out_")):
        for key in cfg[section]:
            value = getattr(args, prefix + key, None)
            if value is not None:
                cfg[section][key] = value
    return cfg


def _require(cfg: dict, key: str):
    if cfg.get(key) is None:
        raise InputError(f"{key} is required (set it in the config file or pass --{key})")
    return cfg[key]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(path: str, *parts: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)
    except OSError as err:
        raise InputError(f"cannot write {path!r}: {err}") from err


def _write_csv(path: str, nodes: np.ndarray, u: GridFunction, v: GridFunction) -> None:
    rows = np.column_stack((nodes, u.values, u.derivs, v.values, v.derivs))
    # one template for all rows; %.17g writes a Python float as _fmt does
    _write(path, "t,u,du,v,dv\n",
           "%.17g,%.17g,%.17g,%.17g,%.17g\n" * len(rows) % tuple(rows.ravel().tolist()))


def _write_json(path: str, payload: dict) -> None:
    import json

    _write(path, json.dumps(payload, indent=2, sort_keys=True), "\n")


def _cmd_solve(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    if args.dump_config:
        import json

        json.dump(cfg, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    p = ProblemParams(_require(cfg, "alpha"), _require(cfg, "eta"))
    f = _cli.parse(str(_require(cfg, "f")))
    h = _cli.parse(str(_require(cfg, "h")))
    solve_cfg = _cli.SolveConfig(**cfg["solver"])
    try:
        solve_cfg.validate()
    except ValueError as err:
        raise InputError(f"solver.{err}") from None
    state, report = _cli.solve(p, f, h, solve_cfg)
    print(
        f"converged: {str(report.converged).lower()}  iters: {report.iters}"
        f"  final step: {report.final_step_norm:.3e}"
    )
    print(f"residuals: u {report.residual_u:.3e}  v {report.residual_v:.3e}")
    print(f"bc defects: u {report.bc_defect_u:.3e}  v {report.bc_defect_v:.3e}")
    print(
        f"cone membership: u {str(report.cone_ok_u).lower()}"
        f"  v {str(report.cone_ok_v).lower()}"
        f"  positivity: {str(report.positivity_ok).lower()}"
    )
    if cfg["outputs"]["csv"]:
        _write_csv(cfg["outputs"]["csv"], state.nodes, state.u, state.v)
        print(f"wrote csv: {cfg['outputs']['csv']}")
    if cfg["outputs"]["json"]:
        _write_json(cfg["outputs"]["json"], report.to_dict())
        print(f"wrote report: {cfg['outputs']['json']}")
    return 0 if report.converged else 2


def _cmd_verify_green(args: argparse.Namespace) -> int:
    p = ProblemParams(args.alpha, args.eta)
    report = _cli.certify_kernel(p, grid_n=args.grid)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(
            f"{status}  {check.description:45s} worst violation "
            f"{check.worst_violation:.3e} at (t={check.worst_t:.6g}, s={check.worst_s:.6g})"
        )
    if args.out_json:
        _write_json(args.out_json, report.to_dict())
        print(f"wrote report: {args.out_json}")
    return 0 if report.all_passed else 1


def _split_direction(text: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return text[:i], text[i + 1 :]
    raise InputError(f"direction {text!r} must be two expressions 'phi,psi'")


def _direction_callable(src: str):
    from .expr import _T_ONLY, _uses

    e = _cli.parse(src)
    # directions are profiles of t only; y/yp would be circular here
    if _uses(e.root, {}) & ~_T_ONLY:
        raise InputError(f"direction component {src!r} may only use the variable t")
    return lambda tg: e.eval_array(tg, np.zeros_like(tg), np.zeros_like(tg))


def _cmd_scan(args: argparse.Namespace) -> int:
    cfg = _effective_config(args)
    exprs = [(key, _cli.parse(str(cfg[key]))) for key in ("f", "h") if cfg.get(key) is not None]
    if not exprs:
        raise InputError("nothing to scan: provide --f and/or --h (or a config file)")
    directions = None
    if args.direction:
        directions = []
        for text in args.direction:
            phi_src, psi_src = _split_direction(text)
            directions.append((_direction_callable(phi_src), _direction_callable(psi_src)))
    # an inf or NaN end makes non-finite scales, which growth_scan rejects
    with np.errstate(all="ignore"):
        scales = np.geomspace(args.scale_min, args.scale_max, args.scale_count)
    results = [(name, _cli.growth_scan(e, directions=directions, scales=scales))
               for name, e in exprs]
    print("scale" + "".join(f"  ratio_{name}" for name, _ in results))
    for i, c in enumerate(scales):
        print(_fmt(c) + "".join(f"  {_fmt(scan.ratios[i])}" for _, scan in results))
    if args.out_json:
        _write_json(
            args.out_json,
            {name: scan.to_dict() for name, scan in results},
        )
        print(f"wrote report: {args.out_json}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripoint",
        description="Solve and certify coupled third-order three-point boundary value systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def initial(text: str) -> str | float:
        # typed like --tol; argparse reports "invalid initial value: ..."
        return text if text == "zero" else float(text)

    def add_common(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--f", help="source expression for the first equation")
        sp.add_argument("--h", help="source expression for the second equation")
        sp.add_argument("--out-json")

    sp = sub.add_parser("solve", help="solve the coupled system")
    add_common(sp)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--eta", type=float)
    sp.add_argument("--nodes", type=int)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--max-iter", type=int, dest="max_iters")
    sp.add_argument("--initial", type=initial)
    sp.add_argument("--out-csv")
    sp.add_argument("--dump-config", action="store_true", help="print the effective config and exit")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("verify-green", help="grade the kernel inequalities")
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--eta", type=float, required=True)
    sp.add_argument("--grid", type=int, default=401)
    sp.add_argument("--out-json")
    sp.set_defaults(func=_cmd_verify_green)

    sp = sub.add_parser("scan", help="growth-ratio diagnostic")
    add_common(sp)
    sp.add_argument(
        "--direction",
        action="append",
        help="direction 'phi,psi' with both sides expressions in t (repeatable)",
    )
    sp.add_argument("--scale-min", type=float, default=1e-6)
    sp.add_argument("--scale-max", type=float, default=1e6)
    sp.add_argument("--scale-count", type=int, default=25)
    sp.set_defaults(func=_cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # evaluated only once an error is raised: the library's classes load then
    except (ValueError, _cli.SolveError, _cli.EvalError) as err:  # InputError, ParseError included
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
