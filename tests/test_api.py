"""The documented and exported API: the README sketch runs, every export resolves."""
from __future__ import annotations

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import tripoint
from tripoint.cli import build_parser

from conftest import fresh_python

README = Path(__file__).parent.parent / "README.md"
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(tripoint.__path__))


def test_readme_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md: Library sketch", "exec"), {})


def test_readme_commands_parse():
    # every documented command names only flags the CLI still has
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("tripoint ")]
    assert commands
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_star_import_resolves_every_export():
    namespace: dict = {}
    exec("from tripoint import *", namespace)
    assert set(tripoint.__all__) <= set(namespace)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"tripoint.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"tripoint.{name}.__all__ names missing {attr!r}"


def test_package_exports_exactly_the_library_modules_exports():
    # each public name is declared once, in its module's __all__; the CLI
    # module is not part of the library API
    union = set()
    for name in SUBMODULES:
        if name != "cli":
            union |= set(importlib.import_module(f"tripoint.{name}").__all__)
    assert set(tripoint.__all__) == union


def test_import_loads_no_module_and_a_submodule_resolves_on_access():
    # the package loads its modules on first use; a submodule needs no
    # explicit import, as with the eager package
    out = fresh_python(
        "import sys, tripoint\n"
        "print(sorted(m for m in sys.modules if m.startswith('tripoint.')))\n"
        "print(tripoint.solver.__name__, tripoint.solve.__module__)\n"
    )
    assert out.splitlines() == ["[]", "tripoint.solver tripoint.solver"]


def test_dir_lists_every_export_before_any_is_loaded():
    out = fresh_python(
        "import tripoint\n"
        "listed = set(dir(tripoint))\n"
        "print(len(tripoint.__all__), *sorted(set(tripoint.__all__) - listed))\n"
    )
    assert out.split() == [str(len(tripoint.__all__))]
