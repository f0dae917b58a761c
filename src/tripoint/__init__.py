"""Solver and verification toolkit for coupled third-order three-point BVPs.

The system

    -u'''(t) = f(t, v(t), v'(t))
    -v'''(t) = h(t, u(t), u'(t))
    u(0) = u'(0) = 0,  u'(1) = alpha u'(eta)
    v(0) = v'(0) = 0,  v'(1) = alpha v'(eta)

is solved through its Green's-function integral form, and the kernel bounds,
cone conditions and solution properties are certified by direct computation.

The package imports its modules on first use (PEP 562): ``tripoint.solve``
loads the solver, ``tripoint.kernel`` the kernel alone, so a caller pays
only for what it runs.
"""
import importlib

__version__ = "0.1.0"

#: the library modules, each after the ones it imports, so that looking a
#: name up loads little beyond the module that declares it; verify needs only
#: the kernel until a growth scan runs, so certify_kernel loads those two
_MODULES = ("kernel", "verify", "gridfn", "expr", "integral_op", "solver")


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        return importlib.import_module(f".{name}", __name__)
    if name == "__all__":
        # each public name is declared once, in its module's __all__
        value = [n for m in _MODULES for n in importlib.import_module(f".{m}", __name__).__all__]
    else:
        # a private name is in no __all__: do not load every module to say so
        modules = () if name.startswith("_") else _MODULES
        for m in modules:
            module = importlib.import_module(f".{m}", __name__)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
