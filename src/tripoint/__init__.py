"""Solver and verification toolkit for coupled third-order three-point BVPs.

The system

    -u'''(t) = f(t, v(t), v'(t))
    -v'''(t) = h(t, u(t), u'(t))
    u(0) = u'(0) = 0,  u'(1) = alpha u'(eta)
    v(0) = v'(0) = 0,  v'(1) = alpha v'(eta)

is solved through its Green's-function integral form, and the kernel bounds,
cone conditions and solution properties are certified by direct computation.
"""
from . import expr, gridfn, integral_op, kernel, solver, verify
from .expr import *  # noqa: F401,F403
from .gridfn import *  # noqa: F401,F403
from .integral_op import *  # noqa: F401,F403
from .kernel import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

# each public name is declared once, in its module's __all__
__all__ = [name for m in (expr, gridfn, integral_op, kernel, solver, verify) for name in m.__all__]
