"""Solver and verification toolkit for coupled third-order three-point BVPs.

The system

    -u'''(t) = f(t, v(t), v'(t))
    -v'''(t) = h(t, u(t), u'(t))
    u(0) = u'(0) = 0,  u'(1) = alpha u'(eta)
    v(0) = v'(0) = 0,  v'(1) = alpha v'(eta)

is solved through its Green's-function integral form, and the kernel bounds,
cone conditions and solution properties are certified by direct computation.
"""
from .expr import (
    EvalError,
    Expr,
    NonnegativityReport,
    ParseError,
    SamplingPlan,
    check_nonnegative_sampled,
    evaluate,
    parse,
    to_source,
)
from .gridfn import GridFunction, chebyshev_nodes, interpolate, solver_nodes
from .integral_op import CoupledState, apply_operator
from .kernel import (
    ProblemParams,
    g0_bound,
    g1_bound,
    green,
    green_dt,
    green_branches,
    green_dt_branches,
)
from .solver import SolveConfig, SolveError, SolveReport, bc_defect, residual, solve
from .verify import (
    CertificationReport,
    ConeMembershipReport,
    GrowthScan,
    KernelCheck,
    certify_kernel,
    cone_membership,
    default_scales,
    growth_scan,
)

__version__ = "0.1.0"

__all__ = [
    "CertificationReport",
    "ConeMembershipReport",
    "CoupledState",
    "EvalError",
    "Expr",
    "GridFunction",
    "GrowthScan",
    "KernelCheck",
    "NonnegativityReport",
    "ParseError",
    "ProblemParams",
    "SamplingPlan",
    "SolveConfig",
    "SolveError",
    "SolveReport",
    "apply_operator",
    "bc_defect",
    "certify_kernel",
    "check_nonnegative_sampled",
    "chebyshev_nodes",
    "cone_membership",
    "default_scales",
    "evaluate",
    "g0_bound",
    "g1_bound",
    "green",
    "green_branches",
    "green_dt",
    "green_dt_branches",
    "growth_scan",
    "interpolate",
    "parse",
    "residual",
    "solve",
    "solver_nodes",
    "to_source",
]
