"""Safeguarded Anderson acceleration for fixed-point iterations, with a
Douglas-Rachford conic QP/SDP solver as the reference operator and a
benchmark harness comparing vanilla, unsafe, and safeguarded runs."""

from .accel import AccelMemory, eta_guard
from .bench import BenchSummary, run_benchmark, shifted_gmean
from .cones import ConeBlock, project_cone, smat, svec
from .conic import Certificate, ConicProblem, ConicSolution, DrsOperator, solve, solve_config
from .driver import (
    Driver,
    DriverConfig,
    FixedPointState,
    Hooks,
    RunRecord,
    run,
    run_unsafe,
    run_vanilla,
)
from .operators import AffineTestOperator, FixedPointOperator
from .problems import generate, load_problem, save_problem

__all__ = [
    "AccelMemory",
    "AffineTestOperator",
    "BenchSummary",
    "Certificate",
    "ConeBlock",
    "ConicProblem",
    "ConicSolution",
    "Driver",
    "DriverConfig",
    "DrsOperator",
    "FixedPointOperator",
    "FixedPointState",
    "Hooks",
    "RunRecord",
    "eta_guard",
    "generate",
    "load_problem",
    "project_cone",
    "run",
    "run_benchmark",
    "run_unsafe",
    "run_vanilla",
    "save_problem",
    "shifted_gmean",
    "smat",
    "solve",
    "solve_config",
    "svec",
]
