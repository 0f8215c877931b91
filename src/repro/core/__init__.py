"""The UnSNAP transport solver core.

This package holds the paper's primary contribution: the discontinuous
Galerkin finite element sweep on an unstructured hexahedral mesh, organised
exactly as the pseudocode of Figure 2 --

    for all angular directions:
        for all elements in the angle's schedule (bucket by bucket):
            for all energy groups:
                assemble the local matrix A and vector b
                solve A psi = b

-- wrapped in SNAP's inner/outer source-iteration structure, with the
assemble and solve phases instrumented separately (the split reported in
Table II).
"""

from .assembly import ElementMatrices, AssemblyTimings
from .flux import FluxMoments, AngularFluxBank
from .source import build_outer_source, build_total_source, scattering_source
from .sweep import SweepExecutor, SweepResult, BoundaryValues
from .reflect import ReflectiveBoundary
from .iteration import IterationController, IterationHistory
from .solver import TransportSolver, TransportResult
from .convergence import relative_change, max_relative_difference
from .balance import BalanceReport, particle_balance

__all__ = [
    "ElementMatrices",
    "AssemblyTimings",
    "FluxMoments",
    "AngularFluxBank",
    "build_outer_source",
    "build_total_source",
    "scattering_source",
    "SweepExecutor",
    "SweepResult",
    "BoundaryValues",
    "ReflectiveBoundary",
    "IterationController",
    "IterationHistory",
    "TransportSolver",
    "TransportResult",
    "relative_change",
    "max_relative_difference",
    "BalanceReport",
    "particle_balance",
]
