"""Inner/outer source-iteration controller.

UnSNAP retains SNAP's iteration structure: outer iterations perform Jacobi
updates of the group-to-group scattering coupling, and inner iterations
converge the within-group scattering source, each inner performing a full
sweep of every octant, angle and group.  The controller is independent of how
the sweep itself is executed (single rank or one subdomain of a block-Jacobi
decomposition), which is why the parallel driver reuses it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..materials.cross_sections import MaterialLibrary
from ..materials.source_terms import FixedSource
from ..telemetry import active, phase
from .assembly import AssemblyTimings
from .convergence import max_relative_difference
from .source import build_outer_source, build_total_source
from .sweep import BoundaryValues, SweepExecutor, SweepResult

__all__ = ["IterationHistory", "IterationController"]


@dataclass
class IterationHistory:
    """Record of the iteration progress.

    Attributes
    ----------
    inner_errors:
        Maximum relative scalar-flux change of every inner iteration, in
        execution order.
    outer_errors:
        Maximum relative scalar-flux change of every outer iteration.
    inners_per_outer:
        Number of inner iterations actually performed in each outer.
    converged:
        Whether the final outer satisfied its tolerance (always ``False``
        when tolerances are disabled, as in the paper's timing runs).
    """

    inner_errors: list[float] = field(default_factory=list)
    outer_errors: list[float] = field(default_factory=list)
    inners_per_outer: list[int] = field(default_factory=list)
    converged: bool = False

    @property
    def total_inners(self) -> int:
        return sum(self.inners_per_outer)

    @property
    def num_outers(self) -> int:
        return len(self.outer_errors)


class IterationController:
    """Drives the inner/outer source iteration over a sweep executor.

    Parameters
    ----------
    executor:
        The sweep executor for this (sub)domain.
    materials:
        Material library covering the executor's mesh.
    fixed_source:
        The fixed (external) source.
    num_inners, num_outers:
        Iteration limits.
    inner_tolerance, outer_tolerance:
        Early-exit tolerances on the maximum relative scalar-flux change;
        non-positive values disable the test (fixed iteration counts).
    """

    def __init__(
        self,
        executor: SweepExecutor,
        materials: MaterialLibrary,
        fixed_source: FixedSource,
        num_inners: int = 5,
        num_outers: int = 1,
        inner_tolerance: float = 0.0,
        outer_tolerance: float = 0.0,
    ):
        self.executor = executor
        self.materials = materials.for_cells(executor.mesh.num_cells)
        self.fixed_source = fixed_source
        self.num_inners = int(num_inners)
        self.num_outers = int(num_outers)
        self.inner_tolerance = float(inner_tolerance)
        self.outer_tolerance = float(outer_tolerance)

        if fixed_source.num_cells != executor.mesh.num_cells:
            raise ValueError("fixed source does not cover the executor's mesh")
        if fixed_source.num_groups != self.materials.num_groups:
            raise ValueError("fixed source and materials disagree on the group count")

    def run(
        self,
        initial_flux: np.ndarray | None = None,
        boundary_values: BoundaryValues | None = None,
        angular_source: np.ndarray | None = None,
    ) -> tuple[np.ndarray, SweepResult, IterationHistory, AssemblyTimings]:
        """Run the full outer/inner iteration.

        ``angular_source`` is an optional ``(A, E, G, N)`` per-ordinate fixed
        source forwarded to every sweep (the manufactured-solutions hook of
        :mod:`repro.verify.mms`); the scattering sources built here stay
        isotropic.

        Returns
        -------
        ``(scalar_flux, last_sweep, history, timings)`` where ``scalar_flux``
        is the final ``(E, G, N)`` nodal scalar flux, ``last_sweep`` the
        result of the final sweep (leakage, halo data), ``history`` the
        iteration record and ``timings`` the accumulated assemble/solve
        split over all sweeps.
        """
        executor = self.executor
        num_elements = executor.mesh.num_cells
        shape = (num_elements, executor.num_groups, executor.num_nodes)
        scalar = (
            np.zeros(shape, dtype=float)
            if initial_flux is None
            else np.array(initial_flux, dtype=float, copy=True)
        )
        if scalar.shape != shape:
            raise ValueError(f"initial_flux must have shape {shape}, got {scalar.shape}")

        history = IterationHistory()
        timings = AssemblyTimings()
        last_sweep: SweepResult | None = None
        # Reflective boundaries lag the mirrored traces through a
        # BoundaryValues table that persists across sweeps (and, when the
        # caller owns it, across driver iterations).
        reflective = getattr(executor, "reflective", None)
        if reflective is not None and boundary_values is None:
            boundary_values = BoundaryValues()
        # The sweep itself records its own phase; the controller attributes
        # the source builds and convergence tests around it.  With telemetry
        # off, phase() hands back a shared no-op context.
        tel = active(getattr(executor, "telemetry", None))

        for _outer in range(self.num_outers):
            outer_flux = scalar.copy()
            with phase(tel, "source"):
                outer_source = build_outer_source(
                    self.fixed_source, self.materials, outer_flux, executor.num_nodes
                )
            inners_done = 0
            for _inner in range(self.num_inners):
                with phase(tel, "source"):
                    total_source = build_total_source(outer_source, self.materials, scalar)
                result = executor.sweep(
                    total_source,
                    boundary_values=boundary_values,
                    angular_source=angular_source,
                )
                timings = timings.merge(result.timings)
                last_sweep = result
                if reflective is not None:
                    reflective.update(boundary_values, result.outgoing_halo)
                with phase(tel, "convergence"):
                    inner_error = max_relative_difference(result.scalar_flux, scalar)
                history.inner_errors.append(inner_error)
                scalar = result.scalar_flux
                inners_done += 1
                if self.inner_tolerance > 0.0 and inner_error <= self.inner_tolerance:
                    break
            history.inners_per_outer.append(inners_done)
            with phase(tel, "convergence"):
                outer_error = max_relative_difference(scalar, outer_flux)
            history.outer_errors.append(outer_error)
            if self.outer_tolerance > 0.0 and outer_error <= self.outer_tolerance:
                history.converged = True
                break

        assert last_sweep is not None
        return scalar, last_sweep, history, timings
