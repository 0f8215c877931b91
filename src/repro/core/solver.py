"""The UnSNAP single-rank transport solver facade.

:class:`TransportSolver` wires together every substrate -- mesh construction
with twist, reference element and per-element factors, angular quadrature,
SNAP-style materials and source, the per-angle sweep schedules and the local
dense solver -- from a single :class:`~repro.config.ProblemSpec`, and exposes
``solve()`` which runs the inner/outer iteration and returns a
:class:`TransportResult` bundling the scalar flux, the iteration history, the
assemble/solve timing split (Table II) and the particle-balance diagnostics.

Multi-rank (block Jacobi) execution is provided by
:class:`repro.parallel.block_jacobi.BlockJacobiDriver`, which reuses the same
building blocks per subdomain.

The geometry -- mesh, reference element, element factors and matrices,
quadrature and sweep schedule -- depends on the spec's
:data:`~repro.config.GEOMETRY_FIELDS` alone, so the solver reuses the one
most recently built from a spec (:func:`geometry_for`): a process solving one
geometry with many cross sections, sources or drivers builds it once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..angular.quadrature import AngularQuadrature, snap_dummy_quadrature
from ..config import GEOMETRY_FIELDS, ProblemSpec
from ..fem.element import HexElementFactors
from ..fem.reference import ReferenceElement
from ..materials.cross_sections import MaterialLibrary
from ..materials.library import snap_option1_library
from ..materials.source_terms import FixedSource, uniform_source
from ..mesh.builder import StructuredGridSpec, build_snap_mesh
from ..mesh.hexmesh import UnstructuredHexMesh
from ..sweepsched.schedule import SweepSchedule, build_sweep_schedule
from ..telemetry import active
from .assembly import AssemblyTimings, ElementMatrices
from .balance import BalanceReport, particle_balance
from .flux import AngularFluxBank
from .iteration import IterationController, IterationHistory
from .reflect import ReflectiveBoundary
from .sweep import SweepExecutor, boundary_slots

__all__ = ["TransportSolver", "TransportResult", "Geometry", "geometry_for"]


@dataclass(frozen=True)
class Geometry:
    """Everything a solver derives from the geometry fields of its spec."""

    mesh: UnstructuredHexMesh
    ref: ReferenceElement
    factors: HexElementFactors
    matrices: ElementMatrices
    quadrature: AngularQuadrature
    schedule: SweepSchedule

    @classmethod
    def build(
        cls,
        spec: ProblemSpec,
        mesh: UnstructuredHexMesh | None = None,
        quadrature: AngularQuadrature | None = None,
    ) -> "Geometry":
        """Build from ``spec``, or around a caller's ``mesh``/``quadrature``."""
        if mesh is None:
            mesh = build_snap_mesh(
                StructuredGridSpec(spec.nx, spec.ny, spec.nz, spec.lx, spec.ly, spec.lz),
                max_twist=spec.max_twist,
                twist_axis=spec.twist_axis,
            )
        if quadrature is None:
            quadrature = snap_dummy_quadrature(spec.angles_per_octant)
        ref = ReferenceElement(spec.order)
        factors = HexElementFactors.build(mesh.cell_vertices(), ref)
        matrices = ElementMatrices.build(factors, ref)
        schedule = build_sweep_schedule(mesh, factors, quadrature)
        return cls(mesh, ref, factors, matrices, quadrature, schedule)


#: The process's one geometry slot: ``(key, geometry)`` of the last
#: :func:`geometry_for` miss.  Replaced in one assignment, so threads need no
#: lock -- two that miss together build equal geometries and either may win.
_slot: tuple[tuple[str, ...], Geometry] | None = None


def geometry_for(
    spec: ProblemSpec,
    mesh: UnstructuredHexMesh | None = None,
    quadrature: AngularQuadrature | None = None,
    telemetry=None,
) -> Geometry:
    """The geometry of ``spec``, shared with the last spec of equal geometry.

    The key is the ``repr`` of each :data:`~repro.config.GEOMETRY_FIELDS`
    value, so only bit-equal inputs share (``0.0`` and ``-0.0`` do not).
    Every array of a shared geometry is read-only: writing into one raises
    instead of changing every later run of that geometry in the process.
    A caller's ``mesh`` or ``quadrature`` bypasses the slot: the geometry is
    built around it, private and writable.  An enabled ``telemetry`` counts
    ``geometry_hits`` (reused) and ``geometry_misses`` (built).
    """
    global _slot
    key = tuple(repr(getattr(spec, name)) for name in GEOMETRY_FIELDS)
    slot = _slot
    bypass = mesh is not None or quadrature is not None
    hit = not bypass and slot is not None and slot[0] == key
    if telemetry is not None:
        telemetry.incr("geometry_hits" if hit else "geometry_misses")
    if hit:
        return slot[1]
    geometry = Geometry.build(spec, mesh, quadrature)
    if bypass:
        return geometry
    _freeze(geometry, set())
    _slot = (key, geometry)
    return geometry


def _freeze(obj, seen: set[int]) -> None:
    """Mark every ndarray reachable from ``obj`` read-only."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _freeze(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            _freeze(item, seen)
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            _freeze(item, seen)


@dataclass
class TransportResult:
    """Everything a solve produces.

    Attributes
    ----------
    scalar_flux:
        ``(E, G, N)`` nodal scalar flux of the final iterate.
    cell_average_flux:
        ``(E, G)`` volume-averaged scalar flux per cell.
    leakage:
        ``(G,)`` net boundary leakage of the final sweep.
    history:
        Inner/outer iteration record.
    timings:
        Assemble/solve wall-clock split accumulated over all sweeps.
    balance:
        Particle-balance diagnostics of the final iterate.
    setup_seconds, solve_seconds:
        Wall-clock time spent building the problem and running the iteration.
    spec:
        The problem specification that was solved.
    angular_flux:
        Full ``(E, A, G, N)`` angular flux of the final sweep (only when the
        solver was built with ``store_angular_flux=True``).
    """

    scalar_flux: np.ndarray
    cell_average_flux: np.ndarray
    leakage: np.ndarray
    history: IterationHistory
    timings: AssemblyTimings
    balance: BalanceReport
    setup_seconds: float
    solve_seconds: float
    spec: ProblemSpec | None = None
    angular_flux: "AngularFluxBank | None" = None

    @property
    def wall_seconds(self) -> float:
        """True wall-clock time: problem setup plus the iteration loop."""
        return self.setup_seconds + self.solve_seconds

    def summary(self) -> dict:
        """Compact dictionary used by reports and the CLI.

        ``wall_seconds`` is the true setup + solve wall clock; the iteration
        loop alone is reported as ``solve_wall_seconds`` (``solve_seconds``
        remains the in-kernel dense-solve time of the assemble/solve split).
        """
        return {
            "cells": self.scalar_flux.shape[0],
            "groups": self.scalar_flux.shape[1],
            "nodes_per_element": self.scalar_flux.shape[2],
            "total_inners": self.history.total_inners,
            "outers": self.history.num_outers,
            "assembly_seconds": self.timings.assembly_seconds,
            "solve_seconds": self.timings.solve_seconds,
            "solve_fraction": self.timings.solve_fraction,
            "balance_residual": self.balance.relative_residual(),
            "mean_flux": float(self.scalar_flux.mean()),
            "setup_seconds": self.setup_seconds,
            "solve_wall_seconds": self.solve_seconds,
            "wall_seconds": self.setup_seconds + self.solve_seconds,
        }


class TransportSolver:
    """Build and solve an UnSNAP problem on a single rank.

    Parameters
    ----------
    spec:
        The problem specification.
    materials, fixed_source, quadrature, mesh:
        Optional overrides of the SNAP-style defaults; anything not supplied
        is generated from ``spec`` (material/source "option 1", SNAP dummy
        quadrature, twisted structured-derived mesh).  Without ``mesh`` and
        ``quadrature`` the geometry comes from :func:`geometry_for` and its
        arrays are shared and read-only.
    engine:
        Sweep-engine override (name or instance); defaults to ``spec.engine``.
    num_threads:
        Worker threads (octant-level with ``octant_parallel``, otherwise
        the reference engine's independent bucket elements).
    octant_parallel:
        Octant-parallel sweep override; defaults to ``spec.octant_parallel``.
    store_angular_flux:
        Keep the full angular flux of the final sweep.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` instrument handed to the
        sweep executor (phases ``source``/``sweep``/``convergence`` plus the
        sweep counters); ``None`` keeps every path uninstrumented.
    """

    def __init__(
        self,
        spec: ProblemSpec,
        materials: MaterialLibrary | None = None,
        fixed_source: FixedSource | None = None,
        quadrature: AngularQuadrature | None = None,
        mesh: UnstructuredHexMesh | None = None,
        engine=None,
        num_threads: int = 1,
        octant_parallel: bool | None = None,
        store_angular_flux: bool = False,
        telemetry=None,
    ):
        t0 = time.perf_counter()
        self.spec = spec
        self.telemetry = telemetry

        geometry = geometry_for(spec, mesh, quadrature, active(telemetry))
        self.mesh = geometry.mesh
        self.ref = geometry.ref
        self.factors = geometry.factors
        self.matrices = geometry.matrices
        self.quadrature = geometry.quadrature
        self.schedule: SweepSchedule = geometry.schedule

        self.materials = (
            materials if materials is not None else snap_option1_library(
                spec.num_groups, spec.scattering_ratio
            )
        ).for_cells(self.mesh.num_cells)
        self.fixed_source = (
            fixed_source
            if fixed_source is not None
            else uniform_source(
                self.mesh.num_cells, self.materials.num_groups, spec.source_strength
            )
        )
        # Reflective boundaries reuse the halo machinery: every domain
        # boundary face collects its outgoing traces, which the iteration
        # controller mirrors back in as lagged ghosts (see core.reflect).
        reflective = None
        halo_faces = None
        if spec.boundary.kind == "reflective":
            halo_faces, _ = boundary_slots(self.mesh)  # the faces in slot order
            reflective = ReflectiveBoundary(self.quadrature, self.ref.basis, halo_faces)
        self.executor = SweepExecutor(
            mesh=self.mesh,
            factors=self.factors,
            ref=self.ref,
            matrices=self.matrices,
            schedule=self.schedule,
            quadrature=self.quadrature,
            materials=self.materials,
            boundary=spec.boundary,
            solver=spec.solver,
            engine=engine if engine is not None else spec.engine,
            halo_faces=halo_faces,
            num_threads=num_threads,
            octant_parallel=(
                spec.octant_parallel if octant_parallel is None else bool(octant_parallel)
            ),
            store_angular_flux=store_angular_flux,
            telemetry=telemetry,
            factor_cache_budget_bytes=spec.factor_cache_budget_bytes,
        )
        self.executor.reflective = reflective
        self.node_weights = self.matrices.node_int_weights
        self.setup_seconds = time.perf_counter() - t0

    # ---------------------------------------------------- factor-cache hooks
    def update_materials(self, materials: MaterialLibrary) -> None:
        """Swap the cross sections mid-run (invalidates cached LU factors).

        The next :meth:`solve` (or any further sweep through the executor)
        re-factorises against the new materials; see the factor-cache
        lifecycle notes in :mod:`repro.engines.base`.
        """
        self.materials = materials.for_cells(self.mesh.num_cells)
        self.executor.update_materials(self.materials)

    def invalidate_factor_cache(self) -> None:
        """Drop the executor's engine-memoised state (LU factors etc.)."""
        self.executor.invalidate_factor_cache()

    def set_engine(self, engine) -> None:
        """Switch the sweep engine on the reused executor (cache-safe).

        Forwards to :meth:`SweepExecutor.set_engine`, which invalidates the
        factor cache through the *outgoing* engine's hook.  ``self.spec``
        keeps its original ``engine`` name -- the spec describes the problem
        as built; reporting of the engine that actually ran is the
        :func:`repro.run` facade's job.
        """
        self.executor.set_engine(engine)

    # -------------------------------------------------------------------- solve
    def solve(
        self,
        initial_flux: np.ndarray | None = None,
        angular_source: np.ndarray | None = None,
    ) -> TransportResult:
        """Run the inner/outer iteration and return the full result bundle.

        ``angular_source`` is an optional ``(A, E, G, N)`` per-ordinate fixed
        source added to every sweep (see :meth:`SweepExecutor.sweep
        <repro.core.sweep.SweepExecutor.sweep>`); the manufactured-solutions
        suite drives convergence studies through it.
        """
        controller = IterationController(
            executor=self.executor,
            materials=self.materials,
            fixed_source=self.fixed_source,
            num_inners=self.spec.num_inners,
            num_outers=self.spec.num_outers,
            inner_tolerance=self.spec.inner_tolerance,
            outer_tolerance=self.spec.outer_tolerance,
        )
        t0 = time.perf_counter()
        scalar, last_sweep, history, timings = controller.run(
            initial_flux=initial_flux, angular_source=angular_source
        )
        solve_seconds = time.perf_counter() - t0

        balance = particle_balance(
            scalar_flux=scalar,
            node_weights=self.node_weights,
            materials=self.materials,
            fixed=self.fixed_source,
            leakage=last_sweep.leakage,
            volumes=self.factors.volumes,
        )
        cell_average = (
            np.einsum("egn,en->eg", scalar, self.node_weights) / self.factors.volumes[:, None]
        )
        return TransportResult(
            scalar_flux=scalar,
            cell_average_flux=cell_average,
            leakage=last_sweep.leakage,
            history=history,
            timings=timings,
            balance=balance,
            setup_seconds=self.setup_seconds,
            solve_seconds=solve_seconds,
            spec=self.spec,
            angular_flux=last_sweep.angular_flux,
        )

    # --------------------------------------------------------------- inspection
    def memory_report(self) -> dict:
        """Memory footprint of the major arrays (Section II-C discussion)."""
        angular_bytes = self.spec.angular_flux_bytes()
        return {
            "angular_flux_bytes": angular_bytes,
            "element_factor_bytes": self.factors.memory_footprint_bytes(),
            "element_matrix_bytes": self.matrices.memory_footprint_bytes(),
            "fd_equivalent_angular_flux_bytes": angular_bytes // self.spec.nodes_per_element,
            "fem_to_fd_ratio": float(self.spec.nodes_per_element),
        }
