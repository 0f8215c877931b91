"""The transport sweep executor.

For each angular direction the sweep follows the direction's bucket schedule;
how the buckets are executed is delegated to a pluggable *sweep engine*
(:mod:`repro.engines`): the ``reference`` engine runs the per-element
assemble/solve loop of the paper's Figure 2 pseudocode, while ``vectorized``,
``prefactorized`` and ``compiled`` share one batched bucket loop and differ
in how a bucket's systems are built and solved.  Every engine times its
assemble and solve phases separately to reproduce the split of Table II.

Boundary handling:

* domain-boundary inflow faces use the problem's boundary condition (vacuum
  or a prescribed isotropic incident flux);
* rank-boundary inflow faces (present when the mesh is a subdomain of a
  block-Jacobi decomposition) use *lagged* upwind traces supplied through
  :class:`BoundaryValues`, which is exactly the parallel block Jacobi scheme
  of Section III-A.1, held as ``(A, F_b, G, N)`` arrays by boundary-face slot.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..angular.quadrature import AngularQuadrature
from ..config import BoundaryCondition
from ..engines.base import SweepEngine
from ..engines.registry import get_engine
from ..fem.element import HexElementFactors
from ..fem.reference import ReferenceElement
from ..materials.cross_sections import MaterialLibrary
from ..mesh.hexmesh import UnstructuredHexMesh
from ..solvers.registry import LocalSolver, get_solver
from ..sweepsched.schedule import SweepSchedule
from ..telemetry import Telemetry
from ..telemetry import active as telemetry_active
from .assembly import AssemblyTimings, ElementMatrices
from .factor_cache import FactorCache
from .flux import AngularFluxBank

__all__ = ["BoundaryValues", "BoundaryFaceTable", "SweepResult", "SweepExecutor", "boundary_slots"]


def boundary_slots(mesh: UnstructuredHexMesh) -> tuple[np.ndarray, np.ndarray]:
    """``(faces, slot)``: ``mesh.boundary_faces()``, face ``faces[s]`` owning
    slot ``s``, and the ``(E, 6)`` slot of every face (-1 on interior ones)."""
    faces = mesh.boundary_faces()
    slot = np.full((mesh.num_cells, 6), -1, dtype=np.int64)
    slot[faces[:, 0], faces[:, 1]] = np.arange(faces.shape[0])
    return faces, slot


@dataclass
class BoundaryValues:
    """Lagged upwind traces by boundary-face slot (:func:`boundary_slots`).

    ``traces[angle, slot]`` is the ``(G, N)`` nodal angular flux of the
    upwind neighbour across face ``slot`` -- a remote rank's cell from the
    last block-Jacobi iteration, or a reflective face's mirror image --
    where ``present[angle, slot]`` is set; absent slots (all of them in the
    first iteration) fall back to the boundary condition.  ``None`` arrays
    are an empty table, allocated by the first write.
    """

    traces: np.ndarray | None = None
    present: np.ndarray | None = None

    def allocate(self, *shape: int) -> BoundaryValues:
        """Unless allocated, zero ``shape = (A, F_b, G, N)`` traces, none present."""
        if self.traces is None:
            self.traces = np.zeros(shape)
            self.present = np.zeros(shape[:2], dtype=bool)
        return self

    def get(self, angle: int, slot: int) -> np.ndarray | None:
        present = self.present is not None and self.present[angle, slot]
        return self.traces[angle, slot] if present else None

    def __len__(self) -> int:
        return 0 if self.present is None else int(np.count_nonzero(self.present))


@dataclass(frozen=True)
class BoundaryFaceTable:
    """Static per-executor index of the mesh's boundary faces.

    Built from the mesh, the halo set, the schedule, the quadrature, the
    own-face matrices and the boundary condition only (see
    :meth:`SweepExecutor.boundary_table`), so it never changes over an
    executor's life.  Boundary face ``faces[s]`` owns *slot* ``s``
    (:func:`boundary_slots`): the per-angle epilogue walks the slots instead
    of rescanning the mesh, :class:`BoundaryValues` are indexed by slot, and
    the ``compiled`` engine appends one ghost row per slot to an angle's
    flux array so boundary inflow is read like any interior upwind trace.

    Attributes
    ----------
    faces:
        ``(F_b, 2)`` ``(cell, face)`` pairs, ``mesh.boundary_faces()``.
    slot:
        ``(E, 6)`` slot of every boundary face, ``-1`` on interior faces.
    halo:
        ``(F_b,)`` whether the face is a rank-interface (halo) face.
    leakage:
        Per angle, ``(cells, weights, inflow_at, inflow_coef)`` over the
        non-halo faces, in slot order: the cells of the ``K`` outflow faces
        and their ``(K, N)`` rows ``(Omega . face_own).sum(axis=0)``, whose
        product with the cell's ``(G, N)`` flux is the face's outflow; then,
        with a nonzero incident flux only, the inflow faces' positions among
        those rows and their ``(Omega . face_own).sum()`` coefficients.
    halo_outflow:
        ``(A, F_b)`` mask of the halo slots with orientation +1 per angle:
        the traces a sweep hands to the halo exchange, and the ``present``
        mask of every :attr:`SweepResult.outgoing_halo` (shared, read-only).
    halo_cells:
        Per angle, ``(slots, cells)`` of those slots: the sweep's one gather
        ``traces[angle, slots] = psi_angle[cells]``.
    """

    faces: np.ndarray
    slot: np.ndarray
    halo: np.ndarray
    leakage: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    halo_outflow: np.ndarray
    halo_cells: list[tuple[np.ndarray, np.ndarray]]


@dataclass
class SweepResult:
    """Outcome of one full sweep over all octants, angles and groups.

    Attributes
    ----------
    scalar_flux:
        ``(E, G, N)`` nodal scalar flux accumulated with the quadrature
        weights.
    leakage:
        ``(G,)`` net outflow through the domain boundary.
    timings:
        Assemble/solve wall-clock split.
    outgoing_halo:
        This rank's cells' nodal angular flux on outflow halo faces by slot
        (``present`` is the table's ``halo_outflow``), which the halo swap
        exchanges and reflective boundaries mirror; ``None`` without halos.
    angular_flux:
        Optional full angular-flux bank (only when requested).
    """

    scalar_flux: np.ndarray
    leakage: np.ndarray
    timings: AssemblyTimings
    outgoing_halo: BoundaryValues | None = None
    angular_flux: AngularFluxBank | None = None


class SweepExecutor:
    """Performs transport sweeps over a (sub)mesh.

    Parameters
    ----------
    mesh, factors, ref:
        The mesh, its per-element geometric factors and the shared
        reference-element tabulation.
    matrices:
        Precomputed direction-independent local matrices.
    schedule:
        Per-angle sweep schedules.
    quadrature:
        The angular quadrature set.
    materials:
        Material library with a per-cell assignment covering the mesh.
    boundary:
        Domain boundary condition.
    solver:
        Local solver instance or registry name (``"ge"`` / ``"lapack"``).
    engine:
        Sweep engine instance or registry name (``"reference"``,
        ``"vectorized"``, ``"prefactorized"``, ``"compiled"`` or any
        :func:`repro.engines.register_engine`-ed name).
    halo_faces:
        Optional ``(n_halo, >=2)`` array whose first two columns are the
        ``(cell, face)`` boundary faces shared with other ranks; outgoing
        traces on them are collected into :attr:`SweepResult.outgoing_halo`.
    num_threads:
        Number of worker threads (functional parallelism; the performance
        study of the paper is reproduced by :mod:`repro.perfmodel`).  With
        ``octant_parallel`` the threads dispatch whole octants; otherwise
        the ``reference`` engine uses them to process independent elements
        of a bucket concurrently.
    octant_parallel:
        Sweep the 8 octants concurrently on a thread pool.  The buckets of
        different octants are independent, so each octant's angles are
        processed by one worker and the per-octant partial results are
        reduced in a fixed octant order -- the scalar flux is bit-for-bit
        identical whatever ``num_threads`` is.
    store_angular_flux:
        Keep the full ``(E, A, G, N)`` angular flux in the sweep result.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` instrument.  When set,
        every sweep is recorded as a ``sweep`` phase with counters (local
        solves, assemble/solve seconds, factor-cache hits/misses/spills from
        caching engines, octant-pool occupancy); when ``None`` (the default)
        the sweep path performs no telemetry work at all.
    factor_cache_budget_bytes:
        Byte budget of the engine factor cache (:class:`~repro.core.
        factor_cache.FactorCache`); 0 (the default) keeps it unbounded.
        Budgeted caches spill least-recently-used entries and the owning
        engine transparently recomputes them -- results are bit-for-bit
        identical either way.
    """

    def __init__(
        self,
        mesh: UnstructuredHexMesh,
        factors: HexElementFactors,
        ref: ReferenceElement,
        matrices: ElementMatrices,
        schedule: SweepSchedule,
        quadrature: AngularQuadrature,
        materials: MaterialLibrary,
        boundary: BoundaryCondition | None = None,
        solver: LocalSolver | str = "ge",
        engine: SweepEngine | str = "reference",
        halo_faces: np.ndarray | None = None,
        num_threads: int = 1,
        octant_parallel: bool = False,
        store_angular_flux: bool = False,
        telemetry: Telemetry | None = None,
        factor_cache_budget_bytes: int = 0,
    ):
        self.mesh = mesh
        self.factors = factors
        self.ref = ref
        self.matrices = matrices
        self.schedule = schedule
        self.quadrature = quadrature
        self.materials = materials.for_cells(mesh.num_cells)
        self.boundary = boundary if boundary is not None else BoundaryCondition()
        self._solver = get_solver(solver) if isinstance(solver, str) else solver
        self._engine = get_engine(engine)
        self.num_threads = max(1, int(num_threads))
        self.octant_parallel = bool(octant_parallel)
        self.store_angular_flux = bool(store_angular_flux)
        #: Optional phase/counter instrument; ``None`` keeps sweeps free of
        #: any telemetry work (the zero-overhead contract).
        self.telemetry = telemetry

        self.sigma_t = self.materials.sigma_t_per_cell()  # (E, G)
        self.num_groups = self.materials.num_groups
        self.num_nodes = matrices.num_nodes

        #: Engine-owned memoisation storage (e.g. the ``prefactorized``
        #: engine's LU factors), keyed by engine-namespaced tuples; see the
        #: factor-cache lifecycle notes in :mod:`repro.engines.base`.
        #: Dict-shaped; an optional byte budget adds LRU spill semantics.
        self.factor_cache = FactorCache(factor_cache_budget_bytes)
        self.factor_cache.telemetry = telemetry
        self._factor_epoch = 0
        # Lazily-created octant worker pool, reused across sweeps (a solve
        # runs num_outers * num_inners of them).
        self._octant_pool: ThreadPoolExecutor | None = None

        self._halo_set: set[tuple[int, int]] = set()
        if halo_faces is not None and len(halo_faces):
            halo_faces = np.asarray(halo_faces, dtype=np.int64)
            self._halo_set = {(int(c), int(f)) for c, f in halo_faces[:, :2]}
        # Built by the first sweep that needs it, never here: keeps set-up cheap.
        self._boundary_table: BoundaryFaceTable | None = None

        #: Optional :class:`~repro.core.reflect.ReflectiveBoundary` helper.
        #: When set (by :class:`~repro.core.solver.TransportSolver` for
        #: ``boundary.kind == "reflective"``), the iteration controller
        #: mirrors each sweep's outgoing halo traces back into the lagged
        #: ghost table.
        self.reflective = None

    # ------------------------------------------------- engine/solver switching
    @property
    def engine(self) -> SweepEngine:
        """The sweep engine; assigning goes through :meth:`set_engine`."""
        return self._engine

    @engine.setter
    def engine(self, value: SweepEngine | str) -> None:
        self.set_engine(value)

    @property
    def solver(self) -> LocalSolver:
        """The local solver; assigning goes through :meth:`set_solver`."""
        return self._solver

    @solver.setter
    def solver(self, value: LocalSolver | str) -> None:
        self.set_solver(value)

    def set_engine(self, engine: SweepEngine | str) -> None:
        """Switch the sweep engine on this (reused) executor.

        Engine-memoised state in :attr:`factor_cache` belongs to the outgoing
        engine, so switching invalidates the cache first -- with the *old*
        engine still installed, so its ``invalidate_cache`` hook (not the new
        engine's) is the one notified.  Re-assigning the same engine instance
        is a no-op and keeps the cache warm.
        """
        new = get_engine(engine)
        if new is self._engine:
            return
        self.invalidate_factor_cache()
        self._engine = new

    def set_solver(self, solver: LocalSolver | str) -> None:
        """Switch the local solver on this (reused) executor.

        Cached factorisations were produced by the outgoing solver's
        ``factor_batched`` and are meaningless to another solver's
        ``solve_factored`` (the packed formats differ), so switching
        invalidates the factor cache.  Re-assigning the same solver is a
        no-op.
        """
        new = get_solver(solver) if isinstance(solver, str) else solver
        if new is self._solver:
            return
        self.invalidate_factor_cache()
        self._solver = new

    # ----------------------------------------------------- factor-cache hooks
    @property
    def element_threads(self) -> int:
        """Threads available for *within-bucket* element parallelism.

        When the executor parallelises over octants the worker threads are
        spent at the octant level, so engines must not nest their own pools.
        """
        return 1 if self.octant_parallel else self.num_threads

    @property
    def factor_epoch(self) -> int:
        """Monotone counter bumped by every cache invalidation."""
        return self._factor_epoch

    def invalidate_factor_cache(self) -> None:
        """Drop all engine-memoised state (LU factors, cached couplings).

        Called whenever an input the cached data depends on changes -- the
        cross sections via :meth:`update_materials`, or externally mutated
        materials/matrices.  Engines exposing an ``invalidate_cache`` hook
        are notified before the storage is cleared.
        """
        self._factor_epoch += 1
        hook = getattr(self.engine, "invalidate_cache", None)
        if hook is not None:
            hook(self)
        self.factor_cache.clear()

    def update_materials(self, materials: MaterialLibrary) -> None:
        """Swap the material library mid-run and invalidate cached factors.

        The new library must cover the executor's mesh and keep the group
        count (the flux shapes are fixed at construction time).
        """
        materials = materials.for_cells(self.mesh.num_cells)
        if materials.num_groups != self.num_groups:
            raise ValueError(
                f"new materials have {materials.num_groups} groups, "
                f"executor was built with {self.num_groups}"
            )
        self.materials = materials
        self.sigma_t = materials.sigma_t_per_cell()
        self.invalidate_factor_cache()

    # ---------------------------------------------------------- boundary faces
    @property
    def sees_boundary_inflow(self) -> bool:
        """Whether any sweep of this executor can meet nonzero boundary inflow.

        True with a nonzero incident flux or with halo faces (the faces
        lagged traces arrive on: rank interfaces, reflective boundaries).
        Fixed by the constructor arguments; a vacuum single-rank executor
        answers False and engines may skip boundary inflow altogether.
        """
        return self.boundary.incoming_value() != 0.0 or bool(self._halo_set)

    def boundary_table(self) -> BoundaryFaceTable:
        """The static :class:`BoundaryFaceTable`, built on first use.

        A pure function of mesh, halo set, schedule, quadrature,
        ``matrices.face_own`` and the boundary condition: octant workers
        racing on the first sweep build equal tables and either may win.
        """
        table = self._boundary_table
        if table is None:
            faces, slot = boundary_slots(self.mesh)
            cells, local = faces[:, 0], faces[:, 1]
            halo = np.array([(c, f) in self._halo_set for c, f in faces.tolist()], dtype=bool)
            incident = self.boundary.incoming_value() != 0.0
            face_own = self.matrices.face_own

            def omega_face_own(direction, chosen):
                # Plain einsum: the contraction order of the per-face tally.
                return np.einsum("d,kdij->kij", direction, face_own[cells[chosen], local[chosen]])

            leakage = []
            halo_outflow = np.empty((self.quadrature.num_angles, faces.shape[0]), dtype=bool)
            for angle in range(self.quadrature.num_angles):
                orientation = self.schedule.for_angle(angle).classification.orientation
                on_boundary = orientation[cells, local]
                direction = self.quadrature.directions[angle]
                outflow = np.nonzero((on_boundary == 1) & ~halo)[0]
                incoming = np.nonzero((on_boundary == -1) & ~halo & incident)[0]
                leakage.append((
                    cells[outflow],
                    omega_face_own(direction, outflow).sum(axis=1),
                    np.searchsorted(outflow, incoming),
                    omega_face_own(direction, incoming).sum(axis=(1, 2)),
                ))
                halo_outflow[angle] = (on_boundary == 1) & halo
            halo_outflow.setflags(write=False)  # every outgoing halo's mask
            table = self._boundary_table = BoundaryFaceTable(
                faces=faces,
                slot=slot,
                halo=halo,
                leakage=leakage,
                halo_outflow=halo_outflow,
                halo_cells=[(s, cells[s]) for s in map(np.flatnonzero, halo_outflow)],
            )
        return table

    # ------------------------------------------------------------------ sweep
    def sweep(
        self,
        total_source: np.ndarray,
        boundary_values: BoundaryValues | None = None,
        angular_source: np.ndarray | None = None,
    ) -> SweepResult:
        """Perform one full sweep of all octants, angles and groups.

        Parameters
        ----------
        total_source:
            ``(E, G, N)`` isotropic source density at the element nodes
            (fixed + scattering).
        boundary_values:
            Lagged upwind traces for rank-boundary faces (block Jacobi).
        angular_source:
            Optional ``(A, E, G, N)`` per-ordinate source added on top of the
            isotropic one.  Engines never see it as a separate argument: the
            executor hands each angle the combined ``(E, G, N)`` density, so
            every registered engine supports it unchanged.  This is the
            method-of-manufactured-solutions hook used by
            :mod:`repro.verify.mms` (a manufactured angular flux needs the
            anisotropic ``Omega . grad psi`` term in its source).
        """
        tel = telemetry_active(self.telemetry)
        if tel is None:
            # Telemetry off: the exact pre-instrumentation code path -- no
            # timers, no context managers, no counter updates.
            return self._sweep_impl(total_source, boundary_values, angular_source)
        with tel.phase("sweep"):
            result = self._sweep_impl(total_source, boundary_values, angular_source)
        tel.incr("sweeps")
        tel.incr("local_solves", result.timings.systems_solved)
        tel.incr("sweep_assembly_seconds", result.timings.assembly_seconds)
        tel.incr("sweep_solve_seconds", result.timings.solve_seconds)
        if self.octant_parallel:
            tel.gauge(
                "octant_pool_workers",
                min(len(self.quadrature.octant_order()), self.num_threads) or 1,
            )
        return result

    def _sweep_impl(
        self,
        total_source: np.ndarray,
        boundary_values: BoundaryValues | None = None,
        angular_source: np.ndarray | None = None,
    ) -> SweepResult:
        mesh = self.mesh
        num_elements = mesh.num_cells
        num_groups = self.num_groups
        num_nodes = self.num_nodes
        expected = (num_elements, num_groups, num_nodes)
        total_source = np.asarray(total_source, dtype=float)
        if total_source.shape != expected:
            raise ValueError(f"total_source must have shape {expected}, got {total_source.shape}")
        if angular_source is not None:
            angular_source = np.asarray(angular_source, dtype=float)
            expected_angular = (self.quadrature.num_angles, *expected)
            if angular_source.shape != expected_angular:
                raise ValueError(
                    f"angular_source must have shape {expected_angular}, "
                    f"got {angular_source.shape}"
                )

        bank = (
            AngularFluxBank.zeros(num_elements, self.quadrature.num_angles, num_groups, num_nodes)
            if self.store_angular_flux
            else None
        )

        outgoing_halo = None
        if self._halo_set:
            outflow = self.boundary_table().halo_outflow
            outgoing_halo = BoundaryValues(np.zeros(outflow.shape + expected[1:]), outflow)

        incident = self.boundary.incoming_value()
        octants = self.quadrature.octant_order()

        if self.octant_parallel:
            # The buckets of different octants are independent, so whole
            # octants are dispatched across a thread pool.  Each worker
            # accumulates its own partials (in fixed angle order) and the
            # main thread reduces them in fixed octant order, so the result
            # is bit-for-bit identical for any number of worker threads.
            if self._octant_pool is None:
                self._octant_pool = ThreadPoolExecutor(
                    max_workers=min(len(octants), self.num_threads) or 1
                )
            futures = [
                self._octant_pool.submit(
                    self._sweep_angles,
                    octant_angles, total_source, boundary_values, incident, bank,
                    outgoing_halo, angular_source,
                )
                for octant_angles in octants
            ]
            scalar = np.zeros(expected, dtype=float)
            leakage = np.zeros(num_groups, dtype=float)
            timings = AssemblyTimings()
            for future in futures:
                part_scalar, part_leakage, part_timings = future.result()
                scalar += part_scalar
                leakage += part_leakage
                timings = timings.merge(part_timings)
        else:
            # One partial over every angle, octant by octant: the serial
            # reduction is angle by angle, not per-octant partial sums.
            scalar, leakage, timings = self._sweep_angles(
                np.concatenate(octants), total_source, boundary_values, incident, bank,
                outgoing_halo, angular_source,
            )

        return SweepResult(
            scalar_flux=scalar,
            leakage=leakage,
            timings=timings,
            outgoing_halo=outgoing_halo,
            angular_flux=bank,
        )

    # ------------------------------------------------------- a run of angles
    def _sweep_angles(
        self,
        angles: np.ndarray,
        total_source: np.ndarray,
        boundary_values: BoundaryValues | None,
        incident: float,
        bank: AngularFluxBank | None,
        outgoing_halo: BoundaryValues | None,
        angular_source: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, AssemblyTimings]:
        """Sweep ``angles`` in order and return their partial reductions.

        The whole quadrature on the serial path, one octant on an octant
        worker thread: every accumulator is local to the call and the
        angular-flux bank and outgoing-halo entries of different angles are
        disjoint, so concurrent octants never write the same memory.
        """
        timings = AssemblyTimings()
        scalar = np.zeros((self.mesh.num_cells, self.num_groups, self.num_nodes), dtype=float)
        leakage = np.zeros(self.num_groups, dtype=float)
        for angle in angles.tolist():
            source = (
                total_source if angular_source is None else total_source + angular_source[angle]
            )
            psi_angle = self.engine.sweep_angle(
                self, angle, source, boundary_values, incident, timings
            )
            weight = self.quadrature.weights[angle]
            scalar += weight * psi_angle
            leakage += weight * self._boundary_leakage(angle, psi_angle, incident)
            if outgoing_halo is not None:
                slots, cells = self.boundary_table().halo_cells[angle]
                outgoing_halo.traces[angle, slots] = psi_angle[cells]
            if bank is not None:
                bank.psi[:, angle] = psi_angle
        return scalar, leakage, timings

    # ------------------------------------------------------------ diagnostics
    def _boundary_leakage(self, angle: int, psi_angle: np.ndarray, incident: float) -> np.ndarray:
        """Net outflow minus inflow through the domain boundary, per group.

        One row per non-halo boundary face (rank-interface flow is the halo
        exchange's), summed in slot order: the outflow faces' ``oint (Omega.n)
        psi dS`` as one batched product with the table's weight rows, the
        incident inflow (constant over the face: ``psi = incident``) spliced
        in at its slot positions.
        """
        cells, weights, inflow_at, inflow_coef = self.boundary_table().leakage[angle]
        rows = np.matmul(psi_angle[cells], weights[:, :, None])[:, :, 0]
        if inflow_at.size:
            rows = np.insert(rows, inflow_at, incident * inflow_coef[:, None], axis=0)
        # A running sum from zero in slot order, as the per-face tally added
        # its rows (an axis-0 sum turns pairwise when G == 1).
        rows = np.concatenate([np.zeros((1, self.num_groups)), rows])
        return np.add.accumulate(rows, axis=0)[-1]
