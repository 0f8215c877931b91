"""The parallel block-Jacobi driver over a KBA-style 2-D decomposition.

Every (simulated) MPI rank owns one column of the KBA decomposition, sweeps
it concurrently with the other ranks using lagged incoming angular flux at
rank boundaries, and exchanges halos after every inner iteration.  "Note that
each process can begin computation on its own subdomain concurrently, unlike
with the KBA schedule in the SNAP mini-app where processors must wait to
begin work" -- the price is a convergence rate that degrades with the number
of Jacobi blocks, which is exactly what
:func:`repro.analysis.figures.block_jacobi_convergence_series` measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..angular.quadrature import AngularQuadrature, snap_dummy_quadrature
from ..config import ProblemSpec
from ..core.assembly import AssemblyTimings, ElementMatrices
from ..core.balance import BalanceReport, particle_balance
from ..core.convergence import max_relative_difference
from ..core.source import build_outer_source, build_total_source
from ..core.sweep import BoundaryValues, SweepExecutor
from ..fem.element import HexElementFactors
from ..fem.reference import ReferenceElement
from ..materials.cross_sections import MaterialLibrary
from ..materials.library import snap_option1_library
from ..materials.source_terms import FixedSource, uniform_source
from ..mesh.builder import StructuredGridSpec, build_snap_mesh
from ..mesh.partition import KBADecomposition, partition_kba
from ..sweepsched.schedule import build_sweep_schedule
from ..telemetry import active, phase
from .comm import SimCommWorld
from .halo import HaloExchanger

__all__ = ["BlockJacobiDriver", "BlockJacobiResult"]


@dataclass
class BlockJacobiResult:
    """Result of a multi-rank block-Jacobi solve.

    Attributes
    ----------
    scalar_flux:
        ``(E_global, G, N)`` nodal scalar flux in global cell ordering.
    inner_errors:
        Global maximum relative change of the scalar flux per inner iteration
        (the block-Jacobi convergence history).
    leakage:
        ``(G,)`` net domain-boundary leakage of the final sweep.
    balance:
        Domain-level particle balance of the final iterate.
    timings:
        Accumulated assemble/solve split over all ranks and sweeps.
    num_ranks:
        Number of simulated MPI ranks.
    messages, bytes_exchanged:
        Halo-exchange traffic statistics of the whole solve.
    wall_seconds:
        Wall-clock time of the iteration loop.
    outer_errors, inners_per_outer:
        Per-outer convergence record (mirrors
        :class:`~repro.core.iteration.IterationHistory`).
    cell_average_flux:
        ``(E_global, G)`` volume-averaged scalar flux per cell.
    """

    scalar_flux: np.ndarray
    inner_errors: list[float]
    leakage: np.ndarray
    balance: BalanceReport
    timings: AssemblyTimings
    num_ranks: int
    messages: int
    bytes_exchanged: int
    wall_seconds: float
    per_rank_cells: list[int] = field(default_factory=list)
    outer_errors: list[float] = field(default_factory=list)
    inners_per_outer: list[int] = field(default_factory=list)
    cell_average_flux: np.ndarray | None = None

    @property
    def total_inners(self) -> int:
        return len(self.inner_errors)


class BlockJacobiDriver:
    """Build and run a multi-rank block-Jacobi UnSNAP solve.

    Parameters
    ----------
    spec:
        Problem specification; ``spec.npex x spec.npey`` gives the rank grid.
    materials, fixed_source, quadrature:
        Optional overrides of the SNAP option-1 defaults (given in *global*
        cell ordering; they are restricted to each subdomain automatically).
    engine:
        Sweep-engine override (name or instance); defaults to ``spec.engine``.
    num_threads:
        Worker threads per rank (octant-level with ``octant_parallel``,
        otherwise the ``reference`` engine's bucket loop).
    octant_parallel:
        Octant-parallel sweep override; defaults to ``spec.octant_parallel``.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` instrument shared by all
        rank executors (per-rank ``sweep`` phases accumulate onto the same
        paths) and fed the halo-traffic counters; ``None`` keeps every path
        uninstrumented.
    """

    def __init__(
        self,
        spec: ProblemSpec,
        materials: MaterialLibrary | None = None,
        fixed_source: FixedSource | None = None,
        quadrature: AngularQuadrature | None = None,
        engine=None,
        num_threads: int = 1,
        octant_parallel: bool | None = None,
        telemetry=None,
    ):
        self.spec = spec
        self.telemetry = telemetry
        self.global_mesh = build_snap_mesh(
            StructuredGridSpec(spec.nx, spec.ny, spec.nz, spec.lx, spec.ly, spec.lz),
            max_twist=spec.max_twist,
            twist_axis=spec.twist_axis,
        )
        self.decomposition: KBADecomposition = partition_kba(
            self.global_mesh, spec.npex, spec.npey
        )
        self.quadrature = (
            quadrature if quadrature is not None else snap_dummy_quadrature(spec.angles_per_octant)
        )
        global_materials = (
            materials
            if materials is not None
            else snap_option1_library(spec.num_groups, spec.scattering_ratio)
        ).for_cells(self.global_mesh.num_cells)
        global_source = (
            fixed_source
            if fixed_source is not None
            else uniform_source(
                self.global_mesh.num_cells, global_materials.num_groups, spec.source_strength
            )
        )
        self.global_materials = global_materials
        self.global_source = global_source

        self.ref = ReferenceElement(spec.order)
        self.world = SimCommWorld(self.decomposition.num_ranks)

        self.rank_materials: list[MaterialLibrary] = []
        self.rank_sources: list[FixedSource] = []
        self.executors: list[SweepExecutor] = []
        self.exchangers: list[HaloExchanger] = []
        self.node_weights: list[np.ndarray] = []
        self.factors: list[HexElementFactors] = []

        for sub in self.decomposition.subdomains:
            factors = HexElementFactors.build(sub.mesh.cell_vertices(), self.ref)
            matrices = ElementMatrices.build(factors, self.ref)
            schedule = build_sweep_schedule(sub.mesh, factors, self.quadrature)
            rank_materials = MaterialLibrary(
                materials=global_materials.materials,
                cell_material=global_materials.cell_material[sub.global_cell_ids],
            )
            rank_source = FixedSource(density=global_source.density[sub.global_cell_ids])
            executor = SweepExecutor(
                mesh=sub.mesh,
                factors=factors,
                ref=self.ref,
                matrices=matrices,
                schedule=schedule,
                quadrature=self.quadrature,
                materials=rank_materials,
                boundary=spec.boundary,
                solver=spec.solver,
                engine=engine if engine is not None else spec.engine,
                num_threads=num_threads,
                octant_parallel=(
                    spec.octant_parallel if octant_parallel is None else bool(octant_parallel)
                ),
                halo_faces=sub.halo_faces,
                telemetry=telemetry,
                factor_cache_budget_bytes=spec.factor_cache_budget_bytes,
            )
            self.factors.append(factors)
            self.rank_materials.append(rank_materials)
            self.rank_sources.append(rank_source)
            self.executors.append(executor)
            self.exchangers.append(HaloExchanger(sub, self.world.comm(sub.rank)))
            self.node_weights.append(matrices.node_int_weights)

    @property
    def num_ranks(self) -> int:
        return self.decomposition.num_ranks

    # ---------------------------------------------------- factor-cache hooks
    def update_materials(self, materials: MaterialLibrary) -> None:
        """Swap the cross sections mid-run on every rank.

        The global library is restricted to each subdomain and every rank's
        factor cache is invalidated, so the next sweep re-factorises; see
        the factor-cache lifecycle notes in :mod:`repro.engines.base`.
        """
        global_materials = materials.for_cells(self.global_mesh.num_cells)
        self.global_materials = global_materials
        self.rank_materials = []
        for r, sub in enumerate(self.decomposition.subdomains):
            rank_materials = MaterialLibrary(
                materials=global_materials.materials,
                cell_material=global_materials.cell_material[sub.global_cell_ids],
            )
            self.rank_materials.append(rank_materials)
            self.executors[r].update_materials(rank_materials)

    def invalidate_factor_caches(self) -> None:
        """Drop every rank executor's engine-memoised state (LU factors etc.)."""
        for executor in self.executors:
            executor.invalidate_factor_cache()

    # -------------------------------------------------------------------- solve
    def solve(self) -> BlockJacobiResult:
        """Run the outer/inner iteration with a halo exchange every inner."""
        spec = self.spec
        num_groups = self.global_materials.num_groups
        num_nodes = self.ref.num_nodes
        subs = self.decomposition.subdomains

        scalar = [
            np.zeros((sub.num_cells, num_groups, num_nodes), dtype=float) for sub in subs
        ]
        boundary_values = [BoundaryValues() for _ in subs]
        inner_errors: list[float] = []
        outer_errors: list[float] = []
        inners_per_outer: list[int] = []
        timings = AssemblyTimings()
        last_results = [None] * len(subs)
        tel = active(self.telemetry)
        halo_messages0 = self.world.message_count
        halo_bytes0 = self.world.bytes_sent

        t0 = time.perf_counter()
        for _outer in range(spec.num_outers):
            outer_flux = [s.copy() for s in scalar]
            with phase(tel, "source"):
                outer_source = [
                    build_outer_source(
                        self.rank_sources[r], self.rank_materials[r], outer_flux[r], num_nodes
                    )
                    for r in range(len(subs))
                ]
            inners_done = 0
            for _inner in range(spec.num_inners):
                new_scalar = []
                # --- concurrent subdomain sweeps (executed sequentially here)
                for r, executor in enumerate(self.executors):
                    with phase(tel, "source"):
                        total_source = build_total_source(
                            outer_source[r], self.rank_materials[r], scalar[r]
                        )
                    result = executor.sweep(total_source, boundary_values=boundary_values[r])
                    timings = timings.merge(result.timings)
                    last_results[r] = result
                    new_scalar.append(result.scalar_flux)
                # --- halo exchange (every iteration)
                with phase(tel, "halo"):
                    for r, exchanger in enumerate(self.exchangers):
                        exchanger.post_outgoing(last_results[r].outgoing_halo)
                    for r, exchanger in enumerate(self.exchangers):
                        boundary_values[r] = exchanger.collect_incoming(boundary_values[r])
                # --- global convergence measure
                with phase(tel, "convergence"):
                    error = max(
                        max_relative_difference(new_scalar[r], scalar[r])
                        for r in range(len(subs))
                    )
                inner_errors.append(error)
                scalar = new_scalar
                inners_done += 1
                if spec.inner_tolerance > 0.0 and error <= spec.inner_tolerance:
                    break
            inners_per_outer.append(inners_done)
            with phase(tel, "convergence"):
                outer_error = max(
                    max_relative_difference(scalar[r], outer_flux[r]) for r in range(len(subs))
                )
            outer_errors.append(outer_error)
            if spec.outer_tolerance > 0.0 and outer_error <= spec.outer_tolerance:
                break
        wall_seconds = time.perf_counter() - t0
        if tel is not None:
            tel.incr("halo_messages", self.world.message_count - halo_messages0)
            tel.incr("halo_bytes", self.world.bytes_sent - halo_bytes0)
            tel.gauge("ranks", self.num_ranks)

        # ----------------------------------------------------- gather to global
        global_flux = np.zeros((self.global_mesh.num_cells, num_groups, num_nodes), dtype=float)
        global_weights = np.zeros((self.global_mesh.num_cells, num_nodes), dtype=float)
        leakage = np.zeros(num_groups, dtype=float)
        for r, sub in enumerate(subs):
            global_flux[sub.global_cell_ids] = scalar[r]
            global_weights[sub.global_cell_ids] = self.node_weights[r]
            leakage += last_results[r].leakage

        global_volumes = np.zeros(self.global_mesh.num_cells, dtype=float)
        for r, sub in enumerate(subs):
            global_volumes[sub.global_cell_ids] = self.factors[r].volumes

        balance = particle_balance(
            scalar_flux=global_flux,
            node_weights=global_weights,
            materials=self.global_materials,
            fixed=self.global_source,
            leakage=leakage,
            volumes=global_volumes,
        )
        cell_average = (
            np.einsum("egn,en->eg", global_flux, global_weights) / global_volumes[:, None]
        )
        return BlockJacobiResult(
            scalar_flux=global_flux,
            inner_errors=inner_errors,
            leakage=leakage,
            balance=balance,
            timings=timings,
            num_ranks=self.num_ranks,
            messages=self.world.message_count,
            bytes_exchanged=self.world.bytes_sent,
            wall_seconds=wall_seconds,
            per_rank_cells=[sub.num_cells for sub in subs],
            outer_errors=outer_errors,
            inners_per_outer=inners_per_outer,
            cell_average_flux=cell_average,
        )
