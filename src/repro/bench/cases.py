"""Built-in benchmark cases: the paper's own experiments as registered workloads.

One case per experiment of the paper's evaluation, each deriving its sizes
from the shared :class:`~repro.bench.suite.BenchWorkload` (so ``--smoke``
shrinks everything coherently) and returning
``{sample: {"seconds": ..., **metrics}}``:

* ``matrix-setup`` -- Table I's local-matrix precomputation per order;
* ``table2-solvers`` -- Table II's order x solver grid;
* ``thread-scaling-linear`` / ``-cubic`` -- the measured companions of
  Figures 3 and 4;
* ``block-jacobi-ranks`` -- Section III-A's block-Jacobi rank sweep;
* ``fd-vs-fem`` -- Section II-C's finite-difference baseline;
* ``distributed-overhead`` -- the spool protocol's cost over serial.

Kernel, engine, driver, service and backend timings are the performance
ledger's (``ledger/``) job.
"""

from __future__ import annotations

import time

import numpy as np

from ..baseline.snap_fd import SnapDiamondDifferenceSolver
from ..campaign import Study, run_study
from ..config import ProblemSpec
from ..core.assembly import ElementMatrices
from ..fem.element import HexElementFactors
from ..fem.reference import ReferenceElement
from ..mesh.builder import StructuredGridSpec, build_snap_mesh
from ..runner import run
from ..solvers import available_solvers
from ..sweepsched.graph import classify_faces
from ..telemetry import Telemetry
from .suite import BenchWorkload, register_benchmark

__all__ = ["local_systems"]


def local_systems(order: int, num_groups: int, seed: int = 0):
    """A realistic batch of one element's per-group local systems."""
    rng = np.random.default_rng(seed)
    mesh = build_snap_mesh(StructuredGridSpec(2, 2, 2), max_twist=0.001)
    ref = ReferenceElement(order)
    factors = HexElementFactors.build(mesh.cell_vertices(), ref)
    matrices = ElementMatrices.build(factors, ref)
    direction = np.array([0.5, 0.6, 0.62449979984])
    cls = classify_faces(factors, direction)
    sigma_t = 1.0 + 0.01 * np.arange(num_groups)
    source = rng.uniform(0.5, 1.5, size=(num_groups, ref.num_nodes))
    a, b = matrices.assemble_systems(0, direction, cls.orientation[0], sigma_t, source, {})
    return matrices, cls, direction, sigma_t, source, a, b


def _orders(workload: BenchWorkload) -> tuple[int, ...]:
    return (1, 2) if workload.smoke else (1, 2, 3)


# ---------------------------------------------------------------------- setup
@register_benchmark("matrix-setup", tags=("kernel", "setup"))
def bench_matrix_setup(workload: BenchWorkload) -> dict[str, dict]:
    """Reference-element tabulation + local-matrix precomputation (Table I)."""
    n = max(2, workload.n // 2)
    mesh = build_snap_mesh(StructuredGridSpec(n, n, n), max_twist=0.001)
    samples = {}
    for order in _orders(workload):
        t0 = time.perf_counter()
        ref = ReferenceElement(order)
        factors = HexElementFactors.build(mesh.cell_vertices(), ref)
        matrices = ElementMatrices.build(factors, ref)
        samples[f"order-{order}"] = {
            "seconds": time.perf_counter() - t0,
            "cells": mesh.num_cells,
            "matrix_size": matrices.num_nodes,
        }
    return samples


@register_benchmark("fd-vs-fem", tags=("kernel", "baseline"))
def bench_fd_vs_fem(workload: BenchWorkload) -> dict[str, dict]:
    """Section II-C: SNAP finite difference vs UnSNAP DGFEM solve time."""
    n = min(5, max(3, workload.n // 2))
    groups = min(2, workload.num_groups)
    angles = workload.angles_per_octant
    fd_solver = SnapDiamondDifferenceSolver(
        n, n, n, num_groups=groups, angles_per_octant=angles, num_inners=2
    )
    t0 = time.perf_counter()
    fd = fd_solver.solve()
    fd_seconds = time.perf_counter() - t0
    spec = ProblemSpec(
        nx=n, ny=n, nz=n, order=1, angles_per_octant=angles, num_groups=groups,
        max_twist=0.0, num_inners=2, num_outers=1, engine="vectorized",
    )
    t0 = time.perf_counter()
    fem = run(spec)
    fem_seconds = time.perf_counter() - t0
    return {
        "fd": {"seconds": fd_seconds, "mean_flux": float(fd.scalar_flux.mean())},
        "fem": {
            "seconds": fem_seconds,
            "mean_flux": float(fem.cell_average_flux.mean()),
            "work_ratio": fem_seconds / fd_seconds if fd_seconds > 0 else float("inf"),
        },
    }


# -------------------------------------------------------------------- scaling
@register_benchmark("thread-scaling-linear", tags=("scaling",), aliases=("fig3",))
def bench_thread_scaling_linear(workload: BenchWorkload) -> dict[str, dict]:
    """Measured octant-parallel thread scaling, linear elements (Figure 3)."""
    return _thread_scaling(workload, order=1, n=min(workload.n, 4))


@register_benchmark("thread-scaling-cubic", tags=("scaling",), aliases=("fig4",))
def bench_thread_scaling_cubic(workload: BenchWorkload) -> dict[str, dict]:
    """Measured octant-parallel thread scaling, cubic elements (Figure 4)."""
    return _thread_scaling(
        workload.with_(angles_per_octant=1, num_groups=min(2, workload.num_groups)),
        order=3, n=2,
    )


def _thread_scaling(workload: BenchWorkload, order: int, n: int) -> dict[str, dict]:
    base = ProblemSpec(
        nx=n, ny=n, nz=n, order=order,
        angles_per_octant=workload.angles_per_octant,
        num_groups=workload.num_groups,
        max_twist=0.001, num_inners=2, num_outers=1,
        octant_parallel=True,
    )
    thread_counts = (1, 2) if workload.smoke else (1, 2, 4)
    engines = ("vectorized", "prefactorized")
    study = Study.grid(
        base, name=f"thread-scaling-order{order}",
        engine=list(engines), num_threads=list(thread_counts),
    )
    result = run_study(study, backend="serial")
    samples = {}
    for study_run in result:
        label = f"{study_run.axes['engine']}-t{study_run.axes['num_threads']}"
        samples[label] = {
            "seconds": study_run.result.solve_seconds,
            "threads": int(study_run.axes["num_threads"]),
            "mean_flux": study_run.result.mean_flux,
        }
    return samples


@register_benchmark("block-jacobi-ranks", tags=("scaling", "parallel"))
def bench_block_jacobi_ranks(workload: BenchWorkload) -> dict[str, dict]:
    """Multi-rank block-Jacobi solves vs rank count (Section III-A.1)."""
    if workload.smoke:
        nx, ny, nz = 4, 2, 2
        grids = ((1, 1), (2, 1), (2, 2))
        num_inners = 4
    else:
        nx, ny, nz = 8, 4, 2
        grids = ((1, 1), (2, 1), (2, 2), (4, 2))
        # Enough lagged inners that every decomposition approaches the same
        # solution (the wrapper asserts cross-grid flux agreement).
        num_inners = 8
    base = ProblemSpec(
        nx=nx, ny=ny, nz=nz, order=1, angles_per_octant=1,
        num_groups=min(2, workload.num_groups),
        max_twist=0.001, num_inners=num_inners, num_outers=1,
    )
    samples = {}
    for npex, npey in grids:
        telemetry = Telemetry()
        t0 = time.perf_counter()
        result = run(base.with_(npex=npex, npey=npey), telemetry=telemetry)
        samples[f"{npex}x{npey}"] = {
            "seconds": time.perf_counter() - t0,
            "ranks": result.num_ranks,
            "halo_messages": result.messages,
            "halo_bytes": result.bytes_exchanged,
            "final_inner_error": float(result.history.inner_errors[-1]),
            "mean_flux": result.mean_flux,
            "halo_phase_seconds": float(
                telemetry.phase_seconds.get("solve.halo", 0.0)
            ),
        }
    return samples


# ---------------------------------------------------------------------- study
@register_benchmark("table2-solvers", tags=("study",), aliases=("table2",))
def bench_table2_solvers(workload: BenchWorkload) -> dict[str, dict]:
    """The Table II order x solver grid as one declarative study."""
    n = min(5, max(3, workload.n // 2))
    base = ProblemSpec(
        nx=n, ny=n, nz=n,
        angles_per_octant=workload.angles_per_octant,
        num_groups=min(4, workload.num_groups),
        max_twist=0.001, num_inners=2, num_outers=1,
    )
    study = Study.grid(
        base, name="table2", order=list(_orders(workload)), solver=list(available_solvers())
    )
    result = run_study(study, backend="serial")
    samples = {}
    for study_run in result:
        label = f"order{study_run.axes['order']}-{study_run.axes['solver']}"
        timings = study_run.result.timings
        samples[label] = {
            "seconds": timings.total_seconds,
            "solve_fraction": timings.solve_fraction,
            "systems_solved": timings.systems_solved,
        }
    return samples


@register_benchmark(
    "distributed-overhead", tags=("study", "distributed"), aliases=("spool",)
)
def bench_distributed_overhead(workload: BenchWorkload) -> dict[str, dict]:
    """Spool-protocol cost: the same small study serial vs distributed.

    The interesting numbers are the *deltas*: ``overhead_seconds`` (spool
    publish/claim/poll plus worker spawn, amortised over the campaign) and
    the mean per-point ``queue_wait_seconds`` the done markers report.
    """
    from ..campaign.distributed import DistributedBackend

    n = min(workload.n, 4)
    base = ProblemSpec(
        nx=n, ny=n, nz=n,
        angles_per_octant=workload.angles_per_octant,
        num_groups=min(2, workload.num_groups),
        max_twist=0.001, num_inners=2, num_outers=1,
    )
    study = Study.grid(
        base, name="spool-bench",
        order=[1] if workload.smoke else [1, 2],
        engine=["vectorized", "prefactorized"],
    )
    t0 = time.perf_counter()
    run_study(study, backend="serial")
    serial_seconds = time.perf_counter() - t0

    backend = DistributedBackend(workers=workload.jobs)
    t0 = time.perf_counter()
    result = run_study(study, backend=backend)
    distributed_seconds = time.perf_counter() - t0
    waits = [r.meta.get("queue_wait_seconds", 0.0) for r in result if r.meta]
    return {
        "serial": {"seconds": serial_seconds, "runs": len(study.runs())},
        "distributed": {
            "seconds": distributed_seconds,
            "runs": len(result),
            "workers": workload.jobs,
            "overhead_seconds": distributed_seconds - serial_seconds,
            "mean_queue_wait_seconds": (sum(waits) / len(waits)) if waits else 0.0,
        },
    }
