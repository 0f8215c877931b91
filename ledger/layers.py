"""Layer probes of the traced pass.

Each probe times calls into one layer's public functions from outside, under
a span named after the module it enters.  Workloads pick the probes for the
layers they exercise and turn the recorded spans into the declared per-layer
metrics; a layer a workload never enters reports 0 busy time there.
"""

from __future__ import annotations

import numpy as np

from harness import Tracer, median


def probe_builds(tracer: Tracer, spec, repeats: int = 3) -> dict:
    """The four set-up layers behind ``RunResult.setup_seconds``, one by one.

    ``core.solver.setup`` times the real constructor the drivers call; the
    residual against the sum of the four parts is what the constructor does
    besides them (quadrature, materials, executor, node weights).
    """
    from repro.angular.quadrature import snap_dummy_quadrature
    from repro.core.assembly import ElementMatrices
    from repro.core.solver import TransportSolver
    from repro.fem.element import HexElementFactors
    from repro.fem.reference import ReferenceElement
    from repro.mesh.builder import StructuredGridSpec, build_snap_mesh
    from repro.sweepsched.schedule import build_sweep_schedule

    for _ in range(repeats):
        with tracer.span("layers.build"):
            with tracer.span("mesh.build"):
                mesh = build_snap_mesh(
                    StructuredGridSpec(spec.nx, spec.ny, spec.nz, spec.lx, spec.ly, spec.lz),
                    max_twist=spec.max_twist,
                    twist_axis=spec.twist_axis,
                )
            with tracer.span("fem.factors_build"):
                ref = ReferenceElement(spec.order)
                factors = HexElementFactors.build(mesh.cell_vertices(), ref)
            with tracer.span("core.assembly.matrices_build"):
                ElementMatrices.build(factors, ref)
            quadrature = snap_dummy_quadrature(spec.angles_per_octant)
            with tracer.span("sweepsched.schedule_build"):
                schedule = build_sweep_schedule(mesh, factors, quadrature)
        tracer.count(
            "sweepsched.buckets",
            sum(schedule.for_angle(a).num_buckets for a in range(quadrature.num_angles)),
        )
        with tracer.span("core.solver.setup"):
            TransportSolver(spec)

    parts = (
        "mesh.build", "fem.factors_build",
        "core.assembly.matrices_build", "sweepsched.schedule_build",
    )
    out = {f"{name}_s": median(tracer.seconds(name)) for name in parts}
    setup = median(tracer.seconds("core.solver.setup"))
    out["core.solver.setup_s"] = setup
    built = sum(out[f"{part}_s"] for part in parts)
    out["core.solver.setup_residual_pct"] = 100.0 * (setup - built) / setup
    out["sweepsched.buckets"] = tracer.exact_count("sweepsched.buckets")
    return out


def probe_sweeps(tracer: Tracer, spec, steady: int = 9, octant_threads=()) -> dict:
    """Cold and steady sweeps on one ``SweepExecutor``, kernel time split off.

    The first sweep builds every factor-cache entry; the following ones run
    on warm factors.  ``SweepResult.timings`` is what the engine spent in its
    entry build and kernel calls, so a steady sweep's self time is the Python
    orchestration around the kernel.
    """
    from repro.core.solver import TransportSolver

    def executor_and_source(**options):
        solver = TransportSolver(spec, **options)
        shape = (solver.mesh.num_cells, solver.executor.num_groups, solver.executor.num_nodes)
        return solver.executor, np.ones(shape)

    executor, source = executor_and_source()
    for index in range(1 + steady):
        phase = "cold" if index == 0 else "steady"
        with tracer.span("core.sweep.sweep", phase=phase) as span:
            result = executor.sweep(source)
        tracer.reported(span, "engines.kernel", result.timings.total_seconds, phase=phase)
        tracer.count(f"engines.systems_solved.{phase}", result.timings.systems_solved)

    cold = tracer.seconds("core.sweep.sweep", phase="cold")[0]
    steady_s = median(tracer.seconds("core.sweep.sweep", phase="steady"))
    kernel = median(tracer.seconds("engines.kernel", phase="steady"))
    orchestration = median(tracer.self_seconds("core.sweep.sweep", phase="steady"))
    out = {
        "core.sweep.cold_sweep_s": cold,
        "core.sweep.steady_sweep_s": steady_s,
        "core.sweep.orchestration_s": orchestration,
        "core.sweep.orchestration_share": orchestration / steady_s,
        "engines.kernel_s": kernel,
        "engines.factor_build_s": cold - steady_s,
        "engines.factor_cache_bytes": float(executor.factor_cache.total_bytes),
    }

    # The paper's Figs 3-4 axis, as far as two cores can show it: the same
    # steady sweep with whole octants on 1 and on 2 threads.
    by_threads = {}
    for threads in octant_threads:
        executor, source = executor_and_source(octant_parallel=True, num_threads=threads)
        executor.sweep(source)  # cold, untimed
        for _ in range(5):
            with tracer.span("core.sweep.octant_sweep", threads=threads):
                executor.sweep(source)
        by_threads[threads] = median(tracer.seconds("core.sweep.octant_sweep", threads=threads))
    if len(by_threads) == 2:
        one, two = (by_threads[t] for t in sorted(by_threads))
        out["core.sweep.octant2_speedup"] = one / two
    return out


def probe_perfmodel(spec, steady_sweep_s: float, kernel_s: float) -> dict:
    """The roofline floor of one sweep: computed, on a modelled machine.

    Flops and bytes come from array sizes and operation counts, not from
    hardware counters, and the machine is the paper's modelled Skylake node,
    not this box's measured peak -- so the ratios say how far the Python tier
    sits above a native floor, not how well it uses this CPU.  Only steady
    sweeps are compared: the cold factor build is not in the model.
    """
    from repro.perfmodel.schemes import paper_schemes
    from repro.perfmodel.simulator import SweepPerformanceModel

    model = SweepPerformanceModel(spec.with_(num_inners=1, num_outers=1))
    best = model.best_scheme(paper_schemes(), threads=1)
    model_s = model.sweep_time(best, threads=1).seconds
    cells, angles = spec.num_cells, spec.num_angles
    return {
        "perfmodel.flops_per_sweep": float(model.workload.sweep_flops(cells, angles)),
        "perfmodel.bytes_per_sweep": float(model.workload.sweep_bytes(cells, angles)),
        "perfmodel.model_sweep_s": model_s,
        "perfmodel.steady_over_model": steady_sweep_s / model_s,
        "perfmodel.kernel_over_model": kernel_s / model_s,
    }


def probe_solvers(tracer: Tracer, spec, copies: int = 64, repeats: int = 5) -> dict:
    """Batched local solves on a fixed stack of this order's local systems.

    The stack is one element's per-group systems (Table II's shape) repeated
    ``copies`` times -- the size of a mid-sweep bucket -- so the three
    routines are compared on identical, realistic matrices.
    """
    from repro.bench.cases import local_systems
    from repro.solvers.gaussian import batched_gaussian_solve
    from repro.solvers.lapack import batched_lapack_solve
    from repro.solvers.prefactor import batched_gaussian_lu_factor

    *_unused, a, b = local_systems(spec.order, spec.num_groups)
    matrices = np.tile(a, (copies, 1, 1))
    rhs = np.tile(b, (copies, 1))
    routines = {
        "solvers.ge_solve_batched": lambda: batched_gaussian_solve(matrices, rhs),
        "solvers.lapack_solve_batched": lambda: batched_lapack_solve(matrices, rhs),
        "solvers.ge_factor_batched": lambda: batched_gaussian_lu_factor(matrices),
    }
    out = {}
    for name, call in routines.items():
        for _ in range(repeats):
            with tracer.span(name, systems=matrices.shape[0], n=matrices.shape[1]):
                call()
        out[f"{name}_s"] = median(tracer.seconds(name))
    return out


def probe_records(tracer: Tracer, spec, result, store_dir, repeats: int = 5) -> dict:
    """Serialisation, store and work-item costs of one flux-bearing record."""
    from repro import ResultStore, RunResult
    from repro.campaign.workitem import estimate_cost, run_key

    for _ in range(repeats):
        with tracer.span("runner.to_dict"):
            payload = result.to_dict(include_flux=True)
        with tracer.span("runner.from_dict"):
            RunResult.from_dict(payload)
    store = ResultStore(store_dir)
    for _ in range(repeats):
        with tracer.span("campaign.store.put"):
            path = store.put(spec, result)
        with tracer.span("campaign.store.get"):
            store.get(spec)

    def per_call_us(name, call, rounds=200):
        with tracer.span(name, calls=rounds) as span:
            for _ in range(rounds):
                call()
        return span.seconds / rounds * 1e6

    return {
        "runner.to_dict_s": median(tracer.seconds("runner.to_dict")),
        "runner.from_dict_s": median(tracer.seconds("runner.from_dict")),
        "runner.record_bytes": float(path.stat().st_size),
        "campaign.store.put_ms": 1e3 * median(tracer.seconds("campaign.store.put")),
        "campaign.store.get_ms": 1e3 * median(tracer.seconds("campaign.store.get")),
        "campaign.store.contains_us": per_call_us(
            "campaign.store.contains", lambda: store.contains(spec)),
        "campaign.workitem.run_key_us": per_call_us(
            "campaign.workitem.run_key", lambda: run_key(spec)),
        "campaign.workitem.estimate_cost_us": per_call_us(
            "campaign.workitem.estimate_cost", lambda: estimate_cost(spec)),
    }


def probe_spool(tracer: Tracer, spec, spool_dir, jobs: int = 30) -> dict:
    """Direct publish / claim / complete on a private spool (no worker)."""
    from repro import WorkItem
    from repro.campaign.distributed import SpoolDir

    spool = SpoolDir(spool_dir)
    for index in range(jobs):
        item = WorkItem(spec=spec, run_options={}, index=index)
        with tracer.span("spool.publish"):
            spool.publish(item)
    for _ in range(jobs):
        with tracer.span("spool.claim"):
            claim = spool.claim_next("ledger-probe")
        with tracer.span("spool.complete"):
            spool.complete(claim, {"worker_id": "ledger-probe", "attempts": 1})
    return {
        f"spool.{step}_ms": 1e3 * median(tracer.seconds(f"spool.{step}"))
        for step in ("publish", "claim", "complete")
    }
