"""What the ledger declares: ``BENCHMARK.json`` plus the interaction table.

``BENCHMARK.json`` (repo root) is the single source of every workload and
metric name, unit, direction and regression bound.  Its schema has no room
for the prediction each per-layer metric carries -- which end-to-end metric
it should move, on which workload -- so that table lives here, and
``run.py --selftest`` holds the two in step in both directions.
"""

from __future__ import annotations

import json
import re

from harness import ROOT

#: Format marker of the detail files and reports ``run.py`` writes.
FORMAT = "unsnap-ledger-v1"

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

T, C, K, S, M = (
    "transient-linear", "cold-cubic", "keff-reflective", "campaign-small", "service-mix",
)
SOLVES = (T, C, K)
EVERY = (T, C, K, S, M)

#: per-layer metric -> (end-to-end metric it should move, workloads where it
#: should show, what it measures).  On any other workload the prediction is
#: "no visible change"; a workload that never enters the layer reports 0.
LAYER_MOVES: dict[str, tuple[str, tuple, str]] = {
    # ---- set-up layers (RunResult.setup_seconds, one part at a time)
    "mesh.build_s": ("setup_s", (T, C), "build_snap_mesh of the workload's grid"),
    "fem.factors_build_s": ("setup_s", (T, C), "ReferenceElement + HexElementFactors.build"),
    "core.assembly.matrices_build_s": ("setup_s", (T, C), "ElementMatrices.build"),
    "sweepsched.schedule_build_s": ("setup_s", (T, C), "build_sweep_schedule over all angles"),
    "sweepsched.buckets": ("cold_ms", (T,), "wavefront buckets over all angles (exact)"),
    "core.solver.setup_s": ("setup_s", SOLVES, "TransportSolver(spec), as the drivers build it"),
    "core.solver.setup_residual_pct": (
        "setup_s", SOLVES, "share of the constructor outside the four parts above"),
    # ---- the sweep, on one SweepExecutor
    "core.sweep.cold_sweep_s": ("cold_ms", (C, S, M), "first sweep: builds every cache entry"),
    "core.sweep.steady_sweep_s": ("cold_ms", (T,), "median sweep on warm factors"),
    "core.sweep.orchestration_s": (
        "cold_ms", (T,), "steady sweep self time: Python around the kernel"),
    "core.sweep.orchestration_share": ("cold_ms", (T,), "orchestration / steady sweep"),
    "core.sweep.octant2_speedup": (
        "cold_ms", (T,), "octant-parallel steady sweep, 1 thread / 2 threads (Figs 3-4 axis)"),
    # ---- engines
    "engines.kernel_s": ("cold_ms", (T, C), "SweepResult.timings of a steady sweep"),
    "engines.kernel_calls": (
        "cold_ms", (T,), "kernel calls per sweep (exact; 352 on transient-linear)"),
    "engines.factor_build_s": ("cold_ms", (C, S), "cold sweep - steady sweep"),
    "engines.factor_cache_hits": ("cold_ms", (T, K), "telemetry counter per run (exact)"),
    "engines.factor_cache_misses": ("cold_ms", (C, S), "telemetry counter per run (exact)"),
    "engines.factor_cache_bytes": (
        "peak_rss_mb", (T, C), "factor-cache footprint after a run (exact)"),
    "engines.fallback_assembly_s": (
        "cold_ms", (K,), "numpy RHS assembly of the lagged-boundary branch, per run"),
    # ---- local dense solvers on a fixed stack of this order's systems
    "solvers.ge_solve_batched_s": ("cold_ms", (C,), "batched_gaussian_solve"),
    "solvers.lapack_solve_batched_s": ("cold_ms", (C,), "batched_lapack_solve"),
    "solvers.ge_factor_batched_s": (
        "cold_ms", (C,), "batched_gaussian_lu_factor (the cold build's LU)"),
    # ---- roofline floor: computed, modelled machine
    "perfmodel.flops_per_sweep": ("cold_ms", (T, C), "computed flops of one sweep"),
    "perfmodel.bytes_per_sweep": ("cold_ms", (T, C), "computed bytes moved by one sweep"),
    "perfmodel.model_sweep_s": ("cold_ms", (T, C), "modelled sweep time, best scheme, 1 thread"),
    "perfmodel.steady_over_model": ("cold_ms", (T,), "steady sweep / modelled sweep"),
    "perfmodel.kernel_over_model": ("cold_ms", (T, C), "kernel time / modelled sweep"),
    # ---- drivers
    "drivers.outer_loop_s": ("cold_ms", (T, K), "telemetry solve - solve.sweep, per run"),
    "drivers.sweeps": ("cold_ms", SOLVES, "sweeps per run (exact)"),
    "drivers.time_steps": ("cold_ms", (T,), "time steps per run (exact)"),
    "drivers.power_iterations": ("cold_ms", (K,), "power iterations per run (exact)"),
    "drivers.inners_total": ("cold_ms", SOLVES, "inner iterations per run (exact)"),
    # ---- records, store, work items
    "runner.to_dict_s": ("cold_ms", (S,), "RunResult.to_dict(include_flux=True)"),
    "runner.from_dict_s": ("repeat_ms", EVERY, "RunResult.from_dict of that payload"),
    "runner.record_bytes": ("repeat_ms", EVERY, "size of the flux-bearing store record"),
    "campaign.workitem.run_key_us": ("repeat_ms", (S, M), "run_key(spec)"),
    "campaign.workitem.estimate_cost_us": ("cold_ms", (S, M), "estimate_cost(spec)"),
    "campaign.store.put_ms": ("cold_ms", (S, M), "ResultStore.put incl. fsync"),
    "campaign.store.get_ms": ("repeat_ms", EVERY, "ResultStore.get"),
    "campaign.store.contains_us": ("repeat_ms", (S, M), "ResultStore.contains"),
    "campaign.backends.dispatch_overhead_ms": (
        "cold_ms", (S,), "per point: cold pass wall - sum(point wall) / jobs"),
    # ---- spool and service hops
    "spool.publish_ms": ("cold_ms", (M,), "SpoolDir.publish"),
    "spool.claim_ms": ("cold_ms", (M,), "SpoolDir.claim_next"),
    "spool.complete_ms": ("cold_ms", (M,), "SpoolDir.complete"),
    "spool.wait_ms": (
        "cold_ms", (M,), "mean spool.wait span per miss: publish until a worker claims"),
    "service.queue_ms": ("cold_ms", (M,), "mean service.queue span per miss"),
    "gateway.submit_ms": ("cold_ms", (M,), "mean gateway.submit span per miss"),
    "worker.execute_ms": ("cold_ms", (M,), "mean worker.execute span per miss: the solve"),
    "worker.store_ms": ("cold_ms", (M,), "mean worker.store span per miss"),
    "service.execute_self_ms": (
        "cold_ms", (M,), "service.execute self time: publish + the poll that sees the marker"),
    "service.trace_residual_pct": (
        "cold_ms", (M,), "|makespan - sum of the hop shares| / makespan"),
    "service.spool_overhead_ms": (
        "cold_ms", (M,), "miss p50 - in-process repro.run p50 of the deck"),
    "service.http.healthz_ms": ("repeat_ms", (M,), "GET /healthz round trip"),
    "service.http.submit_ms": ("repeat_ms", (M,), "POST /jobs of a stored deck"),
    "service.http.poll_ms": ("repeat_ms", (M,), "GET /jobs/{id}"),
    "service.daemon.submit_hit_ms": (
        "repeat_ms", (M,), "in-process ServiceDaemon.submit of a stored key"),
    "service.miss_latency_p90_ms": ("cold_ms", (M,), "tail of the traced pass's misses"),
    "service.hit_latency_p95_ms": ("repeat_ms", (M,), "tail of the traced pass's hits"),
    "service.polls_per_miss": ("cold_ms", (M,), "GET /jobs/{id} polls until done"),
    # ---- the cost of being observed
    "obs.trace_overhead_pct": ("cold_ms", (M,), "miss p50 with serve --trace vs without"),
    "obs.telemetry_overhead_pct": ("cold_ms", (T,), "repro.run(telemetry=True) vs off"),
    "obs.harness_overhead_pct": (
        "cold_ms", EVERY, "traced-pass wall spent in the ledger's own spans"),
}

#: Counts made by the program that must repeat exactly: across repetitions,
#: across runs and across seeds.  Only these may back a claim as counts.
EXACT_COUNTS = (
    "drivers.sweeps", "drivers.time_steps", "drivers.power_iterations",
    "drivers.inners_total", "engines.factor_cache_hits", "engines.factor_cache_misses",
    "engines.kernel_calls", "engines.factor_cache_bytes", "sweepsched.buckets",
)


def load() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in load()[section]}


def package(section: str, values: dict) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics.

    A declared per-layer metric the workload did not measure is a layer it
    never entered: 0 busy time, 0 work.  An undeclared or missing end-to-end
    metric is a bug in the benchmark and raises.
    """
    declared = units(section)
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise KeyError(f"undeclared {section} metrics: {unknown}")
    if section == "end_to_end" and set(values) != set(declared):
        raise KeyError(f"missing end_to_end metrics: {sorted(set(declared) - set(values))}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
