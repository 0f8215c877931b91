"""The three ``repro.run`` workloads: transient-linear, cold-cubic, keff-reflective.

Same entry point, three bottlenecks: steady sweeps (one cold sweep in 50),
the cold factor build of 64x64 local systems, and the numpy boundary-branch
fallback the reflective k-eigenvalue run spends its time in.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

import layers
from harness import (
    Tally, Tracer, describe, keep_sampling, median, peak_rss_mb, scratch_dir, timed, warm_up,
)

#: Relative max-norm agreement demanded between the compiled tier and the
#: workload's independent reference engine.
FLUX_TOLERANCE = 1e-9
K_INFINITY = 0.6
K_TOLERANCE = 1e-8


@dataclass(frozen=True)
class SolveWorkload:
    name: str
    #: ``build(repro, seed, tiny) -> ProblemSpec``.
    build: object
    #: Exact sweep count of the full-size spec, checked on every repetition.
    expect_sweeps: int
    #: Time steps kept in the reference run (0: reference the whole spec),
    #: and the independent engine/solver it runs on.  A full 50-sweep
    #: ``prefactorized``/``lapack`` reference of transient-linear costs 26 s,
    #: more than the timed part of the run; two steps on ``vectorized``
    #: (no factor cache at all, LAPACK solves) cost 3 s.
    reference_steps: int = 0
    reference: tuple = ("prefactorized", "lapack")
    expect_power_iterations: int | None = None
    sweep_probes: bool = True
    octant_threads: tuple = ()
    telemetry_overhead: bool = False


def _seeded_physics(seed: int) -> dict:
    """Seeded material and source strength: new numbers, identical work."""
    rng = random.Random(seed)
    return {
        "scattering_ratio": round(rng.uniform(0.4, 0.6), 6),
        "source_strength": round(rng.uniform(0.5, 1.5), 6),
    }


def _transient_linear(repro, seed, tiny):
    n, groups, steps, inners = (3, 2, 3, 2) if tiny else (8, 8, 10, 5)
    return repro.ProblemSpec(
        nx=n, ny=n, nz=n, order=1, angles_per_octant=2, num_groups=groups,
        driver="time_dependent", dt=0.1, n_steps=steps, num_inners=inners,
        engine="compiled", **_seeded_physics(seed),
    )


def _cold_cubic(repro, seed, tiny):
    n, order, groups = (2, 2, 2) if tiny else (5, 3, 4)
    return repro.ProblemSpec(
        nx=n, ny=n, nz=n, order=order, angles_per_octant=2, num_groups=groups,
        num_inners=5, num_outers=1, inner_tolerance=0.0, outer_tolerance=0.0,
        engine="compiled", **_seeded_physics(seed),
    )


def _keff_reflective(repro, _seed, tiny):
    # No seeded input: k-infinity = 0.6 is an analytic property of the
    # default material, which is the point of this workload's anchor.
    # Tiny: two power iterations of three inners, far from converged.
    n, inners, power_iterations = (2, 3, 2) if tiny else (4, 20, 50)
    return repro.ProblemSpec(
        nx=n, ny=n, nz=n, order=1, angles_per_octant=1, num_groups=4,
        driver="k_eigenvalue", boundary=repro.BoundaryCondition(kind="reflective"),
        max_twist=0.0, num_inners=inners, inner_tolerance=1e-10, k_tolerance=K_TOLERANCE,
        max_power_iters=power_iterations, engine="compiled",
    )


WORKLOADS = {
    w.name: w
    for w in (
        SolveWorkload(
            "transient-linear", _transient_linear, reference_steps=2,
            reference=("vectorized", "lapack"),
            expect_sweeps=50, octant_threads=(1, 2), telemetry_overhead=True,
        ),
        SolveWorkload("cold-cubic", _cold_cubic, expect_sweeps=5),
        SolveWorkload(
            "keff-reflective", _keff_reflective, expect_sweeps=180,
            expect_power_iterations=9,
            # Its sweep takes lagged reflective traces only the driver
            # builds, so there is no stand-alone executor to probe.
            sweep_probes=False,
        ),
    )
}


# ------------------------------------------------------------- correctness
def _relative_gap(value, reference) -> float:
    value, reference = np.asarray(value), np.asarray(reference)
    return float(np.abs(value - reference).max() / np.abs(reference).max())


class Checker(Tally):
    """Correctness of every timed repetition, counted into ``failed``.

    All repetitions must be bit-identical to the first; the first is tied to
    an independent engine by :meth:`finish`.  Iteration counts and the
    k-infinity anchor are checked per repetition.
    """

    def __init__(self, repro, workload: SolveWorkload, spec, tiny: bool):
        super().__init__()
        self.repro = repro
        self.workload = workload
        self.spec = spec
        self.tiny = tiny
        self.first = None

    def repetition(self, result) -> None:
        self.attempted += 1
        w = self.workload
        if self.first is None:
            self.first = result
        elif not np.array_equal(result.scalar_flux, self.first.scalar_flux):
            return self.fail("repetition not bit-identical to the first")
        if not self.tiny and result.total_inners != w.expect_sweeps:
            return self.fail(f"{result.total_inners} sweeps, expected {w.expect_sweeps}")
        if self.spec.driver == "k_eigenvalue" and not self.tiny:
            iterations = len(result.k_history or [])
            if abs(result.k_effective - K_INFINITY) > K_TOLERANCE:
                return self.fail(f"k = {result.k_effective!r}, expected {K_INFINITY}")
            if iterations != w.expect_power_iterations:
                return self.fail(f"{iterations} power iterations")

    def finish(self) -> None:
        """Tie the first repetition to an independent engine and LAPACK.

        For the transient the reference runs the first ``reference_steps``
        steps only; the compiled tier is compared on that same shortened
        spec, and the shortened run's per-step mean flux must equal the
        head of the full run's -- so the full run is anchored through it.
        """
        if self.spec.driver == "k_eigenvalue" or self.first is None:
            return  # anchored analytically, per repetition
        shorten = {}
        if self.workload.reference_steps and self.spec.driver == "time_dependent":
            shorten = {"n_steps": min(self.spec.n_steps, self.workload.reference_steps)}
        engine, solver = self.workload.reference
        reference = self.repro.run(self.spec.with_(engine=engine, solver=solver, **shorten))
        mine = self.repro.run(self.spec.with_(**shorten)) if shorten else self.first
        gap = _relative_gap(mine.scalar_flux, reference.scalar_flux)
        if gap > FLUX_TOLERANCE:
            self.fail(f"scalar flux differs from reference by {gap:.3e}")
        if shorten:
            head = self.first.step_mean_flux[: shorten["n_steps"]]
            if head != mine.step_mean_flux:
                self.fail("full run's first steps differ from the shortened run")


# ---------------------------------------------------------------- passes
class ReadBack:
    """The repeat operation: ask for a solved spec again through a ``ResultStore``.

    After each timed solve its result is stored (untimed) and the one-point
    study resumed a few times (timed): zero new runs, the same flux back.
    Interleaving with the solves spreads the samples over the whole run.
    """

    def __init__(self, repro, spec, store_dir, checker: Checker):
        self.repro = repro
        self.spec = spec
        self.store = repro.ResultStore(store_dir)
        self.study = repro.Study.cases(spec, [{}], name="read-back")
        self.checker = checker
        self.seconds: list[float] = []

    def after(self, result, repeats: int = 3) -> None:
        self.store.put(self.spec, result)
        for _ in range(repeats):
            elapsed, outcome = timed(
                lambda: self.repro.run_study(self.study, store=self.store))
            self.seconds.append(elapsed)
            self.checker.attempted += 1
            if outcome.new_run_count != 0 or not np.array_equal(
                outcome[0].result.scalar_flux, result.scalar_flux
            ):
                self.checker.fail("store read-back re-ran or changed the flux")


def untraced(repro, name: str, seed: int, seconds: float, tiny: bool) -> dict:
    workload = WORKLOADS[name]
    spec = workload.build(repro, seed, tiny)
    warm_up(repro, spec)
    checker = Checker(repro, workload, spec, tiny)
    floor = 2 if tiny else 5

    run_s, setup_s = [], []
    with scratch_dir("readback") as store_dir:
        read_back = ReadBack(repro, spec, store_dir, checker)
        began = time.perf_counter()
        while keep_sampling(run_s, began, seconds, floor):
            elapsed, result = timed(lambda: repro.run(spec))
            run_s.append(elapsed)
            setup_s.append(result.setup_seconds)
            checker.repetition(result)
            read_back.after(result)
    repeat_s = read_back.seconds
    rss = peak_rss_mb()  # before the reference engine inflates it
    checker.finish()

    return {
        "end_to_end": {
            "cold_ms": describe(1e3 * s for s in run_s),
            "repeat_ms": describe(1e3 * s for s in repeat_s),
            "setup_s": describe(setup_s),
            "peak_rss_mb": describe([rss]),
        },
        **checker.outcome(),
        "inputs": {"scattering_ratio": spec.scattering_ratio,
                   "source_strength": spec.source_strength,
                   "seeded": spec.driver != "k_eigenvalue"},
    }


def traced(repro, name: str, seed: int, tiny: bool, tracer: Tracer) -> dict:
    workload = WORKLOADS[name]
    spec = workload.build(repro, seed, tiny)
    warm_up(repro, spec)
    checker = Checker(repro, workload, spec, tiny)
    metrics = layers.probe_builds(tracer, spec)

    repetitions = 2 if tiny else 3
    plain_s = []
    for rep in range(repetitions):
        if workload.telemetry_overhead and rep:
            # Plain runs interleaved with the instrumented ones, so machine
            # drift during the pass hits both sides of the comparison.
            elapsed, result = timed(lambda: repro.run(spec))
            plain_s.append(elapsed)
            checker.repetition(result)
        tracer.rep = rep + 1
        with tracer.span("runner.run", telemetry=True) as run_span:
            result = repro.run(spec, telemetry=True)
        checker.repetition(result)
        tel = result.telemetry
        phases, counters = tel.phase_seconds, tel.counters
        tracer.reported(run_span, "core.solver.setup", phases["setup"])
        solve_span = tracer.reported(run_span, "drivers.solve", phases["solve"])
        tracer.reported(solve_span, "core.sweep.sweeps", phases["solve.sweep"])
        hits, misses = counters["factor_cache_hits"], counters["factor_cache_misses"]
        run_counts = {
            "drivers.sweeps": counters["sweeps"],
            "drivers.inners_total": result.total_inners,
            "drivers.time_steps": counters.get("time_steps", 0),
            "drivers.power_iterations": counters.get("power_iterations", 0),
            "engines.factor_cache_hits": hits,
            "engines.factor_cache_misses": misses,
            "engines.kernel_calls": (hits + misses) / counters["sweeps"],
            "engines.factor_cache_bytes": tel.gauges.get("factor_cache_bytes", 0),
        }
        for count, value in run_counts.items():
            tracer.count(count, value)
        tracer.count("engines.telemetry_assembly_s", counters["sweep_assembly_seconds"])
    tracer.rep = 0

    # After the runs, so the probe's cold sweep meets the same warmed-up
    # heap as the median run it is compared with, not a fresh process.
    if workload.sweep_probes:
        sweeps = layers.probe_sweeps(
            tracer, spec, steady=3 if tiny else 9, octant_threads=workload.octant_threads)
        metrics.update(sweeps)
        metrics.update(layers.probe_perfmodel(
            spec, sweeps["core.sweep.steady_sweep_s"], sweeps["engines.kernel_s"]))
        metrics.update(layers.probe_solvers(tracer, spec, copies=8 if tiny else 64))

    traced_s = tracer.seconds("runner.run")
    metrics["drivers.outer_loop_s"] = median(tracer.self_seconds("drivers.solve"))
    for count in run_counts:  # each must have repeated exactly over the runs
        metrics[count] = tracer.exact_count(count)
    if spec.boundary.kind == "reflective":
        # Lagged boundary traces send every bucket through the numpy RHS
        # assembly; telemetry books that time as sweep assembly.
        metrics["engines.fallback_assembly_s"] = median(
            tracer.counts["engines.telemetry_assembly_s"])
    if plain_s:
        metrics["obs.telemetry_overhead_pct"] = (
            100.0 * (median(traced_s) - median(plain_s)) / median(plain_s))

    with scratch_dir("records") as store_dir:
        metrics.update(layers.probe_records(tracer, spec, result, store_dir))
    checker.finish()
    return {
        "per_layer": metrics,
        **checker.outcome(),
        "shares": {"run_s": median(traced_s)},
    }
