"""campaign-small: many tiny jobs through ``repro.run_study`` on two processes.

Per-point fixed costs dominate (problem set-up and cold factor build, about
20 ms of solve per point, plus pickling, ``run_key``, ``RunResult.to_dict``
and the ``ResultStore.put`` of a flux-bearing record); the resume passes then
drive the same store layer for reads, so a put-side gain that costs
``get``/``from_dict`` shows on the other metric.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

import numpy as np

import layers
from harness import (
    Tally, Tracer, describe, keep_sampling, median, peak_rss_mb, scratch_dir, timed, warm_up,
)

JOBS = 2
SAMPLED_POINTS = 8
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
)


def _base_spec(repro):
    return repro.ProblemSpec(
        nx=3, ny=3, nz=3, angles_per_octant=1, num_groups=2, num_inners=2,
        engine="compiled",
    )


def _build_study(repro, seed: int, points: int, store_dir):
    """What a campaign does before its first dispatch."""
    from repro import WorkItem

    # Distinct by construction, so no point is served from another's record.
    ratios = [k / 1e6 for k in random.Random(seed).sample(range(50_000, 950_000), points)]
    study = repro.Study.grid(_base_spec(repro), name="campaign-small", scattering_ratio=ratios)
    items = [
        WorkItem(spec=p.spec, run_options=dict(p.run_options), index=p.index)
        for p in study.runs()
    ]
    return study, items, repro.ResultStore(store_dir)


def _import_seconds(repeats: int) -> list[float]:
    """``import repro`` in fresh interpreters: the campaign's first set-up cost."""
    return [
        float(subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout)
        for _ in range(repeats)
    ]


class Checker(Tally):
    def __init__(self, repro, rng: random.Random):
        super().__init__()
        self.repro = repro
        self.rng = rng

    def cold_pass(self, outcome) -> None:
        """Fresh runs only, and sampled records equal in-process ``repro.run``."""
        self.attempted += len(outcome)
        if outcome.new_run_count != len(outcome):
            self.fail("cold pass served points from a fresh store",
                      len(outcome) - outcome.new_run_count)
        for run in self.rng.sample(list(outcome), min(SAMPLED_POINTS, len(outcome))):
            mine = self.repro.run(run.spec)
            same = np.array_equal(mine.scalar_flux, run.result.scalar_flux) and [
                float(x) for x in mine.leakage] == [float(x) for x in run.result.leakage]
            if not same:
                self.fail(f"point {run.index} differs from in-process repro.run")

    def resume_pass(self, outcome, cold) -> None:
        """Zero new runs, and every flux read back bit-for-bit."""
        self.attempted += len(outcome)
        changed = sum(
            not np.array_equal(a.result.scalar_flux, b.result.scalar_flux)
            for a, b in zip(outcome, cold)
        )
        if outcome.new_run_count or changed:
            self.fail(f"resume pass: {outcome.new_run_count} new runs, {changed} changed records",
                      outcome.new_run_count + changed)


def untraced(repro, seed: int, seconds: float, tiny: bool) -> dict:
    points = 12 if tiny else 400
    checker = Checker(repro, random.Random(seed))
    warm_up(repro, _base_spec(repro))

    build_s = []
    with scratch_dir("campaign-setup") as store_dir:
        for _ in range(5):
            elapsed, (study, _items, _store) = timed(
                lambda: _build_study(repro, seed, points, store_dir))
            build_s.append(elapsed)
    setup_s = [imported + median(build_s) for imported in _import_seconds(1 if tiny else 3)]

    pass_s, resume_ms = [], []
    with scratch_dir("campaign") as root:
        began = time.perf_counter()
        while keep_sampling(pass_s, began, seconds, 1):
            store = repro.ResultStore(root / f"store-{len(pass_s)}")  # fresh: all cold
            elapsed, cold = timed(
                lambda: repro.run_study(study, backend="process", jobs=JOBS, store=store))
            pass_s.append(elapsed)
        for _ in range(3 if tiny else 20):
            elapsed, resumed = timed(
                lambda: repro.run_study(study, backend="process", jobs=JOBS, store=store))
            resume_ms.append(1e3 * elapsed / points)
            checker.resume_pass(resumed, cold)
            del resumed  # 400 flux-bearing results: keep the heap as a campaign's
        rss = peak_rss_mb(children=True)  # the pool's workers are reaped by now
        checker.cold_pass(cold)

    return {
        "end_to_end": {
            "cold_ms": describe(1e3 * s / points for s in pass_s),
            "repeat_ms": describe(resume_ms),
            "setup_s": describe(setup_s),
            "peak_rss_mb": describe([rss]),
        },
        **checker.outcome(),
        "inputs": {"points": points, "jobs": JOBS, "seeded": True},
    }


def traced(repro, seed: int, tiny: bool, tracer: Tracer) -> dict:
    points = 12 if tiny else 400
    checker = Checker(repro, random.Random(seed))
    base = _base_spec(repro)
    warm_up(repro, base)
    metrics = layers.probe_builds(tracer, base)
    metrics.update(layers.probe_sweeps(tracer, base, steady=3 if tiny else 9))

    with scratch_dir("campaign") as root:
        study, _items, store = _build_study(repro, seed, points, root / "store")
        point_seconds = []
        tracer.rep = 1
        with tracer.span("campaign.run_study", mode="cold", points=points) as cold_span:
            cold = repro.run_study(
                study, backend="process", jobs=JOBS, store=store,
                on_result=lambda run: point_seconds.append(run.result.wall_seconds),
            )
        # What the points themselves took, spread over the pool, is the
        # floor of a pass; the rest is dispatch: pool start, pickling both
        # ways, run_key, to_dict and the store write.
        tracer.reported(cold_span, "runner.run", sum(point_seconds) / JOBS, points=points)
        for rep in range(3):
            tracer.rep = 2 + rep
            with tracer.span("campaign.run_study", mode="resume", points=points):
                resumed = repro.run_study(study, backend="process", jobs=JOBS, store=store)
            checker.resume_pass(resumed, cold)
        tracer.rep = 0
        checker.cold_pass(cold)
        metrics["campaign.backends.dispatch_overhead_ms"] = (
            1e3 * tracer.self_seconds("campaign.run_study", mode="cold")[0] / points)
        metrics.update(layers.probe_records(tracer, cold[0].spec, cold[0].result, root / "probe"))

    cold_wall = cold_span.seconds
    return {
        "per_layer": metrics,
        **checker.outcome(),
        "shares": {
            "cold_pass_s": cold_wall,
            "resume_pass_s": median(tracer.seconds("campaign.run_study", mode="resume")),
            "point_solve_ms": 1e3 * median(point_seconds),
        },
    }
