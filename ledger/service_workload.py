"""service-mix: the whole submit -> gateway -> queue -> spool -> worker -> store path.

A real ``unsnap serve --backend distributed`` and one ``unsnap worker`` at
their default poll and heartbeat settings, driven by one closed-loop client
on one connection.  Each seeded unique deck is submitted once (a miss, which
solves) and twice more (hits, served from the store).  The solve is about
40 ms, so spool claim/poll latency and daemon overhead do most of the work.
"""

from __future__ import annotations

import json
import os
import random
import re
import select
import subprocess
import sys
import time

import layers
from harness import (
    LedgerError, Tally, Tracer, describe, median, peak_rss_mb, process_peak_rss_mb, reap,
    scratch_dir, warm_up,
)

POLL_SECONDS = 0.01
JOB_TIMEOUT = 60.0
_READY = re.compile(r"http://([\d.]+):(\d+)")
_UNSNAP = [sys.executable, "-m", "repro.cli"]


def _decks(seed: int):
    """Endless seeded stream of distinct decks (distinct scattering ratios)."""
    ratios = random.Random(seed).sample(range(100_000, 900_000), 5000)
    for k in ratios:
        yield f"nx=3 ny=3 nz=3 ng=2 nang=1 iitm=2 oitm=1 engine=compiled scatp={k / 1e6}"


class Service:
    """One worker and one gateway on a private spool, reaped on every exit path.

    Set-up is what an operator waits for: both processes spawned, the
    worker's first heartbeat on the spool (so the coordinator will not start
    workers of its own), the gateway's ready line parsed and ``/healthz``
    answering.
    """

    def __init__(self, root, *, trace: bool = False):
        self.spool = root / "spool"
        self.trace_dir = self.spool / "trace"
        self.trace = trace
        self.worker = self.serve = self.client = None
        self.setup_seconds = 0.0
        #: Larger of the two children's peak resident sets, read on exit.
        self.peak_rss_mb = 0.0

    def __enter__(self) -> "Service":
        from repro.campaign.distributed import SpoolDir
        from repro.service import ServiceClient

        began = time.perf_counter()
        spool = SpoolDir(self.spool)
        try:
            self.worker = subprocess.Popen(
                [*_UNSNAP, "worker", str(self.spool)],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            )
            command = [*_UNSNAP, "serve", "--port", "0", "--backend", "distributed",
                       "--jobs", "2", "--store", str(self.spool / "store")]
            if self.trace:
                command += ["--trace", str(self.trace_dir / "service.jsonl")]
            self.serve = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                env={**os.environ, "UNSNAP_SPOOL_DIR": str(self.spool)},
            )
            readable, _, _ = select.select([self.serve.stdout], [], [], 60.0)
            ready = self.serve.stdout.readline() if readable else ""
            match = _READY.search(ready)
            if not match:
                raise LedgerError(f"unsnap serve gave no ready line: {ready!r}")
            self.client = ServiceClient(match.group(1), int(match.group(2)))
            self.client.healthz()
            deadline = time.monotonic() + 60.0
            while not spool.live_workers(15.0):
                if self.worker.poll() is not None or time.monotonic() > deadline:
                    raise LedgerError("unsnap worker never reported a heartbeat")
                time.sleep(0.005)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        self.setup_seconds = time.perf_counter() - began
        return self

    def __exit__(self, *_exc) -> None:
        from repro.campaign.distributed import SpoolDir

        self.peak_rss_mb = max(
            (process_peak_rss_mb(p.pid) for p in (self.serve, self.worker) if p is not None),
            default=0.0)
        if self.serve is not None:
            reap(self.serve, interrupt=True)
        if self.worker is not None:
            SpoolDir(self.spool).request_stop()  # the worker drains on STOP
            reap(self.worker, interrupt=False, timeout=10.0)


class Traffic(Tally):
    """The closed loop: one miss then two hits per deck, each checked."""

    def __init__(self, client=None, tracer: Tracer | None = None):
        super().__init__()
        self.client = client
        self.tracer = tracer
        self.miss_ms: list[float] = []
        self.hit_ms: list[float] = []
        self.polls: list[int] = []
        self.miss_traces: list[str] = []

    def _submit_and_wait(self, deck: str):
        """``(milliseconds, terminal job, polls)`` or ``None`` on failure."""
        from repro.service import ServiceError

        self.attempted += 1
        began = time.perf_counter()
        try:
            job = self.client.submit(deck=deck, trace=True if self.tracer else None)
            polls = 0
            if self.tracer is None:
                done = self.client.wait(job["id"], timeout=JOB_TIMEOUT, poll=POLL_SECONDS)
            else:  # the same loop as ServiceClient.wait, with the polls counted
                deadline = time.monotonic() + JOB_TIMEOUT
                while True:
                    done = self.client.job(job["id"])
                    polls += 1
                    if done["state"] in ("done", "failed", "cancelled"):
                        break
                    if time.monotonic() >= deadline:
                        raise TimeoutError(f"job {job['id']} still {done['state']!r}")
                    time.sleep(POLL_SECONDS)
        except (ServiceError, TimeoutError, OSError) as exc:
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        return 1e3 * (time.perf_counter() - began), {**job, **done}, polls

    def _check(self, ok: bool, note: str) -> bool:
        if not ok:
            self.fail(note)
        return ok

    def deck(self, deck: str, hits: int = 2) -> None:
        outcome = self._submit_and_wait(deck)
        if outcome is None:
            return
        elapsed, miss, polls = outcome
        if not self._check(
            miss["state"] == "done" and miss["cache_hit"] is False,
            f"first submission: state={miss['state']} cache_hit={miss['cache_hit']}",
        ):
            return
        self.miss_ms.append(elapsed)
        self.polls.append(polls)
        if "trace" in miss:
            self.miss_traces.append(miss["trace"]["trace_id"])
        for _ in range(hits):
            outcome = self._submit_and_wait(deck)
            if outcome is None:
                continue
            elapsed, hit, _polls = outcome
            if self._check(
                hit["state"] == "done" and hit["cache_hit"] is True
                and hit["result_summary"] == miss["result_summary"],
                f"repeat submission: state={hit['state']} cache_hit={hit['cache_hit']}",
            ):
                self.hit_ms.append(elapsed)


def _deck_spec(deck: str):
    from repro.input_deck import loads

    return loads(deck)


def untraced(repro, seed: int, seconds: float, tiny: bool) -> dict:
    decks = _decks(seed)
    warm_up(repro, _deck_spec(next(decks)))
    # Three service instances share the traffic.  That gives three set-up
    # samples, and it keeps one instance's thread-scheduling mode from
    # deciding the run: whether a hit is done before the client's first poll
    # (3 ms) or after its first sleep (13 ms) is a race that an instance
    # tends to settle one way for its lifetime.
    instances = 1 if tiny else 3
    floor = 4 if tiny else 10  # misses per instance
    setup_s = []
    traffic = Traffic()
    rss = peak_rss_mb()
    with scratch_dir("service") as root:
        for instance in range(instances):
            with Service(root / f"instance-{instance}") as service:
                setup_s.append(service.setup_seconds)
                traffic.client = service.client
                target = len(traffic.miss_ms) + floor
                began = time.perf_counter()
                while (len(traffic.miss_ms) < target
                       or time.perf_counter() - began < seconds / instances):
                    if traffic.failed > floor:
                        break  # a broken service must not spin until the cap
                    traffic.deck(next(decks))
            rss = max(rss, service.peak_rss_mb)
    if not traffic.miss_ms or not traffic.hit_ms:
        raise LedgerError(f"service-mix completed no operations: {traffic.notes[:3]}")
    return {
        "end_to_end": {
            "cold_ms": describe(traffic.miss_ms),
            "repeat_ms": describe(traffic.hit_ms),
            "setup_s": describe(setup_s),
            "peak_rss_mb": describe([rss]),
        },
        **traffic.outcome(),
        "inputs": {"connections": 1, "poll_seconds": POLL_SECONDS, "instances": instances,
                   "seeded": True},
    }


# ------------------------------------------------------------------ traced
def _percentile(values, percent: float) -> float:
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(len(ordered) * percent / 100.0))])


def _trace_layers(trace_dir, miss_traces) -> dict:
    """Mean per-miss time of each hop, from ``unsnap trace summary --json``."""
    listing = subprocess.run(
        [*_UNSNAP, "trace", "summary", str(trace_dir), "--json"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    wanted = set(miss_traces)
    summaries = [s for s in json.loads(listing)["traces"] if s["trace_id"] in wanted]
    if len(summaries) != len(wanted):
        missing = len(wanted) - len(summaries)
        raise LedgerError(f"{missing} miss traces missing from the span files")
    if any(s["orphans"] for s in summaries):
        raise LedgerError("orphaned spans: the service trace is not contiguous")

    def mean_ms(name):
        return 1e3 * sum(s["phases"][name]["seconds"] for s in summaries) / len(summaries)

    hops = {name: mean_ms(name) for name in (
        "gateway.submit", "service.queue", "service.execute",
        "spool.wait", "worker.execute", "worker.store")}
    # service.execute spans the coordinator's whole wait; what its children
    # do not cover is publish plus the poll that notices the done marker.
    execute_self = hops["service.execute"] - (
        hops["spool.wait"] + hops["worker.execute"] + hops["worker.store"])
    makespan = 1e3 * sum(s["makespan_seconds"] for s in summaries) / len(summaries)
    layered = (hops["gateway.submit"] + hops["service.queue"] + execute_self
               + hops["spool.wait"] + hops["worker.execute"] + hops["worker.store"])
    return {
        "gateway.submit_ms": hops["gateway.submit"],
        "service.queue_ms": hops["service.queue"],
        "service.execute_self_ms": execute_self,
        "spool.wait_ms": hops["spool.wait"],
        "worker.execute_ms": hops["worker.execute"],
        "worker.store_ms": hops["worker.store"],
        "service.trace_residual_pct": 100.0 * abs(makespan - layered) / makespan,
        "_makespan_ms": makespan,
    }


def _http_probes(tracer: Tracer, client, stored_deck: str, rounds: int) -> dict:
    job_id = None
    for _ in range(rounds):
        with tracer.span("service.http.healthz"):
            client.healthz()
        with tracer.span("service.http.submit"):
            job_id = client.submit(deck=stored_deck)["id"]
        with tracer.span("service.http.poll"):
            client.job(job_id)
    return {
        f"service.http.{call}_ms": 1e3 * median(tracer.seconds(f"service.http.{call}"))
        for call in ("healthz", "submit", "poll")
    }


def _daemon_hit_probe(tracer: Tracer, store_dir, spec, rounds: int) -> float:
    """In-process ``ServiceDaemon.submit`` of a stored key: no HTTP, no spool."""
    from repro.service import ServiceDaemon

    with ServiceDaemon(store=store_dir, backend="serial", workers=1) as daemon:
        for _ in range(rounds):
            with tracer.span("service.daemon.submit_hit"):
                job = daemon.wait(daemon.submit(spec).id, timeout=JOB_TIMEOUT)
            if not job.cache_hit:
                raise LedgerError("daemon hit probe missed the store")
    return 1e3 * median(tracer.seconds("service.daemon.submit_hit"))


def traced(repro, seed: int, tiny: bool, tracer: Tracer) -> dict:
    decks = _decks(seed)
    first = next(decks)
    spec = _deck_spec(first)
    warm_up(repro, spec)
    misses, plain_misses, rounds = (4, 3, 5) if tiny else (30, 20, 20)
    metrics = layers.probe_builds(tracer, spec)
    metrics.update(layers.probe_sweeps(tracer, spec, steady=3 if tiny else 9))

    with scratch_dir("service") as root:
        with Service(root / "traced", trace=True) as service:
            traffic = Traffic(service.client, tracer)
            with tracer.span("service.traffic", traced=True):
                traffic.deck(first)
                for _ in range(misses - 1):
                    traffic.deck(next(decks))
            metrics.update(_http_probes(tracer, service.client, first, rounds))
        hops = _trace_layers(service.trace_dir, traffic.miss_traces)

        with Service(root / "plain") as plain_service:
            plain = Traffic(plain_service.client)
            stored = next(decks)
            plain.deck(stored, hits=0)
            for _ in range(plain_misses - 1):
                plain.deck(next(decks), hits=0)
        metrics["service.daemon.submit_hit_ms"] = _daemon_hit_probe(
            tracer, plain_service.spool / "store", _deck_spec(stored), rounds)

        for _ in range(rounds):
            with tracer.span("runner.run", deck=True):
                result = repro.run(spec)
        metrics.update(layers.probe_records(tracer, spec, result, root / "records"))
        metrics.update(layers.probe_spool(tracer, spec, root / "probe-spool", jobs=rounds))

    if not traffic.miss_ms or not plain.miss_ms:
        raise LedgerError(f"service-mix completed no operations: {traffic.notes[:3]}")
    makespan = hops.pop("_makespan_ms")
    metrics.update(hops)
    traced_p50, plain_p50 = median(traffic.miss_ms), median(plain.miss_ms)
    in_process_ms = 1e3 * median(tracer.seconds("runner.run", deck=True))
    metrics.update({
        "service.spool_overhead_ms": plain_p50 - in_process_ms,
        "service.miss_latency_p90_ms": _percentile(traffic.miss_ms, 90),
        "service.hit_latency_p95_ms": _percentile(traffic.hit_ms, 95),
        "service.polls_per_miss": median(traffic.polls),
        "obs.trace_overhead_pct": 100.0 * (traced_p50 - plain_p50) / plain_p50,
    })
    return {
        "per_layer": metrics,
        "attempted": traffic.attempted + plain.attempted,
        "failed": traffic.failed + plain.failed,
        "notes": (traffic.notes + plain.notes)[:20],
        "shares": {
            "miss_p50_ms": traced_p50,
            "plain_miss_p50_ms": plain_p50,
            "hit_p50_ms": median(traffic.hit_ms),
            "trace_makespan_ms": makespan,
            "in_process_run_ms": in_process_ms,
        },
    }
