"""The spool worker: claim, execute, store, mark done -- repeat.

``unsnap worker SPOOL_DIR`` runs one of these per process; start as many
as you like, on as many machines as share the spool filesystem.  Workers
are completely stateless between jobs: everything they know arrives in
the claimed job file, everything they produce lands in the spool's shared
:class:`~repro.campaign.store.ResultStore` plus one done marker, so a
worker killed mid-job loses nothing -- the coordinator steals the stale
claim after the lease and the point re-executes elsewhere.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from .spool import WORKER, SpoolClaim, SpoolDir, worker_identity

__all__ = ["SpoolWorker", "run_worker"]


class SpoolWorker:
    """One worker process' claim/execute loop over a spool directory.

    Parameters
    ----------
    spool:
        The :class:`SpoolDir` (or its path) to serve.
    worker_id:
        Stable identity written into claims, heartbeats and done markers;
        defaults to a filesystem-safe ``host-pid``.
    poll_seconds:
        Longest idle wait between queue checks.  A publish or a STOP rings
        the worker's doorbell and ends the wait early; this period is the
        fallback when no doorbell rings (another host, or no bell bound).
    heartbeat_seconds:
        Heartbeat-file touch period (keep well under the campaign lease).
    max_jobs:
        Exit after this many executed jobs (``None``: run until stopped).
    idle_exit_seconds:
        Exit after this long with an empty queue (``None``: wait forever
        for the STOP marker).
    """

    def __init__(
        self,
        spool: SpoolDir | str | Path,
        *,
        worker_id: str | None = None,
        poll_seconds: float = 0.2,
        heartbeat_seconds: float = 1.0,
        max_jobs: int | None = None,
        idle_exit_seconds: float | None = None,
    ):
        self.spool = spool if isinstance(spool, SpoolDir) else SpoolDir(spool)
        self.worker_id = worker_id or worker_identity()
        self.poll_seconds = float(poll_seconds)
        self.heartbeat_seconds = float(heartbeat_seconds)
        self.max_jobs = max_jobs
        self.idle_exit_seconds = idle_exit_seconds
        self.executed = 0
        self.failed = 0

    # ------------------------------------------------------------- one job
    def run_claim(self, claim: SpoolClaim) -> bool:
        """Execute one claimed job end to end; ``True`` if it produced a result.

        Failure handling: a payload that cannot be parsed is quarantined
        (the coordinator republishes the point); an execution error
        releases the job for another attempt, or -- once ``max_attempts``
        is exhausted -- publishes an *error* done marker that the
        coordinator surfaces to the caller.

        A payload carrying a ``trace`` field continues that trace: the
        worker appends ``spool.wait`` / ``worker.execute`` /
        ``worker.store`` spans (plus the solve's telemetry phases) to its
        own ``trace/{worker_id}.jsonl`` file.  No ``trace`` field -- the
        default -- keeps the execution on the exact pre-tracing path.
        """
        from ...runner import run

        try:
            item, payload = claim.load()
        except ValueError as exc:
            self.spool.quarantine(claim, str(exc))
            return False
        exporter = self._trace_exporter(claim, payload)
        started = time.time()
        queue_wait = max(0.0, started - float(payload.get("enqueued_at", started)))
        meta = {
            "worker_id": self.worker_id,
            "attempts": claim.attempts,
            "queue_wait_seconds": queue_wait,
        }
        run_options = dict(item.run_options)
        if exporter is not None:
            exporter.emit(
                "spool.wait", start=started - queue_wait, end=started,
                attrs={"attempts": claim.attempts},
            )
            from ...telemetry import Telemetry

            run_options["telemetry"] = Telemetry().attach_exporter(exporter)
        try:
            if exporter is None:
                result = run(item.spec, **run_options)
            else:
                with exporter.span(
                    "worker.execute", attrs={"attempts": claim.attempts}
                ):
                    result = run(item.spec, **run_options)
        except Exception as exc:  # noqa: BLE001 - any run failure is the job's
            self.failed += 1
            if claim.attempts >= int(payload.get("max_attempts", 1)):
                meta["error"] = f"{type(exc).__name__}: {exc}"
                self.spool.complete(claim, meta)
            else:
                self.spool.publish(
                    item,
                    attempts=claim.attempts + 1,
                    max_attempts=int(payload.get("max_attempts", 1)),
                    trace=payload.get("trace"),
                )
                self.spool.steal(claim)
            if exporter is not None:
                exporter.close()
            return False
        meta["execute_seconds"] = time.time() - started
        # Result first, marker second: a done marker *guarantees* the store
        # record exists.  Re-executions (stolen leases) rewrite identical
        # bytes under the same run_key, so the order is safe to repeat.
        if exporter is None:
            self.spool.store.put(item, result)
        else:
            with exporter.span("worker.store"):
                self.spool.store.put(item, result)
            exporter.close()
        self.spool.complete(claim, meta)
        self.executed += 1
        return True

    def _trace_exporter(self, claim: SpoolClaim, payload: dict):
        """A per-claim span exporter continuing the payload's trace, or
        ``None`` for the untraced (default) path."""
        from ...obs.trace import SpanExporter, TraceContext

        context = TraceContext.from_dict(payload.get("trace"))
        if context is None:
            return None
        return SpanExporter(
            self.spool.trace_path(self.worker_id),
            context=context,
            attrs={"worker_id": self.worker_id, "index": claim.index},
        )

    # ---------------------------------------------------------- the loop
    def run(self) -> int:
        """Serve the spool until stopped; returns the number of executed jobs.

        Exits when the STOP marker appears (after finishing the current
        job), after ``max_jobs`` executions, or after ``idle_exit_seconds``
        of empty queue.  A heartbeat thread keeps the worker's liveness
        file fresh even through long-running solves.  An idle worker waits
        on its doorbell, bound before the first queue check.
        """
        bell = self.spool.doorbell(WORKER)
        stop = threading.Event()

        def beat() -> None:
            while not stop.wait(self.heartbeat_seconds):
                self.spool.heartbeat(self.worker_id)

        self.spool.heartbeat(self.worker_id, {"started_at": time.time()})
        beater = threading.Thread(target=beat, name="spool-heartbeat", daemon=True)
        beater.start()
        idle_since = time.time()
        try:
            while True:
                if self.spool.stop_requested():
                    break
                if self.max_jobs is not None and self.executed >= self.max_jobs:
                    break
                claim = self.spool.claim_next(self.worker_id)
                if claim is None:
                    if (
                        self.idle_exit_seconds is not None
                        and time.time() - idle_since > self.idle_exit_seconds
                    ):
                        break
                    bell.wait(self.poll_seconds)
                    continue
                self.run_claim(claim)
                idle_since = time.time()
        finally:
            bell.close()
            stop.set()
            beater.join(timeout=2 * self.heartbeat_seconds)
            self.spool.retire(self.worker_id)
        return self.executed


def run_worker(
    spool_dir: str | Path,
    *,
    worker_id: str | None = None,
    poll_seconds: float = 0.2,
    heartbeat_seconds: float = 1.0,
    max_jobs: int | None = None,
    idle_exit_seconds: float | None = None,
) -> int:
    """Entry point behind ``unsnap worker``: serve a spool until stopped."""
    worker = SpoolWorker(
        spool_dir,
        worker_id=worker_id,
        poll_seconds=poll_seconds,
        heartbeat_seconds=heartbeat_seconds,
        max_jobs=max_jobs,
        idle_exit_seconds=idle_exit_seconds,
    )
    return worker.run()
