"""The job-queue daemon: a bounded queue draining onto a worker pool.

:class:`ServiceDaemon` is the process-lifetime core of the service layer
(the HTTP gateway in :mod:`repro.service.http` is a thin shell over it):

* **Bounded intake** -- :meth:`submit` refuses work beyond
  ``max_queue_depth`` with :class:`QueueFullError` (the gateway's 429), so a
  traffic spike degrades into back-pressure instead of unbounded memory.
* **Store-backed dedup** -- before executing, a worker probes the attached
  :class:`~repro.campaign.store.ResultStore`; a hit short-circuits to the
  stored result (zero new solves).  The store key is the content hash of the
  canonical ``(spec, run_options)`` payload, so a million identical
  submissions cost one solve.
* **Single-flight coalescing** -- an identical job that arrives while its
  twin is *still running* does not execute either: it parks behind the
  in-flight leader and is served the leader's result on completion (if the
  leader fails or is cancelled, parked followers are re-queued and retry
  individually).
* **Cooperative cancellation** -- cancelling a queued job always works; a
  running job gets :attr:`~repro.service.job.Job.cancel_requested` set,
  which execution hooks may observe and honour by raising
  :class:`JobCancelled` (best-effort: the run may finish first and the job
  ends ``done``).
* **Backend-registry execution** -- each job executes through the campaign
  backend registry (``serial``/``thread``/``process`` or any
  :func:`repro.campaign.register_backend`-ed name) as a one-point payload,
  so the execution contract (pickle out, ``RunResult`` back) is exactly the
  study one.  In-process backends additionally get the job's live
  :class:`~repro.telemetry.Telemetry` threaded through for the progress
  stream; the process backend runs uninstrumented (the instrument's lock
  cannot cross a pickle boundary).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable

from ..campaign.backends import get_backend, iter_backend_results
from ..campaign.store import ResultStore
from ..campaign.study import RUN_OPTION_KEYS
from ..campaign.workitem import WorkItem, run_key
from ..engines import get_engine
from ..obs.trace import SpanExporter, TraceContext, use_trace
from ..runner import RunResult
from ..solvers import get_solver
from ..telemetry import Telemetry
from .job import CANCELLED, DONE, FAILED, QUEUED, RUNNING, Job

__all__ = ["ServiceDaemon", "JobCancelled", "QueueFullError"]

#: Backends whose workers share this process: the job's telemetry instrument
#: can be threaded straight through ``repro.run`` for live progress.
_IN_PROCESS_BACKENDS = frozenset({"serial", "thread"})


class JobCancelled(Exception):
    """Raised by an execution hook that observed ``cancel_requested``."""


class QueueFullError(RuntimeError):
    """The daemon's bounded queue is at capacity (the gateway's 429)."""

    def __init__(self, depth: int, limit: int):
        self.depth = depth
        self.limit = limit
        super().__init__(
            f"job queue is full ({depth}/{limit} queued); retry after a job drains"
        )


class ServiceDaemon:
    """Bounded in-process job queue over the campaign backend registry.

    Parameters
    ----------
    store:
        Optional :class:`ResultStore` (or directory path): the dedup cache.
        Hits are served without executing; fresh results are persisted (so
        the cache also survives daemon restarts, and a campaign store warms
        the service).
    backend:
        Campaign execution backend name, alias or instance; every job
        executes through it as a single ``(spec, run_options)`` payload.
    workers:
        Worker threads draining the queue (the service's concurrency).
    max_queue_depth:
        Maximum number of *waiting* jobs; :meth:`submit` beyond it raises
        :class:`QueueFullError`.
    max_retained:
        Optionally prune the oldest *terminal* jobs beyond this count so a
        long-lived daemon's job table stays bounded (``None``: keep all).
    executor:
        Override of the per-job execution callable ``f(job) -> RunResult``
        (tests use this to fake slow or cancellable runs); default executes
        through ``backend``.
    trace_exporter:
        Optional :class:`~repro.obs.trace.SpanExporter`: when attached
        (``unsnap serve --trace PATH``), every job's queue wait and
        execution become spans of its trace, and in-process telemetry
        phases ride along as child spans.  ``None`` -- the default --
        keeps every execution on the exact pre-tracing path.
    """

    def __init__(
        self,
        *,
        store: ResultStore | str | None = None,
        backend: str = "serial",
        workers: int = 2,
        max_queue_depth: int = 64,
        max_retained: int | None = None,
        executor: Callable[[Job], RunResult] | None = None,
        trace_exporter: SpanExporter | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if max_retained is not None and max_retained < 1:
            raise ValueError("max_retained must be >= 1 (or None)")
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store = store
        self.backend = get_backend(backend)
        self.backend_name = getattr(self.backend, "name", type(self.backend).__name__.lower())
        self.workers = workers
        self.max_queue_depth = max_queue_depth
        self.max_retained = max_retained
        self._execute = executor if executor is not None else self._execute_via_backend
        self.trace_exporter = trace_exporter
        #: Aggregate of every executed job's instrument (the ``/metrics``
        #: ``unsnap_run_*`` series); merged under the daemon lock.
        self.telemetry = Telemetry()

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[int, Job] = {}
        self._order: deque[int] = deque()  # submission order, for pruning
        self._queue: deque[int] = deque()
        self._pending = 0  # queued jobs occupying a queue slot
        self._inflight: dict[str, int] = {}  # content key -> leader job id
        self._followers: dict[str, list[Job]] = {}
        self._next_id = 1
        self._stop = False
        self._threads: list[threading.Thread] = []

        # Service counters (the /stats payload).
        self.submitted = 0
        self.executed = 0
        self.store_hits = 0
        self.coalesced_hits = 0

    # ---------------------------------------------------------- lifecycle
    def start(self) -> "ServiceDaemon":
        """Spawn the worker threads (idempotent)."""
        with self._lock:
            if self._threads:
                return self
            self._stop = False
            self._threads = [
                threading.Thread(
                    target=self._worker, name=f"unsnap-service-{i}", daemon=True
                )
                for i in range(self.workers)
            ]
        for thread in self._threads:
            thread.start()
        return self

    def shutdown(self, *, cancel_pending: bool = True, timeout: float | None = None) -> None:
        """Stop the workers and join them.

        ``cancel_pending=True`` (the default) marks every still-queued job
        cancelled so the daemon stops after the in-flight jobs; ``False``
        drains the whole queue first.  Joining is bounded by ``timeout``
        per worker when given.
        """
        with self._cond:
            self._stop = True
            if cancel_pending:
                for job in self._jobs.values():
                    if job.state == QUEUED:
                        self._finish_locked(job, CANCELLED)
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    def __enter__(self) -> "ServiceDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------- intake
    def submit(
        self,
        spec,
        run_options: dict | None = None,
        *,
        keep_flux: bool = True,
        trace: TraceContext | dict | None = None,
    ) -> Job:
        """Queue one run and return its :class:`Job` (state ``queued``).

        ``trace`` carries the submitter's trace identity (the parsed
        ``X-Unsnap-Trace`` header); when the daemon has a trace exporter
        and none is given, the job starts a fresh trace of its own.  The
        trace never enters ``run_options`` -- the content key of a traced
        and an untraced submission is identical by construction.

        Raises
        ------
        KeyError
            Unknown engine or solver name on the spec, or an unknown run
            option -- validated *before* queueing so a bad request never
            occupies a queue slot (the gateway's 400).
        QueueFullError
            The bounded queue is at ``max_queue_depth`` (the gateway's 429).
        RuntimeError
            The daemon was shut down.
        """
        run_options = dict(run_options or {})
        unknown = sorted(set(run_options) - set(RUN_OPTION_KEYS))
        if unknown:
            raise KeyError(
                f"unknown run option(s) {unknown}; valid run options: "
                f"{sorted(RUN_OPTION_KEYS)}"
            )
        # Resolve the registry names up front: a typo'd engine must be a
        # clean submission error, not a failed job.
        get_engine(spec.engine)
        get_solver(spec.solver)
        # The canonical WorkItem content key: the same key the result store
        # files under and the distributed spool names job files with.
        key = run_key(spec, run_options)
        if trace is None and self.trace_exporter is not None:
            trace = TraceContext.new()
        if isinstance(trace, TraceContext):
            trace = trace.to_dict()
        elif trace is not None:
            trace = dict(trace)
        with self._cond:
            if self._stop:
                raise RuntimeError("service daemon is shut down")
            if self._pending >= self.max_queue_depth:
                raise QueueFullError(self._pending, self.max_queue_depth)
            job = Job(
                id=self._next_id,
                key=key,
                spec=spec,
                run_options=run_options,
                keep_flux=keep_flux,
                trace=trace,
                telemetry=Telemetry(),
            )
            self._next_id += 1
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._queue.append(job.id)
            self._pending += 1
            self.submitted += 1
            self._prune_locked()
            self._cond.notify()
        return job

    def _prune_locked(self) -> None:
        """Drop the oldest terminal jobs beyond ``max_retained``."""
        if self.max_retained is None:
            return
        while len(self._jobs) > self.max_retained and self._order:
            for victim_id in list(self._order):
                job = self._jobs.get(victim_id)
                if job is None or job.terminal:
                    self._order.remove(victim_id)
                    self._jobs.pop(victim_id, None)
                    break
            else:
                return  # nothing terminal left to prune

    # ------------------------------------------------------------- access
    def get(self, job_id: int) -> Job:
        """Look up a job by id (``KeyError`` -- the gateway's 404)."""
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"no such job {job_id}") from None

    def jobs(self) -> list[Job]:
        """Every retained job, in submission order."""
        with self._lock:
            return [self._jobs[i] for i in self._order if i in self._jobs]

    def wait(self, job_id: int, timeout: float | None = None) -> Job:
        """Block until the job reaches a terminal state and return it."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"no such job {job_id}")
            while not job.terminal:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {job.state!r} after {timeout}s"
                    )
                self._cond.wait(timeout=remaining)
            return job

    def cancel(self, job_id: int) -> Job:
        """Cancel a job: queued jobs immediately, running jobs best-effort.

        A queued (or parked) job transitions straight to ``cancelled`` and
        never runs.  A running job has :attr:`~repro.service.job.Job.
        cancel_requested` set for the execution hook to observe; whether it
        aborts is a race the run may win.  Cancelling a terminal job is a
        no-op.  Returns the job either way.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(f"no such job {job_id}")
            job.cancel_requested = True
            if job.state == QUEUED:
                self._finish_locked(job, CANCELLED)
                self._cond.notify_all()
            return job

    def stats(self) -> dict:
        """The ``/stats`` payload: queue occupancy, state counts, dedup."""
        with self._lock:
            states = {state: 0 for state in (QUEUED, RUNNING, DONE, FAILED, CANCELLED)}
            for job in self._jobs.values():
                states[job.state] += 1
            cache_hits = self.store_hits + self.coalesced_hits
            served = cache_hits + self.executed
            stats = {
                "backend": self.backend_name,
                "workers": self.workers,
                "max_queue_depth": self.max_queue_depth,
                "queue_depth": self._pending,
                "jobs": states,
                "submitted": self.submitted,
                "executed": self.executed,
                "cache_hits": cache_hits,
                "store_hits": self.store_hits,
                "coalesced_hits": self.coalesced_hits,
                "cache_hit_ratio": cache_hits / served if served else 0.0,
            }
            if self.store is not None:
                stats["store"] = {
                    "root": str(self.store.root),
                    "records": len(self.store),
                    "hits": self.store.hits,
                    "misses": self.store.misses,
                }
            return stats

    def metrics(self) -> str:
        """The ``GET /metrics`` body: a Prometheus text-format snapshot.

        Sources: the :meth:`stats` payload, the aggregate run telemetry of
        executed jobs, and -- when the backend is spool-backed (or
        ``UNSNAP_SPOOL_DIR`` is set) -- the live spool status.  A failing
        source degrades to ``unsnap_metrics_source_errors_total`` instead
        of failing the scrape.
        """
        from ..obs.metrics import (
            MetricsRegistry,
            service_metrics,
            spool_metrics,
            telemetry_metrics,
        )

        registry = MetricsRegistry()
        registry.add_source(lambda: service_metrics(self.stats()))
        registry.add_source(lambda: telemetry_metrics(self.telemetry))
        spool_root = self._spool_root()
        if spool_root:

            def spool_source():
                from ..campaign.distributed.spool import SpoolDir

                return spool_metrics(SpoolDir(spool_root).status())

            registry.add_source(spool_source)
        return registry.render()

    def _spool_root(self) -> str | None:
        """The spool the backend runs on, or ``UNSNAP_SPOOL_DIR`` (``None``: neither)."""
        return (
            getattr(self.backend, "spool_dir", None)
            or os.environ.get("UNSNAP_SPOOL_DIR", "").strip()
            or None
        )

    def _spool_writes_our_store(self) -> bool:
        """Whether executions run on spool workers whose shared store is ours.

        Then (``--backend distributed --store SPOOL/store``) the worker has
        written each executed record, flux included, before the job ends.
        """
        if self.store is None or self._execute != self._execute_via_backend:
            return False
        if not hasattr(self.backend, "spool_dir"):
            return False  # not a spool backend: UNSNAP_SPOOL_DIR is only observed
        root = self._spool_root()
        return root is not None and (
            (Path(root) / "store").resolve() == self.store.root.resolve()
        )

    # ---------------------------------------------------------- execution
    def _execute_via_backend(self, job: Job) -> RunResult:
        """Default execution: one :class:`WorkItem` through the backend registry."""
        run_options = dict(job.run_options)
        if self.backend_name in _IN_PROCESS_BACKENDS:
            # Same-process execution: thread the live instrument through so
            # the progress stream has phases to show.  (A process backend's
            # instrument could not pickle back -- its jobs run bare.)
            run_options["telemetry"] = job.telemetry
        item = WorkItem(spec=job.spec, run_options=run_options, index=0)
        results = [
            result for _index, result, _meta in iter_backend_results(
                self.backend, [item], jobs=1
            )
        ]
        if len(results) != 1:
            raise RuntimeError(
                f"backend {self.backend_name!r} returned {len(results)} results "
                f"for 1 job"
            )
        return results[0]

    def _traced_execute(self, job: Job) -> RunResult:
        """Run the job, wrapped in its trace when it carries one.

        The ambient trace context is set for the duration so backends the
        execution contract cannot pass arguments through (the distributed
        coordinator) can stamp their spool payloads; with an exporter
        attached the execution itself becomes a ``service.execute`` span
        and the job's live telemetry phases become its children.  The span
        starts where ``service.queue`` ended (the dequeue), so the dedup
        probe between them is inside a span rather than a gap in the trace.
        """
        context = TraceContext.from_dict(job.trace) if job.trace else None
        if context is None:
            return self._execute(job)
        if self.trace_exporter is None:
            # No local span file, but the identity still propagates: spool
            # workers downstream trace into the spool's trace/ directory.
            with use_trace(context):
                return self._execute(job)
        with self.trace_exporter.span(
            "service.execute",
            context=context,
            attrs={"job_id": job.id, "backend": self.backend_name},
            start=job.started_at,
        ) as span:
            if job.telemetry is not None:
                job.telemetry.attach_exporter(self.trace_exporter, span.context())
            with use_trace(span.context()):
                return self._execute(job)

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._stop and not self._queue:
                    self._cond.wait()
                if not self._queue:
                    return  # stopping and drained
                job = self._jobs.get(self._queue.popleft())
                self._pending -= 1
                if job is None or job.terminal:
                    continue  # cancelled while queued (or pruned)
                if job.cancel_requested:
                    self._finish_locked(job, CANCELLED)
                    self._cond.notify_all()
                    continue
                if job.key in self._inflight:
                    # Single-flight: park behind the identical running job.
                    self._followers.setdefault(job.key, []).append(job)
                    continue
                self._inflight[job.key] = job.id
                job.transition(RUNNING)
                job.started_at = time.time()

            # Out of the lock: the dedup probe and the solve itself.
            if job.trace and self.trace_exporter is not None:
                self.trace_exporter.emit(
                    "service.queue",
                    start=job.submitted_at,
                    end=job.started_at,
                    context=TraceContext.from_dict(job.trace),
                    attrs={"job_id": job.id},
                )
            cached = None
            if self.store is not None:
                cached = self.store.get(job.spec, job.run_options)
            if cached is not None:
                self._complete(job, DONE, summary=cached.summary(), from_store=True)
                continue
            if job.cancel_requested:
                # Cancel landed between dequeue and execution start: still a
                # guaranteed cancel -- no solve has begun.
                self._complete(job, CANCELLED)
                continue
            try:
                result = self._traced_execute(job)
            except JobCancelled:
                self._complete(job, CANCELLED)
            except Exception as exc:  # job isolation boundary: a failed run
                # must fail its job, never the worker thread
                self._complete(job, FAILED, error=f"{type(exc).__name__}: {exc}")
            else:
                # A spool worker sharing this store already wrote the full
                # record; only a flux-less job still rewrites it.  Any other
                # writer's record is overwritten, as it may lack the flux.
                if self.store is not None and not (
                    job.keep_flux
                    and self._spool_writes_our_store()
                    and self.store.contains(job.key)
                ):
                    self.store.put(
                        job.spec, result, job.run_options, include_flux=job.keep_flux
                    )
                self._complete(job, DONE, summary=result.summary(), executed=True)

    # ------------------------------------------------------------ internal
    def _finish_locked(self, job: Job, state: str, *, error: str | None = None) -> None:
        """Terminal transition + timestamp (caller holds the lock)."""
        job.transition(state)
        job.error = error
        job.finished_at = time.time()

    def _complete(
        self,
        job: Job,
        state: str,
        *,
        summary: dict | None = None,
        error: str | None = None,
        from_store: bool = False,
        executed: bool = False,
    ) -> None:
        """Publish a leader's outcome and settle its parked followers."""
        with self._cond:
            if state == DONE:
                job.result_summary = summary
                job.cache_hit = from_store
                if from_store:
                    self.store_hits += 1
                if executed:
                    self.executed += 1
                    if job.telemetry is not None:
                        # Fold the finished run's instrument into the
                        # daemon-lifetime aggregate behind /metrics.
                        self.telemetry.merge(job.telemetry)
            self._finish_locked(job, state, error=error)
            self._inflight.pop(job.key, None)
            followers = self._followers.pop(job.key, [])
            for follower in followers:
                if follower.terminal:
                    continue  # cancelled while parked
                if state == DONE:
                    if follower.cancel_requested:
                        self._finish_locked(follower, CANCELLED)
                        continue
                    # Served the leader's bits: a dict copy of the same
                    # summary, so the payloads are identical by construction.
                    follower.result_summary = dict(summary)
                    follower.cache_hit = True
                    self.coalesced_hits += 1
                    self._finish_locked(follower, DONE)
                elif self._stop:
                    self._finish_locked(follower, CANCELLED)
                else:
                    # The leader failed or aborted: followers retry
                    # individually (each becomes its own leader).
                    self._queue.append(follower.id)
                    self._pending += 1
            self._cond.notify_all()
