"""Pluggable study-execution backends.

A backend executes the resolved runs of a :class:`~repro.campaign.study.
Study` and returns their :class:`~repro.runner.RunResult`\\ s.  Backends are
registered by name on the generic :class:`repro.registry.Registry` (the
third instantiation, after sweep engines and local solvers), so third-party
execution strategies -- a cluster scheduler, an async queue -- plug in with
the same decorator pattern::

    from repro.campaign import register_backend

    @register_backend("my-queue", aliases=("queue",))
    class MyQueueBackend:
        \"\"\"One-line description shown by ``unsnap backends``.\"\"\"

        def execute_iter(self, items, *, jobs=None):
            for item in items:
                yield item.index, run_somewhere(item)

Backend contract
----------------
Work arrives as :class:`~repro.campaign.workitem.WorkItem`\\ s (the shared
frozen payload carrying spec, run options, study index and cost estimate;
:func:`~repro.campaign.workitem.as_work_items` also adapts
:class:`~repro.campaign.study.StudyPoint`\\ s).  A backend implements

``execute_iter(items, *, jobs=None) -> Iterator[tuple]``
    yielding ``(index, result)`` -- or ``(index, result, meta)`` with a
    JSON-safe execution-metadata mapping (``worker_id``, ``attempts``,
    ``queue_wait_seconds``...) -- **as runs complete, in any order**, exactly
    once per item.  :func:`repro.run_study` reorders the stream, feeds its
    ``on_result`` progress callback from it and rejects unknown, repeated
    or missing indices.

The earlier in-order ``execute(items) -> Iterable[RunResult]`` contract (v1)
is retired: an object providing only ``execute`` is rejected at
:func:`register_backend` / :func:`get_backend` with an error naming
``execute_iter``.

Built-in backends
-----------------
``serial``
    One run after another in the calling process (alias: ``sequential``).
``thread``
    Runs dispatched to a ``ThreadPoolExecutor`` (alias: ``threads``) --
    useful when the per-run work releases the GIL (LAPACK solves).
``process``
    Runs sharded across a ``ProcessPoolExecutor`` (aliases: ``processes``,
    ``mp``): each worker re-imports :mod:`repro` and calls
    :func:`repro.run` on a pickled payload, so results are bit-for-bit
    identical to ``serial`` for the same specs.
``distributed``
    Runs fanned out to worker *processes on any number of hosts* through a
    file-based spool protocol (:mod:`repro.campaign.distributed`); results
    merge through a shared :class:`~repro.campaign.store.ResultStore` and
    stay bit-for-bit identical to ``serial``.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, as_completed
from typing import Iterator, Protocol, Sequence, runtime_checkable

from ..registry import Registry
from ..runner import RunResult
from .workitem import WorkItem, as_work_items

__all__ = [
    "ExecutionBackend",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
    "backend_aliases",
    "backend_listing",
    "iter_backend_results",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
]


@runtime_checkable
class ExecutionBackend(Protocol):
    """Protocol every execution backend implements."""

    def execute_iter(
        self, items: Sequence, *, jobs: int | None = None
    ) -> Iterator[tuple]:
        """Run every item, yielding ``(index, result[, meta])`` as runs complete.

        ``items`` are :class:`~repro.campaign.workitem.WorkItem`\\ s (or any
        shape :func:`~repro.campaign.workitem.as_work_items` adapts).
        :func:`repro.run_study` consumes the stream one result at a time and
        persists each to the result store as it arrives, so completed runs
        survive a mid-study failure.  ``jobs`` caps the worker count for
        concurrent backends (``None`` means the executor's default); serial
        backends ignore it.
        """
        ...  # pragma: no cover


_BACKENDS: Registry[ExecutionBackend] = Registry(
    "backend",
    method="execute_iter",
    hint="the in-order execute() contract (v1) is retired: yield "
    "(index, result[, meta]) per item from execute_iter(items, *, jobs=None)",
)

#: ``@register_backend(name, *, description=None, aliases=(), overwrite=False)``
#: -- class (or instance) decorator; see :meth:`repro.registry.Registry.register`.
register_backend = _BACKENDS.register
#: Remove a backend (and its aliases) from the registry.
unregister_backend = _BACKENDS.remove
#: Resolve a backend instance from a name, alias or instance.
get_backend = _BACKENDS.get
#: Names of all registered backends (aliases excluded).
available_backends = _BACKENDS.available
#: Aliases registered for the given backend name.
backend_aliases = _BACKENDS.aliases_of
#: ``(name, aliases, description)`` rows for ``unsnap backends``.
backend_listing = _BACKENDS.listing


def iter_backend_results(
    backend: ExecutionBackend,
    items: Sequence[WorkItem],
    *,
    jobs: int | None = None,
) -> Iterator[tuple[int, RunResult, dict]]:
    """Stream normalised ``(index, result, meta)`` triples from a backend.

    The entry point :func:`repro.run_study` consumes: adapts the items to
    :class:`WorkItem`\\ s and pads ``(index, result)`` events with an empty
    ``meta``.
    """
    for event in backend.execute_iter(as_work_items(items), jobs=jobs):
        index, result, *rest = event
        meta = dict(rest[0]) if rest and rest[0] is not None else {}
        yield int(index), result, meta


def _execute_point(payload) -> RunResult:
    """Run one pickled :class:`WorkItem` (or :class:`StudyPoint`) payload.

    Module-level so :class:`ProcessBackend` can ship it to workers by
    reference; the import of :func:`repro.run` happens lazily to avoid a
    circular import at package load.
    """
    from ..runner import run

    item = WorkItem.coerce(payload)
    return run(item.spec, **item.run_options)


def _clamp_jobs(jobs: int | None, num_items: int) -> int | None:
    """Sanitise a worker cap for the pool executors (which reject <= 0)."""
    if jobs is None:
        return None
    return max(1, min(jobs, num_items))


@register_backend("serial", aliases=("sequential",))
class SerialBackend:
    """One run after another in the calling process."""

    def execute_iter(
        self, items: Sequence, *, jobs: int | None = None
    ) -> Iterator[tuple[int, RunResult]]:
        for item in as_work_items(items):
            yield item.index, _execute_point(item)


class _PoolBackend:
    """Shared body of the thread/process pool backends.

    Streams ``(index, result)`` in completion order (``as_completed``) over
    the same per-item :func:`_execute_point` payloads ``serial`` runs, so
    the results are bit-for-bit identical.
    """

    _executor_cls: type

    def execute_iter(
        self, items: Sequence, *, jobs: int | None = None
    ) -> Iterator[tuple[int, RunResult]]:
        items = as_work_items(items)
        if not items:
            return
        with self._executor_cls(max_workers=_clamp_jobs(jobs, len(items))) as pool:
            futures = {pool.submit(_execute_point, item): item.index for item in items}
            for future in as_completed(futures):
                yield futures[future], future.result()


@register_backend("thread", aliases=("threads",))
class ThreadBackend(_PoolBackend):
    """Runs dispatched to a thread pool (wins when the solver releases the GIL)."""

    _executor_cls = ThreadPoolExecutor


@register_backend("process", aliases=("processes", "mp"))
class ProcessBackend(_PoolBackend):
    """Runs sharded across worker processes (bit-for-bit equal to serial)."""

    _executor_cls = ProcessPoolExecutor
