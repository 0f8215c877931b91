"""The study-execution facade: ``repro.run_study(study)``.

Splits a study into cached and pending runs against an optional
:class:`~repro.campaign.store.ResultStore`, streams the pending runs
through the chosen execution backend (each fresh result is persisted as it
completes, so an interrupted campaign resumes from the finished prefix),
and returns a :class:`~repro.campaign.result.StudyResult` with every run
in declaration order::

    import repro
    from repro.campaign import ResultStore

    study = repro.Study.grid(
        repro.ProblemSpec(nx=4, ny=4, nz=4),
        engine=["vectorized", "prefactorized"],
        order=[1, 2],
    )
    result = repro.run_study(study, backend="process", store=ResultStore("runs/"))
    for record in result.records():
        print(record["engine"], record["order"], record["wall_seconds"])

Re-invoking the same study against the same store executes zero new runs
(``result.new_run_count == 0``) and merges the stored results back in.

Backends (``execute_iter``, see :mod:`repro.campaign.backends`) deliver
results *as they complete, out of order*; ``run_study`` reorders them and
invokes the optional ``on_result`` progress callback per completed run, so a
million-point campaign reports progress without waiting for the slowest
shard.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from .backends import ExecutionBackend, get_backend, iter_backend_results
from .result import StudyResult, StudyRun
from .store import ResultStore
from .study import Study
from .workitem import WorkItem

__all__ = ["run_study"]


def run_study(
    study: Study,
    *,
    backend: ExecutionBackend | str = "serial",
    store: ResultStore | str | Path | None = None,
    jobs: int | None = None,
    on_result: Callable[[StudyRun], None] | None = None,
) -> StudyResult:
    """Execute every run of a study and return a :class:`StudyResult`.

    Parameters
    ----------
    study:
        The declarative study to execute.
    backend:
        Execution backend name, alias or instance (``"serial"``,
        ``"thread"``, ``"process"``, ``"distributed"``, or any
        :func:`repro.campaign.register_backend`-ed name).
    store:
        Optional :class:`ResultStore` (or a directory path, wrapped into
        one).  Completed runs found in the store are *not* re-executed;
        fresh runs are persisted into it, making the study resumable.
    jobs:
        Worker cap for concurrent backends (``None``: executor default).
    on_result:
        Optional progress callback invoked once per run with its
        :class:`~repro.campaign.result.StudyRun` **in completion order**
        (store-cached runs first, then fresh runs as the backend yields
        them -- which for concurrent backends is not study order).  The
        returned :class:`StudyResult` is always in declaration order
        regardless.
    """
    backend_obj = get_backend(backend)
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)

    points = study.runs()
    by_index: dict[int, StudyRun] = {}
    pending = []
    for point in points:
        hit = store.get(point.spec, point.run_options) if store is not None else None
        if hit is not None:
            run = StudyRun(
                index=point.index,
                axes=point.axes,
                spec=point.spec,
                run_options=point.run_options,
                result=hit,
                from_cache=True,
            )
            by_index[point.index] = run
            if on_result is not None:
                on_result(run)
        else:
            pending.append(point)

    # Consume the backend's completion stream one run at a time, persisting
    # each as it arrives: if a later run fails or the study is interrupted,
    # every completed run is already in the store and the re-invocation
    # resumes from there.  The stream may arrive in any order.
    if pending:
        point_by_index = {point.index: point for point in pending}
        items = [
            WorkItem(spec=p.spec, run_options=dict(p.run_options), index=p.index)
            for p in pending
        ]
        backend_name = getattr(backend_obj, "name", backend_obj)
        for index, result, meta in iter_backend_results(backend_obj, items, jobs=jobs):
            point = point_by_index.get(index)
            if point is None:
                raise RuntimeError(
                    f"backend {backend_name!r} returned a result for unknown "
                    f"run index {index}"
                )
            if index in by_index:
                raise RuntimeError(
                    f"backend {backend_name!r} returned run index {index} twice"
                )
            if store is not None:
                store.put(point.spec, result, point.run_options)
            run = StudyRun(
                index=point.index,
                axes=point.axes,
                spec=point.spec,
                run_options=point.run_options,
                result=result,
                from_cache=False,
                meta=meta,
            )
            by_index[index] = run
            if on_result is not None:
                on_result(run)
        if len(by_index) != len(points):
            executed = len(by_index) - (len(points) - len(pending))
            raise RuntimeError(
                f"backend {backend_name!r} returned "
                f"{executed} results for {len(pending)} runs"
            )

    return StudyResult(study=study, runs=tuple(by_index[point.index] for point in points))
