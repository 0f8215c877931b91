"""Declarative multi-run campaigns: studies, backends and the result store.

The paper's results are ensembles -- order x solver grids (Table II),
scheme x thread-count grids (Figures 3/4) -- and this package is the
first-class batch surface over :func:`repro.run` that executes them:

* :class:`~repro.campaign.study.Study` -- a base
  :class:`~repro.config.ProblemSpec` plus axis grids applied through
  ``ProblemSpec.with_`` (``Study.grid`` / ``Study.zip`` / ``Study.cases``).
* :mod:`~repro.campaign.backends` -- pluggable execution backends
  (``serial`` / ``thread`` / ``process`` / ``distributed``) on the generic
  :class:`repro.registry.Registry`; ``process`` shards runs across a
  ``ProcessPoolExecutor`` and ``distributed`` fans them out to spool
  workers on any number of hosts (:mod:`~repro.campaign.distributed`),
  both with bit-for-bit identical results to ``serial``.
* :class:`~repro.campaign.workitem.WorkItem` -- the shared frozen unit of
  campaign work (spec + run options + index + cost + ``run_key``) passed
  between backends, the store, the spool and the service.
* :class:`~repro.campaign.store.ResultStore` -- a content-hashed
  one-JSON-per-run store making studies resumable: re-running a completed
  study executes zero new runs.
* :func:`~repro.campaign.runner.run_study` -- the facade tying the three
  together, returning a :class:`~repro.campaign.result.StudyResult` of tidy
  per-run records with pivot helpers.
"""

from .backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    backend_aliases,
    backend_listing,
    get_backend,
    iter_backend_results,
    register_backend,
    unregister_backend,
)
from .distributed import DistributedBackend, SpoolDir, SpoolWorker
from .result import PivotTable, StudyResult, StudyRun
from .runner import run_study
from .store import ResultStore, run_key
from .study import RUN_OPTION_KEYS, Study, StudyPoint
from .workitem import WorkItem, as_work_items, estimate_cost

__all__ = [
    "Study",
    "StudyPoint",
    "StudyResult",
    "StudyRun",
    "PivotTable",
    "ResultStore",
    "run_key",
    "run_study",
    "WorkItem",
    "as_work_items",
    "estimate_cost",
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
    "DistributedBackend",
    "SpoolDir",
    "SpoolWorker",
    "RUN_OPTION_KEYS",
]
