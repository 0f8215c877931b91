"""The paper-reproduction benchmark runner (``unsnap bench``).

One registered case per experiment of the paper's evaluation (Table I,
Table II, Figures 3-4, the block-Jacobi rank sweep, the FD-vs-FEM
trade-off, plus the distributed backend's overhead), each run on one of two
workload tiers -- full or ``--smoke`` -- and written as a JSON artefact with
``--json``.  Speed claims are judged by the performance ledger
(``ledger/``, ``BENCHMARK.json``), which is the only comparator.

Usage::

    from repro.bench import run_benchmarks

    report = run_benchmarks(["table2"], smoke=True)
    report.save("bench.json")

``import repro`` does not import this package; it loads on first use.
"""

from . import cases as _cases  # noqa: F401  -- registers the built-in cases
from .suite import (
    FULL,
    SMOKE,
    BenchReport,
    BenchWorkload,
    CaseReport,
    SampleStats,
    available_benchmarks,
    benchmark_listing,
    get_benchmark,
    register_benchmark,
    run_benchmarks,
    run_case,
    select_benchmarks,
)

__all__ = [
    "BenchWorkload",
    "FULL",
    "SMOKE",
    "register_benchmark",
    "get_benchmark",
    "available_benchmarks",
    "benchmark_listing",
    "select_benchmarks",
    "run_benchmarks",
    "run_case",
    "BenchReport",
    "CaseReport",
    "SampleStats",
]
