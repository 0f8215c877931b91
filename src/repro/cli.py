"""Command-line driver (the ``unsnap`` entry point).

Sub-commands
------------
``run``
    Solve a problem defined by an input deck or by command-line overrides
    (single rank or block-Jacobi multi-rank, any registered sweep engine)
    through the :func:`repro.run` facade and print a solve summary -- or the
    full machine-readable ``RunResult`` with ``--json``.  ``--driver`` picks
    the outer loop (``fixed_source`` / ``k_eigenvalue`` / ``time_dependent``,
    see ``unsnap drivers``); ``--dt``/``--steps``/``--k-tol`` configure it.
``study``
    Execute a declarative multi-run study through :func:`repro.run_study`:
    the grid comes from a deck's ``[study]`` axis section and/or repeated
    ``--axis key=v1,v2`` options, the base problem from the deck or the
    usual problem flags.  ``--backend`` picks the execution backend
    (serial/thread/process/distributed), ``--store`` makes the study
    resumable; ``--spool``/``--lease`` configure the distributed backend's
    shared spool directory and work-stealing lease.
``worker``
    Serve a distributed-campaign spool directory: claim jobs, execute
    them, persist results in the spool's shared store and mark them done
    -- until the coordinator's STOP marker (or ``--max-jobs`` /
    ``--idle-exit``).  Start any number, on any host that mounts the
    spool (see :mod:`repro.campaign.distributed`).
``engines``
    List the registered sweep engines (with their aliases).
``solvers``
    List the registered local dense solvers (with their aliases).
``backends``
    List the registered study-execution backends (with their aliases).
``drivers``
    List the registered outer-loop drivers (with their aliases).
``table1``
    Print Table I (local matrix size and footprint per element order).
``table2``
    Run the scaled-down Table II solver comparison and print it.
``fig3`` / ``fig4``
    Print the model-predicted thread-scaling series of Figures 3 and 4.
``balance``
    Solve and print the particle-balance diagnostics.
``verify``
    Run the verification subsystem (:mod:`repro.verify`): manufactured-
    solution convergence orders, the cross-engine conformance matrix and
    the golden regression store.  ``--suite`` selects a subset,
    ``--update-golden`` re-blesses the goldens, ``--json`` emits the full
    machine-readable report (the CI ``verify`` job archives it).
``bench``
    Run the benchmark subsystem (:mod:`repro.bench`): registered benchmark
    cases selected by ``--filter`` (name, alias or tag), shrunk to the CI
    budget with ``--smoke``, written as an ``unsnap-bench-v1`` report with
    ``--json PATH``, compared against a baseline report with ``--compare``
    (``--fail-on-regress`` turns a confirmed slowdown into exit code 1) and
    overlaid on the perfmodel roofline with ``--against-model``.
``store``
    Result-store maintenance: ``store gc DIR`` compacts a campaign
    :class:`~repro.campaign.ResultStore` (``--keep-latest N`` drops old
    records, ``--max-age DAYS`` drops stale ones, ``--max-bytes N`` drops
    the oldest until the store fits the byte budget, ``--drop-flux``
    strips the flux payloads); ``store merge
    DEST SOURCE...`` folds independently-populated stores into one (the
    sharded-campaign merge point -- a study re-run against the merged
    store executes zero new runs).  Golden stores are refused by both.
``serve``
    Run the transport service (:mod:`repro.service`): a job-queue daemon
    plus HTTP gateway accepting deck/spec submissions on ``POST /jobs``,
    deduplicating identical work through the attached ``--store`` and
    streaming telemetry progress.  ``--backend`` picks the execution
    backend, ``--jobs`` the worker count; ``--max-queue`` and
    ``--max-body-bytes`` bound the intake (429 / 413); ``--trace PATH``
    attaches a span exporter so every job's queue wait and execution land
    in an ``unsnap-trace-v1`` file (and ``GET /metrics`` / ``GET
    /dashboard`` expose the live counters).  Stops cleanly on SIGINT
    (Ctrl-C).
``spool``
    Spool-directory observability (:mod:`repro.campaign.distributed`):
    ``spool status DIR`` prints pending/claimed/done counts, per-worker
    heartbeat liveness and the quarantine with its ``.reason`` excerpts
    -- ``--json`` for the raw dict, ``--html`` for a static dashboard
    page.
``trace``
    Trace tooling (:mod:`repro.obs`): ``trace summary FILE_OR_DIR...``
    joins ``unsnap-trace-v1`` span files and prints per-trace makespan,
    queue-wait attribution, per-phase/per-worker breakdowns and the
    critical path; ``trace tree`` renders the span forest.  ``--trace-id``
    selects one trace, ``--json`` emits the machine-readable summaries.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis.figures import PAPER_THREAD_COUNTS, figure3_series, figure4_series
from .analysis.reporting import (
    format_scaling_series,
    format_table,
    format_verification_report,
)
from .analysis.tables import table1_matrix_sizes, table2_solver_comparison
from .campaign import ResultStore, Study, backend_listing, get_backend, run_study
from .config import ProblemSpec
from .drivers import get_driver
from .engines import engine_listing, get_engine
from .input_deck import loads_study_parts, parse_axis_option, parse_input_deck
from .runner import run
from .solvers import get_solver, solver_listing

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unsnap",
        description="UnSNAP reproduction: DG discrete ordinates transport on "
        "unstructured hexahedral meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="solve a transport problem")
    _add_problem_flags(run_cmd)
    run_cmd.add_argument(
        "--json", action="store_true",
        help="print the RunResult.to_dict() summary as JSON instead of a table",
    )

    study_cmd = sub.add_parser(
        "study", help="execute a declarative multi-run study (repro.run_study)"
    )
    _add_problem_flags(study_cmd)
    study_cmd.add_argument(
        "--axis", action="append", default=None, metavar="KEY=V1,V2,...",
        help="add a study axis (deck key or spec field, e.g. engine=vectorized,"
        "prefactorized); repeatable, overrides a deck [study] axis of the "
        "same name",
    )
    study_cmd.add_argument(
        "--backend", type=str, default="serial",
        help="execution backend name or alias: serial | thread | process | "
        "distributed (see 'unsnap backends')",
    )
    study_cmd.add_argument(
        "--jobs", type=int, default=None,
        help="worker cap for concurrent backends (default: executor default)",
    )
    study_cmd.add_argument(
        "--store", type=str, default=None, metavar="DIR",
        help="result-store directory: completed runs are skipped on re-invocation "
        "and fresh runs persisted (one JSON per run)",
    )
    study_cmd.add_argument(
        "--spool", type=str, default=None, metavar="DIR",
        help="distributed backend only: shared spool directory (workers on any "
        "host mounting it pick up the runs; default: a private temporary "
        "spool with locally spawned workers)",
    )
    study_cmd.add_argument(
        "--lease", type=float, default=None, metavar="SECONDS",
        help="distributed backend only: work-stealing lease -- a claim whose "
        "worker heartbeat stalls this long is re-queued (default 15)",
    )
    study_cmd.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="write an unsnap-trace-v1 span file: the study becomes one "
        "trace, and (distributed backend) spool workers append their spans "
        "to the spool's trace/ directory under the same trace id",
    )
    study_cmd.add_argument(
        "--json", action="store_true",
        help="print the per-run records as JSON instead of a table",
    )

    sub.add_parser("engines", help="list registered sweep engines")
    sub.add_parser("solvers", help="list registered local solvers")
    sub.add_parser("backends", help="list registered study-execution backends")
    sub.add_parser("drivers", help="list registered outer-loop drivers")

    sub.add_parser("table1", help="print Table I (matrix sizes per order)")

    table2 = sub.add_parser("table2", help="run the Table II solver comparison (scaled down)")
    table2.add_argument("--max-order", type=int, default=3)

    fig3 = sub.add_parser("fig3", help="print the Figure 3 thread-scaling series (linear)")
    fig4 = sub.add_parser("fig4", help="print the Figure 4 thread-scaling series (cubic)")
    for p in (fig3, fig4):
        p.add_argument("--threads", type=int, nargs="+", default=list(PAPER_THREAD_COUNTS))

    balance = sub.add_parser("balance", help="solve and print particle-balance diagnostics")
    balance.add_argument("--n", type=int, default=4)
    balance.add_argument("--groups", type=int, default=2)
    balance.add_argument("--engine", type=str, default=None)

    verify = sub.add_parser(
        "verify",
        help="run the verification suites (MMS orders, conformance matrix, goldens)",
    )
    verify.add_argument(
        "--suite", action="append", choices=("mms", "conformance", "golden", "drivers"),
        default=None, metavar="NAME",
        help="suite to run: mms | conformance | golden | drivers "
        "(repeatable; default: all)",
    )
    verify.add_argument(
        "--update-golden", action="store_true",
        help="re-bless the golden store from the current build before checking "
        "(deterministic: an unchanged build rewrites byte-identical records)",
    )
    verify.add_argument(
        "--golden-dir", type=str, default=None, metavar="DIR",
        help="golden store directory (default: the repository's tests/golden/)",
    )
    verify.add_argument(
        "--jobs", type=int, default=None,
        help="worker cap for the conformance matrix's concurrent backends",
    )
    verify.add_argument(
        "--json", action="store_true",
        help="print the full machine-readable report instead of tables",
    )

    bench = sub.add_parser(
        "bench", help="run the registered benchmark suite (repro.bench)"
    )
    bench.add_argument(
        "--filter", action="append", default=None, metavar="TAG_OR_NAME",
        help="run only cases matching this name, alias or tag (repeatable; "
        "see --list)",
    )
    bench.add_argument(
        "--smoke", action="store_true",
        help="shrink every case to the CI smoke budget (UNSNAP_BENCH_* "
        "variables still override individual knobs)",
    )
    bench.add_argument(
        "--json", type=str, default=None, metavar="PATH",
        help="write the unsnap-bench-v1 report to PATH",
    )
    bench.add_argument(
        "--compare", type=str, default=None, metavar="BASELINE",
        help="compare this run against a baseline unsnap-bench-v1 report",
    )
    bench.add_argument(
        "--fail-on-regress", action="store_true",
        help="exit 1 when --compare finds a sample beyond the slowdown "
        "tolerance (default: report only)",
    )
    bench.add_argument(
        "--tolerance", type=float, default=None, metavar="FRACTION",
        help="slowdown tolerance for --compare (default 0.25 = 25%%)",
    )
    bench.add_argument(
        "--against-model", action="store_true",
        help="also run the sweep-vs-model overlay: measured sweep times "
        "against the perfmodel roofline prediction, with the model error",
    )
    bench.add_argument(
        "--list", action="store_true",
        help="list the registered benchmark cases (with tags) and exit",
    )
    bench.add_argument(
        "--trend", type=str, default=None, metavar="DIR",
        help="skip measuring: line up the per-case best seconds of every "
        "unsnap-bench-v1 report in DIR as a time series (ordered by file "
        "mtime; --json PATH writes the unsnap-bench-trend-v1 document)",
    )

    serve = sub.add_parser(
        "serve", help="run the job-queue daemon + HTTP gateway (repro.service)"
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="listen port (0 picks a free port; the chosen one is printed)",
    )
    serve.add_argument(
        "--store", type=str, default=None, metavar="DIR",
        help="result-store directory used as the request-dedup cache "
        "(identical submissions are served from it without a new solve)",
    )
    serve.add_argument(
        "--backend", type=str, default="serial",
        help="execution backend name or alias: serial | thread | process "
        "(see 'unsnap backends')",
    )
    serve.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="worker threads draining the job queue (default 2)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="maximum queued jobs before submissions get 429 (default 64)",
    )
    serve.add_argument(
        "--max-body-bytes", type=int, default=None, metavar="N",
        help="maximum request body size before submissions get 413 "
        "(default 1 MiB)",
    )
    serve.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="append unsnap-trace-v1 spans (queue wait, execution, "
        "in-process telemetry phases) for every job to PATH; submissions "
        "may join an existing trace via the X-Unsnap-Trace header",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="log every request to stderr",
    )

    worker = sub.add_parser(
        "worker", help="serve a distributed-campaign spool directory"
    )
    worker.add_argument("spool", type=str, help="spool directory (shared filesystem)")
    worker.add_argument(
        "--id", type=str, default=None, metavar="WORKER_ID",
        help="worker identity written into claims and heartbeats "
        "(default: host-pid)",
    )
    worker.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="longest idle wait between queue checks: the fallback period "
        "when no doorbell rings (default 0.2)",
    )
    worker.add_argument(
        "--heartbeat", type=float, default=1.0, metavar="SECONDS",
        help="heartbeat-file touch period; keep well under the campaign "
        "lease (default 1.0)",
    )
    worker.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="exit after executing N jobs (default: run until STOP)",
    )
    worker.add_argument(
        "--idle-exit", type=float, default=None, metavar="SECONDS",
        help="exit after this long with an empty queue (default: wait for STOP)",
    )

    store = sub.add_parser("store", help="result-store maintenance")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    gc = store_sub.add_parser(
        "gc", help="compact a campaign result store (never a golden store)"
    )
    gc.add_argument("dir", type=str, help="result-store directory")
    gc.add_argument(
        "--keep-latest", type=int, default=None, metavar="N",
        help="keep only the N most recently written records",
    )
    gc.add_argument(
        "--max-age", type=float, default=None, metavar="DAYS",
        help="drop records not written for this many days",
    )
    gc.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="drop the oldest records until the store fits in N bytes",
    )
    gc.add_argument(
        "--drop-flux", action="store_true",
        help="rewrite surviving records without the embedded flux arrays "
        "(records stay loadable, but no longer resume a study bit-for-bit)",
    )
    gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would happen without touching the store",
    )
    merge = store_sub.add_parser(
        "merge",
        help="fold one or more source stores into a destination store "
        "(sharded-campaign merge; never a golden destination)",
    )
    merge.add_argument("dest", type=str, help="destination result-store directory")
    merge.add_argument(
        "sources", type=str, nargs="+", metavar="SOURCE",
        help="source result-store directories to fold in",
    )
    merge.add_argument(
        "--overwrite", action="store_true",
        help="source records replace existing destination records of the "
        "same run key (default: destination wins, duplicates are skipped)",
    )

    spool = sub.add_parser("spool", help="spool-directory observability")
    spool_sub = spool.add_subparsers(dest="spool_command", required=True)
    spool_status = spool_sub.add_parser(
        "status",
        help="pending/claimed/done counts, worker heartbeats, quarantine reasons",
    )
    spool_status.add_argument("dir", type=str, help="spool directory")
    spool_status.add_argument(
        "--lease", type=float, default=15.0, metavar="SECONDS",
        help="liveness horizon for worker heartbeats (default 15)",
    )
    spool_status.add_argument(
        "--json", action="store_true", help="print the raw status dict as JSON"
    )
    spool_status.add_argument(
        "--html", action="store_true",
        help="print a static HTML dashboard page instead of text",
    )

    trace = sub.add_parser(
        "trace", help="summarize unsnap-trace-v1 span files (repro.obs)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary",
        help="per-trace makespan, queue wait, phase/worker breakdown, "
        "critical path",
    )
    trace_tree = trace_sub.add_parser(
        "tree", help="render the span forest of each trace"
    )
    for p in (trace_summary, trace_tree):
        p.add_argument(
            "paths", type=str, nargs="+", metavar="FILE_OR_DIR",
            help="span JSONL files and/or directories of *.jsonl "
            "(e.g. the spool's trace/ directory)",
        )
        p.add_argument(
            "--trace-id", type=str, default=None, metavar="ID",
            help="restrict to one trace id (default: every trace found)",
        )
    trace_summary.add_argument(
        "--json", action="store_true",
        help="print the machine-readable summaries instead of text",
    )
    return parser


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    """Problem flags shared by ``run`` and ``study`` (base spec definition)."""
    parser.add_argument("--deck", type=str, default=None, help="path to a SNAP-style input deck")
    # Problem flags default to None so that, with --deck, only flags the user
    # actually passed override the deck values (see _RUN_FLAG_DEFAULTS).
    parser.add_argument("--nx", type=int, default=None)
    parser.add_argument("--ny", type=int, default=None)
    parser.add_argument("--nz", type=int, default=None)
    parser.add_argument("--order", type=int, default=None)
    parser.add_argument("--nang", type=int, default=None, help="angles per octant")
    parser.add_argument("--groups", type=int, default=None)
    parser.add_argument("--twist", type=float, default=None)
    parser.add_argument("--inners", type=int, default=None)
    parser.add_argument("--outers", type=int, default=None)
    parser.add_argument(
        "--solver", type=str, default=None,
        help="local solver name (see 'unsnap solvers'); default ge",
    )
    parser.add_argument(
        "--engine", type=str, default=None,
        help="sweep engine name or alias: reference | vectorized | "
        "prefactorized | ... (see 'unsnap engines'); default from the deck "
        "or 'reference'",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="worker threads: whole octants with --octant-parallel, "
        "otherwise the reference engine's bucket loop",
    )
    parser.add_argument(
        "--octant-parallel", action="store_true", default=None,
        help="sweep the 8 octants concurrently on the --threads pool "
        "(deterministic reduction order; default from the deck or off)",
    )
    parser.add_argument("--npex", type=int, default=None)
    parser.add_argument("--npey", type=int, default=None)
    parser.add_argument(
        "--driver", type=str, default=None,
        help="outer-loop driver: fixed_source | k_eigenvalue | time_dependent "
        "(see 'unsnap drivers'); default from the deck or 'fixed_source'",
    )
    parser.add_argument(
        "--dt", type=float, default=None,
        help="time_dependent driver: backward-Euler step size",
    )
    parser.add_argument(
        "--steps", type=int, default=None,
        help="time_dependent driver: number of steps (t_end in the deck overrides)",
    )
    parser.add_argument(
        "--k-tol", type=float, default=None,
        help="k_eigenvalue driver: power-iteration convergence tolerance on k",
    )
    parser.add_argument(
        "--cache-budget", type=int, default=None,
        help="factor-cache byte budget for caching engines (prefactorized, "
        "compiled): LRU entries past the budget are spilled and recomputed "
        "on demand; 0 (default) keeps the cache unbounded",
    )


#: ``run`` flag -> (ProblemSpec field, default used when no deck is given).
_RUN_FLAG_DEFAULTS = {
    "nx": ("nx", 6),
    "ny": ("ny", 6),
    "nz": ("nz", 6),
    "order": ("order", 1),
    "nang": ("angles_per_octant", 2),
    "groups": ("num_groups", 4),
    "twist": ("max_twist", 0.001),
    "inners": ("num_inners", 5),
    "outers": ("num_outers", 1),
    "solver": ("solver", "ge"),
    "engine": ("engine", "reference"),
    "octant_parallel": ("octant_parallel", False),
    "npex": ("npex", 1),
    "npey": ("npey", 1),
    "driver": ("driver", "fixed_source"),
    "dt": ("dt", 0.1),
    "steps": ("n_steps", 10),
    "k_tol": ("k_tolerance", 1e-6),
    "cache_budget": ("factor_cache_budget_bytes", 0),
}


def _spec_from_args(args: argparse.Namespace) -> ProblemSpec:
    if args.deck:
        # Every explicitly-passed flag overrides the corresponding deck value.
        overrides = {
            field: getattr(args, flag)
            for flag, (field, _default) in _RUN_FLAG_DEFAULTS.items()
            if getattr(args, flag) is not None
        }
        spec = parse_input_deck(args.deck)
        return spec.with_(**overrides) if overrides else spec
    values = {
        field: getattr(args, flag) if getattr(args, flag) is not None else default
        for flag, (field, default) in _RUN_FLAG_DEFAULTS.items()
    }
    return ProblemSpec(**values)


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        spec = _spec_from_args(args)
    except (KeyError, ValueError) as exc:
        # KeyError: unknown deck key (the parser names it and lists the valid
        # keys); ValueError: malformed value, or a [study] deck passed to
        # `run` (which gets the pointer to `unsnap study`).
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    try:
        # Resolve the names up front: argparse cannot use `choices=` here
        # because third-party engines/solvers/drivers register at runtime.
        get_engine(spec.engine)
        get_solver(spec.solver)
        get_driver(spec.driver)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    result = run(spec, num_threads=args.threads)
    if args.json:
        print(result.to_json())
        return 0
    summary = result.summary()
    rows = [
        ("engine", summary["engine"]),
        ("solver", summary["solver"]),
        ("ranks", summary["ranks"]),
        ("cells", summary["cells"]),
        ("groups", summary["groups"]),
        ("nodes per element", summary["nodes_per_element"]),
        ("inner iterations", summary["total_inners"]),
        ("assemble seconds", round(summary["assembly_seconds"], 4)),
        ("solve seconds", round(summary["solve_seconds"], 4)),
        ("solve fraction", round(summary["solve_fraction"], 3)),
        ("setup seconds", round(summary["setup_seconds"], 4)),
        ("wall seconds", round(summary["wall_seconds"], 4)),
        ("balance residual", f"{summary['balance_residual']:.3e}"),
        ("halo messages", summary["halo_messages"]),
        ("mean scalar flux", f"{summary['mean_flux']:.6f}"),
    ]
    if "k_effective" in summary:
        rows.extend([
            ("k-effective", f"{summary['k_effective']:.8f}"),
            ("power iterations", summary["power_iterations"]),
            ("dominance ratio", f"{summary['dominance_ratio']:.4f}"),
        ])
    if "time_steps" in summary:
        rows.extend([
            ("time steps", summary["time_steps"]),
            ("final time", summary["t_end"]),
        ])
    print(format_table(("quantity", "value"), rows, title="UnSNAP solve summary"))
    return 0


def _study_from_args(args: argparse.Namespace) -> Study:
    """Build the study: base from deck/flags, axes from deck [study] + --axis."""
    axes: dict[str, list] = {}
    name = "study"
    if args.deck:
        base, axes = loads_study_parts(Path(args.deck).read_text())
        overrides = {
            field: getattr(args, flag)
            for flag, (field, _default) in _RUN_FLAG_DEFAULTS.items()
            if getattr(args, flag) is not None
        }
        if overrides:
            base = base.with_(**overrides)
        name = Path(args.deck).stem
    else:
        base = _spec_from_args(args)
    for option in args.axis or []:
        field, values = parse_axis_option(option)
        axes[field] = values
    if args.threads != 1:
        # A uniform thread count becomes a one-value axis so it shows up in
        # the records; an explicit num_threads axis wins.
        axes.setdefault("num_threads", [args.threads])
    return Study.from_axes(base, axes, name=name)


def _cmd_study(args: argparse.Namespace) -> int:
    try:
        study = _study_from_args(args)
        backend = get_backend(args.backend)
        # Validate every grid point up front (spec ranges via with_, engine
        # and solver names via the registries) so a bad axis value is a
        # clean error before any run -- or worker process -- starts.
        for point in study.runs():
            get_engine(point.spec.engine)
            get_solver(point.spec.solver)
            get_driver(point.spec.driver)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    if args.spool is not None or args.lease is not None:
        if getattr(backend, "name", None) != "distributed":
            print(
                "error: --spool/--lease require --backend distributed",
                file=sys.stderr,
            )
            return 2
        from .campaign import DistributedBackend

        backend = DistributedBackend(spool_dir=args.spool, lease_seconds=args.lease)
        # A shared spool's store IS the campaign store: default --store to it
        # so a re-invocation resumes from cache (from_cache=True, zero new
        # runs) exactly like the other backends do with an explicit --store.
        if args.spool is not None and not args.store:
            args.store = str(Path(args.spool) / "store")
    store = ResultStore(args.store) if args.store else None
    if args.trace:
        from .obs.trace import SpanExporter, use_trace

        # One study, one trace: a root "study" span in the local file, the
        # ambient context handed to the backend (the distributed coordinator
        # stamps it into every spool payload, so worker spans join it).
        with SpanExporter(args.trace) as exporter:
            with exporter.span("study", attrs={"study": study.name}) as span:
                with use_trace(span.context()):
                    result = run_study(
                        study, backend=backend, store=store, jobs=args.jobs
                    )
    else:
        result = run_study(study, backend=backend, store=store, jobs=args.jobs)

    if args.json:
        print(json.dumps({"study": study.name, "records": result.records()}, indent=2))
        return 0
    axis_names = study.axis_names
    extras = [col for col in ("engine", "solver") if col not in axis_names]
    headers = (*axis_names, *extras, "wall s", "mean flux", "cached")
    rows = [
        (
            *[record[axis] for axis in axis_names],
            *[record[col] for col in extras],
            round(record["wall_seconds"], 4),
            f"{record['mean_flux']:.6f}",
            "yes" if record["from_cache"] else "-",
        )
        for record in result.records()
    ]
    print(
        format_table(
            headers,
            rows,
            title=f"Study {study.name!r}: {len(result)} runs via {args.backend} backend "
            f"({result.new_run_count} executed, {result.cached_run_count} cached)",
        )
    )
    return 0


def _print_listing(listing: list[tuple[str, str, str]], noun: str, title: str) -> int:
    """Shared body of the `engines`/`solvers`/`backends` listing commands."""
    rows = [(name, aliases or "-", desc) for name, aliases, desc in listing]
    print(format_table((noun, "aliases", "description"), rows, title=title))
    return 0


def _cmd_engines(_args: argparse.Namespace) -> int:
    return _print_listing(engine_listing(), "engine", "Registered sweep engines")


def _cmd_solvers(_args: argparse.Namespace) -> int:
    return _print_listing(solver_listing(), "solver", "Registered local solvers")


def _cmd_backends(_args: argparse.Namespace) -> int:
    return _print_listing(
        backend_listing(), "backend", "Registered study-execution backends"
    )


def _cmd_drivers(_args: argparse.Namespace) -> int:
    from .drivers import driver_listing

    return _print_listing(driver_listing(), "driver", "Registered outer-loop drivers")


def _cmd_table1(_args: argparse.Namespace) -> int:
    rows = [r.as_tuple() for r in table1_matrix_sizes()]
    print(
        format_table(
            ("order", "matrix size", "FP64 footprint (kB)"),
            rows,
            title="Table I: size of local matrix for different finite element orders",
        )
    )
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    orders = tuple(range(1, args.max_order + 1))
    rows = [r.as_tuple() for r in table2_solver_comparison(orders=orders)]
    print(
        format_table(
            ("order", "solver", "assemble/solve (s)", "% in solve", "systems"),
            rows,
            title="Table II (scaled down): assemble/solve time per order and solver",
        )
    )
    return 0


def _cmd_fig(args: argparse.Namespace, order: int) -> int:
    threads = tuple(args.threads)
    series = figure3_series(threads) if order == 1 else figure4_series(threads)
    title = (
        "Figure 3: thread scaling of the parallel sweep (linear elements, model)"
        if order == 1
        else "Figure 4: thread scaling of the parallel sweep (cubic elements, model)"
    )
    print(format_scaling_series(series.thread_counts, series.series, title=title))
    most = series.thread_counts[-1]
    print(f"fastest scheme at {most} threads: {series.fastest_at(most)}")
    return 0


def _cmd_balance(args: argparse.Namespace) -> int:
    spec = ProblemSpec(
        nx=args.n, ny=args.n, nz=args.n,
        order=1,
        angles_per_octant=2,
        num_groups=args.groups,
        num_inners=50, num_outers=20,
        inner_tolerance=1e-8, outer_tolerance=1e-8,
        engine=args.engine if args.engine is not None else "reference",
    )
    result = run(spec)
    b = result.balance
    rows = [
        (g, f"{b.emission[g]:.5f}", f"{b.absorption[g]:.5f}", f"{b.leakage[g]:.5f}",
         f"{b.residual[g]:+.2e}")
        for g in range(len(b.emission))
    ]
    print(
        format_table(
            ("group", "emission", "absorption", "leakage", "residual"),
            rows,
            title="Particle balance (converged solve)",
        )
    )
    print(f"total relative residual: {b.relative_residual():.3e}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import SUITES, run_suite

    suites = tuple(args.suite) if args.suite else SUITES
    # Usage errors are caught up front; anything run_suite raises after this
    # is a real internal failure and deserves its traceback (damaged golden
    # records are *not* among them -- they report as failing cases).
    if args.update_golden and "golden" not in suites:
        print(
            "error: --update-golden requires the golden suite "
            "(add --suite golden or drop --suite)",
            file=sys.stderr,
        )
        return 2
    report = run_suite(
        suites,
        update_golden=args.update_golden,
        golden_dir=args.golden_dir,
        jobs=args.jobs,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(format_verification_report(report))
    return 0 if report.passed else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_bench_comparison, format_bench_report
    from .bench import BenchReport, benchmark_listing, run_benchmarks
    from .bench.report import DEFAULT_TOLERANCE

    if args.list:
        rows = benchmark_listing()
        print(format_table(("case", "tags", "description"), rows,
                           title="Registered benchmark cases"))
        return 0
    if args.trend is not None:
        from .bench.trend import build_trend, format_trend, load_trend_reports

        try:
            trend = build_trend(load_trend_reports(args.trend))
        except ValueError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        print(format_trend(trend))
        if args.json:
            path = Path(args.json)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(trend, indent=2) + "\n")
            print(f"\nwrote {path}")
        return 0
    if args.tolerance is not None and args.tolerance <= 0.0:
        print("error: --tolerance must be a positive fraction", file=sys.stderr)
        return 2
    baseline = None
    if args.compare is not None:
        # Load the baseline *before* spending minutes measuring.
        try:
            baseline = BenchReport.load(args.compare)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        report = run_benchmarks(
            args.filter,
            smoke=args.smoke,
            against_model=args.against_model,
            progress=lambda line: print(line, file=sys.stderr),
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(format_bench_report(report))
    if args.json:
        path = report.save(args.json)
        print(f"\nwrote {path}")
    if baseline is not None:
        tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
        comparison = report.compare(baseline, tolerance=tolerance)
        print()
        print(format_bench_comparison(comparison))
        if args.fail_on_regress and not comparison.gate_passed:
            return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import DEFAULT_MAX_BODY_BYTES, ServiceDaemon, make_server

    exporter = None
    if args.trace:
        from .obs.trace import SpanExporter

        exporter = SpanExporter(args.trace)
    try:
        daemon = ServiceDaemon(
            store=args.store,
            backend=args.backend,
            workers=args.jobs,
            max_queue_depth=args.max_queue,
            trace_exporter=exporter,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    try:
        server = make_server(
            daemon,
            host=args.host,
            port=args.port,
            max_body_bytes=(
                args.max_body_bytes
                if args.max_body_bytes is not None
                else DEFAULT_MAX_BODY_BYTES
            ),
            quiet=not args.verbose,
        )
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port} ({exc})", file=sys.stderr)
        return 2
    daemon.start()
    store_note = f", store={args.store}" if args.store else ""
    trace_note = f", trace={args.trace}" if args.trace else ""
    # The CI smoke job (and any supervisor) waits for this line before
    # submitting; keep it one flushed line with the bound host:port.
    print(
        f"unsnap service listening on http://{args.host}:{server.port} "
        f"(backend={daemon.backend_name}, workers={daemon.workers}"
        f"{store_note}{trace_note})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        daemon.shutdown()
        if exporter is not None:
            exporter.close()
    print("unsnap service shut down cleanly", flush=True)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .campaign.distributed import run_worker

    spool = Path(args.spool)
    if not spool.is_dir():
        print(f"error: {spool} is not a directory", file=sys.stderr)
        return 2
    executed = run_worker(
        spool,
        worker_id=args.id,
        poll_seconds=args.poll,
        heartbeat_seconds=args.heartbeat,
        max_jobs=args.max_jobs,
        idle_exit_seconds=args.idle_exit,
    )
    print(f"unsnap worker drained: {executed} jobs executed", flush=True)
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    store = ResultStore(args.dir)
    if not store.root.is_dir():
        print(f"error: {store.root} is not a directory", file=sys.stderr)
        return 2
    try:
        stats = store.gc(
            keep_latest=args.keep_latest,
            max_age_days=args.max_age,
            max_bytes=args.max_bytes,
            drop_flux=args.drop_flux,
            dry_run=args.dry_run,
        )
    except ValueError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    rows = [
        ("records", stats["records"]),
        ("removed", stats["removed"]),
        ("compacted", stats["compacted"]),
        ("bytes before", stats["bytes_before"]),
        ("bytes after", stats["bytes_after"]),
    ]
    title = "Result-store GC (dry run)" if args.dry_run else "Result-store GC"
    print(format_table(("quantity", "value"), rows, title=f"{title}: {store.root}"))
    return 0


def _cmd_store_merge(args: argparse.Namespace) -> int:
    dest = ResultStore(args.dest)
    merged = skipped = 0
    for source in args.sources:
        if not Path(source).is_dir():
            print(f"error: {source} is not a directory", file=sys.stderr)
            return 2
        try:
            stats = dest.merge(source, overwrite=args.overwrite)
        except ValueError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        merged += stats["merged"]
        skipped += stats["skipped"]
    rows = [
        ("sources", len(args.sources)),
        ("merged", merged),
        ("skipped", skipped),
        ("records now", len(dest)),
    ]
    print(
        format_table(
            ("quantity", "value"), rows, title=f"Result-store merge: {dest.root}"
        )
    )
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    if args.store_command == "gc":
        return _cmd_store_gc(args)
    if args.store_command == "merge":
        return _cmd_store_merge(args)
    raise AssertionError(f"unhandled store command {args.store_command!r}")  # pragma: no cover


def _cmd_spool_status(args: argparse.Namespace) -> int:
    from .campaign.distributed.spool import SpoolDir
    from .obs.dashboard import render_spool_status, render_spool_status_html

    root = Path(args.dir)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    status = SpoolDir(root).status(lease_seconds=args.lease)
    if args.json:
        print(json.dumps(status, indent=2))
    elif args.html:
        print(render_spool_status_html(status))
    else:
        print(render_spool_status(status))
    return 0


def _cmd_spool(args: argparse.Namespace) -> int:
    if args.spool_command == "status":
        return _cmd_spool_status(args)
    raise AssertionError(f"unhandled spool command {args.spool_command!r}")  # pragma: no cover


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.trace import read_spans
    from .obs.tracetool import format_summary, format_tree, summarize_all

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"error: no such file or directory: {', '.join(missing)}", file=sys.stderr)
        return 2
    spans = read_spans(args.paths)
    if args.trace_id is not None:
        spans = [s for s in spans if s.get("trace_id") == args.trace_id]
    if not spans:
        selector = f" for trace {args.trace_id}" if args.trace_id else ""
        print(f"no unsnap-trace-v1 spans found{selector}", file=sys.stderr)
        return 1
    if args.trace_command == "tree":
        print(format_tree(spans))
        return 0
    summaries = summarize_all(spans)
    if getattr(args, "json", False):
        print(json.dumps({"traces": summaries}, indent=2))
        return 0
    print("\n\n".join(format_summary(summary) for summary in summaries))
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``unsnap`` console script."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "study":
        return _cmd_study(args)
    if args.command == "engines":
        return _cmd_engines(args)
    if args.command == "solvers":
        return _cmd_solvers(args)
    if args.command == "backends":
        return _cmd_backends(args)
    if args.command == "drivers":
        return _cmd_drivers(args)
    if args.command == "table1":
        return _cmd_table1(args)
    if args.command == "table2":
        return _cmd_table2(args)
    if args.command == "fig3":
        return _cmd_fig(args, order=1)
    if args.command == "fig4":
        return _cmd_fig(args, order=3)
    if args.command == "balance":
        return _cmd_balance(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "spool":
        return _cmd_spool(args)
    if args.command == "trace":
        return _cmd_trace(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
