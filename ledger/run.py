"""The performance ledger: five workloads, end to end and layer by layer.

One workload, one pass (what ``BENCHMARK.json``'s command runs)::

    python3 ledger/run.py --workload cold-cubic --seed 11 --seconds 15 --trace 0

prints every metric by name with its unit and ends with one JSON line.
``--trace 0`` measures the end-to-end metrics with nothing observing the
program; ``--trace 1`` is the separate traced pass that yields the per-layer
metrics.  Without ``--workload`` every workload runs both passes, each in a
fresh process, and the report lands in ``--out``::

    python3 ledger/run.py --seed 11 --out ledger/out/report-11.json
    python3 ledger/run.py --compare A.json B.json
    python3 ledger/run.py --selftest
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import declared
import harness


def _dispatch(repro, workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
              tracer: harness.Tracer) -> dict:
    import campaign_workload
    import service_workload
    import solve_workloads

    if workload in solve_workloads.WORKLOADS:
        if trace:
            return solve_workloads.traced(repro, workload, seed, tiny, tracer)
        return solve_workloads.untraced(repro, workload, seed, seconds, tiny)
    module = {"campaign-small": campaign_workload, "service-mix": service_workload}[workload]
    if trace:
        return module.traced(repro, seed, tiny, tracer)
    return module.untraced(repro, seed, seconds, tiny)


def detail_path(workload: str, seed: int, trace: bool) -> Path:
    return harness.OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"


def run_pass(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """One workload, one pass, in this process; returns the contract result."""
    began = time.perf_counter()
    repro, import_seconds, provider = harness.import_program()
    tracer = harness.Tracer()
    outcome = _dispatch(repro, workload, seed, seconds, trace, tiny, tracer)

    section = "per_layer" if trace else "end_to_end"
    if trace:
        wall = time.perf_counter() - began
        outcome["per_layer"]["obs.harness_overhead_pct"] = 100.0 * tracer.overhead_seconds() / wall
        tracer.write(harness.OUT / f"trace-{workload}-{seed}.jsonl")
        values = outcome["per_layer"]
    else:
        values = {name: stats["value"] for name, stats in outcome["end_to_end"].items()}
    metrics = declared.package(section, values)

    for name, metric in metrics.items():
        stats = outcome["end_to_end"][name] if not trace else {}
        extra = f"  n={stats['n']}" if stats else ""
        if stats.get("tail"):
            extra += f"  p{stats['tail']['percentile']:g}={stats['tail']['value']:.6g}"
        if metric["value"] != 0.0:
            print(f"{workload:18s} {name:42s} {metric['value']:>14.6g} {metric['unit']}{extra}")
    idle = sum(metric["value"] == 0.0 for metric in metrics.values())
    if idle:
        print(f"{workload:18s} {idle} metrics of layers this workload never enters read 0")
    for note in outcome["notes"]:
        print(f"{workload:18s} FAILED CHECK: {note}")

    failed = int(outcome["failed"])
    result = {
        "correct": failed == 0,
        "attempted": int(outcome["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "format": declared.FORMAT,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "wall_seconds": time.perf_counter() - began,
        "provenance": harness.provenance(provider, import_seconds),
        "result": result,
        **{k: v for k, v in outcome.items() if k not in ("attempted", "failed")},
    }
    path = detail_path(workload, seed, trace)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(detail, indent=1) + "\n")
    return result


# ---------------------------------------------------------------- full run
def _child_pass(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run one pass in a fresh interpreter (so peak RSS is the workload's own)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if tiny:
        command.append("--tiny")
    proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise harness.LedgerError(
            f"{workload} (trace={int(trace)}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads(detail_path(workload, seed, trace).read_text())
    if detail["result"] != last:
        raise harness.LedgerError(f"{workload}: detail file and result line disagree")
    return detail


def run_all(seed: int, seconds: float, tiny: bool, out: Path | None) -> dict:
    report = {"format": declared.FORMAT, "seed": seed, "seconds": seconds, "tiny": tiny,
              "workloads": {}}
    for workload in (w["name"] for w in declared.load()["workloads"]):
        passes = {}
        for trace in (False, True):
            print(f"== {workload}  trace={int(trace)}", flush=True)
            passes["traced" if trace else "untraced"] = detail = _child_pass(
                workload, seed, seconds, trace, tiny)
            for name, metric in detail["result"]["metrics"].items():
                print(f"   {name:42s} {metric['value']:>14.6g} {metric['unit']}")
            print(f"   attempted={detail['result']['attempted']} "
                  f"failed={detail['result']['failed']}  ({detail['wall_seconds']:.1f} s)")
        report["workloads"][workload] = passes
    report["provenance"] = passes["untraced"]["provenance"]
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {out}")
    return report


# ----------------------------------------------------------------- selftest
def selftest() -> int:
    """Shrunken run of everything; the declarations must match what is emitted."""
    bench = declared.load()
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    problems = []

    for name in workloads + end_to_end + per_layer:
        if not declared.NAME.match(name):
            problems.append(f"bad name {name!r}")
    if set(per_layer) != set(declared.LAYER_MOVES):
        problems.append(
            f"BENCHMARK.json per_layer and LAYER_MOVES differ: "
            f"{sorted(set(per_layer) ^ set(declared.LAYER_MOVES))}")
    for name, (moves, where, _what) in declared.LAYER_MOVES.items():
        if moves not in end_to_end or not where or not set(where) <= set(workloads):
            problems.append(f"{name}: predicts {moves!r} on {where!r}, not declared")

    measured: set[str] = set()
    for workload in workloads:
        # Counts must not depend on the seed either, so the two traced runs
        # differ in it; timings mean nothing here, so the three run at once.
        with ThreadPoolExecutor(max_workers=3) as pool:
            passes = [pool.submit(_child_pass, workload, seed, 0.0, trace, True)
                      for seed, trace in ((1, False), (1, True), (2, True))]
            untraced, *traced = (p.result() for p in passes)
        if set(untraced["result"]["metrics"]) != set(end_to_end):
            problems.append(f"{workload}: end-to-end names differ from BENCHMARK.json")
        if any(m["value"] <= 0 for m in untraced["result"]["metrics"].values()):
            problems.append(f"{workload}: an end-to-end metric is not positive")
        for detail in (untraced, *traced):
            if not detail["result"]["correct"]:
                problems.append(f"{workload}: correctness check failed: {detail['notes'][:2]}")
        first, second = (t["result"]["metrics"] for t in traced)
        if set(first) != set(per_layer):
            problems.append(f"{workload}: per-layer names differ from BENCHMARK.json")
        for count in declared.EXACT_COUNTS:
            if first[count]["value"] != second[count]["value"]:
                problems.append(f"{workload}: count {count} did not repeat exactly")
        measured |= {name for name, m in first.items() if m["value"] != 0.0}
        print(f"selftest {workload}: {problems[-1] if problems else 'ok'}")
    if set(per_layer) - measured:
        problems.append(f"never measured on any workload: {sorted(set(per_layer) - measured)}")

    for problem in problems:
        print(f"selftest FAILED: {problem}")
    if not problems:
        print(f"selftest ok: {len(workloads)} workloads, {len(end_to_end)} end-to-end "
              f"and {len(per_layer)} per-layer metrics match BENCHMARK.json")
    return 1 if problems else 0


# ---------------------------------------------------------------------- CLI
def main(argv=None) -> int:
    harness.pin_environment()  # before numpy or repro are first imported
    bench = declared.load()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=11,
                        help="the only source of randomness in the generated inputs")
    parser.add_argument("--seconds", type=float, default=float(bench["run_seconds"]),
                        help="measuring time of the untraced pass (sample-count floors apply)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="report file of a run over all workloads")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), type=Path)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken sizes (the selftest's; numbers mean nothing)")
    args = parser.parse_args(argv)

    if args.compare:
        import compare

        return compare.main([str(p) for p in args.compare])
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            report = run_all(args.seed, args.seconds, args.tiny, args.out)
            failed = sum(p["result"]["failed"] for w in report["workloads"].values()
                         for p in w.values())
            return 1 if failed else 0
        result = run_pass(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except harness.LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
