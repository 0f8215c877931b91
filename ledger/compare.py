"""Compare two ledger reports: ``python3 ledger/compare.py A.json B.json``.

One row per (end-to-end metric, workload): both medians with their
quartiles, the change of B against A with A as the base, the bound from
``BENCHMARK.json`` and a verdict:

* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- it is not, but either side's own spread (quartile
  distance over median) is wider than the bound, so "no change" cannot be
  read off these two runs;
* ``ok``         -- neither.

``failed`` has a row per workload too: any increase is a regression.  Exact
counts of the traced passes are compared and must be identical.  Exits 1 on
any ``regressed`` row.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import declared


def _load(path: Path) -> dict:
    report = json.loads(path.read_text())
    if report.get("format") != declared.FORMAT or "workloads" not in report:
        raise ValueError(f"{path} is not a ledger report (run.py --out)")
    return report


def _spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["value"] if stats["value"] else 0.0


def compare(a: dict, b: dict, bench: dict) -> tuple[list[dict], list[str]]:
    rows, count_problems = [], []
    for workload in (w["name"] for w in bench["workloads"]):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][workload], b["workloads"][workload]
        for metric in bench["end_to_end"]:
            sa = side_a["untraced"]["end_to_end"][metric["name"]]
            sb = side_b["untraced"]["end_to_end"][metric["name"]]
            change = (sb["value"] - sa["value"]) / sa["value"]
            worse = change if metric["better"] == "lower" else -change
            if worse > metric["bound"]:
                verdict = "regressed"
            elif max(_spread(sa), _spread(sb)) > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                "a": sa, "b": sb, "change": change, "bound": metric["bound"],
                "verdict": verdict,
            })
        fa = side_a["untraced"]["result"]
        fb = side_b["untraced"]["result"]
        rows.append({
            "workload": workload, "metric": "failed", "unit": "ops",
            "a": {"value": fa["failed"], "of": fa["attempted"]},
            "b": {"value": fb["failed"], "of": fb["attempted"]},
            "verdict": "regressed"
            if fb["failed"] / fb["attempted"] > fa["failed"] / fa["attempted"] else "ok",
        })
        ma = side_a["traced"]["result"]["metrics"]
        mb = side_b["traced"]["result"]["metrics"]
        for count in declared.EXACT_COUNTS:
            if ma[count]["value"] != mb[count]["value"]:
                count_problems.append(
                    f"{workload}: {count} {ma[count]['value']:g} -> {mb[count]['value']:g}")
    return rows, count_problems


def render(rows: list[dict], count_problems: list[str], name_a: str, name_b: str) -> str:
    lines = [
        f"A = {name_a}",
        f"B = {name_b}",
        "change = (B - A) / A, base A; spread = (q3 - q1) / median of each side's own samples",
        "",
        f"{'workload':17s} {'metric':12s} {'A median [q1, q3] n':>38s} "
        f"{'B median [q1, q3] n':>38s} {'change':>8s} {'bound':>6s}  verdict",
    ]
    for row in rows:
        if row["metric"] == "failed":
            a, b = row["a"], row["b"]
            lines.append(
                f"{row['workload']:17s} {'failed':12s} {a['value']:>31d} / {a['of']:<4d} "
                f"{b['value']:>31d} / {b['of']:<4d} {'':>8s} {'0':>6s}  {row['verdict']}")
            continue

        def cell(s):
            return f"{s['value']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] {s['n']:d}"

        lines.append(
            f"{row['workload']:17s} {row['metric']:12s} {cell(row['a']):>38s} "
            f"{cell(row['b']):>38s} "
            f"{100 * row['change']:>+7.1f}% {100 * row['bound']:>5.0f}%  {row['verdict']}"
            f"  ({row['unit']})")
    lines.append("")
    if count_problems:
        lines += ["exact counts that differ:"] + [f"  {p}" for p in count_problems]
    else:
        lines.append("exact counts (sweeps, steps, power iterations, inners, factor-cache "
                     "hits/misses/bytes, kernel calls, buckets): identical")
    verdicts = [row["verdict"] for row in rows]
    lines.append(
        f"{verdicts.count('ok')} ok, {verdicts.count('unresolved')} unresolved, "
        f"{verdicts.count('regressed')} regressed")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    path_a, path_b = (Path(p) for p in argv)
    bench = declared.load()
    try:
        a, b = _load(path_a), _load(path_b)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows, count_problems = compare(a, b, bench)
    names = (f"{path} (seed {report['seed']})" for path, report in ((path_a, a), (path_b, b)))
    print(render(rows, count_problems, *names))
    regressed = any(row["verdict"] == "regressed" for row in rows)
    return 1 if regressed or count_problems else 0


if __name__ == "__main__":
    sys.exit(main())
