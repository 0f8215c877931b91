"""Plain-text rendering of tables and scaling series.

The mini-app is a command-line tool, so every table/figure reproduction is
rendered as aligned text (the same rows/series the paper reports) rather than
as an image; the benchmark harness and the examples print these.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = [
    "format_table",
    "format_scaling_series",
    "format_verification_report",
    "format_bench_report",
]


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0.0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3e}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence], title: str | None = None
) -> str:
    """Render rows as an aligned, pipe-separated text table."""
    str_rows = [[_format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match header length")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)


def format_verification_report(report) -> str:
    """Render a :class:`repro.verify.VerificationReport` as text tables.

    One table per suite that ran: the MMS order estimates, the conformance
    matrix summary (with any failed bit-for-bit checks called out row by
    row), the golden-store case statuses, and the analytic driver
    benchmarks.
    """
    sections: list[str] = []

    if report.mms:
        rows = [
            (
                e.problem,
                e.discretisation,
                e.theoretical_order,
                round(e.observed_order, 3),
                round(e.fitted_order, 3),
                e.tolerance,
                "x".join(str(n) for n in e.resolutions),
                "pass" if e.passed else "FAIL",
            )
            for e in report.mms
        ]
        sections.append(
            format_table(
                ("problem", "disc", "theory", "observed", "fitted", "tol", "meshes", "status"),
                rows,
                title="MMS convergence orders (observed must be within tol of theory)",
            )
        )

    if report.conformance is not None:
        conf = report.conformance
        summary_rows = [
            ("cases", len(conf.cases)),
            ("engines", ", ".join(conf.engines)),
            ("solvers", ", ".join(conf.solvers)),
            ("backends", ", ".join(conf.backends)),
            ("max pairwise deviation", conf.max_pairwise_deviation),
            ("tolerance", conf.tolerance),
            ("bitwise checks", len(conf.checks)),
            ("status", "pass" if conf.passed else "FAIL"),
        ]
        sections.append(
            format_table(("quantity", "value"), summary_rows, title="Conformance matrix")
        )
        if conf.failed_checks:
            rows = [(c.kind, c.group, ", ".join(c.members)) for c in conf.failed_checks]
            sections.append(
                format_table(("kind", "group", "members"), rows, title="FAILED bitwise checks")
            )

    if report.golden is not None:
        rows = [
            (
                r.name,
                r.status,
                r.detail or "-",
                "-" if r.max_deviation is None else r.max_deviation,
            )
            for r in report.golden.results
        ]
        for stale in report.golden.stale_keys:
            rows.append((stale[:16] + "...", "stale", "record matches no golden case", "-"))
        sections.append(
            format_table(
                ("case", "status", "detail", "max deviation"),
                rows,
                title=f"Golden regression store ({report.golden.golden_dir})",
            )
        )

    if getattr(report, "drivers", None) is not None:
        k = report.drivers.k_infinity
        decay = report.drivers.decay
        rows = [
            (
                "k_eigenvalue vs analytic k-infinity",
                f"{k.error:.3e} <= {k.tolerance:.0e}",
                f"k={k.k_computed:.10f} in {k.power_iterations} iterations",
                "pass" if k.passed else "FAIL",
            ),
            (
                "time_dependent decay order in dt",
                f"|{decay.observed_order:.3f} - {decay.theoretical_order:g}| "
                f"<= {decay.tolerance}",
                "dt = " + ", ".join(f"{dt:g}" for dt in decay.dts),
                "pass" if decay.passed else "FAIL",
            ),
        ]
        sections.append(
            format_table(
                ("benchmark", "criterion", "detail", "status"),
                rows,
                title="Driver benchmarks (analytic references)",
            )
        )

    sections.append(f"verification {'PASSED' if report.passed else 'FAILED'}")
    return "\n\n".join(sections)


def format_scaling_series(
    thread_counts: Sequence[int],
    series: dict[str, Sequence[float]],
    title: str | None = None,
    unit: str = "s",
) -> str:
    """Render thread-scaling curves (one row per scheme, one column per count)."""
    headers = ["scheme"] + [f"{t} thr" for t in thread_counts]
    rows = []
    for label, values in series.items():
        if len(values) != len(thread_counts):
            raise ValueError(f"series {label!r} length does not match thread counts")
        rows.append([label] + [f"{v:.2f}{unit}" for v in values])
    return format_table(headers, rows, title=title)


def format_bench_report(report) -> str:
    """Render a :class:`repro.bench.BenchReport` as one table per case."""
    sections: list[str] = []
    workload = report.workload
    tier = "smoke" if workload.smoke else "full"
    sections.append(
        f"benchmark workload ({tier} tier): {workload.n}^3 cells, "
        f"{8 * workload.angles_per_octant} angles, {workload.num_groups} groups, "
        f"{workload.warmup} warmup + {workload.repeats} repeats"
    )
    for case in report.cases:
        rows = [
            (
                sample.name,
                sample.best,
                sample.mean,
                len(sample.seconds),
                ", ".join(
                    f"{key}={_format_cell(value)}"
                    for key, value in sorted(sample.metrics.items())
                    if isinstance(value, (int, float)) and not isinstance(value, bool)
                ),
            )
            for sample in case.samples
        ]
        tags = ", ".join(case.tags) or "-"
        sections.append(
            format_table(
                ("sample", "best s", "mean s", "n", "metrics"),
                rows,
                title=f"{case.name} [{tags}]",
            )
        )
    return "\n\n".join(sections)
