"""Metrics export: counters and gauges in Prometheus text exposition format.

A :class:`MetricsRegistry` is a list of *sources* -- zero-argument
callables returning :class:`Metric` descriptors -- snapshotted on every
scrape, so the registry itself holds no state and a scrape always reflects
the live daemon/spool/telemetry numbers.  Rendering follows the Prometheus
text exposition format (``# HELP`` / ``# TYPE`` / samples with escaped
labels), which every Prometheus-compatible scraper parses; counters carry
the conventional ``_total`` suffix.

The three stock sources translate the existing payloads -- nothing is
counted twice:

* :func:`service_metrics` -- the daemon's ``/stats`` dict (jobs by state,
  queue depth, dedup counters, cache hit ratio, store statistics);
* :func:`telemetry_metrics` -- a :class:`~repro.telemetry.Telemetry`
  snapshot (factor-cache hits/misses/spills/bytes, sweep counters, the
  coordinator's ``distributed.*`` steal/dispatch counters);
* :func:`spool_metrics` -- a :meth:`~repro.campaign.distributed.spool.
  SpoolDir.status` dict (pending/claimed/done/quarantined jobs, per-worker
  heartbeat ages, bound doorbells by role).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

__all__ = [
    "Metric",
    "MetricsRegistry",
    "render_metrics",
    "service_metrics",
    "telemetry_metrics",
    "spool_metrics",
]


@dataclass
class Metric:
    """One exported metric: a name, a kind, and labelled samples."""

    name: str
    kind: str  # "gauge" | "counter"
    help: str
    samples: list[tuple[dict, float]] = field(default_factory=list)

    def add(self, value: float, **labels: str) -> "Metric":
        self.samples.append((labels, float(value)))
        return self


def _escape_label(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_metrics(metrics: Iterable[Metric]) -> str:
    """Render metrics in Prometheus text exposition format.

    Same-name metrics are merged (one ``HELP``/``TYPE`` block, all
    samples), names are emitted in sorted order so scrapes diff cleanly.
    """
    merged: dict[str, Metric] = {}
    for metric in metrics:
        existing = merged.get(metric.name)
        if existing is None:
            merged[metric.name] = Metric(
                metric.name, metric.kind, metric.help, list(metric.samples)
            )
        else:
            existing.samples.extend(metric.samples)
    lines = []
    for name in sorted(merged):
        metric = merged[name]
        lines.append(f"# HELP {name} {metric.help}")
        lines.append(f"# TYPE {name} {metric.kind}")
        for labels, value in metric.samples:
            if labels:
                label_text = ",".join(
                    f'{key}="{_escape_label(val)}"' for key, val in sorted(labels.items())
                )
                lines.append(f"{name}{{{label_text}}} {_format_value(value)}")
            else:
                lines.append(f"{name} {_format_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


class MetricsRegistry:
    """Snapshot-on-scrape registry of metric sources.

    A failing source never fails the scrape: its exception is swallowed
    and counted in ``unsnap_metrics_source_errors_total``, so one wedged
    subsystem (an unreachable spool mount, say) cannot take down the
    monitoring of the rest.
    """

    def __init__(self) -> None:
        self._sources: list[Callable[[], Iterable[Metric]]] = []

    def add_source(
        self, source: Callable[[], Iterable[Metric]]
    ) -> Callable[[], Iterable[Metric]]:
        self._sources.append(source)
        return source

    def collect(self) -> list[Metric]:
        metrics: list[Metric] = []
        errors = 0
        for source in self._sources:
            try:
                metrics.extend(source())
            except Exception:  # noqa: BLE001 - scrape isolation boundary
                errors += 1
        metrics.append(
            Metric(
                "unsnap_metrics_source_errors_total",
                "counter",
                "Metric sources that raised during this scrape.",
            ).add(errors)
        )
        return metrics

    def render(self) -> str:
        return render_metrics(self.collect())


# ------------------------------------------------------------ stock sources
def service_metrics(stats: dict) -> list[Metric]:
    """Translate the daemon's ``/stats`` payload (see ``ServiceDaemon.stats``)."""
    jobs = Metric(
        "unsnap_service_jobs", "gauge", "Retained service jobs by state."
    )
    for state, count in stats.get("jobs", {}).items():
        jobs.add(count, state=state)
    metrics = [
        jobs,
        Metric(
            "unsnap_service_queue_depth", "gauge", "Jobs waiting in the bounded queue."
        ).add(stats.get("queue_depth", 0)),
        Metric(
            "unsnap_service_queue_limit", "gauge", "Bounded-queue capacity."
        ).add(stats.get("max_queue_depth", 0)),
        Metric(
            "unsnap_service_workers", "gauge", "Worker threads draining the queue."
        ).add(stats.get("workers", 0)),
        Metric(
            "unsnap_service_submitted_total", "counter", "Jobs accepted by submit()."
        ).add(stats.get("submitted", 0)),
        Metric(
            "unsnap_service_executed_total", "counter", "Jobs that ran a fresh solve."
        ).add(stats.get("executed", 0)),
        Metric(
            "unsnap_service_cache_hits_total",
            "counter",
            "Jobs served from the store or a coalesced in-flight twin.",
        ).add(stats.get("cache_hits", 0)),
        Metric(
            "unsnap_service_store_hits_total", "counter", "Jobs served from the store."
        ).add(stats.get("store_hits", 0)),
        Metric(
            "unsnap_service_coalesced_hits_total",
            "counter",
            "Jobs served from an identical in-flight job.",
        ).add(stats.get("coalesced_hits", 0)),
        Metric(
            "unsnap_service_cache_hit_ratio",
            "gauge",
            "Served-from-cache fraction of settled jobs.",
        ).add(stats.get("cache_hit_ratio", 0.0)),
    ]
    store = stats.get("store")
    if isinstance(store, dict):
        metrics.extend(
            [
                Metric(
                    "unsnap_store_records", "gauge", "Records in the attached store."
                ).add(store.get("records", 0)),
                Metric(
                    "unsnap_store_hits_total", "counter", "Store lookups that hit."
                ).add(store.get("hits", 0)),
                Metric(
                    "unsnap_store_misses_total", "counter", "Store lookups that missed."
                ).add(store.get("misses", 0)),
            ]
        )
    return metrics


def telemetry_metrics(telemetry) -> list[Metric]:
    """Translate a :class:`~repro.telemetry.Telemetry` into generic series.

    Counters (factor-cache hits/misses/spills, local solves, the
    coordinator's ``distributed.claims_stolen`` steal count, ...) become
    ``unsnap_run_counter_total{counter="..."}``; gauges
    (``factor_cache_bytes``, pool occupancy) become
    ``unsnap_run_gauge{gauge="..."}``; phase wall-clock totals become
    ``unsnap_run_phase_seconds_total{phase="..."}``.
    """
    snapshot = telemetry.snapshot()
    counters = Metric(
        "unsnap_run_counter_total",
        "counter",
        "Accumulated run telemetry counters across finished jobs.",
    )
    for name, value in snapshot.get("counters", {}).items():
        counters.add(value, counter=name)
    gauges = Metric(
        "unsnap_run_gauge", "gauge", "Last-written run telemetry gauges."
    )
    for name, value in snapshot.get("gauges", {}).items():
        gauges.add(value, gauge=name)
    phases = Metric(
        "unsnap_run_phase_seconds_total",
        "counter",
        "Accumulated wall seconds per telemetry phase across finished jobs.",
    )
    calls = Metric(
        "unsnap_run_phase_calls_total",
        "counter",
        "Accumulated phase entries across finished jobs.",
    )
    for path, entry in snapshot.get("phases", {}).items():
        phases.add(entry.get("seconds", 0.0), phase=path)
        calls.add(entry.get("calls", 0), phase=path)
    return [counters, gauges, phases, calls]


def spool_metrics(status: dict) -> list[Metric]:
    """Translate a spool :meth:`~repro.campaign.distributed.spool.SpoolDir.
    status` dict (pending/claimed/done/quarantined, heartbeat ages,
    doorbells by role)."""
    jobs = Metric(
        "unsnap_spool_jobs", "gauge", "Spool jobs by protocol state."
    )
    jobs.add(status.get("pending", 0), state="pending")
    jobs.add(len(status.get("claims", [])), state="claimed")
    jobs.add(status.get("done", 0), state="done")
    jobs.add(status.get("errors", 0), state="error")
    jobs.add(len(status.get("quarantined", [])), state="quarantined")
    heartbeats = Metric(
        "unsnap_spool_worker_heartbeat_age_seconds",
        "gauge",
        "Seconds since each spool worker's heartbeat file moved.",
    )
    live = 0
    for worker in status.get("workers", []):
        heartbeats.add(worker.get("age_seconds", 0.0), worker_id=worker.get("worker_id", "?"))
        live += 1 if worker.get("live") else 0
    doorbells = Metric(
        "unsnap_spool_doorbells",
        "gauge",
        "Bound spool doorbells by waiter role (0: that role polls).",
    )
    for role, count in sorted(status.get("doorbells", {}).items()):
        doorbells.add(count, role=role)
    return [
        jobs,
        heartbeats,
        doorbells,
        Metric(
            "unsnap_spool_workers_live",
            "gauge",
            "Spool workers whose heartbeat moved within the lease.",
        ).add(live),
        Metric(
            "unsnap_spool_stop_requested",
            "gauge",
            "1 when the spool's STOP marker is present.",
        ).add(1 if status.get("stop_requested") else 0),
    ]
