"""Metrics export: Prometheus text rendering and the stock sources."""

from repro.obs.metrics import (
    Metric,
    MetricsRegistry,
    render_metrics,
    service_metrics,
    spool_metrics,
    telemetry_metrics,
)


def parse_exposition(text: str) -> dict[str, float]:
    """A miniature Prometheus text-format parser: every line must be a
    comment or ``name[{labels}] value`` -- the CI obs-smoke contract."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        assert name_part, f"unparseable sample line {line!r}"
        float(value)  # must be numeric
        samples[name_part] = float(value)
    return samples


class TestRendering:
    def test_help_type_and_samples(self):
        metric = Metric("unsnap_things_total", "counter", "Things counted.")
        metric.add(3)
        text = render_metrics([metric])
        assert "# HELP unsnap_things_total Things counted." in text
        assert "# TYPE unsnap_things_total counter" in text
        assert "unsnap_things_total 3" in text
        assert text.endswith("\n")

    def test_labels_sorted_and_escaped(self):
        metric = Metric("unsnap_g", "gauge", "g")
        metric.add(1.5, zeta='quo"te', alpha="back\\slash", mid="new\nline")
        (line,) = [
            row
            for row in render_metrics([metric]).splitlines()
            if not row.startswith("#")
        ]
        assert line == (
            'unsnap_g{alpha="back\\\\slash",mid="new\\nline",zeta="quo\\"te"} 1.5'
        )

    def test_same_name_metrics_merge_one_header(self):
        a = Metric("unsnap_x", "gauge", "x").add(1, side="a")
        b = Metric("unsnap_x", "gauge", "x").add(2, side="b")
        text = render_metrics([a, b])
        assert text.count("# HELP unsnap_x") == 1
        assert len(parse_exposition(text)) == 2

    def test_integer_values_render_without_exponent(self):
        text = render_metrics([Metric("unsnap_n", "gauge", "n").add(1e6)])
        assert "unsnap_n 1000000" in text

    def test_empty_is_empty(self):
        assert render_metrics([]) == ""


class TestRegistry:
    def test_sources_snapshot_on_every_scrape(self):
        registry = MetricsRegistry()
        state = {"value": 1}
        registry.add_source(
            lambda: [Metric("unsnap_v", "gauge", "v").add(state["value"])]
        )
        assert parse_exposition(registry.render())["unsnap_v"] == 1
        state["value"] = 7
        assert parse_exposition(registry.render())["unsnap_v"] == 7

    def test_failing_source_degrades_to_error_counter(self):
        registry = MetricsRegistry()
        registry.add_source(lambda: [Metric("unsnap_ok", "gauge", "ok").add(1)])

        def bad():
            raise OSError("spool mount gone")

        registry.add_source(bad)
        samples = parse_exposition(registry.render())
        assert samples["unsnap_ok"] == 1
        assert samples["unsnap_metrics_source_errors_total"] == 1


class TestStockSources:
    def test_service_metrics_translate_stats(self):
        stats = {
            "backend": "serial",
            "workers": 2,
            "max_queue_depth": 64,
            "queue_depth": 3,
            "jobs": {"queued": 3, "running": 1, "done": 5, "failed": 0, "cancelled": 0},
            "submitted": 9,
            "executed": 4,
            "cache_hits": 1,
            "store_hits": 1,
            "coalesced_hits": 0,
            "cache_hit_ratio": 0.2,
            "store": {"root": "/s", "records": 4, "hits": 1, "misses": 4},
        }
        samples = parse_exposition(render_metrics(service_metrics(stats)))
        assert samples['unsnap_service_jobs{state="done"}'] == 5
        assert samples["unsnap_service_queue_depth"] == 3
        assert samples["unsnap_service_executed_total"] == 4
        assert samples["unsnap_store_records"] == 4

    def test_service_metrics_without_store(self):
        text = render_metrics(service_metrics({"jobs": {}}))
        assert "unsnap_store_records" not in text

    def test_telemetry_metrics_translate_snapshot(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        with telemetry.phase("solve"):
            pass
        telemetry.incr("factor_cache_misses", 3)
        telemetry.gauge("factor_cache_bytes", 1024)
        samples = parse_exposition(render_metrics(telemetry_metrics(telemetry)))
        assert samples['unsnap_run_counter_total{counter="factor_cache_misses"}'] == 3
        assert samples['unsnap_run_gauge{gauge="factor_cache_bytes"}'] == 1024
        assert samples['unsnap_run_phase_calls_total{phase="solve"}'] == 1
        assert 'unsnap_run_phase_seconds_total{phase="solve"}' in samples

    def test_spool_metrics_translate_status(self):
        status = {
            "pending": 2,
            "claims": [{"index": 0}],
            "done": 5,
            "errors": 1,
            "quarantined": [{"name": "j", "reason": "bad"}],
            "workers": [
                {"worker_id": "w0", "age_seconds": 0.5, "live": True},
                {"worker_id": "w1", "age_seconds": 99.0, "live": False},
            ],
            "stop_requested": True,
        }
        samples = parse_exposition(render_metrics(spool_metrics(status)))
        assert samples['unsnap_spool_jobs{state="pending"}'] == 2
        assert samples['unsnap_spool_jobs{state="claimed"}'] == 1
        assert samples['unsnap_spool_jobs{state="quarantined"}'] == 1
        assert samples['unsnap_spool_worker_heartbeat_age_seconds{worker_id="w0"}'] == 0.5
        assert samples["unsnap_spool_workers_live"] == 1
        assert samples["unsnap_spool_stop_requested"] == 1

    def test_spool_doorbells_by_role_tell_doorbell_mode_from_polling(self, tmp_path):
        import socket

        from repro.campaign.distributed import SpoolDir

        spool = SpoolDir(tmp_path / "spool")
        worker = spool.doorbell("worker")
        coordinator = spool.doorbell("coordinator")
        dead = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        dead.bind(str(spool.root / "bells" / "w-deadbeef"))
        dead.close()  # a killed waiter's file: bound once, nobody behind it
        try:
            assert spool.status()["doorbells"] == {"worker": 1, "coordinator": 1}
            samples = parse_exposition(render_metrics(spool_metrics(spool.status())))
            assert samples['unsnap_spool_doorbells{role="worker"}'] == 1
            assert samples['unsnap_spool_doorbells{role="coordinator"}'] == 1
        finally:
            worker.close()
            coordinator.close()
        samples = parse_exposition(render_metrics(spool_metrics(spool.status())))
        assert samples['unsnap_spool_doorbells{role="worker"}'] == 0  # polling
        assert samples['unsnap_spool_doorbells{role="coordinator"}'] == 0
