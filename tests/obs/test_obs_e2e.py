"""Observability end to end: traced daemon runs, /metrics, the gateway
trace header, and the distributed single-trace acceptance criterion."""

import json
import threading
from http.client import HTTPConnection

import pytest

from repro.campaign.backends import get_backend
from repro.campaign.distributed.spool import SpoolDir
from repro.campaign.distributed.worker import SpoolWorker
from repro.config import ProblemSpec
from repro.obs.trace import SpanExporter, TraceContext, read_spans
from repro.service import ServiceClient, ServiceDaemon, ServiceError, make_server

SPEC = ProblemSpec(
    nx=2, ny=2, nz=2, order=1, angles_per_octant=1, num_groups=2,
    max_twist=0.0, num_inners=1, num_outers=1, engine="vectorized",
)


def orphan_names(spans):
    ids = {s["span_id"] for s in spans}
    return [s["name"] for s in spans if s["parent_id"] and s["parent_id"] not in ids]


class TestTracedDaemon:
    def test_one_job_is_one_contiguous_trace(self, tmp_path):
        with SpanExporter(tmp_path / "svc.jsonl") as exporter:
            with ServiceDaemon(
                backend="serial", workers=1, trace_exporter=exporter
            ) as daemon:
                job = daemon.submit(SPEC)
                daemon.wait(job.id, timeout=60)
        assert job.state == "done"
        assert job.trace is not None and len(job.trace["trace_id"]) == 32
        spans = read_spans(tmp_path / "svc.jsonl")
        names = {s["name"] for s in spans}
        assert {"service.queue", "service.execute", "solve"} <= names
        assert {s["trace_id"] for s in spans} == {job.trace["trace_id"]}
        assert orphan_names(spans) == []

    def test_queue_and_execute_spans_abut_at_the_dequeue(self, tmp_path):
        """The daemon's dedup probe sits between dequeue and execution; it
        must fall inside a span, or a trace's layers stop summing to its
        makespan (the ledger's ``service.trace_residual_pct``)."""
        with SpanExporter(tmp_path / "svc.jsonl") as exporter:
            with ServiceDaemon(
                store=tmp_path / "store", backend="serial", workers=1,
                trace_exporter=exporter,
            ) as daemon:
                job = daemon.wait(daemon.submit(SPEC).id, timeout=60)
        spans = {s["name"]: s for s in read_spans(tmp_path / "svc.jsonl")}
        assert spans["service.queue"]["end"] == job.started_at
        assert spans["service.execute"]["start"] == job.started_at

    def test_concurrent_jobs_keep_separate_traces(self, tmp_path):
        """Two daemon workers tracing concurrently must not cross-file
        spans -- the regression the per-thread ambient context prevents."""
        with SpanExporter(tmp_path / "svc.jsonl") as exporter:
            with ServiceDaemon(
                backend="serial", workers=2, trace_exporter=exporter
            ) as daemon:
                jobs = [
                    daemon.submit(SPEC.with_(num_inners=i + 1)) for i in range(3)
                ]
                for job in jobs:
                    daemon.wait(job.id, timeout=60)
        spans = read_spans(tmp_path / "svc.jsonl")
        by_trace = {}
        for span in spans:
            by_trace.setdefault(span["trace_id"], set()).add(span["name"])
        assert len(by_trace) == 3
        for names in by_trace.values():
            assert {"service.queue", "service.execute", "solve"} <= names

    def test_untraced_daemon_jobs_carry_no_trace(self):
        with ServiceDaemon(backend="serial", workers=1) as daemon:
            job = daemon.submit(SPEC)
            daemon.wait(job.id, timeout=60)
        assert job.trace is None
        assert "trace" not in job.to_dict()

    def test_submitted_context_wins_over_autogeneration(self, tmp_path):
        context = TraceContext.new().child("ab" * 8)
        with SpanExporter(tmp_path / "svc.jsonl") as exporter:
            with ServiceDaemon(
                backend="serial", workers=1, trace_exporter=exporter
            ) as daemon:
                job = daemon.submit(SPEC, trace=context)
                daemon.wait(job.id, timeout=60)
        assert job.trace == {"trace_id": context.trace_id, "parent_id": "ab" * 8}
        spans = read_spans(tmp_path / "svc.jsonl")
        assert {s["trace_id"] for s in spans} == {context.trace_id}
        # Daemon spans hang off the submitted parent span.
        queue = [s for s in spans if s["name"] == "service.queue"][0]
        assert queue["parent_id"] == "ab" * 8


class TestDaemonMetrics:
    def test_metrics_render_live_counters(self):
        with ServiceDaemon(backend="serial", workers=1) as daemon:
            job = daemon.submit(SPEC)
            daemon.wait(job.id, timeout=60)
            text = daemon.metrics()
        for line in text.splitlines():
            assert line.startswith("#") or len(line.rsplit(" ", 1)) == 2
        assert 'unsnap_service_jobs{state="done"} 1' in text
        assert "unsnap_service_executed_total 1" in text
        # Executed-run telemetry folds into the aggregate series.
        assert 'unsnap_run_phase_calls_total{phase="solve"} 1' in text


@pytest.fixture()
def traced_gateway(tmp_path):
    exporter = SpanExporter(tmp_path / "svc.jsonl")
    daemon = ServiceDaemon(backend="serial", workers=1, trace_exporter=exporter)
    daemon.start()
    server = make_server(daemon, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, daemon, tmp_path / "svc.jsonl"
    finally:
        server.shutdown()
        server.server_close()
        daemon.shutdown()
        exporter.close()
        thread.join(timeout=5)


class TestGateway:
    def test_metrics_endpoint(self, traced_gateway):
        server, _daemon, _path = traced_gateway
        conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        body = response.read().decode()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/plain; version=0.0.4")
        assert "unsnap_service_queue_depth" in body
        conn.close()

    def test_dashboard_endpoint(self, traced_gateway):
        server, _daemon, _path = traced_gateway
        conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("GET", "/dashboard")
        response = conn.getresponse()
        body = response.read().decode()
        assert response.status == 200
        assert response.getheader("Content-Type").startswith("text/html")
        assert 'fetch("/stats")' in body
        conn.close()

    def test_trace_header_joins_the_submission(self, traced_gateway):
        server, _daemon, path = traced_gateway
        client = ServiceClient(port=server.port)
        context = TraceContext.new()
        job = client.submit(
            spec=SPEC.to_dict(), trace=context, run_options={}
        )
        assert job["trace"]["trace_id"] == context.trace_id
        client.wait(job["id"], timeout=60)
        spans = read_spans(path)
        mine = [s for s in spans if s["trace_id"] == context.trace_id]
        names = {s["name"] for s in mine}
        assert {"gateway.submit", "service.queue", "service.execute"} <= names
        assert orphan_names(mine) == []

    def test_trace_true_generates_header_client_side(self, traced_gateway):
        server, _daemon, _path = traced_gateway
        client = ServiceClient(port=server.port)
        job = client.submit(spec=SPEC.to_dict(), trace=True)
        assert len(job["trace"]["trace_id"]) == 32

    def test_malformed_trace_header_is_400(self, traced_gateway):
        server, _daemon, _path = traced_gateway
        client = ServiceClient(port=server.port)
        with pytest.raises(ServiceError) as err:
            client.submit(spec=SPEC.to_dict(), trace="not-a-trace")
        assert err.value.status == 400
        assert "malformed trace header" in err.value.payload["error"]


class TestDistributedTrace:
    def test_single_trace_across_daemon_spool_and_worker(self, tmp_path):
        """The PR acceptance criterion: one traced submission through the
        distributed backend yields ONE trace covering submit, queue wait,
        spool claim and the worker's solve phases -- zero orphans."""
        spool_root = tmp_path / "spool"
        exporter = SpanExporter(spool_root / "trace" / "service.jsonl")
        backend = get_backend("distributed")
        backend.spool_dir = str(spool_root)
        try:
            with ServiceDaemon(
                backend="distributed", workers=1, trace_exporter=exporter
            ) as daemon:
                worker = SpoolWorker(
                    spool_root, worker_id="w0", idle_exit_seconds=30.0
                )
                thread = threading.Thread(target=worker.run, daemon=True)
                thread.start()
                job = daemon.submit(SPEC)
                daemon.wait(job.id, timeout=120)
                SpoolDir(spool_root).request_stop()
                thread.join(timeout=30)
        finally:
            backend.spool_dir = None
            exporter.close()
        assert job.state == "done"
        spans = read_spans(spool_root / "trace")
        names = {s["name"] for s in spans}
        assert {
            "service.queue",
            "service.execute",
            "spool.wait",
            "worker.execute",
            "worker.store",
            "solve",
        } <= names
        assert {s["trace_id"] for s in spans} == {job.trace["trace_id"]}
        assert orphan_names(spans) == []
        # Worker spans carry their identity for the per-worker breakdown.
        execute = [s for s in spans if s["name"] == "worker.execute"][0]
        assert execute["attrs"]["worker_id"] == "w0"

    def test_untraced_spool_payload_is_byte_identical(self, tmp_path):
        """No trace context -> the published payload has no trace key at
        all (the spool-protocol half of the off-path identity contract)."""
        from repro.campaign.workitem import WorkItem

        spool = SpoolDir(tmp_path / "spool")
        spool.publish(WorkItem(spec=SPEC, index=0))
        spool.publish(WorkItem(spec=SPEC, index=1), trace=None)
        payloads = [json.loads(path.read_text()) for path in spool.pending()]
        assert len(payloads) == 2
        assert all("trace" not in p for p in payloads)

    def test_traced_spool_payload_carries_context(self, tmp_path):
        from repro.campaign.workitem import WorkItem

        spool = SpoolDir(tmp_path / "spool")
        path = spool.publish(
            WorkItem(spec=SPEC), trace={"trace_id": "ab" * 16, "parent_id": None}
        )
        payload = json.loads(path.read_text())
        assert payload["trace"] == {"trace_id": "ab" * 16, "parent_id": None}
