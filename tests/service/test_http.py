"""The HTTP gateway and client: the wire contract end to end."""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from http.client import HTTPException
from pathlib import Path

import pytest

from repro.service import (
    DONE,
    ServiceClient,
    ServiceDaemon,
    ServiceError,
    make_server,
)

DECK = "nx=2 ny=2 nz=2 ng=2 nang=1 iitm=1 oitm=1"
#: About a second of solve: long enough to still be running at a SIGINT.
SLOW_DECK = "nx=6 ny=6 nz=6 ng=4 nang=2 iitm=5 oitm=1 engine=vectorized"
SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture()
def client(gateway):
    server, _daemon = gateway
    return ServiceClient(port=server.port)


class TestEndpoints:
    def test_healthz(self, client):
        assert client.healthz() == {"status": "ok"}

    def test_submit_deck_roundtrip_and_dedup(self, client, gateway):
        _server, daemon = gateway
        first = client.wait(client.submit(deck=DECK)["id"], timeout=60.0)
        second = client.wait(client.submit(deck=DECK)["id"], timeout=60.0)
        assert first["state"] == DONE and not first["cache_hit"]
        assert second["state"] == DONE and second["cache_hit"]
        # The dedup acceptance criterion, over the wire: one stored record,
        # two done jobs, bit-identical summaries.
        assert second["result_summary"] == first["result_summary"]
        assert len(daemon.store) == 1
        stats = client.stats()
        assert stats["executed"] == 1 and stats["cache_hits"] == 1
        assert stats["store"]["records"] == 1

    def test_submit_spec_json(self, client, tiny_spec):
        job = client.submit(spec=tiny_spec.to_dict(), run_options={"num_threads": 1})
        done = client.wait(job["id"], timeout=60.0)
        assert done["state"] == DONE
        assert done["result_summary"]["mean_flux"] > 0

    def test_jobs_listing_and_location_header(self, client):
        job = client.submit(deck=DECK)
        listed = client.jobs()
        assert [j["id"] for j in listed] == [job["id"]]
        assert client.job(job["id"])["key"] == job["key"]

    def test_progress_stream_ends_terminal(self, client):
        job = client.submit(deck=DECK)
        lines = list(client.progress(job["id"], interval=0.05, timeout=60.0))
        assert lines, "progress stream yielded nothing"
        last = lines[-1]
        assert last["state"] == DONE
        assert "result_summary" in last and last["error"] is None
        # Telemetry snapshots ride along for in-process backends.
        assert last["telemetry"] is not None

    def test_delete_cancels(self, client):
        job = client.submit(deck=DECK)
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] in ("cancelled", "running", "done")
        final = client.wait(job["id"], timeout=60.0)
        assert final["state"] in ("cancelled", "done")


class TestRequestErrors:
    def test_unknown_deck_key_structured_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(deck="bogus=1")
        err = excinfo.value
        assert err.status == 400
        assert err.payload["key"] == "bogus"
        assert err.payload["section"] == "problem"
        assert "nx" in err.payload["valid_keys"]
        assert "unknown input deck key" in err.payload["error"]

    def test_bad_deck_value_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(deck="nx=banana")
        assert excinfo.value.status == 400

    def test_bad_spec_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec={"nx": "not-a-grid"})
        assert excinfo.value.status == 400
        assert "invalid problem spec" in excinfo.value.payload["error"]

    def test_deck_and_spec_both_or_neither_400(self, client, tiny_spec):
        with pytest.raises(ServiceError) as excinfo:
            client.submit()
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit(deck=DECK, spec=tiny_spec.to_dict())
        assert excinfo.value.status == 400

    def test_bad_run_options_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(deck=DECK, run_options={"bogus": 1})
        assert excinfo.value.status == 400
        assert "unknown run option" in excinfo.value.payload["error"]

    def test_unknown_job_404(self, client):
        for probe in (client.job, client.cancel):
            with pytest.raises(ServiceError) as excinfo:
                probe(999)
            assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            list(client.progress(999))
        assert excinfo.value.status == 404

    def test_unknown_path_404(self, client, gateway):
        server, _daemon = gateway
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("GET", "/nope")
            assert conn.getresponse().status == 404
        finally:
            conn.close()

    def test_non_json_body_400(self, gateway):
        server, _daemon = gateway
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request(
                "POST", "/jobs", body="not json",
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 400
            assert "not valid JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()


class TestGuards:
    def test_oversized_body_413(self, tmp_path):
        daemon = ServiceDaemon(backend="serial", workers=1)
        daemon.start()
        server = make_server(daemon, port=0, max_body_bytes=256)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(port=server.port)
            with pytest.raises(ServiceError) as excinfo:
                client.submit(deck="x" * 2048)
            assert excinfo.value.status == 413
            assert excinfo.value.payload["limit"] == 256
            # A normal-sized request still goes through afterwards.
            assert client.healthz() == {"status": "ok"}
        finally:
            server.shutdown()
            server.server_close()
            daemon.shutdown()

    def test_queue_full_429(self, tiny_spec, tiny_result, blocking_executor_cls):
        executor = blocking_executor_cls(tiny_result)
        daemon = ServiceDaemon(workers=1, max_queue_depth=1, executor=executor)
        daemon.start()
        server = make_server(daemon, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(port=server.port)
            client.submit(spec=tiny_spec.to_dict())
            assert executor.started.wait(timeout=10.0)  # worker occupied
            client.submit(spec=tiny_spec.with_(nx=3).to_dict())  # fills the queue
            with pytest.raises(ServiceError) as excinfo:
                client.submit(spec=tiny_spec.with_(nx=4).to_dict())
            assert excinfo.value.status == 429
            assert excinfo.value.payload["depth"] == 1
            assert excinfo.value.payload["limit"] == 1
            executor.release.set()
        finally:
            executor.release.set()
            server.shutdown()
            server.server_close()
            daemon.shutdown()


class TestProcessBackend:
    def test_end_to_end_with_process_backend(self, tiny_spec, tmp_path):
        """The acceptance path: real solves through worker processes."""
        daemon = ServiceDaemon(store=tmp_path, backend="process", workers=2)
        daemon.start()
        server = make_server(daemon, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(port=server.port)
            first = client.wait(client.submit(spec=tiny_spec.to_dict())["id"], timeout=120.0)
            second = client.wait(client.submit(spec=tiny_spec.to_dict())["id"], timeout=120.0)
            assert first["state"] == DONE and second["state"] == DONE
            assert second["cache_hit"]
            assert second["result_summary"] == first["result_summary"]
            assert len(daemon.store) == 1
        finally:
            server.shutdown()
            server.server_close()
            daemon.shutdown()


@pytest.fixture()
def blocked_gateway(tiny_result, blocking_executor_cls):
    """A gateway whose one worker parks every job until ``release`` is set."""
    executor = blocking_executor_cls(tiny_result)
    daemon = ServiceDaemon(workers=1, executor=executor)
    daemon.start()
    server = make_server(daemon, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield ServiceClient(port=server.port), executor
    finally:
        executor.release.set()
        server.shutdown()
        server.server_close()
        daemon.shutdown()
        thread.join(timeout=5)


class TestLongPoll:
    def test_wait_answers_as_the_job_finishes(self, blocked_gateway, tiny_spec):
        client, executor = blocked_gateway
        job_id = client.submit(spec=tiny_spec.to_dict())["id"]
        assert executor.started.wait(timeout=10.0)
        answer = {}

        def long_poll():
            answer["job"] = client._request("GET", f"/jobs/{job_id}?wait=20")
            answer["at"] = time.monotonic()

        poller = threading.Thread(target=long_poll)
        poller.start()
        time.sleep(0.3)
        assert poller.is_alive()  # held open while the job runs
        released = time.monotonic()
        executor.release.set()
        poller.join(timeout=10.0)
        assert answer["job"]["state"] == DONE
        assert answer["at"] - released < 0.1  # the finish, not a poll period

    def test_wait_timeout_returns_the_current_state(self, blocked_gateway, tiny_spec):
        client, executor = blocked_gateway
        job_id = client.submit(spec=tiny_spec.to_dict())["id"]
        assert executor.started.wait(timeout=10.0)
        began = time.monotonic()
        body = client._request("GET", f"/jobs/{job_id}?wait=0.2")
        assert 0.2 <= time.monotonic() - began < 5.0
        assert body["state"] == "running"
        assert set(body) == set(client.job(job_id))  # the same body shape

    def test_wait_is_capped_server_side(self, blocked_gateway, tiny_spec, monkeypatch):
        from repro.service import http as service_http

        monkeypatch.setattr(service_http, "_MAX_LONG_POLL", 0.2)
        client, executor = blocked_gateway
        job_id = client.submit(spec=tiny_spec.to_dict())["id"]
        began = time.monotonic()
        assert client._request("GET", f"/jobs/{job_id}?wait=600")["state"] == "running"
        assert time.monotonic() - began < 5.0

    @pytest.mark.parametrize("raw", ["abc", "-1", "nan", "inf", ""])
    def test_bad_wait_structured_400(self, client, raw):
        job_id = client.submit(deck=DECK)["id"]
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", f"/jobs/{job_id}?wait={raw}")
        assert excinfo.value.status == 400
        assert excinfo.value.payload["parameter"] == "wait"
        assert excinfo.value.payload["value"] == raw

    def test_wait_on_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/jobs/999?wait=1")
        assert excinfo.value.status == 404

    def test_client_wait_is_one_request_per_job(self, blocked_gateway, tiny_spec, monkeypatch):
        client, executor = blocked_gateway
        job_id = client.submit(spec=tiny_spec.to_dict())["id"]
        paths = []
        request = client._request

        def counted(method, path, *args, **kwargs):
            paths.append(path)
            return request(method, path, *args, **kwargs)

        monkeypatch.setattr(client, "_request", counted)
        threading.Timer(0.3, executor.release.set).start()
        assert client.wait(job_id, timeout=30.0)["state"] == DONE
        assert len(paths) == 1 and "?wait=" in paths[0]

    def test_drain_counts_every_concurrent_request(self, gateway):
        server, _daemon = gateway
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            barrier = threading.Barrier(16)

            def hammer():
                client = ServiceClient(port=server.port)
                barrier.wait(timeout=10)
                for _ in range(5):
                    client.healthz()

            threads = [threading.Thread(target=hammer) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        # A lost update of the in-flight count would leave it non-zero.
        assert server.drain(timeout=10)
        assert server._in_flight == 0

    def test_drain_gives_up_at_its_deadline(self, gateway):
        server, _daemon = gateway
        # A client that connects and never sends its request line keeps one
        # handler thread in flight until it hangs up.
        stalled = socket.create_connection(("127.0.0.1", server.port), timeout=10)
        try:
            deadline = time.monotonic() + 10
            while server._in_flight == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._in_flight == 1
            started = time.monotonic()
            assert not server.drain(timeout=0.2)
            assert time.monotonic() - started < 5
        finally:
            stalled.close()
        assert server.drain(timeout=10)

    def test_sigint_with_a_long_poll_in_flight_exits_zero(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH", "")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--jobs", "1",
             "--store", str(tmp_path / "store")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            match = re.search(r"http://([\d.]+):(\d+)", proc.stdout.readline())
            assert match
            client = ServiceClient(match.group(1), int(match.group(2)))
            job_id = client.submit(deck=SLOW_DECK)["id"]
            outcome = []

            def long_poll():
                try:
                    outcome.append(client._request("GET", f"/jobs/{job_id}?wait=30"))
                except (OSError, HTTPException) as exc:
                    outcome.append(exc)  # a truncated answer: fails below

            poller = threading.Thread(target=long_poll, daemon=True)
            poller.start()
            time.sleep(0.3)
            assert poller.is_alive()
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=60) == 0
            assert "shut down cleanly" in proc.stdout.read()
            poller.join(timeout=10)
            # The shutdown lets the running job finish and the long-poll
            # answer with its complete, terminal body before the exit.
            assert len(outcome) == 1 and isinstance(outcome[0], dict), outcome
            assert outcome[0]["id"] == job_id and outcome[0]["state"] == DONE
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
