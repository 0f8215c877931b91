"""Edge cases for the ndjson progress stream.

The stream is the one long-lived response the gateway serves, so the
failure modes that matter are the ones a snapshot endpoint never sees:
the client vanishing mid-stream, the job going terminal between polls,
and handler threads that must not outlive their connection.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.service import ServiceClient, ServiceDaemon, make_server


def _handler_threads() -> int:
    """Live gateway request handlers: ``ThreadingMixIn`` starts one thread per
    connection and names it after its target, ``process_request_thread``."""
    return sum(
        1 for t in threading.enumerate() if "process_request_thread" in t.name
    )


def _wait_until(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


@pytest.fixture()
def blocking_gateway(tiny_result, blocking_executor_cls):
    """Gateway over a daemon whose executor parks until released."""
    executor = blocking_executor_cls(tiny_result)
    daemon = ServiceDaemon(backend="serial", workers=1, executor=executor)
    daemon.start()
    server = make_server(daemon, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, daemon, executor
    finally:
        executor.release.set()
        server.shutdown()
        server.server_close()
        daemon.shutdown()
        thread.join(timeout=5)


class TestClientDisconnect:
    def test_disconnect_mid_stream_leaves_gateway_serving(
        self, blocking_gateway, tiny_spec
    ):
        server, _daemon, executor = blocking_gateway
        client = ServiceClient(port=server.port)
        job = client.submit(spec=tiny_spec.to_dict())
        assert executor.started.wait(timeout=10.0)

        # Stream over a raw socket and slam it shut mid-response.
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
        sock.sendall(
            f"GET /jobs/{job['id']}/progress?interval=0.02 HTTP/1.0\r\n"
            "Host: localhost\r\n\r\n".encode()
        )
        assert sock.recv(1024)  # headers + at least one snapshot are flowing
        sock.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_LINGER,
            # linger(on=1, seconds=0): close sends RST, not FIN -- the
            # gateway's next write dies with ECONNRESET, the harsh variant.
            b"\x01\x00\x00\x00\x00\x00\x00\x00",
        )
        sock.close()

        # The gateway must shrug it off: still healthy, still serving.
        time.sleep(0.2)
        assert client.healthz() == {"status": "ok"}
        assert client.stats()["jobs"]["running"] == 1
        executor.release.set()
        done = client.wait(job["id"], timeout=30.0)
        assert done["state"] == "done"

    def test_disconnect_leaves_no_dangling_handler_thread(
        self, blocking_gateway, tiny_spec
    ):
        server, _daemon, executor = blocking_gateway
        client = ServiceClient(port=server.port)
        job = client.submit(spec=tiny_spec.to_dict())
        assert executor.started.wait(timeout=10.0)
        # One connection per request: the submit's own handler thread may
        # still be exiting, so let the count settle before adding to it.
        assert _wait_until(lambda: _handler_threads() == 0)

        socks = []
        for _ in range(3):
            sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
            sock.sendall(
                f"GET /jobs/{job['id']}/progress?interval=0.02 HTTP/1.0\r\n"
                "Host: localhost\r\n\r\n".encode()
            )
            assert sock.recv(1024)
            socks.append(sock)
        assert _handler_threads() == 3
        for sock in socks:
            sock.close()

        # Handler threads notice the dead socket on their next write and
        # exit; the pool must drain back to where it started.
        assert _wait_until(lambda: _handler_threads() == 0)
        executor.release.set()
        client.wait(job["id"], timeout=30.0)


class TestTerminalMidPoll:
    def test_job_finishing_mid_stream_ends_cleanly(
        self, blocking_gateway, tiny_spec
    ):
        server, _daemon, executor = blocking_gateway
        client = ServiceClient(port=server.port)
        job = client.submit(spec=tiny_spec.to_dict())
        assert executor.started.wait(timeout=10.0)

        lines = []
        errors = []

        def consume():
            try:
                lines.extend(
                    client.progress(job["id"], interval=0.02, timeout=30.0)
                )
            except Exception as exc:  # surfaced in the main thread
                errors.append(exc)

        reader = threading.Thread(target=consume)
        reader.start()
        # Let the stream emit at least one "running" snapshot, then finish
        # the job while the handler is parked inside its poll wait.
        assert _wait_until(lambda: len(lines) >= 1)
        executor.release.set()
        reader.join(timeout=30.0)
        assert not reader.is_alive() and not errors

        assert lines[0]["state"] in ("queued", "running")
        final = lines[-1]
        assert final["state"] == "done"
        assert final["result_summary"] is not None
        assert "timeout" not in final
        # Exactly one terminal snapshot: the stream stops, it doesn't spin.
        assert sum(1 for line in lines if line["state"] == "done") == 1

    def test_stream_timeout_marker_when_job_outlives_window(
        self, blocking_gateway, tiny_spec
    ):
        server, _daemon, executor = blocking_gateway
        client = ServiceClient(port=server.port)
        job = client.submit(spec=tiny_spec.to_dict())
        assert executor.started.wait(timeout=10.0)
        lines = list(client.progress(job["id"], interval=0.02, timeout=0.2))
        assert lines[-1] == {"id": job["id"], "timeout": True}
        assert all(line["state"] != "done" for line in lines[:-1])
        executor.release.set()
        client.wait(job["id"], timeout=30.0)

    def test_completed_job_streams_single_terminal_snapshot(
        self, blocking_gateway, tiny_spec
    ):
        server, _daemon, executor = blocking_gateway
        executor.release.set()
        client = ServiceClient(port=server.port)
        job = client.submit(spec=tiny_spec.to_dict())
        client.wait(job["id"], timeout=30.0)
        lines = list(client.progress(job["id"], interval=0.02, timeout=10.0))
        assert len(lines) == 1 and lines[0]["state"] == "done"


class TestStreamPayload:
    def test_snapshots_are_valid_ndjson_with_telemetry(
        self, blocking_gateway, tiny_spec
    ):
        """Read the raw bytes: every line parses alone (the ndjson
        contract the dashboard's getReader loop depends on)."""
        server, _daemon, executor = blocking_gateway
        client = ServiceClient(port=server.port)
        job = client.submit(spec=tiny_spec.to_dict())
        assert executor.started.wait(timeout=10.0)
        executor.release.set()

        from http.client import HTTPConnection

        conn = HTTPConnection("127.0.0.1", server.port, timeout=30)
        conn.request("GET", f"/jobs/{job['id']}/progress?interval=0.02")
        response = conn.getresponse()
        assert response.getheader("Content-Type") == "application/x-ndjson"
        raw = response.read().decode()
        conn.close()
        assert raw.endswith("\n")
        snapshots = [json.loads(line) for line in raw.splitlines()]
        assert snapshots[-1]["state"] == "done"
        assert all(s["id"] == job["id"] for s in snapshots)
