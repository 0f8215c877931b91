"""A small stdlib client for the service gateway.

:class:`ServiceClient` wraps the JSON-over-HTTP surface of
:mod:`repro.service.http` with one method per endpoint -- the tests, the CI
service-smoke job and ``examples/serve_client.py`` all drive the daemon
through it, so the wire format is exercised end to end rather than through
in-process shortcuts.  Errors come back as :class:`ServiceError` carrying the
HTTP status and the decoded JSON body (including the structured deck-error
fields on a 400).
"""

from __future__ import annotations

import json
import time
from http.client import HTTPConnection
from typing import Iterator

from ..obs.trace import TRACE_HEADER, TraceContext

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(Exception):
    """A non-2xx gateway response, with its status and JSON payload."""

    def __init__(self, status: int, payload: dict):
        self.status = status
        self.payload = payload
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")


class ServiceClient:
    """One gateway endpoint, addressed by host and port.

    Every call opens a fresh connection (the gateway is HTTP/1.0,
    close-delimited), so a client instance is safe to share across threads.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8080, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------ plumbing
    def _request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        headers: dict | None = None,
    ) -> dict:
        conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            body = None if payload is None else json.dumps(payload)
            headers = dict(headers or {})
            if body is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = json.loads(response.read() or b"{}")
            if not 200 <= response.status < 300:
                raise ServiceError(response.status, data)
            return data
        finally:
            conn.close()

    # ------------------------------------------------------------- surface
    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def submit(
        self,
        *,
        deck: str | None = None,
        spec: dict | None = None,
        run_options: dict | None = None,
        keep_flux: bool = True,
        trace: TraceContext | str | bool | None = None,
    ) -> dict:
        """``POST /jobs``: submit a deck string or a ``ProblemSpec`` dict.

        ``trace`` joins the submission to a trace via the
        ``X-Unsnap-Trace`` header: pass a :class:`TraceContext`, a
        ready-made header string, or ``True`` to start a fresh trace (the
        generated context comes back in the job body's ``trace`` field).
        """
        payload: dict = {"keep_flux": keep_flux}
        if deck is not None:
            payload["deck"] = deck
        if spec is not None:
            payload["spec"] = spec
        if run_options:
            payload["run_options"] = run_options
        headers = {}
        if trace is True:
            trace = TraceContext.new()
        if isinstance(trace, TraceContext):
            headers[TRACE_HEADER] = trace.to_header()
        elif isinstance(trace, str):
            headers[TRACE_HEADER] = trace
        return self._request("POST", "/jobs", payload, headers=headers)

    def job(self, job_id: int) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: int) -> dict:
        return self._request("DELETE", f"/jobs/{job_id}")

    def wait(self, job_id: int, timeout: float = 60.0, poll: float = 0.05) -> dict:
        """Long-poll ``GET /jobs/{id}?wait=`` until the job is terminal.

        Each request asks the gateway to hold it until the job finishes,
        for at most the rest of ``timeout`` (and half the connection
        timeout), so the answer comes as the job ends rather than at the
        next poll.  ``poll`` is the pause before asking again when an
        answer comes back non-terminal before the hold ran out.
        """
        deadline = time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            hold = max(0.0, min(deadline - asked, self.timeout / 2))
            job = self._request("GET", f"/jobs/{job_id}?wait={hold:.3f}")
            if job["state"] in ("done", "failed", "cancelled"):
                return job
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(f"job {job_id} still {job['state']!r} after {timeout}s")
            if now - asked < hold:
                time.sleep(poll)

    def progress(
        self, job_id: int, interval: float = 0.1, timeout: float = 60.0
    ) -> Iterator[dict]:
        """Yield the ndjson snapshots of ``GET /jobs/{id}/progress``."""
        conn = HTTPConnection(self.host, self.port, timeout=max(self.timeout, timeout + 5.0))
        try:
            conn.request(
                "GET", f"/jobs/{job_id}/progress?interval={interval}&timeout={timeout}"
            )
            response = conn.getresponse()
            if response.status != 200:
                raise ServiceError(response.status, json.loads(response.read() or b"{}"))
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()
