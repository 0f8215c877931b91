"""The HTTP gateway: a stdlib shell over :class:`~repro.service.daemon.
ServiceDaemon`.

Built on :class:`http.server.ThreadingHTTPServer` -- no new hard
dependencies -- with a small JSON-over-HTTP surface:

====== ============================ ===========================================
Method Path                         Meaning
====== ============================ ===========================================
POST   ``/jobs``                    Submit a run: ``{"deck": "..."}`` or
                                    ``{"spec": {...}}``, optional
                                    ``run_options`` and ``keep_flux``.
                                    201 + job body; structured 400 on a bad
                                    deck/spec; 429 queue full; 413 body too
                                    large.
GET    ``/jobs``                    List the retained jobs (id, state, key).
GET    ``/jobs/{id}``               Job status + result summary (404 unknown).
                                    ``?wait=SECONDS`` long-polls: the answer
                                    comes when the job is terminal or after
                                    ``SECONDS`` (capped at 30), whichever is
                                    first; structured 400 on a bad value.
GET    ``/jobs/{id}/progress``      Stream ``application/x-ndjson`` snapshots
                                    (state + telemetry phases/counters) until
                                    the job is terminal.
DELETE ``/jobs/{id}``               Cancel (queued: always; running: best
                                    effort).  Returns the job body.
GET    ``/healthz``                 Liveness probe.
GET    ``/stats``                   Queue depth, worker count, per-state job
                                    counts, cache-hit ratio, store statistics.
GET    ``/metrics``                 Prometheus text-format snapshot of the
                                    daemon/telemetry/spool counters.
GET    ``/dashboard``               Self-contained live HTML dashboard
                                    (polls ``/stats``, streams progress).
====== ============================ ===========================================

Submissions may carry an ``X-Unsnap-Trace: {trace_id}[-{span_id}]``
header; the gateway parses it (400 on malformed values), records a
``gateway.submit`` span when the daemon has a trace exporter, and hands
the context to :meth:`~repro.service.daemon.ServiceDaemon.submit` so the
whole execution joins the caller's trace.

Deck validation failures reuse the named-key machinery of
:mod:`repro.input_deck`: an :class:`~repro.input_deck.UnknownDeckKeyError`
maps to a 400 whose body carries the stable ``key``/``section``/
``valid_keys`` fields -- structured JSON, not a parsed message string.
"""

from __future__ import annotations

import json
import math
import re
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from ..config import ProblemSpec
from ..input_deck import UnknownDeckKeyError, loads as load_deck
from ..obs.dashboard import DASHBOARD_HTML
from ..obs.trace import TRACE_HEADER, TraceContext
from .daemon import QueueFullError, ServiceDaemon
from .job import Job

__all__ = ["ServiceHTTPServer", "make_server", "DEFAULT_MAX_BODY_BYTES"]

#: Default request-body ceiling (a deck or spec payload is tiny; anything
#: bigger is a mistake or an attack on the gateway's memory).
DEFAULT_MAX_BODY_BYTES = 1_048_576

_JOB_PATH = re.compile(r"^/jobs/(\d+)$")
_PROGRESS_PATH = re.compile(r"^/jobs/(\d+)/progress$")

#: Progress-stream poll interval bounds (seconds).
_MIN_INTERVAL, _MAX_INTERVAL, _DEFAULT_INTERVAL = 0.02, 5.0, 0.25
#: Progress-stream duration ceiling: the stream ends with a ``"timeout"``
#: marker line if the job is still not terminal (clients re-attach).
_DEFAULT_STREAM_TIMEOUT = 300.0
#: Longest ``GET /jobs/{id}?wait=`` hold; a longer wait answers at the cap
#: with the job's current state (clients ask again).
_MAX_LONG_POLL = 30.0


class ServiceHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` carrying the daemon and the guards."""

    daemon_threads = True  # handler threads must not outlive a shutdown

    def __init__(
        self,
        address: tuple[str, int],
        daemon: ServiceDaemon,
        *,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        quiet: bool = True,
    ):
        self.service = daemon
        self.max_body_bytes = max_body_bytes
        self.quiet = quiet
        super().__init__(address, _ServiceHandler)

    @property
    def port(self) -> int:
        """The bound port (useful with the ``port=0`` pick-a-port idiom)."""
        return self.server_address[1]


def make_server(
    daemon: ServiceDaemon,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    quiet: bool = True,
) -> ServiceHTTPServer:
    """Bind a gateway over ``daemon`` (``port=0`` picks a free port)."""
    return ServiceHTTPServer(
        (host, port), daemon, max_body_bytes=max_body_bytes, quiet=quiet
    )


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes one request onto the daemon; every body is JSON."""

    server: ServiceHTTPServer  # narrowed for readability

    # Close-delimited bodies keep the progress stream trivial: HTTP/1.0 with
    # Connection: close per response, one TCP connection per request.
    protocol_version = "HTTP/1.0"

    # ------------------------------------------------------------ plumbing
    def log_message(self, format: str, *args) -> None:
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict, headers: dict | None = None) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, **fields) -> None:
        self._send_json(status, {"error": message, **fields})

    def _query(self) -> dict[str, str]:
        """The request's query parameters; a repeated one keeps its last value."""
        query = self.path.split("?", 1)[1] if "?" in self.path else ""
        return {
            name: values[-1]
            for name, values in parse_qs(query, keep_blank_values=True).items()
        }

    # -------------------------------------------------------------- routes
    def do_GET(self) -> None:  # http.server API name
        try:
            path = self.path.split("?", 1)[0]
            if path == "/healthz":
                self._send_json(200, {"status": "ok"})
            elif path == "/stats":
                self._send_json(200, self.server.service.stats())
            elif path == "/metrics":
                body = self.server.service.metrics().encode()
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            elif path == "/dashboard":
                body = DASHBOARD_HTML.encode()
                self.send_response(200)
                self.send_header("Content-Type", "text/html; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            elif path == "/jobs":
                jobs = self.server.service.jobs()
                self._send_json(
                    200,
                    {
                        "jobs": [
                            {"id": j.id, "state": j.state, "key": j.key} for j in jobs
                        ]
                    },
                )
            elif match := _PROGRESS_PATH.match(path):
                self._stream_progress(int(match.group(1)))
            elif match := _JOB_PATH.match(path):
                self._get_job(int(match.group(1)))
            else:
                self._error(404, f"no such resource {path!r}")
        except ConnectionError:
            pass  # client went away mid-response (reset or broken pipe)
        except Exception as exc:
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_DELETE(self) -> None:
        match = _JOB_PATH.match(self.path.split("?", 1)[0])
        if not match:
            self._error(404, f"no such resource {self.path!r}")
            return
        self._with_job(
            int(match.group(1)),
            lambda job: self.server.service.cancel(job.id).to_dict(),
        )

    def do_POST(self) -> None:
        if self.path.split("?", 1)[0] != "/jobs":
            self._error(404, f"no such resource {self.path!r}")
            return
        started = time.time()
        try:
            trace = self._trace_context()
            payload = self._read_json_body()
        except _RequestError as exc:
            self._error(exc.status, exc.message, **exc.fields)
            return
        try:
            job = self._submit(payload, trace)
        except _RequestError as exc:
            self._error(exc.status, exc.message, **exc.fields)
            return
        except QueueFullError as exc:
            self._error(
                429,
                str(exc),
                depth=exc.depth,
                limit=exc.limit,
            )
            return
        exporter = self.server.service.trace_exporter
        if exporter is not None and job.trace is not None:
            exporter.emit(
                "gateway.submit",
                start=started,
                end=time.time(),
                context=TraceContext.from_dict(job.trace),
                attrs={"job_id": job.id},
            )
        self._send_json(201, job.to_dict(), headers={"Location": f"/jobs/{job.id}"})

    # ------------------------------------------------------------- helpers
    def _trace_context(self) -> TraceContext | None:
        """The parsed ``X-Unsnap-Trace`` header, if the request carries one."""
        header = self.headers.get(TRACE_HEADER)
        if header is None:
            return None
        try:
            return TraceContext.parse(header)
        except ValueError as exc:
            raise _RequestError(400, str(exc)) from None

    def _get_job(self, job_id: int) -> None:
        """``GET /jobs/{id}[?wait=SECONDS]``: the job body, once terminal
        or once the (capped) wait runs out -- the same body either way."""
        query = self._query()
        if "wait" in query:
            raw = query["wait"]
            try:
                wait = float(raw)
            except ValueError:
                wait = math.nan
            if not 0.0 <= wait < math.inf:
                self._error(
                    400, f"'wait' must be a finite number of seconds >= 0, got {raw!r}",
                    parameter="wait", value=raw,
                )
                return
            try:
                self.server.service.wait(job_id, timeout=min(wait, _MAX_LONG_POLL))
            except (KeyError, TimeoutError):
                pass  # unknown: the 404 below; not yet terminal: its state
        self._with_job(job_id, lambda job: job.to_dict())

    def _with_job(self, job_id: int, view) -> None:
        try:
            job = self.server.service.get(job_id)
        except KeyError:
            self._error(404, f"no such job {job_id}")
            return
        self._send_json(200, view(job))

    def _read_json_body(self) -> dict:
        length = self.headers.get("Content-Length")
        if length is None:
            raise _RequestError(411, "Content-Length required")
        length = int(length)
        if length > self.server.max_body_bytes:
            # Guard: refuse before reading, so an oversized body never
            # occupies gateway memory.
            raise _RequestError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.server.max_body_bytes}-byte limit",
                limit=self.server.max_body_bytes,
            )
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _RequestError(400, f"request body is not valid JSON ({exc})") from None
        if not isinstance(payload, dict):
            raise _RequestError(400, "request body must be a JSON object")
        return payload

    def _submit(self, payload: dict, trace: TraceContext | None = None) -> Job:
        """Turn a ``POST /jobs`` payload into a queued job."""
        deck = payload.get("deck")
        spec_dict = payload.get("spec")
        if (deck is None) == (spec_dict is None):
            raise _RequestError(
                400, "provide exactly one of 'deck' (input deck text) or 'spec' "
                "(ProblemSpec JSON)"
            )
        if deck is not None:
            try:
                spec = load_deck(str(deck))
            except UnknownDeckKeyError as exc:
                # The named-key machinery of the deck parser, as data.
                raise _RequestError(
                    400,
                    exc.args[0],
                    key=exc.key,
                    section=exc.section,
                    valid_keys=list(exc.valid_keys),
                ) from None
            except (KeyError, ValueError) as exc:
                raise _RequestError(400, str(exc.args[0] if exc.args else exc)) from None
        else:
            try:
                spec = ProblemSpec.from_dict(dict(spec_dict))
            except (KeyError, TypeError, ValueError) as exc:
                raise _RequestError(
                    400, f"invalid problem spec: {exc.args[0] if exc.args else exc}"
                ) from None
        run_options = payload.get("run_options") or {}
        if not isinstance(run_options, dict):
            raise _RequestError(400, "'run_options' must be a JSON object")
        try:
            return self.server.service.submit(
                spec,
                run_options,
                keep_flux=bool(payload.get("keep_flux", True)),
                trace=trace,
            )
        except (KeyError, ValueError) as exc:
            raise _RequestError(400, str(exc.args[0] if exc.args else exc)) from None
        except RuntimeError as exc:
            if isinstance(exc, QueueFullError):
                raise
            raise _RequestError(503, str(exc)) from None

    def _stream_progress(self, job_id: int) -> None:
        """Stream ndjson progress snapshots until the job is terminal."""
        try:
            job = self.server.service.get(job_id)
        except KeyError:
            self._error(404, f"no such job {job_id}")
            return
        interval, timeout = self._progress_params()
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        deadline = time.monotonic() + timeout
        while True:
            snapshot = {
                "id": job.id,
                "state": job.state,
                "cache_hit": job.cache_hit,
                "telemetry": (
                    job.telemetry.snapshot() if job.telemetry is not None else None
                ),
            }
            terminal = job.terminal
            if terminal:
                snapshot["result_summary"] = job.result_summary
                snapshot["error"] = job.error
            self.wfile.write((json.dumps(snapshot) + "\n").encode())
            self.wfile.flush()
            if terminal:
                return
            if time.monotonic() >= deadline:
                self.wfile.write((json.dumps({"id": job.id, "timeout": True}) + "\n").encode())
                return
            try:
                self.server.service.wait(job_id, timeout=interval)
            except TimeoutError:
                pass  # not terminal yet: emit the next snapshot

    def _progress_params(self) -> tuple[float, float]:
        params = self._query()
        try:
            interval = float(params.get("interval", _DEFAULT_INTERVAL))
        except ValueError:
            interval = _DEFAULT_INTERVAL
        try:
            timeout = float(params.get("timeout", _DEFAULT_STREAM_TIMEOUT))
        except ValueError:
            timeout = _DEFAULT_STREAM_TIMEOUT
        return (
            min(max(interval, _MIN_INTERVAL), _MAX_INTERVAL),
            min(max(timeout, 0.0), _DEFAULT_STREAM_TIMEOUT),
        )


class _RequestError(Exception):
    """Internal: a request failure with its HTTP status and JSON fields."""

    def __init__(self, status: int, message: str, **fields):
        self.status = status
        self.message = message
        self.fields = fields
        super().__init__(message)
