"""Structured tracing: trace contexts, span export and propagation.

A *trace* is one unit of user-visible work (one submission, one campaign);
a *span* is one timed operation inside it (``gateway.submit``,
``service.queue``, ``spool.wait``, ``worker.execute``, every
:class:`~repro.telemetry.Telemetry` phase).  Spans are append-only JSONL
events in the ``unsnap-trace-v1`` schema::

    {"format": "unsnap-trace-v1", "trace_id": "<32 hex>",
     "span_id": "<16 hex>", "parent_id": "<16 hex>" | null,
     "name": "solve.sweep", "start": <epoch s>, "end": <epoch s>,
     "seconds": <duration>, "attrs": {"worker_id": ..., ...}}

Three design rules keep the tracer as boring as the spool protocol:

* **The file is the API.**  Every process writes its own JSONL file (the
  daemon to ``--trace PATH``, each spool worker to
  ``spool/trace/{worker_id}.jsonl``); nothing ever reads them on the hot
  path.  ``unsnap trace summary DIR`` joins them afterwards by
  ``trace_id`` -- no collector, no socket, no dependency.
* **Context is data.**  A :class:`TraceContext` is two ids.  It crosses
  the HTTP gateway as the ``X-Unsnap-Trace: {trace_id}[-{span_id}]``
  header and the file spool as the ``trace`` field of the job payload;
  both carriers are optional and absent by default, so untraced payloads
  are byte-identical to pre-tracing ones.
* **Parentage follows the thread.**  The exporter keeps a per-thread span
  stack; a span (or telemetry phase) opened while another is open on the
  same thread becomes its child.  Work on foreign threads (octant pools)
  falls back to the explicit context parent -- degraded nesting, never a
  lost or misfiled span.
"""

from __future__ import annotations

import json
import threading
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import time as _now
from typing import Iterable, Iterator

__all__ = [
    "TRACE_FORMAT",
    "TRACE_HEADER",
    "TraceContext",
    "SpanExporter",
    "current_trace",
    "use_trace",
    "new_trace_id",
    "new_span_id",
    "read_spans",
]

#: Format marker written into (and required of) every span event.
TRACE_FORMAT = "unsnap-trace-v1"

#: The propagation header of the HTTP gateway.
TRACE_HEADER = "X-Unsnap-Trace"


def new_trace_id() -> str:
    """A fresh 32-hex-digit trace id."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A fresh 16-hex-digit span id."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """A propagated trace identity: the trace and the parent span.

    ``span_id`` is the span that *caused* the receiving side's work (empty
    string: no parent -- the receiver's spans become roots of the trace).
    """

    trace_id: str
    span_id: str = ""

    @classmethod
    def new(cls) -> "TraceContext":
        return cls(trace_id=new_trace_id())

    def child(self, span_id: str) -> "TraceContext":
        """The context a span hands to work it causes elsewhere."""
        return TraceContext(self.trace_id, span_id)

    # ------------------------------------------------------------ carriers
    def to_header(self) -> str:
        """The ``X-Unsnap-Trace`` header value: ``trace_id[-span_id]``."""
        return f"{self.trace_id}-{self.span_id}" if self.span_id else self.trace_id

    @classmethod
    def parse(cls, header: str) -> "TraceContext":
        """Parse a header value (``ValueError`` on malformed input)."""
        text = str(header).strip().lower()
        trace_id, _, span_id = text.partition("-")
        if not _is_hex(trace_id, 32) or (span_id and not _is_hex(span_id, 16)):
            raise ValueError(
                f"malformed trace header {header!r} "
                f"(want '{{32 hex}}' or '{{32 hex}}-{{16 hex}}')"
            )
        return cls(trace_id=trace_id, span_id=span_id)

    def to_dict(self) -> dict:
        """The spool-payload carrier (``trace`` field of the job file)."""
        return {"trace_id": self.trace_id, "parent_id": self.span_id or None}

    @classmethod
    def from_dict(cls, data: dict) -> "TraceContext | None":
        """Rebuild from a payload ``trace`` field; ``None`` if unusable."""
        if not isinstance(data, dict) or not data.get("trace_id"):
            return None
        return cls(
            trace_id=str(data["trace_id"]), span_id=str(data.get("parent_id") or "")
        )


def _is_hex(text: str, length: int) -> bool:
    if len(text) != length:
        return False
    try:
        int(text, 16)
    except ValueError:
        return False
    return True


# --------------------------------------------------------------- ambient
# The ambient context lets a traced caller (the daemon's worker thread, the
# `unsnap study --trace` command) hand its identity to code it cannot pass
# arguments through -- specifically the campaign backend registry, whose
# `execute_iter` contract knows nothing about tracing.  Thread-local, so
# concurrent jobs on separate daemon workers never see each other's trace.
_AMBIENT = threading.local()


def current_trace() -> TraceContext | None:
    """The ambient :class:`TraceContext` of this thread, if any."""
    return getattr(_AMBIENT, "context", None)


@contextmanager
def use_trace(context: TraceContext | None) -> Iterator[TraceContext | None]:
    """Set the ambient trace context for the duration of the block."""
    previous = current_trace()
    _AMBIENT.context = context
    try:
        yield context
    finally:
        _AMBIENT.context = previous


class _Span:
    """One open span (the value yielded by :meth:`SpanExporter.span`)."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "attrs")

    def __init__(self, trace_id, span_id, parent_id, name, start, attrs):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.attrs = attrs

    def context(self) -> TraceContext:
        """The context downstream work should inherit (this span as parent)."""
        return TraceContext(self.trace_id, self.span_id)


class SpanExporter:
    """Appends ``unsnap-trace-v1`` span events to one JSONL file.

    Thread-safe: writes take a lock, span nesting is tracked per thread.
    Every line is flushed as written, so a tail-reading observer (or a
    crash post-mortem) sees every *finished* span -- an exporter never
    buffers spans across operations.

    Parameters
    ----------
    path:
        The JSONL file (parents are created; the file is appended to).
    context:
        Default :class:`TraceContext` for spans emitted outside any
        enclosing span (fresh trace when omitted).
    attrs:
        Attributes stamped onto every span (e.g. ``worker_id``).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        context: TraceContext | None = None,
        attrs: dict | None = None,
    ):
        self.path = Path(path)
        self.context = context if context is not None else TraceContext.new()
        self.attrs = dict(attrs or {})
        self._lock = threading.Lock()
        self._local = threading.local()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")

    # ------------------------------------------------------------ plumbing
    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _resolve(self, context: TraceContext | None) -> tuple[str, str | None]:
        """``(trace_id, parent_id)`` for a new span on this thread.

        An enclosing span on the same thread wins (same-trace nesting);
        otherwise the explicit or default context supplies both.
        """
        ctx = context if context is not None else self.context
        stack = self._stack()
        if stack and stack[-1].trace_id == ctx.trace_id:
            return ctx.trace_id, stack[-1].span_id
        return ctx.trace_id, (ctx.span_id or None)

    def _write(self, span: _Span, end: float, seconds: float | None = None) -> None:
        event = {
            "format": TRACE_FORMAT,
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "start": span.start,
            "end": end,
            "seconds": max(0.0, end - span.start) if seconds is None else seconds,
            "attrs": span.attrs,
        }
        line = json.dumps(event, sort_keys=True) + "\n"
        with self._lock:
            if self._file.closed:
                return  # a straggler thread after close(); drop, never raise
            self._file.write(line)
            self._file.flush()

    # ------------------------------------------------------------- surface
    def emit(
        self,
        name: str,
        *,
        start: float,
        end: float,
        context: TraceContext | None = None,
        attrs: dict | None = None,
    ) -> str:
        """Record one already-measured span (e.g. a queue wait observed
        after the fact) and return its span id."""
        trace_id, parent_id = self._resolve(context)
        span = _Span(
            trace_id, new_span_id(), parent_id, name, float(start),
            {**self.attrs, **(attrs or {})},
        )
        self._write(span, float(end))
        return span.span_id

    @contextmanager
    def span(
        self,
        name: str,
        *,
        context: TraceContext | None = None,
        attrs: dict | None = None,
        start: float | None = None,
    ) -> Iterator[_Span]:
        """Time a block as one span; spans/phases opened inside (same
        thread) become its children.  The span is written on exit even when
        the block raises (with an ``error`` attribute naming the type).
        ``start`` backdates the span to an instant already recorded (so it
        abuts the span that ended there); default: now."""
        trace_id, parent_id = self._resolve(context)
        span = _Span(
            trace_id, new_span_id(), parent_id, name,
            _now() if start is None else float(start),
            {**self.attrs, **(attrs or {})},
        )
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.attrs = {**span.attrs, "error": type(exc).__name__}
            raise
        finally:
            stack.pop()
            self._write(span, _now())

    # ----------------------------------------------- telemetry phase hooks
    # Telemetry._push/_pop call these when an exporter is attached; the
    # dotted phase path is the span name, the phase duration the span
    # duration.  Phases ride the same per-thread stack as span(), so a
    # phase inside `with exporter.span("worker.execute")` nests under it.
    def phase_started(self, path: str, context: TraceContext | None = None) -> None:
        trace_id, parent_id = self._resolve(context)
        self._stack().append(
            _Span(trace_id, new_span_id(), parent_id, path, _now(), self.attrs)
        )

    def phase_finished(
        self, path: str, seconds: float, context: TraceContext | None = None
    ) -> None:
        stack = self._stack()
        if not stack or stack[-1].name != path:
            return  # attached mid-phase; drop the unmatched pop
        span = stack.pop()
        # The span duration is telemetry's perf_counter measurement, so the
        # trace and the phase breakdown agree to the bit ("end" is derived;
        # "seconds" is authoritative).
        self._write(span, span.start + float(seconds), seconds=float(seconds))

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "SpanExporter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_spans(paths: Iterable[str | Path] | str | Path) -> list[dict]:
    """Load span events from JSONL files and/or directories of them.

    Directories contribute every ``*.jsonl`` inside (the spool's
    ``trace/`` layout).  Lines that are not valid ``unsnap-trace-v1``
    events -- foreign files, a line cut short by a crash -- are skipped,
    never fatal.  Spans come back sorted by start time.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    files: list[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.glob("*.jsonl")))
        else:
            files.append(entry)
    spans = []
    for file in files:
        try:
            text = file.read_text(encoding="utf-8")
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict) and event.get("format") == TRACE_FORMAT:
                spans.append(event)
    spans.sort(key=lambda s: (s.get("start", 0.0), s.get("span_id", "")))
    return spans


def default_trace_path(base: str | Path, name: str) -> Path:
    """The conventional per-process trace file under a shared directory."""
    safe = "".join(c if c.isalnum() or c in "._-" else "-" for c in name)
    return Path(base) / f"{safe}.jsonl"
