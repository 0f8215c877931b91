"""Phase-level telemetry: wall-clock phases, counters and gauges.

The paper's claim is about *performance*, so the execution paths need an
instrument that can say where the time went -- not just the aggregate
assemble/solve split of :class:`~repro.core.assembly.AssemblyTimings`.  A
:class:`Telemetry` object is threaded through :func:`repro.run` ->
:class:`~repro.core.solver.TransportSolver` /
:class:`~repro.parallel.block_jacobi.BlockJacobiDriver` ->
:class:`~repro.core.iteration.IterationController` ->
:meth:`~repro.core.sweep.SweepExecutor.sweep` and records:

* **phases** -- nested wall-clock sections (``setup``, ``solve``,
  ``solve.source``, ``solve.sweep``, ``solve.halo``, ...), identified by the
  dotted path of the enclosing phases, with per-phase call counts;
* **counters** -- monotonically accumulated event counts (local solves,
  factor-cache hits/misses, halo bytes);
* **gauges** -- last-written point-in-time values (octant-pool occupancy).

Telemetry is strictly opt-in: every instrumented call site keeps the object
optional (``telemetry=None``) and guards with a single ``is None`` check (or
a no-op context manager), so a run without telemetry executes the exact same
arithmetic with no timer calls, no allocations and no locks on the hot path
-- the zero-overhead contract asserted by ``tests/bench/test_telemetry.py``.
Numerics are never affected either way: telemetry only ever *observes*.

Phase nesting is tracked per thread, so octant-pool workers incrementing
counters concurrently are safe (counter updates take a lock) while phase
paths stay well-formed on the thread that opened them.
"""

from __future__ import annotations

import threading
import time

__all__ = ["Telemetry", "PhaseTimer", "BucketSampler", "NULL_PHASE", "active", "phase"]


class _NullPhase:
    """Shared no-op context manager returned by disabled telemetry."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: The singleton no-op phase returned by :func:`phase` for ``None``.
NULL_PHASE = _NullPhase()


def active(telemetry: "Telemetry | None") -> "Telemetry | None":
    """Normalise an optional instrument for instrumented code: disabled
    instances become ``None``, so call sites need only one ``is None`` test
    (and must never use truthiness -- a fresh instrument is empty)."""
    return telemetry if telemetry is not None and telemetry.enabled else None


def phase(telemetry: "Telemetry | None", name: str):
    """``telemetry.phase(name)``, or the shared no-op context for ``None``.

    The standard guard for instrumented sections::

        tel = active(self.telemetry)
        with phase(tel, "source"):
            ...
    """
    return NULL_PHASE if telemetry is None else telemetry.phase(name)


class PhaseTimer:
    """Times one phase of one :class:`Telemetry` (use via ``tel.phase``)."""

    __slots__ = ("_telemetry", "_name", "_t0")

    def __init__(self, telemetry: "Telemetry", name: str):
        self._telemetry = telemetry
        self._name = name

    def __enter__(self) -> "PhaseTimer":
        self._telemetry._push(self._name)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        seconds = time.perf_counter() - self._t0
        self._telemetry._pop(seconds)
        return False


class BucketSampler:
    """Deterministic per-bucket sampler for fine-grained sweep telemetry.

    Phase timers bracket whole sweeps; engines additionally offer *bucket
    sampling* -- timing a deterministic subset of their buckets, each solved
    by a call of its own.  A Bresenham accumulator picks every ``1/rate``-th
    bucket with no RNG, so two identical runs sample identical buckets and
    the counters are reproducible.

    Engines obtain a sampler via :meth:`Telemetry.bucket_sampler`, which
    returns ``None`` when the instrument is disabled or the rate is zero --
    the standard ``is None`` guard keeps the rate-0 path free of timer calls
    and allocations (asserted by ``tests/bench/test_bucket_sampling.py``).
    """

    __slots__ = ("_telemetry", "rate", "_acc")

    def __init__(self, telemetry: "Telemetry", rate: float):
        self._telemetry = telemetry
        self.rate = rate
        self._acc = 0.0

    def want(self) -> bool:
        """True when the current bucket should be timed (advances the
        accumulator; call exactly once per bucket)."""
        self._acc += self.rate
        if self._acc >= 1.0:
            self._acc -= 1.0
            return True
        return False

    def record(self, seconds: float, systems: int) -> None:
        """Fold one sampled bucket's timing into the instrument's counters
        (``bucket_samples`` / ``bucket_sample_seconds`` /
        ``bucket_sample_systems``)."""
        tel = self._telemetry
        with tel._lock:
            tel.counters["bucket_samples"] = tel.counters.get("bucket_samples", 0) + 1
            tel.counters["bucket_sample_seconds"] = (
                tel.counters.get("bucket_sample_seconds", 0) + seconds
            )
            tel.counters["bucket_sample_systems"] = (
                tel.counters.get("bucket_sample_systems", 0) + systems
            )


class Telemetry:
    """Collects phase timings, counters and gauges of one run.

    Parameters
    ----------
    enabled:
        A disabled instance is a cheap universal no-op: ``phase`` returns the
        shared null context and ``incr``/``gauge`` return immediately, so an
        instrument can be handed around unconditionally and switched off in
        one place.
    bucket_sample_rate:
        Fraction of the sweep's buckets the engines time individually (0
        disables bucket sampling entirely; 1 times every bucket).  See
        :class:`BucketSampler`.
    """

    def __init__(self, enabled: bool = True, bucket_sample_rate: float = 0.0):
        rate = float(bucket_sample_rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("bucket_sample_rate must be within [0, 1]")
        self.enabled = bool(enabled)
        self.bucket_sample_rate = rate
        #: Dotted phase path -> accumulated wall seconds.
        self.phase_seconds: dict[str, float] = {}
        #: Dotted phase path -> number of times the phase was entered.
        self.phase_calls: dict[str, int] = {}
        #: Counter name -> accumulated value (ints stay ints).
        self.counters: dict[str, float] = {}
        #: Gauge name -> last written value.
        self.gauges: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Optional span exporter (see :class:`repro.obs.trace.SpanExporter`):
        #: when attached, every phase enter/exit additionally emits one
        #: ``unsnap-trace-v1`` span event.  ``None`` (the default) keeps the
        #: hooks on the exact pre-tracing path -- one ``is None`` test, no
        #: timer calls, no allocations -- mirroring the telemetry contract
        #: one level up.
        self.exporter = None
        self.exporter_context = None

    # -------------------------------------------------------------- tracing
    def attach_exporter(self, exporter, context=None) -> "Telemetry":
        """Attach a span exporter so phases export as trace spans.

        ``context`` optionally pins the trace/parent identity the phase
        spans belong to (e.g. the job's ``service.execute`` span); without
        it the exporter's own default context applies.  Returns ``self``
        for chaining.  Strictly additive: numerics are bit-identical with
        or without an exporter (asserted by the engine contract's
        telemetry clause).
        """
        self.exporter = exporter
        self.exporter_context = context
        return self

    # -------------------------------------------------------------- phases
    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def phase(self, name: str) -> "PhaseTimer | _NullPhase":
        """Context manager timing a (possibly nested) phase.

        Nested phases are recorded under the dotted path of their enclosing
        phases on the *same thread* (``solve.sweep``), so the breakdown is a
        tree flattened by path.
        """
        if not self.enabled:
            return NULL_PHASE
        return PhaseTimer(self, name)

    def _push(self, name: str) -> None:
        stack = self._stack()
        stack.append(f"{stack[-1]}.{name}" if stack else name)
        if self.exporter is not None:
            self.exporter.phase_started(stack[-1], self.exporter_context)

    def _pop(self, seconds: float) -> None:
        path = self._stack().pop()
        with self._lock:
            self.phase_seconds[path] = self.phase_seconds.get(path, 0.0) + seconds
            self.phase_calls[path] = self.phase_calls.get(path, 0) + 1
        if self.exporter is not None:
            self.exporter.phase_finished(path, seconds, self.exporter_context)

    # ------------------------------------------------------ bucket sampling
    def bucket_sampler(self) -> "BucketSampler | None":
        """A fresh :class:`BucketSampler`, or ``None`` when sampling is off.

        Engines request one sampler per ``sweep_angle`` call::

            sampler = None if tel is None else tel.bucket_sampler()
            ...
            sample = sampler is not None and sampler.want()

        ``None`` (disabled instrument, or ``bucket_sample_rate`` 0) keeps the
        bucket loop on the exact uninstrumented path.
        """
        if not self.enabled or self.bucket_sample_rate <= 0.0:
            return None
        return BucketSampler(self, self.bucket_sample_rate)

    # ---------------------------------------------------- counters / gauges
    def incr(self, counter: str, value: float = 1) -> None:
        """Accumulate ``value`` onto a named counter (thread-safe)."""
        if not self.enabled:
            return
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record a point-in-time value (last write wins)."""
        if not self.enabled:
            return
        with self._lock:
            self.gauges[name] = value

    # ------------------------------------------------------------- export
    def to_dict(self) -> dict:
        """JSON-safe export: phases (seconds + calls), counters, gauges.

        Keys are sorted so the export is deterministic; numeric values
        round-trip bit for bit through JSON (doubles serialise exactly).
        """
        return {
            "phases": {
                path: {
                    "seconds": self.phase_seconds[path],
                    "calls": self.phase_calls.get(path, 0),
                }
                for path in sorted(self.phase_seconds)
            },
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name] for name in sorted(self.gauges)},
        }

    def snapshot(self) -> dict:
        """Point-in-time :meth:`to_dict`, safe while a run is still mutating
        the instrument.

        :meth:`to_dict` reads the phase/counter dicts without the lock -- the
        normal export happens after the run.  The service gateway's progress
        stream instead samples a *live* instrument from another thread, so
        this variant takes the counter lock for a consistent copy.
        """
        with self._lock:
            return self.to_dict()

    @classmethod
    def from_dict(cls, data: dict) -> "Telemetry":
        """Rebuild a telemetry snapshot from :meth:`to_dict` output."""
        tel = cls()
        for path, entry in data.get("phases", {}).items():
            tel.phase_seconds[path] = float(entry["seconds"])
            tel.phase_calls[path] = int(entry.get("calls", 0))
        for name, value in data.get("counters", {}).items():
            tel.counters[name] = value
        for name, value in data.get("gauges", {}).items():
            tel.gauges[name] = value
        return tel

    def merge(self, other: "Telemetry") -> "Telemetry":
        """Fold another snapshot into this one (phases/counters add, gauges
        last-write-wins) and return ``self`` -- the multi-rank reduction."""
        with self._lock:
            for path, seconds in other.phase_seconds.items():
                self.phase_seconds[path] = self.phase_seconds.get(path, 0.0) + seconds
            for path, calls in other.phase_calls.items():
                self.phase_calls[path] = self.phase_calls.get(path, 0) + calls
            for name, value in other.counters.items():
                self.counters[name] = self.counters.get(name, 0) + value
            self.gauges.update(other.gauges)
        return self

    # ------------------------------------------------------------ reading
    def total_seconds(self, prefix: str = "") -> float:
        """Summed wall seconds of every *top-level* phase under ``prefix``."""
        depth = prefix.count(".") + 1 if prefix else 0
        total = 0.0
        for path, seconds in self.phase_seconds.items():
            if prefix and not path.startswith(f"{prefix}."):
                continue
            if path.count(".") == depth and (not prefix or path != prefix):
                total += seconds
        return total

    @property
    def empty(self) -> bool:
        """True when nothing was recorded yet.

        Deliberately *not* ``__bool__``: an instrument must stay truthy in
        ``if tel`` guards even before its first record.
        """
        return not (self.phase_seconds or self.counters or self.gauges)
