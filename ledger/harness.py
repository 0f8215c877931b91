"""Plumbing shared by every ledger workload.

Nothing here knows a workload: it pins the process environment, provides the
statistics the reports use, the in-memory span recorder of the traced pass,
temp-directory and child-process hygiene, and the provenance block.

Importing this module has no side effects; ``run.py`` calls
:func:`pin_environment` before numpy or ``repro`` are imported.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lands here (git-ignored): reports, trace
#: files, temp spools/stores and the cffi kernel build cache.
OUT = LEDGER_DIR / "out"

#: BLAS/OpenMP pools are pinned to one thread so that the only parallelism
#: in a run is the one the workload asks the program for.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class LedgerError(RuntimeError):
    """The benchmark cannot run here (missing source tree, no compiled tier)."""


# ------------------------------------------------------------- environment
def pin_environment() -> None:
    """Pin threads, route temp files into the checkout, expose ``src/``.

    ``TMPDIR`` matters twice: the program's cffi provider caches its built
    kernel under ``tempfile.gettempdir()``, and spawned ``unsnap`` children
    create their spools there -- both must stay inside the checkout.
    """
    os.environ.update(THREAD_PINS)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None  # forget a directory cached before the pin
    inherited = os.environ.get("PYTHONPATH", "")
    if str(SRC) not in inherited.split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), inherited) if p)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # A TERM from a supervisor must unwind through the finally blocks that
    # reap serve/worker children and remove temp directories.
    signal.signal(signal.SIGTERM, _raise_exit)


def _raise_exit(signum, _frame):
    raise SystemExit(128 + signum)


def import_program():
    """Import ``repro`` (timed) and insist on the compiled sweep tier.

    Returns ``(module, import_seconds, provider_name)``.  The ledger never
    falls back to a slower engine: every number it reports is the compiled
    tier's, so an environment without it is an error, not a degraded run.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise LedgerError(f"program source not found under {SRC}")
    t0 = time.perf_counter()
    import repro

    seconds = time.perf_counter() - t0
    try:
        engine = repro.get_engine("compiled")
    except KeyError as exc:
        raise LedgerError(f"compiled sweep tier unavailable: {exc.args[0]}") from None
    return repro, seconds, engine.provider_name


def warm_up(repro, spec) -> None:
    """One untimed solve of ``spec`` shrunk to 2x2x2 cells.

    Loads (first run in a checkout: builds) the compiled kernel and the lazy
    numpy/scipy paths of this spec's order and driver.  Users pay that once
    per machine, so it is kept out of every timing; the per-run cold factor
    build is not touched by this and stays in.
    """
    repro.run(spec.with_(nx=2, ny=2, nz=2))


# -------------------------------------------------------------- statistics
def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def tail(values) -> dict | None:
    """The highest percentile with at least ten samples beyond it.

    Below 40 samples that percentile is under p75 and says nothing the
    quartiles do not, so none is reported.
    """
    ordered = sorted(values)
    if len(ordered) < 40:
        return None
    return {
        "percentile": round(100.0 * (1.0 - 10.0 / len(ordered)), 1),
        "value": float(ordered[-11]),
    }


def describe(values) -> dict:
    """Median, sample count, quartiles, tail and the raw samples."""
    values = [float(v) for v in values]
    q1, q3 = quartiles(values)
    return {
        "value": median(values),
        "n": len(values),
        "q1": q1,
        "q3": q3,
        "tail": tail(values),
        "samples": values,
    }


def timed(call):
    """``(seconds, value)`` of one call."""
    t0 = time.perf_counter()
    value = call()
    return time.perf_counter() - t0, value


class Tally:
    """Operations attempted and failed, with a note per failed check.

    Every workload counts an operation that errors, times out, is refused or
    fails its correctness check here; none is dropped silently.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        self.notes.append(note)

    def outcome(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "notes": self.notes[:20]}


def keep_sampling(samples, began: float, seconds: float, floor: int) -> bool:
    """Whether a closed loop should start another operation.

    The sample-count floor comes first; beyond it an operation starts only
    if one of typical length would still end inside the measuring time, so a
    run of multi-second operations does not overshoot ``--seconds`` by one.
    """
    if len(samples) < floor:
        return True
    return time.perf_counter() - began + median(samples) <= seconds


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set of this process, in MiB; optionally the largest child too.

    ``RUSAGE_CHILDREN`` covers every child already waited for -- pool workers,
    but also the C compiler of the first run in a checkout -- so only the
    workload that has pool workers asks for it.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # Linux reports KiB


def process_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB (0 if it is already gone)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    return 0.0


# ------------------------------------------------------------------ spans
class Span:
    __slots__ = ("name", "start", "end", "parent", "rep", "attrs", "index")

    def __init__(self, name, start, parent, rep, attrs, index):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rep = rep
        self.attrs = attrs
        self.index = index

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder of the traced pass.

    A span is opened around each call into a layer of the program; spans
    nest by call order and share the repetition id current when they open.
    Durations the program itself reports (``SweepResult.timings``, telemetry
    phases) are attached as *reported* children of the span they were
    measured inside, so self time -- a span minus what its children cover --
    separates, say, sweep orchestration from kernel time.  Nothing is
    written until :meth:`write`, after the pass has ended.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = {}
        self.rep = 0
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].index if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.rep, attrs, len(self.spans))
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def reported(self, parent: Span, name: str, seconds: float, **attrs) -> Span:
        """Attach a duration the program reported for work inside ``parent``."""
        span = Span(name, parent.start, parent.index, parent.rep,
                    {**attrs, "reported": True}, len(self.spans))
        span.end = parent.start + float(seconds)
        self.spans.append(span)
        return span

    def count(self, name: str, value: float) -> None:
        """Record a count taken at the same boundary as the current span."""
        self.counts.setdefault(name, []).append(float(value))

    def select(self, name: str, **attrs) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())
        ]

    def seconds(self, name: str, **attrs) -> list[float]:
        return [s.seconds for s in self.select(name, **attrs)]

    def self_seconds(self, name: str, **attrs) -> list[float]:
        """Each matching span's duration minus what its children cover."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.seconds
        return [s.seconds - covered.get(s.index, 0.0) for s in self.select(name, **attrs)]

    def exact_count(self, name: str) -> float:
        """A count that must repeat exactly across the repetitions of a pass."""
        values = self.counts.get(name, [])
        if not values:
            return 0.0
        if any(v != values[0] for v in values):
            raise AssertionError(f"count {name} did not repeat exactly: {values}")
        return values[0]

    def overhead_seconds(self) -> float:
        """Time this pass spent in span bookkeeping (calibrated, not guessed)."""
        scratch = Tracer()
        rounds = 2000
        t0 = time.perf_counter()
        for _ in range(rounds):
            with scratch.span("calibrate"):
                pass
        return (time.perf_counter() - t0) / rounds * len(self.spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "id": span.index,
                    "rep": span.rep,
                    "attrs": span.attrs,
                }) + "\n")
            for name, values in self.counts.items():
                handle.write(json.dumps({"count": name, "values": values}) + "\n")


# ------------------------------------------------------ files and children
@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A private directory under ``ledger/out/tmp`` removed on every exit path."""
    path = Path(tempfile.mkdtemp(prefix=f"{prefix}-{uuid.uuid4().hex[:6]}-"))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def reap(proc: subprocess.Popen, *, interrupt: bool, timeout: float = 20.0) -> None:
    """Stop a child and wait for it; escalate to kill so none is orphaned."""
    if proc.poll() is None and interrupt:
        proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=timeout)
    finally:
        for stream in (proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()


# -------------------------------------------------------------- provenance
def provenance(provider: str, import_seconds: float) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "thread_pins": dict(THREAD_PINS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiled_provider": provider,
        "git_commit": commit,
        "platform": platform.platform(),
        "import_seconds": import_seconds,
    }
