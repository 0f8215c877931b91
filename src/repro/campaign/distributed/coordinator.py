"""The ``distributed`` execution backend: coordinator side of the spool.

The coordinator turns a batch of :class:`~repro.campaign.workitem.
WorkItem`\\ s into spool jobs and streams completions back through the
``execute_iter`` backend contract.  It owns the campaign-level policy:

* **store short-circuit** -- points already present in the spool's shared
  :class:`~repro.campaign.store.ResultStore` are yielded immediately
  without queueing (a resumed or sharded-then-merged campaign executes
  zero new runs);
* **cost-aware dispatch** -- jobs are published largest cost estimate
  first, so the cubic stragglers start before the cheap linear points and
  the tail of the campaign is short;
* **work stealing** -- a claim whose owner's heartbeat (and the claim
  itself) went stale past the lease is stolen and the job republished
  with its attempt counter bumped; a job found in neither ``jobs/`` nor
  ``claims/`` nor ``done/`` (e.g. quarantined as corrupt) is likewise
  republished from the coordinator's own copy of the work item;
* **worker supply** -- with no live workers on the spool and no
  ``launcher``, the coordinator spawns local ``unsnap worker``
  subprocesses (``workers=N`` forces the count, ``workers=0`` forbids
  spawning -- e.g. when external workers are expected); a
  :class:`~repro.campaign.distributed.launcher.SshLauncher` starts them
  on remote hosts instead.  Workers the coordinator started are drained
  with the STOP marker when the campaign ends.

Results are bit-for-bit identical to the ``serial`` backend: workers call
the same :func:`repro.run` on the same specs and the store's JSON
round-trip is exact (the cross-engine conformance matrix asserts this by
auto-discovering the backend from the registry).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator, Sequence

from ...obs.trace import current_trace
from ...runner import RunResult
from ..backends import register_backend
from ..workitem import WorkItem, as_work_items, order_by_cost
from .spool import COORDINATOR, SpoolDir, done_name

__all__ = ["DistributedBackend", "worker_command"]

#: Environment knobs (explicit constructor arguments win over all of them).
ENV_SPOOL_DIR = "UNSNAP_SPOOL_DIR"
ENV_LEASE = "UNSNAP_SPOOL_LEASE"
ENV_POLL = "UNSNAP_SPOOL_POLL"
ENV_WORKERS = "UNSNAP_SPOOL_WORKERS"

DEFAULT_LEASE_SECONDS = 15.0
DEFAULT_POLL_SECONDS = 0.1
DEFAULT_WORKERS = 2
#: A failed marker open costs about as much as listing this many names in
#: ``done/`` (11 us against 0.5 us on local disk): the drain's break-even.
_OPENS_PER_NAME = 20


def worker_command(
    spool_dir: Path,
    *,
    poll_seconds: float,
    heartbeat_seconds: float,
) -> list[str]:
    """The argv that starts one local worker subprocess on this interpreter."""
    return [
        sys.executable,
        "-m",
        "repro.cli",
        "worker",
        str(spool_dir),
        "--poll",
        str(poll_seconds),
        "--heartbeat",
        str(heartbeat_seconds),
    ]


def _quarantine_note(spool: SpoolDir) -> str:
    """Quarantine count and reason excerpts, for drain-error messages.

    Quarantined payloads are usually *why* a campaign is wedged or slow
    (each one costs a republish); surfacing them in the error beats
    leaving them discoverable only by listing ``quarantine/``.
    """
    entries = spool.quarantined()
    if not entries:
        return ""
    excerpts = "; ".join(
        f"{entry['name']}: {entry['reason'][:80] or '(no reason recorded)'}"
        for entry in entries[:3]
    )
    more = f" (+{len(entries) - 3} more)" if len(entries) > 3 else ""
    return f" [{len(entries)} quarantined job(s): {excerpts}{more}]"


def _env_float(name: str, fallback: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return fallback
    try:
        return float(raw)
    except ValueError:
        return fallback


class DistributedBackend:
    """Runs fanned out to spool workers on any number of hosts.

    Parameters (every one defaults from an ``UNSNAP_SPOOL_*`` environment
    variable, so ``--backend distributed`` works untouched from the CLI):

    spool_dir:
        The shared spool directory.  ``None`` (and no ``UNSNAP_SPOOL_DIR``)
        means a private temporary spool, local workers, and cleanup on
        completion -- the "just parallelise this machine" mode.
    lease_seconds:
        Claim lease: a claim is stolen once claim file *and* owner
        heartbeat are both older than this.
    poll_seconds:
        Coordinator poll period (also the spawned workers' queue poll): the
        longest wait when no doorbell rings, since a done marker or a
        publish wakes a same-host waiter at once.
    workers:
        Local workers to spawn.  ``None``: spawn only when the spool has no
        live workers (count = ``jobs`` or {DEFAULT_WORKERS}); ``0``: never
        spawn (external workers expected); ``N``: always spawn N.
    launcher:
        Optional object with ``start(spool_dir) -> list[Popen]`` and
        ``stop()`` (see :class:`~repro.campaign.distributed.launcher.
        SshLauncher`) starting workers elsewhere; suppresses local spawns.
    max_attempts:
        Executions allowed per point before its failure is surfaced.
    timeout_seconds:
        Overall campaign deadline (``None``: none).
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` accumulating
        coordinator counters (``distributed.*``).
    """

    def __init__(
        self,
        *,
        spool_dir: str | Path | None = None,
        lease_seconds: float | None = None,
        poll_seconds: float | None = None,
        workers: int | None = None,
        launcher=None,
        max_attempts: int = 3,
        timeout_seconds: float | None = None,
        heartbeat_seconds: float | None = None,
        telemetry=None,
    ):
        self.spool_dir = spool_dir
        self.lease_seconds = lease_seconds
        self.poll_seconds = poll_seconds
        self.workers = workers
        self.launcher = launcher
        self.max_attempts = int(max_attempts)
        self.timeout_seconds = timeout_seconds
        self.heartbeat_seconds = heartbeat_seconds
        self.telemetry = telemetry

    # ------------------------------------------------------- backend contract
    def execute_iter(
        self, items: Sequence, *, jobs: int | None = None
    ) -> Iterator[tuple[int, RunResult, dict]]:
        """Stream ``(index, result, meta)`` as spool workers finish points.

        ``meta`` carries ``worker_id``, ``attempts`` and
        ``queue_wait_seconds`` per point (``worker_id="store"`` with zero
        attempts for store short-circuits), which :func:`repro.run_study`
        lands in the study records.
        """
        items = as_work_items(items)
        if not items:
            return

        lease = (
            float(self.lease_seconds)
            if self.lease_seconds is not None
            else _env_float(ENV_LEASE, DEFAULT_LEASE_SECONDS)
        )
        poll = (
            float(self.poll_seconds)
            if self.poll_seconds is not None
            else _env_float(ENV_POLL, DEFAULT_POLL_SECONDS)
        )
        heartbeat = (
            float(self.heartbeat_seconds)
            if self.heartbeat_seconds is not None
            else max(0.2, lease / 10.0)
        )

        spool_root = self.spool_dir or os.environ.get(ENV_SPOOL_DIR, "").strip() or None
        temp_spool = spool_root is None
        if temp_spool:
            spool_root = tempfile.mkdtemp(prefix="unsnap-spool-")
        spool = SpoolDir(spool_root)
        store = spool.store

        procs: list[subprocess.Popen] = []
        launched = False
        try:
            # A STOP left behind by a previous campaign would drain the
            # workers we are about to start; publishing work implies go.
            spool.clear_stop()

            # Store short-circuit: merged/resumed points cost zero new runs.
            outstanding: dict[int, WorkItem] = {}
            for item in items:
                hit = store.get(item) if store.contains(item) else None
                if hit is not None:
                    self._incr("distributed.store_hits")
                    yield (
                        item.index,
                        hit,
                        {"worker_id": "store", "attempts": 0, "queue_wait_seconds": 0.0},
                    )
                else:
                    outstanding[item.index] = item

            if not outstanding:
                return

            # The ambient trace context (set by a traced daemon job or
            # `unsnap study --trace`) rides every published payload, so the
            # executing workers' spans join the caller's trace.  No ambient
            # context -- the default -- publishes byte-identical payloads.
            ambient = current_trace()
            trace = None if ambient is None else ambient.to_dict()

            attempts = {index: 1 for index in outstanding}
            for item in order_by_cost(list(outstanding.values())):
                spool.publish(
                    item, attempts=1, max_attempts=self.max_attempts, trace=trace
                )
                self._incr("distributed.points_dispatched")

            procs, launched = self._supply_workers(
                spool,
                lease=lease,
                poll=poll,
                heartbeat=heartbeat,
                jobs=jobs,
                pending=len(outstanding),
            )

            yield from self._drain(
                spool,
                outstanding,
                attempts,
                procs=procs,
                lease=lease,
                poll=poll,
                trace=trace,
            )
        finally:
            if procs or launched or temp_spool:
                spool.request_stop()
            for proc in procs:
                try:
                    proc.wait(timeout=max(2.0, 10 * poll))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5.0)
            if launched:
                self.launcher.stop()
            if temp_spool:
                shutil.rmtree(spool_root, ignore_errors=True)

    # ------------------------------------------------------------ internals
    def _incr(self, counter: str, value: float = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.incr(counter, value)

    def _supply_workers(
        self,
        spool: SpoolDir,
        *,
        lease: float,
        poll: float,
        heartbeat: float,
        jobs: int | None,
        pending: int,
    ) -> tuple[list[subprocess.Popen], bool]:
        """Start workers per policy; returns (local procs, launcher used)."""
        if self.launcher is not None:
            self.launcher.start(spool.root)
            return [], True
        requested = self.workers
        if requested is None:
            raw = os.environ.get(ENV_WORKERS, "").strip()
            requested = int(raw) if raw.isdigit() else None
        if requested is None:
            if spool.live_workers(lease):
                return [], False  # external workers already serve this spool
            requested = min(jobs or DEFAULT_WORKERS, pending)
        count = min(int(requested), pending)
        if count <= 0:
            return [], False
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parents[3])
        parts = [src_dir, env.get("PYTHONPATH", "")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in parts if p)
        procs = [
            subprocess.Popen(
                worker_command(spool.root, poll_seconds=poll, heartbeat_seconds=heartbeat),
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            for _ in range(count)
        ]
        self._incr("distributed.workers_spawned", count)
        return procs, False

    def _drain(
        self,
        spool: SpoolDir,
        outstanding: dict[int, WorkItem],
        attempts: dict[int, int],
        *,
        procs: list[subprocess.Popen],
        lease: float,
        poll: float,
        trace: dict | None = None,
    ) -> Iterator[tuple[int, RunResult, dict]]:
        """Wait on the spool until every outstanding point completes (or fails).

        The drain's own doorbell (bound before the first marker look, so
        two concurrent drains never take each other's ring) wakes it when
        any done marker lands.  Each wake reads only outstanding points'
        markers, and finds them the cheaper way: a direct open per point
        while few are outstanding (a service drain waits on one), one
        listing of ``done/`` while opening every outstanding marker would
        cost more than listing the names the last listing saw.
        """
        with spool.doorbell(COORDINATOR) as bell:
            store = spool.store
            started = time.time()
            last_recovery = 0.0
            # Names in done/ at the last listing; before the first, one open's
            # worth, so a lone outstanding point is always opened directly.
            listed = _OPENS_PER_NAME
            # run_key hashes the whole spec (~0.5 ms): once per point, not per wake.
            key16s = {index: item.run_key[:16] for index, item in outstanding.items()}
            while outstanding:
                progressed = False
                names = None
                if len(outstanding) * _OPENS_PER_NAME > listed:
                    names = spool.done_names()
                    listed = len(names)
                for index, item in list(outstanding.items()):
                    key16 = key16s[index]
                    if names is not None and done_name(index, key16) not in names:
                        continue
                    meta = spool.done_marker(index, key16)
                    if meta is None:
                        continue
                    if meta.get("error"):
                        raise RuntimeError(
                            f"distributed run {index} failed after "
                            f"{meta.get('attempts', '?')} attempts on worker "
                            f"{meta.get('worker_id', '?')}: {meta['error']}"
                            f"{_quarantine_note(spool)}"
                        )
                    result = store.get(item)
                    if result is None:
                        # Marker without record: the protocol writes the record
                        # first, so this is damage -- retract the marker and
                        # re-execute the point.
                        spool.clear_done(index, key16)
                        self._republish(spool, item, attempts, trace=trace)
                        continue
                    self._incr(
                        "distributed.queue_wait_seconds", meta.get("queue_wait_seconds", 0.0)
                    )
                    del outstanding[index]
                    progressed = True
                    yield index, result, dict(meta)
                if not outstanding:
                    return
                if progressed:
                    continue

                now = time.time()
                if now - last_recovery >= min(poll * 5, lease / 3):
                    last_recovery = now
                    self._recover(
                        spool, outstanding, attempts, lease=lease, now=now, trace=trace
                    )

                if self.timeout_seconds is not None and now - started > self.timeout_seconds:
                    raise RuntimeError(
                        f"distributed campaign timed out after {self.timeout_seconds}s "
                        f"with {len(outstanding)} points outstanding"
                        f"{_quarantine_note(spool)}"
                    )
                if (
                    procs
                    and all(proc.poll() is not None for proc in procs)
                    and not spool.live_workers(lease)
                ):
                    codes = sorted({proc.returncode for proc in procs})
                    raise RuntimeError(
                        f"all {len(procs)} spawned spool workers exited "
                        f"(return codes {codes}) with {len(outstanding)} points outstanding"
                        f"{_quarantine_note(spool)}"
                    )
                bell.wait(poll)

    def _recover(
        self,
        spool: SpoolDir,
        outstanding: dict[int, WorkItem],
        attempts: dict[int, int],
        *,
        lease: float,
        now: float,
        trace: dict | None = None,
    ) -> None:
        """Steal stale claims and republish lost jobs (the healing pass)."""
        pending = spool.pending_indexes()
        claimed = set()
        for claim in spool.claims():
            if claim.index not in outstanding:
                continue
            claimed.add(claim.index)
            if spool.claim_age(claim, now) > lease:
                if spool.steal(claim):
                    self._incr("distributed.claims_stolen")
                    self._republish(
                        spool, outstanding[claim.index], attempts, trace=trace
                    )
        for index, item in outstanding.items():
            if (
                index not in pending
                and index not in claimed
                and spool.done_marker(index, item.run_key[:16]) is None
            ):
                # Quarantined, crashed mid-rename, or swept away: requeue.
                self._republish(spool, item, attempts, trace=trace)

    def _republish(
        self,
        spool: SpoolDir,
        item: WorkItem,
        attempts: dict[int, int],
        *,
        trace: dict | None = None,
    ) -> None:
        attempts[item.index] += 1
        self._incr("distributed.points_recovered")
        spool.publish(
            item,
            attempts=min(attempts[item.index], self.max_attempts),
            max_attempts=self.max_attempts,
            trace=trace,
        )


register_backend(
    "distributed",
    aliases=("spool", "cluster"),
    description="Runs fanned out to spool workers on any number of hosts "
    "(work stealing, shared result store; bit-for-bit equal to serial).",
)(DistributedBackend())
