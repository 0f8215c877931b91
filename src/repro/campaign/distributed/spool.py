"""The spool directory: a dependency-free multi-host work queue.

A :class:`SpoolDir` is a directory on a filesystem every participant can
see (local disk for same-machine workers, NFS/sshfs for a cluster).  Its
files *are* the protocol -- there is no server and no lock file::

    spool/
      store/        shared ResultStore (the merge point for results)
      jobs/         claimable job files, one per pending WorkItem
      claims/       jobs currently owned by a worker
      done/         one marker per finished job (execution metadata)
      workers/      one heartbeat file per live worker
      quarantine/   job files whose payload failed to parse
      trace/        per-participant unsnap-trace-v1 span files (opt-in)
      bells/        one doorbell socket per waiting worker or coordinator
      STOP          cooperative shutdown marker (drains idle workers)

Three filesystem properties carry the whole design:

* ``os.rename`` within a directory tree is **atomic** -- claiming a job is
  one rename from ``jobs/`` into ``claims/``; exactly one contender wins
  and the loser's rename raises.  Ownership is encoded in the *name* of
  the claim file (``...@worker_id.json``), so there is no read-modify-
  write anywhere.
* File **mtimes are monotone enough for leases**: a worker touches its
  heartbeat file every second or so; a claim whose owner heartbeat (and
  the claim itself) went stale past the lease is presumed orphaned and
  the coordinator re-queues it (work stealing).
* Job file **names sort in dispatch order**: the name embeds an inverted
  cost priority, so a plain lexicographic directory listing yields the
  most expensive pending point first.

Re-execution is harmless by construction: results land in the shared
:class:`~repro.campaign.store.ResultStore` under the content
``run_key`` -- a stolen-then-finished-twice job writes the same bytes
twice.  The done marker is written *before* the claim is removed, so a
job observed in neither ``jobs/`` nor ``claims/`` nor ``done/`` was
genuinely lost (e.g. quarantined) and must be republished.

The bells only wake; they carry no state.  Each waiter (one per
:class:`~repro.campaign.distributed.worker.SpoolWorker`, one per
coordinator drain) binds a :class:`Doorbell` -- a unix datagram socket in
``bells/`` -- before its first look at the files, and every writer rings
the other role's bells after its atomic rename: :meth:`SpoolDir.publish`
and :meth:`SpoolDir.request_stop` wake the workers, a done marker wakes
the coordinators.  A waiter that cannot bind (no ``AF_UNIX``, a socket
path longer than ``sun_path``, a filesystem that refuses sockets) and a
ring that never arrives (another host on NFS) both cost what polling
costs: the next look at the files one poll period later.
"""

from __future__ import annotations

import json
import os
import re
import socket
import time
from dataclasses import dataclass
from pathlib import Path

from ..store import ResultStore
from ..workitem import WorkItem

__all__ = ["Doorbell", "SpoolDir", "SpoolClaim", "worker_identity"]

#: Format marker embedded in every job payload (reject foreign files).
JOB_FORMAT = "unsnap-spool-job-v1"

#: Jobs are named ``{priority:016d}-{index:06d}-a{attempts:02d}-{key16}.json``
#: with ``priority = PRIORITY_BASE - cost`` (clamped to >= 0), so *larger*
#: cost means a *smaller* number and lexicographic order dispatches the most
#: expensive work first.  16 digits hold any realistic cost estimate.
PRIORITY_BASE = 10**15

_JOB_NAME = re.compile(
    r"^(?P<priority>\d{16})-(?P<index>\d{6})-a(?P<attempts>\d{2})"
    r"-(?P<key16>[0-9a-f]{16})\.json$"
)
_CLAIM_NAME = re.compile(
    r"^(?P<stem>\d{16}-\d{6}-a\d{2}-[0-9a-f]{16})@(?P<worker_id>[A-Za-z0-9_.-]+)\.json$"
)
_DONE_NAME = re.compile(r"^(?P<index>\d{6})-(?P<key16>[0-9a-f]{16})\.json$")


def done_name(index: int, key16: str) -> str:
    """The file name of one job's done marker in ``done/``."""
    return f"{index:06d}-{key16}.json"


def worker_identity(suffix: str | None = None) -> str:
    """A filesystem-safe worker id: ``host-pid`` (plus an optional suffix)."""
    base = f"{socket.gethostname()}-{os.getpid()}"
    if suffix:
        base = f"{base}-{suffix}"
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", base)


def _job_priority(cost: float) -> int:
    return max(0, PRIORITY_BASE - int(cost))


@dataclass(frozen=True)
class SpoolClaim:
    """One job owned by a worker (the renamed file in ``claims/``)."""

    path: Path
    worker_id: str
    index: int
    attempts: int
    key16: str
    priority: int

    @property
    def job_name(self) -> str:
        """The original ``jobs/`` filename this claim was renamed from."""
        return f"{self.priority:016d}-{self.index:06d}-a{self.attempts:02d}-{self.key16}.json"

    def load(self) -> tuple[WorkItem, dict]:
        """Parse the claimed payload; ``ValueError`` if damaged or foreign."""
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"spool job {self.path.name} is unreadable: {exc}") from None
        if not isinstance(payload, dict) or payload.get("format") != JOB_FORMAT:
            raise ValueError(
                f"spool job {self.path.name} is not a {JOB_FORMAT} payload"
            )
        try:
            item = WorkItem.from_dict(payload["item"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"spool job {self.path.name} has a bad work item: {exc}") from None
        return item, payload


#: Doorbell roles: a ``publish``/``request_stop`` rings ``worker`` bells, a
#: done marker rings ``coordinator`` bells.
WORKER, COORDINATOR = "worker", "coordinator"
#: A bell's file name is its role's initial and 8 hex digits (``c-1f2e3d4c``):
#: short, so the socket path ``{spool}/bells/{name}`` fits ``sun_path`` (108
#: bytes on Linux, 104 on BSD) for spool paths up to about 85 bytes.
_BELL_ROLES = {WORKER[0]: WORKER, COORDINATOR[0]: COORDINATOR}


class Doorbell:
    """One waiter's wake-up socket in ``bells/`` (a ``role``-named datagram socket).

    Bind it *before* the first look at the spool files: a ring that lands
    between that look and :meth:`wait` stays queued in the socket, so the
    wait returns at once.  Advisory only -- :meth:`wait` returns after
    ``timeout`` whether or not anything rang, and a bell that could not be
    bound simply sleeps, which is the polling fallback.
    """

    def __init__(self, bells: Path, role: str):
        self.path = bells / f"{role[0]}-{os.urandom(4).hex()}"
        self._sock = None
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        except (AttributeError, OSError):
            return  # no AF_UNIX on this platform
        try:
            sock.bind(str(self.path))
        except OSError:  # a path past ``sun_path``, or a filesystem that refuses it
            sock.close()
            return
        self._sock = sock

    def wait(self, timeout: float) -> bool:
        """Sleep until rung or ``timeout`` passes; ``True`` if it rang.

        Every queued ring is drained, so one wake answers any number of
        rings that arrived since the last look.
        """
        if self._sock is None:
            time.sleep(timeout)
            return False
        # A socket timeout waits in poll(2), which has no FD_SETSIZE limit.
        self._sock.settimeout(max(0.0, timeout))
        try:
            self._sock.recv(64)
        except OSError:
            return False  # timed out
        self._sock.setblocking(False)
        try:
            while True:
                self._sock.recv(64)
        except OSError:
            pass  # drained
        return True

    def close(self) -> None:
        """Unbind and remove the socket file (idempotent)."""
        if self._sock is None:
            return
        self._sock.close()
        self._sock = None
        try:
            os.unlink(self.path)
        except OSError:
            pass

    def __enter__(self) -> "Doorbell":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SpoolDir:
    """The work-queue directory (see the module docstring for the protocol)."""

    SUBDIRS = (
        "store", "jobs", "claims", "done", "workers", "quarantine", "trace", "bells",
    )

    def __init__(self, root: str | Path):
        self.root = Path(root)
        for name in self.SUBDIRS:
            (self.root / name).mkdir(parents=True, exist_ok=True)

    @property
    def store(self) -> ResultStore:
        """The shared result store every worker writes into."""
        return ResultStore(self.root / "store")

    @property
    def trace_dir(self) -> Path:
        """Where traced participants append their span JSONL files."""
        return self.root / "trace"

    def trace_path(self, name: str) -> Path:
        """The span file a participant (worker, coordinator) writes."""
        safe = re.sub(r"[^A-Za-z0-9_.-]+", "-", name)
        return self.trace_dir / f"{safe}.jsonl"

    # ------------------------------------------------------------- publishing
    def publish(
        self,
        item: WorkItem,
        *,
        attempts: int = 1,
        max_attempts: int = 3,
        trace: dict | None = None,
    ) -> Path:
        """Queue one work item as a claimable job file and return its path.

        ``attempts`` is the execution attempt this publication represents
        (1 for fresh work; the coordinator republishes stolen or lost jobs
        with the counter bumped).  ``trace`` optionally carries the
        publisher's trace context (``{"trace_id": ..., "parent_id": ...}``)
        for the executing worker to continue; absent by default, so
        untraced payloads stay byte-identical to pre-tracing ones.  The
        write is atomic -- temp file then rename -- so a worker never
        claims a half-written job.
        """
        name = (
            f"{_job_priority(item.cost):016d}-{item.index:06d}"
            f"-a{attempts:02d}-{item.run_key[:16]}.json"
        )
        payload = {
            "format": JOB_FORMAT,
            "item": item.to_dict(),
            "run_key": item.run_key,
            "attempts": int(attempts),
            "max_attempts": int(max_attempts),
            "enqueued_at": time.time(),
        }
        if trace:
            payload["trace"] = dict(trace)
        path = self.root / "jobs" / name
        tmp = path.with_name(f".{name}.{worker_identity()}.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
        self.ring(WORKER)
        return path

    def pending(self) -> list[Path]:
        """Unclaimed job files, most expensive first (lexicographic order)."""
        jobs = self.root / "jobs"
        return sorted(p for p in jobs.iterdir() if _JOB_NAME.match(p.name))

    def pending_indexes(self) -> set[int]:
        return {int(_JOB_NAME.match(p.name)["index"]) for p in self.pending()}

    # --------------------------------------------------------------- claiming
    def claim_next(self, worker_id: str) -> SpoolClaim | None:
        """Claim the highest-priority pending job, or ``None`` if idle.

        The claim is a single atomic rename into ``claims/`` with the
        worker's id appended to the name; under contention every loser's
        rename raises and the loop moves to the next job.
        """
        for job in self.pending():
            match = _JOB_NAME.match(job.name)
            target = self.root / "claims" / f"{job.stem}@{worker_id}.json"
            try:
                os.rename(job, target)
            except OSError:
                continue  # lost the race (or the job vanished) -- next one
            return SpoolClaim(
                path=target,
                worker_id=worker_id,
                index=int(match["index"]),
                attempts=int(match["attempts"]),
                key16=match["key16"],
                priority=int(match["priority"]),
            )
        return None

    def claims(self) -> list[SpoolClaim]:
        """Every live claim (jobs currently owned by some worker)."""
        out = []
        for path in sorted((self.root / "claims").iterdir()):
            match = _CLAIM_NAME.match(path.name)
            if not match:
                continue
            job = _JOB_NAME.match(match["stem"] + ".json")
            out.append(
                SpoolClaim(
                    path=path,
                    worker_id=match["worker_id"],
                    index=int(job["index"]),
                    attempts=int(job["attempts"]),
                    key16=job["key16"],
                    priority=int(job["priority"]),
                )
            )
        return out

    def claim_age(self, claim: SpoolClaim, now: float | None = None) -> float:
        """Seconds since the claim *or its owner's heartbeat* last moved.

        The claim file's mtime is fixed at claim time, so a long-running
        healthy job stays "fresh" through its owner's heartbeat; only when
        both are old past the lease is the owner presumed dead.  A vanished
        claim reports age 0 (its owner just completed or released it).
        """
        now = time.time() if now is None else now
        freshest = None
        for path in (claim.path, self.root / "workers" / f"{claim.worker_id}.json"):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            freshest = mtime if freshest is None else max(freshest, mtime)
        if freshest is None:
            return 0.0
        return max(0.0, now - freshest)

    def steal(self, claim: SpoolClaim) -> bool:
        """Remove a (presumed-orphaned) claim so its job can be republished.

        Returns ``False`` if the claim vanished first -- its owner woke up
        and completed or released it, in which case the thief must *not*
        republish.
        """
        try:
            os.unlink(claim.path)
        except OSError:
            return False
        return True

    # -------------------------------------------------------------- finishing
    def complete(self, claim: SpoolClaim, meta: dict) -> Path:
        """Publish a done marker for a claimed job, then drop the claim.

        Marker before claim removal: an observer can see a job both claimed
        and done (benign overlap) but never in limbo -- "neither pending nor
        claimed nor done" always means *lost*.
        """
        path = self._write_done(claim.index, claim.key16, meta)
        try:
            os.unlink(claim.path)
        except OSError:
            pass  # already stolen; the done marker still settles the job
        return path

    def _write_done(self, index: int, key16: str, meta: dict) -> Path:
        name = done_name(index, key16)
        path = self.root / "done" / name
        tmp = path.with_name(f".{name}.{worker_identity()}.tmp")
        tmp.write_text(json.dumps(meta, sort_keys=True))
        os.replace(tmp, path)
        self.ring(COORDINATOR)
        return path

    def done_marker(self, index: int, key16: str) -> dict | None:
        """One job's done-marker metadata, or ``None`` while it is not done.

        A direct open, so a waiter's cost does not grow with ``done/``.  A
        marker another host is still writing also reads as ``None``; the
        next look sees it.
        """
        try:
            meta = json.loads((self.root / "done" / done_name(index, key16)).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return meta if isinstance(meta, dict) else None

    def done_names(self) -> set[str]:
        """The file names in ``done/``, unread: one listing, no marker parsed."""
        try:
            return set(os.listdir(self.root / "done"))
        except OSError:
            return set()

    def done_markers(self) -> dict[tuple[int, str], dict]:
        """``{(index, key16): metadata}`` for every finished job."""
        out = {}
        for path in (self.root / "done").iterdir():
            match = _DONE_NAME.match(path.name)
            if not match:
                continue
            key = (int(match["index"]), match["key16"])
            meta = self.done_marker(*key)
            if meta is not None:
                out[key] = meta
        return out

    def clear_done(self, index: int, key16: str) -> None:
        """Retract a done marker (only for marker-without-record damage)."""
        try:
            os.unlink(self.root / "done" / done_name(index, key16))
        except OSError:
            pass

    def quarantine(self, claim: SpoolClaim, reason: str) -> Path:
        """Move an unparseable claimed job aside (with a ``.reason`` note).

        The job leaves the queue without a done marker, so the coordinator's
        lost-job scan notices and republishes the point from its own copy of
        the work item -- one corrupt file never wedges a campaign.
        """
        target = self.root / "quarantine" / claim.path.name
        try:
            os.rename(claim.path, target)
        except OSError:
            return target
        try:
            target.with_suffix(".reason").write_text(reason + "\n")
        except OSError:
            pass
        return target

    def quarantined(self) -> list[dict]:
        """Every quarantined job with its ``.reason`` excerpt.

        Sorted by name; a missing or unreadable reason sidecar reports an
        empty string (the quarantined file itself is the fact that counts).
        """
        out = []
        for path in sorted((self.root / "quarantine").glob("*.json")):
            try:
                reason = path.with_suffix(".reason").read_text().strip()
            except OSError:
                reason = ""
            out.append({"name": path.name, "reason": reason})
        return out

    # -------------------------------------------------------------- doorbells
    def doorbell(self, role: str) -> Doorbell:
        """Bind a new waiter's bell (close it on every exit path)."""
        return Doorbell(self.root / "bells", role)

    def ring(self, role: str) -> None:
        """Wake every bound ``role`` waiter; never blocks and never raises.

        One byte per bell.  A full bell is already ringing; a refused or
        vanished one belonged to a dead waiter and its file is removed.
        """
        bells = self.root / "bells"
        try:
            names = [n for n in os.listdir(bells) if n.startswith(f"{role[0]}-")]
            if not names:
                return
            with socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM) as sock:
                sock.setblocking(False)
                for name in names:
                    try:
                        sock.sendto(b"\0", str(bells / name))
                    except (ConnectionRefusedError, FileNotFoundError):
                        try:
                            os.unlink(bells / name)
                        except OSError:
                            pass
                    except OSError:
                        pass  # BlockingIOError: that bell is already ringing
        except (AttributeError, OSError):
            pass  # no AF_UNIX or no bells/: every waiter is polling

    def doorbells(self) -> dict[str, int]:
        """Live bells by role (a refused probe is a dead waiter's file)."""
        counts = {WORKER: 0, COORDINATOR: 0}
        bells = self.root / "bells"
        try:
            names = os.listdir(bells)
            with socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM) as probe:
                for name in names:
                    role = _BELL_ROLES.get(name.split("-", 1)[0])
                    if role is None:
                        continue
                    try:
                        probe.connect(str(bells / name))
                    except OSError:
                        continue
                    counts[role] += 1
        except (AttributeError, OSError):
            pass
        return counts

    # ------------------------------------------------------------- observing
    def status(self, lease_seconds: float = 15.0, now: float | None = None) -> dict:
        """One JSON-safe snapshot of the whole spool, straight off the files.

        The payload behind ``unsnap spool status`` and the gateway's spool
        metrics: pending/claimed/done/error counts, per-claim owner and
        age, per-worker heartbeat age and liveness (against
        ``lease_seconds``), the quarantine with reasons, the live doorbells
        by role (zero: that role is polling) and the STOP flag.
        Pure observation -- never writes, steals or republishes.
        """
        now = time.time() if now is None else now
        claims = [
            {
                "index": claim.index,
                "attempts": claim.attempts,
                "worker_id": claim.worker_id,
                "key16": claim.key16,
                "age_seconds": self.claim_age(claim, now),
            }
            for claim in self.claims()
        ]
        done = errors = 0
        for meta in self.done_markers().values():
            if meta.get("error"):
                errors += 1
            else:
                done += 1
        workers = []
        for path in sorted((self.root / "workers").iterdir()):
            if path.suffix != ".json" or path.name.startswith("."):
                continue
            try:
                age = max(0.0, now - path.stat().st_mtime)
            except OSError:
                continue
            workers.append(
                {
                    "worker_id": path.stem,
                    "age_seconds": age,
                    "live": age <= lease_seconds,
                }
            )
        return {
            "root": str(self.root),
            "lease_seconds": float(lease_seconds),
            "pending": len(self.pending()),
            "claims": claims,
            "done": done,
            "errors": errors,
            "workers": workers,
            "quarantined": self.quarantined(),
            "doorbells": self.doorbells(),
            "stop_requested": self.stop_requested(),
        }

    # -------------------------------------------------------------- liveness
    def heartbeat(self, worker_id: str, info: dict | None = None) -> Path:
        """Touch (or create) the worker's heartbeat file."""
        path = self.root / "workers" / f"{worker_id}.json"
        if info is not None or not path.exists():
            payload = dict(info or {})
            payload.setdefault("worker_id", worker_id)
            tmp = path.with_name(f".{path.name}.tmp")
            tmp.write_text(json.dumps(payload, sort_keys=True))
            os.replace(tmp, path)
        else:
            os.utime(path)
        return path

    def retire(self, worker_id: str) -> None:
        """Remove the worker's heartbeat file (clean shutdown)."""
        try:
            os.unlink(self.root / "workers" / f"{worker_id}.json")
        except OSError:
            pass

    def live_workers(self, lease_seconds: float, now: float | None = None) -> list[str]:
        """Worker ids whose heartbeat moved within the lease window."""
        now = time.time() if now is None else now
        live = []
        for path in sorted((self.root / "workers").iterdir()):
            if path.suffix != ".json" or path.name.startswith("."):
                continue
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            if age <= lease_seconds:
                live.append(path.stem)
        return live

    # ------------------------------------------------------------------ stop
    @property
    def stop_path(self) -> Path:
        return self.root / "STOP"

    def request_stop(self) -> None:
        """Ask every worker to exit once it finishes its current job."""
        self.stop_path.touch()
        self.ring(WORKER)

    def clear_stop(self) -> None:
        try:
            os.unlink(self.stop_path)
        except OSError:
            pass

    def stop_requested(self) -> bool:
        return self.stop_path.exists()
