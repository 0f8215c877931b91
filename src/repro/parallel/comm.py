"""A deterministic in-process simulation of a small MPI world.

The interface follows mpi4py's lower-case (pickle-based) conventions --
``send``/``recv``/``isend`` with tags, ``bcast``, ``allreduce``, ``barrier``
-- but everything happens inside one Python process: messages are appended to
per-destination mailboxes and consumed in FIFO order per (source, tag).  This
keeps the halo-exchange and reduction logic of the block-Jacobi driver
identical in shape to a real MPI implementation while remaining fully
deterministic and testable without ``mpiexec``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

__all__ = ["SimCommWorld", "SimComm"]


def _payload_nbytes(payload: Any) -> int:
    """Array bytes carried by a message payload (arrays, or containers of them).

    Halo-exchange messages are ``(keys, traces)`` tuples, so the byte
    accounting recurses into containers; the keys object (a
    :class:`~repro.parallel.halo.HaloRows`) is not an array: it counts 0.
    """
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, dict):
        return sum(_payload_nbytes(v) for v in payload.values())
    if isinstance(payload, (list, tuple, set)):
        return sum(_payload_nbytes(v) for v in payload)
    return 0


@dataclass
class _Mailbox:
    """Per-destination store of pending messages keyed by (source, tag)."""

    queues: dict[tuple[int, int], deque] = field(default_factory=lambda: defaultdict(deque))

    def push(self, source: int, tag: int, payload: Any) -> None:
        self.queues[(source, tag)].append(payload)

    def pop(self, source: int, tag: int) -> Any:
        queue = self.queues.get((source, tag))
        if not queue:
            raise RuntimeError(f"no pending message from rank {source} with tag {tag}")
        return queue.popleft()

    def pending(self) -> int:
        return sum(len(q) for q in self.queues.values())


class SimCommWorld:
    """A simulated MPI world of ``size`` ranks sharing in-memory mailboxes."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = int(size)
        self._mailboxes = [_Mailbox() for _ in range(self.size)]
        self.message_count = 0
        self.bytes_sent = 0

    def comm(self, rank: int) -> "SimComm":
        if not 0 <= rank < self.size:
            raise ValueError(f"rank must be in 0..{self.size - 1}, got {rank}")
        return SimComm(world=self, rank=rank)

    def comms(self) -> list["SimComm"]:
        """One communicator handle per rank."""
        return [self.comm(r) for r in range(self.size)]

    def pending_messages(self) -> int:
        """Total messages sent but not yet received (should be 0 after a phase)."""
        return sum(m.pending() for m in self._mailboxes)

    # ------------------------------------------------------------- internals
    def _post(self, source: int, dest: int, tag: int, payload: Any) -> None:
        if not 0 <= dest < self.size:
            raise ValueError(f"destination rank {dest} out of range")
        self._mailboxes[dest].push(source, tag, payload)
        self.message_count += 1
        self.bytes_sent += _payload_nbytes(payload)


@dataclass
class SimComm:
    """A single rank's handle on the simulated world (mpi4py-flavoured API)."""

    world: SimCommWorld
    rank: int

    # --------------------------------------------------------------- queries
    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.world.size

    # ------------------------------------------------------------ point-to-point
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Post a message; the simulated network has unlimited buffering."""
        self.world._post(self.rank, dest, tag, obj)

    #: Non-blocking send is identical under unlimited buffering.
    isend = send

    def recv(self, source: int, tag: int = 0) -> Any:
        """Receive the oldest pending message from ``source`` with ``tag``."""
        return self.world._mailboxes[self.rank].pop(source, tag)

    # ------------------------------------------------------------- collectives
    def barrier(self) -> None:
        """No-op: ranks are executed sequentially by the drivers."""

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Trivial broadcast: the caller already holds the root's object."""
        return obj

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] = None) -> Any:
        """Reduce a per-rank contribution registered with the world.

        The sequential drivers gather per-rank values themselves; this method
        exists so rank-local code can be written in the mpi4py style.  With a
        single rank it simply returns the value.
        """
        if self.world.size == 1:
            return value
        raise RuntimeError(
            "allreduce on a multi-rank SimComm must be orchestrated by the "
            "driver (use SimCommWorld reductions); rank-local calls are only "
            "valid for a world of size 1"
        )
