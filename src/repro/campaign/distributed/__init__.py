"""Distributed campaign execution over a file-based work-queue spool.

The first multi-host layer of the stack: the ``distributed`` execution
backend (:class:`~repro.campaign.distributed.coordinator.
DistributedBackend`) fans :class:`~repro.campaign.workitem.WorkItem`
payloads out to worker processes -- on this machine or any number of others
-- through a dependency-free **spool directory** protocol
(:class:`~repro.campaign.distributed.spool.SpoolDir`):

* the coordinator publishes one claimable job file per point (largest
  cost first, so cubic stragglers dispatch before cheap linear points);
* workers (``unsnap worker SPOOL_DIR``, local or started by hand on any
  host that mounts the spool) claim jobs by **atomic rename** -- exactly
  one winner per job, no locks; an advisory doorbell socket per waiter
  only shortens the wait for the next look;
* every worker maintains a heartbeat file; the coordinator re-queues the
  claims of dead or stalled workers once their lease expires (work
  stealing), so a killed worker's points are re-executed elsewhere;
* results merge through the spool's shared
  :class:`~repro.campaign.store.ResultStore` keyed by the content
  ``run_key`` -- re-execution is idempotent and results are bit-for-bit
  identical to the ``serial`` backend (asserted by the conformance
  matrix, which discovers this backend through the registry).

The protocol is plain files, so any shared filesystem (NFS, sshfs, a
cloud bucket mount) is a cluster fabric; waiters the doorbells cannot
reach poll.
"""

from .coordinator import DistributedBackend
from .spool import SpoolClaim, SpoolDir
from .worker import SpoolWorker, run_worker

__all__ = [
    "DistributedBackend",
    "SpoolClaim",
    "SpoolDir",
    "SpoolWorker",
    "run_worker",
]
