"""Parallel substrate: simulated MPI, halo exchange and the block-Jacobi driver.

The paper distributes the spatial mesh between MPI processors with SNAP's
KBA-style 2-D decomposition and couples the subdomains with a *parallel block
Jacobi* schedule: every rank sweeps its own subdomain concurrently using
lagged incoming angular flux at rank boundaries, and a halo exchange after
every (inner) iteration shares the outgoing data.

Real MPI is not available in this reproduction environment, so the substrate
is an in-process simulation:

* :mod:`repro.parallel.comm` -- a deterministic, mpi4py-flavoured simulated
  communicator (ranks, tagged point-to-point messages, reductions).
* :mod:`repro.parallel.halo` -- one ``(K, G, N)`` gather of outgoing face
  traces per neighbour and a scatter back into :class:`BoundaryValues` slots.
* :mod:`repro.parallel.block_jacobi` -- the multi-rank driver that reproduces
  the convergence/behaviour of the paper's global schedule.
"""

from .comm import SimCommWorld, SimComm
from .halo import HaloExchanger
from .block_jacobi import BlockJacobiDriver, BlockJacobiResult

__all__ = [
    "SimCommWorld",
    "SimComm",
    "HaloExchanger",
    "BlockJacobiDriver",
    "BlockJacobiResult",
]
