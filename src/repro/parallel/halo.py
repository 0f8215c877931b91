"""Halo exchange of outgoing angular-flux traces between subdomains.

"A parallel block Jacobi schedule is chosen for processor-to-processor
coupling.  This results in a halo exchange every iteration in order to share
the outgoing data between processor domains."  (Section III-A.1.)

Each rank's sweep produces, for every rank-boundary face it owns and every
angle for which that face is an *outflow* face, the nodal angular flux of the
owning element, by slot.  The exchanger gathers one ``(K, G, N)`` array per
neighbouring rank, ships it through the simulated communicator, and scatters
the rows into the :class:`BoundaryValues` slots the next sweep reads.  The
``(angle, slot)`` pairs are fixed by the geometry, so the first exchange
builds each message's receiver-side keys (:class:`HaloRows`) once; they
travel by reference, uncounted: ``bytes_sent`` counts the traces only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.sweep import BoundaryValues, boundary_slots
from ..mesh.partition import Subdomain
from .comm import SimComm

__all__ = ["HaloExchanger", "HaloRows"]

#: Message tag used for halo traffic.
HALO_TAG = 71


@dataclass(frozen=True, eq=False)
class HaloRows:
    """Row ``k`` of a halo message is ordinate ``angles[k]``'s trace on the
    receiver's face ``faces[k]`` of its cell ``cells[k]``."""

    num_angles: int
    angles: np.ndarray
    cells: np.ndarray
    faces: np.ndarray


class HaloExchanger:
    """Packs, exchanges and unpacks halo traces for one subdomain.

    Parameters
    ----------
    subdomain:
        The rank's subdomain (supplies the halo-face table).
    comm:
        The rank's simulated communicator.
    """

    def __init__(self, subdomain: Subdomain, comm: SimComm):
        self.subdomain = subdomain
        self.comm = comm
        # remote_rank -> (n, 4) rows (local_cell, face, remote_rank, remote_cell)
        halo = np.asarray(subdomain.halo_faces, dtype=np.int64)
        self._by_partner = {int(p): halo[halo[:, 2] == p] for p in np.unique(halo[:, 2])}
        self._faces, self._slot = boundary_slots(subdomain.mesh)
        # Per partner (angles, local slots, HaloRows), built by the first post.
        self._send: dict[int, tuple[np.ndarray, np.ndarray, HaloRows]] | None = None

    @property
    def partners(self) -> list[int]:
        return sorted(self._by_partner)

    # ------------------------------------------------------------------ send
    def post_outgoing(self, outgoing: BoundaryValues | None) -> int:
        """Send this rank's outgoing traces to each neighbouring rank.

        ``outgoing`` is the sweep's :attr:`SweepResult.outgoing_halo`, whose
        ``present`` is the executor's static ``halo_outflow`` on every call.
        Returns the number of messages posted.
        """
        if self._send is None:
            self._send = {}
            for partner, faces in self._by_partner.items():
                local = self._slot[faces[:, 0], faces[:, 1]]
                angles, k = np.nonzero(outgoing.present[:, local])
                # The receiver sees the face from its side: face ^ 1.
                rows = HaloRows(outgoing.present.shape[0], angles, faces[k, 3], faces[k, 1] ^ 1)
                self._send[partner] = (angles, local[k], rows)
        for partner, (angles, slots, rows) in self._send.items():
            self.comm.send((rows, outgoing.traces[angles, slots]), dest=partner, tag=HALO_TAG)
        return len(self._send)

    # --------------------------------------------------------------- receive
    def collect_incoming(self, boundary_values: BoundaryValues | None = None) -> BoundaryValues:
        """Receive one halo message from every partner and update the lag store."""
        if boundary_values is None:
            boundary_values = BoundaryValues()
        for partner in self.partners:
            rows, traces = self.comm.recv(source=partner, tag=HALO_TAG)
            boundary_values.allocate(rows.num_angles, len(self._faces), *traces.shape[1:])
            slots = self._slot[rows.cells, rows.faces]
            boundary_values.traces[rows.angles, slots] = traces
            boundary_values.present[rows.angles, slots] = True
        return boundary_values

    # ------------------------------------------------------------ diagnostics
    def halo_volume_bytes(self, num_groups: int, num_nodes: int, num_angles: int) -> int:
        """Upper bound on the bytes exchanged per iteration by this rank.

        Each halo face sends a ``(G, N)`` FP64 trace for roughly half of the
        angles (those for which the face is an outflow face).
        """
        faces = sum(len(v) for v in self._by_partner.values())
        return faces * num_groups * num_nodes * 8 * (num_angles // 2)
