"""Specular reflective boundaries via lagged mirror traces.

A reflective boundary returns every outgoing particle along the mirrored
direction: the incoming angular flux of ordinate ``m`` on a face with normal
axis ``a`` equals the outgoing flux of the ordinate whose direction has the
``a`` component negated.  UnSNAP implements this without touching the sweep
engines by reusing the block-Jacobi lagging machinery:

* every domain-boundary face is registered as a *halo* face on the
  :class:`~repro.core.sweep.SweepExecutor`, so each sweep collects the
  outgoing ``(G, N)`` nodal traces into ``SweepResult.outgoing_halo`` (and
  excludes those faces from the leakage tally -- a reflective boundary leaks
  nothing);
* after each sweep the traces are mirrored into a
  :class:`~repro.core.sweep.BoundaryValues` ghost table that the *next*
  sweep consumes as lagged upwind data, exactly like a rank halo swap.

The ghost entry must be a nodal vector of the (virtual) mirror-image
neighbour element.  Because the mirror element is the element itself
reflected across the face plane, its nodal vector is the element's own
``psi`` with the tensor-product node indices flipped along the face's normal
axis; the neighbour-trace coupling matrices then reproduce the element's own
outgoing face trace at the mirrored ordinate.  The mirrored ordinate is
computed from the octant structure of the quadrature: flipping axis ``a``
flips bit ``a`` of the octant index while the within-octant index is
unchanged.

Both tables are slot-indexed arrays and the outgoing ``(angle, slot)`` pairs
are fixed by the geometry, so the first update plans the mirror per normal
axis and every update is three array copies, whatever the face count.  Each
ghost is a copy of one outgoing trace, whatever the thread count, engine or
backend, and converges with the scattering source in the outer iteration.
"""

from __future__ import annotations

import numpy as np

from ..angular.quadrature import AngularQuadrature
from ..fem.lagrange import FACE_NORMAL_AXIS, LagrangeHexBasis
from .sweep import BoundaryValues

__all__ = ["ReflectiveBoundary", "mirror_angle_table", "mirror_node_permutations"]


def mirror_angle_table(quadrature: AngularQuadrature) -> np.ndarray:
    """``(3, A)`` table of mirrored ordinate indices per reflection axis.

    ``table[axis, m]`` is the ordinate whose direction equals ordinate ``m``
    with the ``axis`` component negated.  Relies on the SNAP octant layout
    (identical base set replicated over the 8 sign octants, octant index bit
    ``axis`` flipping that axis) and verifies the claim against the actual
    direction vectors.
    """
    per_octant = quadrature.per_octant
    octants = quadrature.octants
    angles = np.arange(quadrature.num_angles)
    within = angles - octants * per_octant
    table = np.empty((3, quadrature.num_angles), dtype=np.int64)
    for axis in range(3):
        mirrored = (octants ^ (1 << axis)) * per_octant + within
        expected = quadrature.directions.copy()
        expected[:, axis] = -expected[:, axis]
        if not np.allclose(quadrature.directions[mirrored], expected):
            raise ValueError(
                "quadrature set is not mirror-symmetric across axis "
                f"{axis}; reflective boundaries need the SNAP octant layout"
            )
        table[axis] = mirrored
    return table


def mirror_node_permutations(basis: LagrangeHexBasis) -> np.ndarray:
    """``(3, N)`` node permutations flipping the tensor index along one axis.

    ``perm[axis, n]`` is the node whose tensor-product index equals node
    ``n``'s with the ``axis`` component replaced by ``order - index``; a
    nodal vector indexed through it is the element's mirror image across the
    mid-plane orthogonal to ``axis``.
    """
    idx = basis.node_indices  # (N, 3), x fastest in the flat ordering
    n1 = basis.nodes_per_direction
    flat = idx[:, 0] + n1 * idx[:, 1] + n1 * n1 * idx[:, 2]
    lookup = np.empty_like(flat)
    lookup[flat] = np.arange(idx.shape[0])
    perm = np.empty((3, idx.shape[0]), dtype=np.int64)
    for axis in range(3):
        mirrored = idx.copy()
        mirrored[:, axis] = basis.order - mirrored[:, axis]
        perm[axis] = lookup[mirrored[:, 0] + n1 * mirrored[:, 1] + n1 * n1 * mirrored[:, 2]]
    return perm


class ReflectiveBoundary:
    """Mirrors outgoing boundary traces into lagged ghost values.

    Parameters
    ----------
    quadrature:
        The angular quadrature set (must be octant-structured).
    basis:
        The Lagrange basis of the elements.
    faces:
        ``(F_b, 2)`` ``(cell, face)`` boundary faces in slot order.
    """

    def __init__(self, quadrature: AngularQuadrature, basis: LagrangeHexBasis, faces: np.ndarray):
        self.mirror_angle = mirror_angle_table(quadrature)
        self.node_perm = mirror_node_permutations(basis)
        self.num_angles = quadrature.num_angles
        self.num_nodes = basis.num_nodes
        self.faces = np.asarray(faces)
        # Per axis (angles, slots, mirrored angles): built by the first update.
        self._plan: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None

    def update(self, boundary_values: BoundaryValues, outgoing: BoundaryValues) -> BoundaryValues:
        """Fold one sweep's outgoing halo traces into the ghost table.

        Every outgoing ``(angle, slot)`` trace becomes the incoming ghost of
        the mirrored angle on the same slot; untouched entries keep their
        lagged value.  The plan is built from the first call's
        ``outgoing.present``, the executor's static ``halo_outflow``.
        """
        if self._plan is None:
            angles, slots = np.nonzero(outgoing.present)
            axes = np.asarray(FACE_NORMAL_AXIS)[self.faces[slots, 1]]
            self._plan = []
            for axis in range(3):
                on = axes == axis
                self._plan.append((angles[on], slots[on], self.mirror_angle[axis, angles[on]]))
        traces = boundary_values.allocate(*outgoing.traces.shape).traces
        if traces.strides[2] != traces.itemsize:
            # Stored node-major, as a per-face mirror copy psi[:, perm] is:
            # the numpy engines' einsum reduces in memory order, so layout
            # is part of their bits.  Converted once, values kept.
            boundary_values.traces = np.ascontiguousarray(traces.swapaxes(2, 3)).swapaxes(2, 3)
        for perm, (angles, slots, mirrored) in zip(self.node_perm, self._plan):
            boundary_values.traces[mirrored, slots] = outgoing.traces[angles, slots][..., perm]
            boundary_values.present[mirrored, slots] = True
        return boundary_values

    def seed_flat(self, value: float, num_groups: int) -> BoundaryValues:
        """Ghost table holding a uniform isotropic trace on every slot.

        Used to start time-dependent solves from an exactly-flat state: a
        spatially-flat isotropic angular flux of ``value`` is a discrete
        fixed point of the reflective sweep only if the very first sweep
        already sees its own mirror image.
        """
        shape = (self.num_angles, len(self.faces))
        traces = np.full(shape + (num_groups, self.num_nodes), float(value))
        return BoundaryValues(traces, np.ones(shape, dtype=bool))
