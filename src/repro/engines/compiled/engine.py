"""The compiled sweep engine: compiled kernels for the cold build and the sweep.

Where ``prefactorized`` replaces the per-sweep elimination with cached LU
factors but still pays numpy dispatch for the entry build, the
right-hand-side assembly and the batched substitutions, this engine runs
all of it in the compiled kernels of :mod:`repro.engines.compiled.kernels`:

* the one-time per-angle entry build is array allocation plus two kernel
  calls -- ``build_angle`` assembles the local systems and the packed
  upwind couplings of every bucket straight into the entry's concatenated
  arrays, ``lu_factor`` factorises the systems in place -- with the Table
  II assembly/solve split taken between them;
* every angle of every sweep is one ``sweep_angle`` call walking the
  angle's CSR bucket offsets: per bucket, assemble the volumetric source,
  subtract the packed couplings reading ``psi`` of earlier buckets, and run
  the pivoted forward/backward substitutions -- one pass over preallocated
  contiguous arrays, no temporaries, no interpreter in the loop.  With
  bucket sampling on, the same kernel runs one bucket's slice of the
  offsets per call.

The engine is a :class:`~repro.engines.batched.BatchedSweepEngine` with
kept factors: the bucket loop, cache keying and hit/miss counting are the
shared ones, and this module supplies only the three hooks.  It therefore
follows the executor's factor-cache lifecycle (:mod:`repro.engines.base`)
exactly like ``prefactorized``, one entry per angle; entries invalidated or
spilled under a budget are rebuilt on the next miss, so the kernel never
sees a stale factor.

Boundary inflow is one more upwind coupling.  An incident flux, a lagged
block-Jacobi trace and a reflected trace are each an upwind nodal vector
times ``Omega . face_neighbor``, so on an executor that can see boundary
inflow (:attr:`SweepExecutor.sees_boundary_inflow`) the angle's array holds
one *ghost row* per boundary face behind its ``E`` element rows (the slots
of the executor's :class:`~repro.core.sweep.BoundaryFaceTable`):
``build_entry`` points the coupling of every boundary inflow face at its
row and ``angle_flux`` fills the rows before the angle's first bucket: the
incident value, then one masked copy of the lagged traces by slot.  The
kernels cannot tell a ghost row from a neighbour, so no sweep leaves them;
a vacuum single-rank executor packs no ghost couplings and has no rows.

The factorisation is the tier's own, matching the substitution loops baked
into the sweep kernel; the executor's local-solver choice selects the
*other* engines' solve and does not change this one.  ``bitwise_family`` is
the tier's own too (``"compiled"``): the kernels fix their own summation
order, which is not guaranteed to match the numpy einsum reductions bit for
bit -- cross-engine agreement is asserted by the conformance matrix at
tolerance instead, provider-to-provider agreement bit for bit.
"""

from __future__ import annotations

import time

import numpy as np

from ...mesh.hexmesh import BOUNDARY
from ..batched import BatchedSweepEngine
from ..registry import register_engine
from .providers import as_contiguous_f64, as_contiguous_i64, select_provider

__all__ = ["CompiledSweepEngine"]


@register_engine("compiled", aliases=("jit", "native"))
class CompiledSweepEngine(BatchedSweepEngine):
    """JIT-built packed LU factors and a fused JIT angle kernel over them (numba or cffi)."""

    #: Own family: the kernels fix their own reduction order, so
    #: bit-equality with the numpy ``batched`` family is not guaranteed.
    bitwise_family = "compiled"

    def __init__(self):
        super().__init__(keep_factors=True)
        provider = select_provider()
        if provider is None:
            raise RuntimeError(
                "compiled sweep engine constructed without an available JIT provider"
            )
        self._provider = provider
        self.provider_name = provider.name

    def sweep_angle(self, executor, angle, total_source, boundary_values, incident, timings):
        # Kernel inputs must be packed; do it once per angle, not per kernel call.
        return super().sweep_angle(
            executor, angle, as_contiguous_f64(total_source), boundary_values, incident, timings
        )

    def build_entry(self, executor, angle):
        """Allocate the angle's cache entry; assemble and factor it in two kernel calls."""
        start = time.perf_counter()
        asched = executor.schedule.for_angle(angle)
        matrices = executor.matrices
        num_systems = executor.mesh.num_cells * executor.num_groups
        num_nodes = executor.num_nodes
        kernels = self._provider.kernels()

        # The elements in sweep order, bucket t at offsets[t]:offsets[t + 1].
        elements = as_contiguous_i64(np.concatenate(asched.buckets))
        offsets = np.zeros(asched.num_buckets + 1, dtype=np.int64)
        np.cumsum(asched.bucket_sizes(), out=offsets[1:])
        orient = as_contiguous_i64(asched.classification.orientation[elements])
        # Row of the angle's array holding each inflow face's upwind nodal
        # vector: the interior neighbour, or a boundary face's ghost row;
        # BOUNDARY (negative) wherever there is none.
        upwind = np.where(orient == -1, executor.mesh.face_neighbors[elements], BOUNDARY)
        if executor.sees_boundary_inflow:
            slot = executor.boundary_table().slot[elements]
            ghost = (orient == -1) & (slot >= 0)
            upwind[ghost] = executor.mesh.num_cells + slot[ghost]
        upwind = as_contiguous_i64(upwind)
        coupled = np.zeros(elements.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(upwind >= 0, axis=1), out=coupled[1:])
        num_cpl = int(coupled[-1])
        entry = {
            "offsets": offsets,
            "cpl_offsets": coupled[offsets],
            "elements": elements,
            "cpl_pos": np.empty(num_cpl, dtype=np.int64),
            "cpl_src": np.empty(num_cpl, dtype=np.int64),
            "cpl_mat": np.empty((num_cpl, num_nodes, num_nodes), dtype=np.float64),
            "lu": np.empty((num_systems, num_nodes, num_nodes), dtype=np.float64),
            "piv": np.empty((num_systems, num_nodes), dtype=np.int64),
        }
        # The element matrices are C-contiguous as ElementMatrices builds
        # them, so the kernels read them whole (no copy, no gather).
        kernels.build_angle(
            offsets, elements, orient, upwind,
            as_contiguous_f64(executor.quadrature.directions[angle]),
            as_contiguous_f64(matrices.gradient),
            as_contiguous_f64(matrices.face_own),
            as_contiguous_f64(matrices.face_neighbor),
            as_contiguous_f64(matrices.mass), as_contiguous_f64(executor.sigma_t),
            entry["lu"], entry["cpl_pos"], entry["cpl_src"], entry["cpl_mat"],
        )
        assembly = time.perf_counter() - start
        if kernels.lu_factor(entry["lu"], entry["piv"]) != 0:
            raise np.linalg.LinAlgError("at least one matrix in the batch is singular")
        return entry, assembly

    def angle_flux(self, executor, angle, boundary_values, incident):
        """The angle's array, boundary inflow in its ghost rows: incident, then lagged."""
        have_lagged = boundary_values is not None and len(boundary_values) > 0
        if not executor.sees_boundary_inflow:
            if have_lagged:
                raise ValueError(
                    "lagged boundary traces on an executor built without halo_faces: "
                    "the compiled engine only reads traces of declared halo_faces"
                )
            return super().angle_flux(executor, angle, boundary_values, incident)
        num_cells = executor.mesh.num_cells
        table = executor.boundary_table()
        rows = num_cells + table.faces.shape[0]
        psi_angle = np.zeros((rows, executor.num_groups, executor.num_nodes), dtype=np.float64)
        if incident != 0.0:
            psi_angle[num_cells:] = incident
        if have_lagged:
            # One masked copy of the present slots (only inflow ones are read).
            present = boundary_values.present[angle, :, None, None]
            np.copyto(psi_angle[num_cells:], boundary_values.traces[angle], where=present)
        return psi_angle

    def solve_buckets(
        self, executor, angle, entry, first, last, psi_angle,
        total_source, boundary_values, incident,
    ):
        """One kernel call over the offsets of ``first:last``, fused assemble +
        solve: all of it is booked as solve time."""
        self._provider.kernels().sweep_angle(
            entry["offsets"][first : last + 1], entry["cpl_offsets"][first : last + 1],
            entry["elements"], as_contiguous_f64(executor.matrices.mass), total_source,
            entry["cpl_pos"], entry["cpl_src"], entry["cpl_mat"],
            entry["lu"], entry["piv"], psi_angle,
        )
        return 0.0
