"""The compiled sweep engine: compiled kernels for the cold build and the sweep.

Where ``prefactorized`` replaces the per-sweep elimination with cached LU
factors but still pays numpy dispatch for the entry build, the
right-hand-side assembly and the batched substitutions, this engine runs
all of it in the compiled kernels of :mod:`repro.engines.compiled.kernels`:

* the one-time (angle, bucket) entry build is array allocation plus two
  kernel calls -- ``build_bucket`` assembles the local systems and the
  packed interior upwind couplings straight into the entry's arrays,
  ``lu_factor`` factorises the systems in place -- with the Table II
  assembly/solve stamp taken between them;
* every steady-state bucket is one ``sweep_bucket`` call: assemble the
  volumetric source, subtract the packed couplings reading ``psi`` of
  earlier buckets, and run the pivoted forward/backward substitutions --
  one pass over preallocated contiguous arrays, no temporaries, no
  interpreter in the loop.

The engine is a :class:`~repro.engines.batched.BatchedSweepEngine` with
kept factors: the bucket loop, cache keying and hit/miss counting are the
shared ones, and this module supplies only the two hooks.  It therefore
follows the executor's factor-cache lifecycle (:mod:`repro.engines.base`)
exactly like ``prefactorized``; entries invalidated or spilled under a
budget are rebuilt on the next miss, so the kernel never sees a stale
factor.

The boundary path (incident flux or lagged block-Jacobi traces) reuses the
numpy :func:`~repro.engines.batched.assemble_bucket_rhs` for the irregular
per-face scans -- handing it per-face slices of the packed couplings, which
the entry holds exactly once -- and calls the kernel in solve-only mode, so
vacuum interior sweeps -- the hot path of every benchmark -- never leave
compiled code.

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
from ..batched import BatchedSweepEngine, assemble_bucket_rhs
from ..registry import register_engine
from .providers import as_contiguous_f64, as_contiguous_i64, select_provider

__all__ = ["CompiledSweepEngine"]


@register_engine("compiled", aliases=("jit", "native"))
class CompiledSweepEngine(BatchedSweepEngine):
    """JIT-built packed LU factors and a fused JIT bucket kernel over them (numba or cffi)."""

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
        # Kernel inputs must be packed; do it once per angle, not per bucket.
        return super().sweep_angle(
            executor, angle, as_contiguous_f64(total_source), boundary_values, incident, timings
        )

    def build_entry(self, executor, direction, orient, bucket):
        """Allocate one (angle, bucket) cache entry; assemble and factor it in the kernels."""
        matrices = executor.matrices
        num_groups = executor.num_groups
        num_nodes = executor.num_nodes
        systems = bucket.shape[0] * num_groups
        kernels = self._provider.kernels()

        bucket = as_contiguous_i64(bucket)
        orient = as_contiguous_i64(orient)
        # Interior upwind neighbour per inflow face, BOUNDARY (negative)
        # wherever there is none; its per-face counts size the packed
        # couplings and slice them on the boundary path.
        upwind = as_contiguous_i64(
            np.where(orient == -1, executor.mesh.face_neighbors[bucket], BOUNDARY)
        )
        offsets = np.zeros(7, dtype=np.int64)
        np.cumsum(np.count_nonzero(upwind != BOUNDARY, axis=0), out=offsets[1:])
        num_cpl = int(offsets[6])
        entry = {
            "mass": as_contiguous_f64(matrices.mass[bucket]),
            "cpl_pos": np.empty(num_cpl, dtype=np.int64),
            "cpl_src": np.empty(num_cpl, dtype=np.int64),
            "cpl_mat": np.empty((num_cpl, num_nodes, num_nodes), dtype=np.float64),
            "cpl_offsets": offsets,
            "lu": np.empty((systems, num_nodes, num_nodes), dtype=np.float64),
            "piv": np.empty((systems, num_nodes), dtype=np.int64),
            "rhs": np.empty((bucket.shape[0], num_groups, num_nodes), dtype=np.float64),
        }
        # The face matrices are C-contiguous as ElementMatrices allocates
        # them (no copy here) and only the faces needed are read; the
        # einsum-built gradient is not, so its bucket rows are gathered.
        kernels.build_bucket(
            bucket, orient, upwind, as_contiguous_f64(direction),
            as_contiguous_f64(matrices.gradient[bucket]),
            as_contiguous_f64(matrices.face_own),
            as_contiguous_f64(matrices.face_neighbor),
            entry["mass"], as_contiguous_f64(executor.sigma_t[bucket]),
            entry["lu"], entry["cpl_pos"], entry["cpl_src"], entry["cpl_mat"],
        )
        stamp = time.perf_counter()
        if kernels.lu_factor(entry["lu"], entry["piv"]) != 0:
            raise np.linalg.LinAlgError("at least one matrix in the batch is singular")
        return entry, stamp

    def solve_bucket(
        self, executor, angle, entry, orient, bucket, psi_angle,
        total_source, boundary_values, incident,
    ):
        """One kernel call: fused assemble + solve, or solve-only on the boundary path."""
        have_lagged = boundary_values is not None and len(boundary_values) > 0
        if have_lagged or incident != 0.0:
            # Boundary terms fall back to the shared numpy RHS assembly and
            # the kernel only substitutes.
            rhs = as_contiguous_f64(
                assemble_bucket_rhs(
                    executor, angle, orient, bucket, psi_angle,
                    total_source, boundary_values, incident, _interior_slices(entry),
                )
            )
            assemble = 0
        else:
            # Vacuum interior sweep: the kernel assembles and solves.  It
            # does not separate the two; its whole time is booked as solve,
            # keeping the one-time entry build as the assembly share.
            rhs = entry["rhs"]
            assemble = 1
        stamp = time.perf_counter()
        self._provider.kernels().sweep_bucket(
            as_contiguous_i64(bucket), entry["mass"], total_source,
            entry["cpl_pos"], entry["cpl_src"], entry["cpl_mat"],
            entry["lu"], entry["piv"], rhs, assemble, psi_angle,
        )
        return stamp


def _interior_slices(entry) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The packed couplings as ``assemble_bucket_rhs``'s per-face mapping (views, no copies)."""
    offsets = entry["cpl_offsets"].tolist()
    return {
        face: (entry["cpl_pos"][lo:hi], entry["cpl_src"][lo:hi], entry["cpl_mat"][lo:hi])
        for face, (lo, hi) in enumerate(zip(offsets, offsets[1:]))
        if hi > lo
    }
