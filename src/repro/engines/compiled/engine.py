"""The compiled sweep engine: one fused JIT kernel per (angle, bucket).

Where ``prefactorized`` replaces the per-sweep elimination with cached LU
factors but still pays numpy dispatch for the right-hand-side assembly and
the batched substitutions, this engine drops the whole steady-state bucket
loop into a single compiled kernel (:mod:`repro.engines.compiled.kernels`):
assemble the volumetric source, subtract the packed interior upwind
couplings reading ``psi`` of earlier buckets, and run the pivoted
forward/backward substitutions -- all in one pass over preallocated
contiguous arrays, no temporaries, no interpreter in the loop.

The engine is a :class:`~repro.engines.batched.BatchedSweepEngine` with
kept factors: the bucket loop, cache keying and hit/miss counting are the
shared ones, and this module supplies only the two hooks -- the packed
entry build and the fused / solve-only kernel call.  It therefore follows
the executor's factor-cache lifecycle (:mod:`repro.engines.base`) exactly
like ``prefactorized``; entries invalidated or spilled under a budget are
rebuilt on the next miss, so the kernel never sees a stale factor.

The boundary path (incident flux or lagged block-Jacobi traces) reuses the
numpy :func:`~repro.engines.batched.assemble_bucket_rhs` for the irregular
per-face scans and calls the kernel in solve-only mode, so vacuum interior
sweeps -- the hot path of every benchmark -- never leave compiled code.

The compiled tier carries its own factorisation
(:func:`~repro.solvers.prefactor.batched_gaussian_lu_factor`), matching the
substitution loops baked into the kernel; the executor's local-solver
choice selects the *other* engines' solve and does not change this one.
``bitwise_family`` is the tier's own (``"compiled"``): the fused loop nest
fixes its own summation order, which is not guaranteed to match the numpy
einsum reductions bit for bit -- cross-engine agreement is asserted by the
conformance matrix at tolerance instead.
"""

from __future__ import annotations

import time

import numpy as np

from ...solvers.prefactor import batched_gaussian_lu_factor
from ..batched import (
    BatchedSweepEngine,
    assemble_bucket_matrices,
    assemble_bucket_rhs,
    interior_upwind_couplings,
)
from ..registry import register_engine
from .providers import as_contiguous_f64, as_contiguous_i64, select_provider

__all__ = ["CompiledSweepEngine"]


@register_engine("compiled", aliases=("jit", "native"))
class CompiledSweepEngine(BatchedSweepEngine):
    """Fused JIT bucket kernel over cached packed LU factors (numba or cffi)."""

    #: Own family: the fused kernel fixes its own reduction order, so
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
        """Assemble, factor and pack one (angle, bucket) cache entry."""
        num_groups = executor.num_groups
        num_nodes = executor.num_nodes
        batch = bucket.shape[0]

        a = assemble_bucket_matrices(executor, direction, orient, bucket)
        interior = interior_upwind_couplings(executor, direction, orient, bucket)
        # Pack the per-face coupling dict into flat kernel arrays.  cpl_src
        # holds *global* upwind element ids (psi of earlier buckets is
        # final), cpl_pos the position within this bucket.
        positions: list[np.ndarray] = []
        sources: list[np.ndarray] = []
        mats: list[np.ndarray] = []
        for face in sorted(interior):
            idx, neighbors, coupling = interior[face]
            positions.append(np.asarray(idx, dtype=np.int64))
            sources.append(np.asarray(neighbors, dtype=np.int64))
            mats.append(coupling)
        if positions:
            cpl_pos = as_contiguous_i64(np.concatenate(positions))
            cpl_src = as_contiguous_i64(np.concatenate(sources))
            cpl_mat = as_contiguous_f64(np.concatenate(mats, axis=0))
        else:
            cpl_pos = np.empty(0, dtype=np.int64)
            cpl_src = np.empty(0, dtype=np.int64)
            cpl_mat = np.empty((0, num_nodes, num_nodes), dtype=np.float64)
        stamp = time.perf_counter()
        lu, piv = batched_gaussian_lu_factor(
            a.reshape(batch * num_groups, num_nodes, num_nodes)
        )
        entry = {
            "bucket": as_contiguous_i64(bucket),
            "mass": as_contiguous_f64(executor.matrices.mass[bucket]),
            "cpl_pos": cpl_pos,
            "cpl_src": cpl_src,
            "cpl_mat": cpl_mat,
            "lu": as_contiguous_f64(lu),
            "piv": as_contiguous_i64(piv),
            "interior": interior,
            "rhs": np.empty((batch, num_groups, num_nodes), dtype=np.float64),
        }
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
                    total_source, boundary_values, incident, entry["interior"],
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
        self._provider.kernel()(
            entry["bucket"], entry["mass"], total_source,
            entry["cpl_pos"], entry["cpl_src"], entry["cpl_mat"],
            entry["lu"], entry["piv"], rhs, assemble, psi_angle,
        )
        return stamp
