"""The batched sweep engine: the one bucket loop behind every fast engine.

All elements of a wavefront bucket are mutually independent and their upwind
neighbours live in *earlier* buckets, so the whole bucket can be assembled
with stacked einsum contractions -- the ``(B, G, N, N)`` left-hand sides, the
``(B, G, N)`` volumetric right-hand sides and the upwind face couplings --
and solved as one ``(B*G, N, N)`` batch: the NumPy analogue of the paper's
batched local solves (Section IV-B).  The reference engine instead pays
CPython interpreter overhead for every element of every bucket.

The paper varies *how a bucket's local systems are solved* over one fixed
sweep loop (Figure 2), and so does :class:`BatchedSweepEngine`: its
``sweep_angle`` owns the only bucket loop outside ``reference`` -- cache
keying, hit/miss counting, bucket sampling and the assemble/solve split of
Table II -- and delegates exactly three steps:

``angle_flux``
    the zeroed per-angle array the buckets are solved into (``(E, G, N)``
    unless the engine appends rows of its own);
``build_entry``
    the angle's invariants, the factor-cache unit -- everything that depends
    only on the mesh geometry, the ordinate direction and the total cross
    sections, none of which change across the inner/outer iterations of a
    solve;
``solve_buckets``
    this sweep's right-hand sides and the solve into ``psi_angle`` of a run
    of the angle's buckets, in order: all of them in one call, or (with
    bucket sampling on) one bucket per call.

Three registered engines share the loop:

* ``vectorized`` (``keep_factors=False``) builds no entry: it assembles
  every bucket afresh in ``solve_buckets`` and solves it one-shot through
  ``LocalSolver.solve_batched``; it caches nothing and emits no hit/miss
  counters.
* ``prefactorized`` (``keep_factors=True``, paper Section IV-B.1)
  LU-factorises each bucket batch of an angle once, keeps the packed
  factors and the equally invariant interior couplings in the executor's
  factor cache (one entry per angle, one pair per bucket), and on every
  later sweep only assembles the right-hand sides and runs the ``O(N^2)``
  triangular substitutions.  The memory cost is the cached
  factors, ``E * A * G * N^2`` doubles across the whole quadrature -- the
  same memory-for-time trade the paper discusses for pre-assembled matrices.
  The factor/solve pair comes from the local solver when it provides one
  (``LocalSolver.factor_batched`` / ``solve_factored``; both built-ins do),
  so ``prefactorized`` + ``ge`` reproduces the one-shot elimination bit for
  bit while ``lapack`` keeps its distinct roundings on each name; solvers
  without the pair fall back to the hand-written batched LU.
* ``compiled`` (:mod:`repro.engines.compiled`) subclasses the engine and
  overrides the hooks with JIT kernel calls: the angle's packed entry
  assembled and factorised in compiled code, one fused assemble-and-solve
  call per angle, and an angle array with one ghost row per boundary face
  behind the ``E`` element rows, so boundary inflow is one more packed
  upwind coupling.

Equivalence with the reference engine is exact up to floating-point
associativity (the property tests assert agreement to ~1e-12).  The cache
lives on the executor (:attr:`SweepExecutor.factor_cache`), not on the
engine -- engines are stateless shared instances -- and follows the
factor-cache lifecycle described in :mod:`repro.engines.base`.
"""

from __future__ import annotations

import time

import numpy as np

from ..mesh.hexmesh import BOUNDARY
from ..solvers.prefactor import batched_gaussian_lu_factor, batched_gaussian_lu_solve
from ..telemetry import active
from .registry import register_engine

__all__ = [
    "BatchedSweepEngine",
    "assemble_bucket_matrices",
    "interior_upwind_couplings",
    "assemble_bucket_rhs",
]


def assemble_bucket_matrices(executor, direction, orient, bucket) -> np.ndarray:
    """Assemble the ``(B, G, N, N)`` local systems of one wavefront bucket.

    Parameters
    ----------
    executor:
        The owning :class:`~repro.core.sweep.SweepExecutor`.
    direction:
        The ordinate direction ``Omega``.
    orient:
        ``(B, 6)`` face orientation of the bucket elements for this
        direction (+1 outflow, -1 inflow, 0 tangential).
    bucket:
        ``(B,)`` element indices of the bucket.
    """
    matrices = executor.matrices
    # Streaming matrix: -Omega.G plus the outflow own-face couplings.
    a_base = -np.einsum("d,edij->eij", direction, matrices.gradient[bucket], optimize=True)
    outflow = (orient == 1).astype(float)  # (B, 6)
    a_base += np.einsum(
        "ef,d,efdij->eij", outflow, direction, matrices.face_own[bucket], optimize=True
    )
    # Per-group systems: A[e, g] = base[e] + sigma_t[e, g] * M[e].
    mass = matrices.mass[bucket]  # (B, N, N)
    return (
        a_base[:, None, :, :]
        + executor.sigma_t[bucket][:, :, None, None] * mass[:, None, :, :]
    )


def _omega_dot(direction, face_matrices) -> np.ndarray:
    """``Omega . F`` for a ``(K, 3, N, N)`` stack of per-axis face matrices."""
    return np.einsum("d,kdij->kij", direction, face_matrices, optimize=True)


def interior_upwind_couplings(
    executor, direction, orient, bucket
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Direction-weighted couplings to *interior* upwind neighbours.

    Returns a mapping ``face -> (idx, neighbors, coupling)`` covering every
    face with at least one interior inflow element, where ``idx`` indexes
    into the bucket, ``neighbors`` are the upwind element ids and
    ``coupling`` is the ``(K, N, N)`` contraction
    ``Omega . face_neighbor``.  Everything here depends only on the mesh,
    the schedule and the direction -- it is invariant across sweeps, which
    is why the ``prefactorized`` engine caches it alongside the LU factors.
    """
    mesh = executor.mesh
    couplings: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for face in range(6):
        inflow = orient[:, face] == -1
        if not np.any(inflow):
            continue
        neighbors = mesh.face_neighbors[bucket, face]
        interior = inflow & (neighbors != BOUNDARY)
        if not np.any(interior):
            continue
        idx = np.nonzero(interior)[0]
        coupling = _omega_dot(direction, executor.matrices.face_neighbor[bucket[idx], face])
        couplings[face] = (idx, neighbors[idx], coupling)
    return couplings


def assemble_bucket_rhs(
    executor,
    angle,
    orient,
    bucket,
    psi_angle,
    total_source,
    boundary_values,
    incident,
    interior,
) -> np.ndarray:
    """Assemble the ``(B, G, N)`` right-hand sides of one wavefront bucket.

    Volumetric source first, then per face the interior upwind couplings
    (``psi`` of earlier buckets is final; ``interior`` is the bucket's
    :func:`interior_upwind_couplings` result) and the domain-boundary inflow
    terms: lagged block-Jacobi traces where present, otherwise the incident
    boundary flux.
    """
    mesh = executor.mesh
    matrices = executor.matrices
    have_lagged = boundary_values is not None and len(boundary_values) > 0
    direction = executor.quadrature.directions[angle]

    b = np.einsum("egj,eij->egi", total_source[bucket], matrices.mass[bucket], optimize=True)
    for face in range(6):
        entry = interior.get(face)
        if entry is not None:
            idx, neighbors, coupling = entry
            # Upwind neighbours live in earlier buckets: psi is final.
            traces = psi_angle[neighbors]  # (K, G, N)
            b[idx] -= np.einsum("kgj,kij->kgi", traces, coupling, optimize=True)
        if not have_lagged and incident == 0.0:
            # Vacuum domain boundary with no lagged traces: nothing to add,
            # skip the per-element boundary scan entirely.
            continue
        inflow = orient[:, face] == -1
        if not np.any(inflow):
            continue
        neighbors = mesh.face_neighbors[bucket, face]
        domain = inflow & (neighbors == BOUNDARY)
        if not np.any(domain):
            continue
        idx = np.nonzero(domain)[0]
        lagged = np.zeros(idx.shape, dtype=bool)
        if have_lagged:
            slots = executor.boundary_table().slot[bucket[idx], face]
            lagged = boundary_values.present[angle, slots]
        if lagged.any():
            sel = idx[lagged]
            coupling = _omega_dot(direction, matrices.face_neighbor[bucket[sel], face])
            traces = boundary_values.traces[angle, slots[lagged]]  # (K, G, N)
            b[sel] -= np.einsum("kgj,kij->kgi", traces, coupling, optimize=True)
        sel = idx[~lagged]
        if incident != 0.0 and sel.size:
            coupling = _omega_dot(direction, matrices.face_own[bucket[sel], face])
            # Incident flux is constant over the face: psi = incident.
            b[sel] -= incident * coupling.sum(axis=2)[:, None, :]
    return b


def _assemble_bucket(executor, angle, bucket):
    """A bucket's stacked ``(B*G, N, N)`` systems and interior upwind couplings."""
    direction = executor.quadrature.directions[angle]
    orient = executor.schedule.for_angle(angle).classification.orientation[bucket]
    num_nodes = executor.num_nodes
    systems = assemble_bucket_matrices(executor, direction, orient, bucket)
    return (
        systems.reshape(-1, num_nodes, num_nodes),
        interior_upwind_couplings(executor, direction, orient, bucket),
    )


def _factor_pair(solver):
    """The solver's factor-once/solve-many pair, or the hand-written batched LU."""
    if getattr(solver, "supports_prefactorisation", False):
        return solver.factor_batched, solver.solve_factored
    return batched_gaussian_lu_factor, batched_gaussian_lu_solve


class BatchedSweepEngine:
    """One bucket loop, three hooks: the angle's array, the angle's entry, the solve.

    Parameters
    ----------
    keep_factors:
        Whether the angle's buckets are LU-factorised once and kept in
        ``executor.factor_cache`` across sweeps (``prefactorized``) or
        assembled and solved one-shot bucket by bucket every sweep
        (``vectorized``).  Fixed at registration -- the two names are two
        instances of this class.
    """

    #: Engines sharing a ``bitwise_family`` assemble and solve the same
    #: stacked systems in the same order, so the conformance matrix
    #: (:mod:`repro.verify.conformance`) asserts their fluxes equal *bit for
    #: bit* whenever the solver's factored path is exact
    #: (``LocalSolver.prefactorisation_exact``).
    bitwise_family = "batched"

    def __init__(self, keep_factors: bool):
        self.keep_factors = bool(keep_factors)

    def sweep_angle(self, executor, angle, total_source, boundary_values, incident, timings):
        buckets = executor.schedule.for_angle(angle).buckets
        psi_angle = self.angle_flux(executor, angle, boundary_values, incident)
        tel = active(getattr(executor, "telemetry", None))
        entry = None
        if self.keep_factors:
            cache = executor.factor_cache
            # Keys are namespaced by the registered engine name so distinct
            # engines sharing one executor can never read each other's entries.
            key = (getattr(self, "name", "batched"), angle)
            entry = cache.get(key)
            if tel is not None:
                tel.incr("factor_cache_misses" if entry is None else "factor_cache_hits")
            if entry is None:
                # The invariant assembly is booked as assembly time, the
                # elimination as solve time: it is the LU of the one-shot solve.
                start = time.perf_counter()
                entry, assembly = self.build_entry(executor, angle)
                timings.assembly_seconds += assembly
                timings.solve_seconds += time.perf_counter() - start - assembly
                cache[key] = entry

        # The whole angle in one solve call; with bucket sampling on, every
        # bucket alone, so each sampled one is timed by itself.
        sampler = None if tel is None else tel.bucket_sampler()
        count = len(buckets)
        runs = [(0, count)] if sampler is None else [(t, t + 1) for t in range(count)]
        for first, last in runs:
            sample = sampler is not None and sampler.want()
            start = time.perf_counter()
            assembly = self.solve_buckets(
                executor, angle, entry, first, last, psi_angle,
                total_source, boundary_values, incident,
            )
            end = time.perf_counter()
            timings.assembly_seconds += assembly
            timings.solve_seconds += end - start - assembly
            if sample:
                sampler.record(end - start, buckets[first].shape[0] * executor.num_groups)
        timings.systems_solved += executor.mesh.num_cells * executor.num_groups
        return psi_angle[: executor.mesh.num_cells]

    def angle_flux(self, executor, angle, boundary_values, incident):
        """The zeroed array the angle's buckets are solved into.

        Its first ``E`` rows are the ``(E, G, N)`` angular flux
        ``sweep_angle`` returns; an engine may append rows of its own
        behind them (``compiled`` keeps the boundary inflow there).
        """
        return np.zeros(
            (executor.mesh.num_cells, executor.num_groups, executor.num_nodes), dtype=float
        )

    def build_entry(self, executor, angle):
        """The angle's factor-cache entry, built when it is not cached.

        Returns ``(entry, assembly_seconds)``: here one ``(systems,
        interior)`` pair per bucket -- the LU-factorised stacked ``(B*G, N,
        N)`` systems and the interior couplings -- and the seconds spent
        assembling, as opposed to eliminating.
        """
        asched = executor.schedule.for_angle(angle)
        factor = _factor_pair(executor.solver)[0]
        entry, assembly = [], 0.0
        for bucket in asched.buckets:
            start = time.perf_counter()
            systems, interior = _assemble_bucket(executor, angle, bucket)
            assembly += time.perf_counter() - start
            entry.append((factor(systems), interior))
        return entry, assembly

    def solve_buckets(
        self, executor, angle, entry, first, last, psi_angle,
        total_source, boundary_values, incident,
    ):
        """Solve buckets ``first:last`` of the angle into ``psi_angle``, in order.

        ``entry`` is the angle's cached entry, or ``None`` when factors are
        not kept (each bucket is then assembled here).  Returns the seconds
        spent assembling, as opposed to solving.
        """
        asched = executor.schedule.for_angle(angle)
        solver = executor.solver
        solve = _factor_pair(solver)[1] if self.keep_factors else solver.solve_batched
        assembly = 0.0
        for index in range(first, last):
            start = time.perf_counter()
            bucket = asched.buckets[index]
            systems, interior = (
                _assemble_bucket(executor, angle, bucket) if entry is None else entry[index]
            )
            rhs = assemble_bucket_rhs(
                executor, angle, asched.classification.orientation[bucket], bucket, psi_angle,
                total_source, boundary_values, incident, interior,
            )
            assembly += time.perf_counter() - start
            psi_angle[bucket] = solve(systems, rhs.reshape(-1, executor.num_nodes)).reshape(
                rhs.shape
            )
        return assembly


register_engine(
    "vectorized",
    aliases=("vec", "batched"),
    description="Batched per-bucket assembly and dense solve (stacked (B*G, N, N) systems).",
)(BatchedSweepEngine(keep_factors=False))
register_engine(
    "prefactorized",
    aliases=("lu", "prefactor", "factor-cache"),
    description="Cached per-bucket LU factors; sweeps only assemble RHS and back-substitute.",
)(BatchedSweepEngine(keep_factors=True))
