"""The sweep-engine protocol.

A *sweep engine* is the interchangeable strategy that executes the transport
sweep of one angular direction over a (sub)mesh.  The paper is a study of
exactly such interchangeable execution strategies -- sweep schedules, local
solvers, loop orderings -- so the engine is a first-class extension point:
:class:`~repro.core.sweep.SweepExecutor` owns the problem data (mesh, local
matrices, schedule, quadrature, materials, solver) and delegates the per-angle
work to its engine.

Engines are stateless objects registered by name through
:func:`repro.engines.register_engine`; the executor (and therefore
:func:`repro.run`, the input deck and the ``unsnap`` CLI) selects one by name.
The built-ins -- ``reference``, and ``vectorized`` / ``prefactorized`` /
``compiled`` on one shared bucket loop -- are listed in :mod:`repro.engines`.

Factor-cache lifecycle
----------------------
Because engines are shared stateless instances, any per-problem state an
engine wants to memoise (LU factors, cached couplings, ...) must live on the
*executor*, in :attr:`SweepExecutor.factor_cache` -- a
:class:`~repro.core.factor_cache.FactorCache` (dict-shaped, optionally
memory-budgeted with LRU spill) whose keys the engine namespaces with its
own name (the built-in caching engines keep one entry per angle, keyed
``(name, angle)``).  Engines must treat every ``cache[key]`` miss as
recomputable: under a ``factor_cache_budget_bytes`` limit the cache silently
evicts least-recently-used entries, and correctness may never depend on an
entry surviving.  The executor owns the lifecycle:
:meth:`SweepExecutor.invalidate_factor_cache` clears the cache whenever the
cached inputs change (cross-section updates go through
:meth:`SweepExecutor.update_materials`; mesh changes rebuild the executor),
and both :class:`~repro.core.solver.TransportSolver` and
:class:`~repro.parallel.block_jacobi.BlockJacobiDriver` expose matching
``update_materials`` hooks that thread the invalidation through.  An engine
may additionally define ``invalidate_cache(executor)`` to be notified before
the cache is cleared.

Boundary inflow
---------------
What flows in through a boundary face is fixed per sweep: the lagged trace
``boundary_values`` holds for ``(angle, slot)`` of the face, otherwise the
``incident`` value.  Lagged traces belong to the executor's declared
``halo_faces`` (rank interfaces; every boundary face of a reflective
problem): :attr:`SweepExecutor.sees_boundary_inflow` -- nonzero incident
flux or a non-empty halo set, fixed at construction -- tells an engine
whether boundary inflow can occur at all, and engines may build cached state
on it (``compiled`` packs ghost-row couplings only then).  Traces on an
executor built without halo faces are unsupported: ``compiled`` raises a
``ValueError`` naming ``halo_faces`` rather than dropping them silently.
:meth:`SweepExecutor.boundary_table` is the static index of boundary faces
(slots, halo mask, per-angle halo outflow and leakage rows) shared by engines
and epilogue.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-checking only
    from ..core.assembly import AssemblyTimings
    from ..core.sweep import BoundaryValues, SweepExecutor

__all__ = ["SweepEngine"]


@runtime_checkable
class SweepEngine(Protocol):
    """Strategy interface for executing the sweep of one angular direction.

    Implementations must be stateless (one shared instance serves every
    executor) and must honour the executor's sweep schedule: within an angle,
    buckets are processed in order and every element only reads upwind
    neighbours from earlier buckets.

    Attributes
    ----------
    name:
        Registry key, e.g. ``"reference"`` or ``"prefactorized"``; caching
        engines namespace their factor-cache keys with it.
    description:
        Human-readable description used by reports and ``unsnap engines``.
    """

    name: str
    description: str

    def sweep_angle(
        self,
        executor: "SweepExecutor",
        angle: int,
        total_source: np.ndarray,
        boundary_values: "BoundaryValues | None",
        incident: float,
        timings: "AssemblyTimings",
    ) -> np.ndarray:
        """Sweep one ordinate and return the ``(E, G, N)`` angular flux.

        Parameters
        ----------
        executor:
            The owning :class:`~repro.core.sweep.SweepExecutor`; provides the
            mesh, precomputed local matrices, per-angle schedule, quadrature,
            ``sigma_t`` table, local solver and thread count.
        angle:
            Ordinate index into the executor's quadrature.
        total_source:
            ``(E, G, N)`` nodal isotropic source (fixed + scattering).
        boundary_values:
            Lagged upwind traces for rank-boundary faces (block Jacobi,
            reflective mirrors), or ``None`` on a single rank.  Traces belong
            to faces declared in the executor's ``halo_faces`` (see
            "Boundary inflow" in the module notes).
        incident:
            Incoming angular flux on domain-boundary inflow faces, and on
            halo inflow faces ``boundary_values`` holds no trace for.
        timings:
            Accumulator for the assemble/solve wall-clock split; engines add
            their measured times and the number of systems solved.
        """
        ...
