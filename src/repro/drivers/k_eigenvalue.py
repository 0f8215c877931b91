"""The k-eigenvalue power-iteration driver.

Solves the homogeneous eigenproblem ``(L - S) psi = (1/k) F phi`` where
``F phi = chi (nu_sigma_f . phi)`` is the isotropic fission source.  Each
power iteration performs one steady within/between-group solve through the
existing :class:`~repro.core.iteration.IterationController` with the fission
source of the previous iterate injected per ordinate (isotropically, through
the executor's ``angular_source`` hook), then updates the eigenvalue from
the fission-production ratio:

``k_{m+1} = k_m * <F phi_{m+1}> / <F phi_m>``.

The flux is renormalised to unit fission production after every update, so
``<F phi_m> = 1`` and the ratio reduces to the new production integral.  The
change of the normalised fission source between iterations yields the
standard dominance-ratio estimate ``||dF_m|| / ||dF_{m-1}||``.

Reflective problems lag the mirrored boundary traces through a single
:class:`~repro.core.sweep.BoundaryValues` table that persists across power
iterations, converging the reflected flux in the same fixed point; on a
spatially-flat (infinite-medium) problem every iterate stays exactly flat
and the converged ``k`` matches the analytic
:meth:`~repro.materials.cross_sections.CrossSections.k_infinity` to solver
tolerance -- the verification suite asserts 1e-8.
"""

from __future__ import annotations

import time

import numpy as np

from ..config import ProblemSpec
from ..core.assembly import AssemblyTimings
from ..core.balance import particle_balance
from ..core.iteration import IterationController, IterationHistory
from ..core.solver import TransportSolver
from ..materials.source_terms import FixedSource, uniform_source
from ..telemetry import active, phase
from .base import (
    cell_average,
    merge_history,
    reject_angular_source,
    require_single_rank,
    resolve_driver_materials,
)
from .registry import register_driver

__all__ = ["k_eigenvalue_driver"]


@register_driver("k_eigenvalue", aliases=("k", "power", "keff"))
def k_eigenvalue_driver(
    spec: ProblemSpec,
    *,
    engine_obj,
    engine_name: str,
    num_threads: int = 1,
    octant_parallel: bool | None = None,
    store_angular_flux: bool = False,
    materials=None,
    fixed_source=None,
    quadrature=None,
    angular_source=None,
    telemetry=None,
):
    """Power iteration for the multiplication factor k-effective."""
    from ..runner import RunResult

    require_single_rank(spec, "k_eigenvalue")
    reject_angular_source(angular_source, "k_eigenvalue")
    if fixed_source is not None:
        raise ValueError(
            "k_eigenvalue solves the homogeneous eigenproblem; "
            "a fixed source is not accepted"
        )
    tel = active(telemetry)
    library = resolve_driver_materials(spec, materials)
    if not library.has_fission:
        raise ValueError(
            "k_eigenvalue needs fission data on every material; attach it "
            "with repro.materials.with_snap_fission_data or pass nu_sigma_f/chi"
        )

    with phase(tel, "setup"):
        solver = TransportSolver(
            spec,
            materials=library,
            fixed_source=uniform_source(spec.num_cells, library.num_groups, 0.0),
            quadrature=quadrature,
            engine=engine_obj,
            num_threads=num_threads,
            octant_parallel=octant_parallel,
            store_angular_flux=store_angular_flux,
            telemetry=tel,
        )
    executor = solver.executor
    controller = IterationController(
        executor=executor,
        materials=solver.materials,
        fixed_source=solver.fixed_source,
        num_inners=spec.num_inners,
        num_outers=spec.num_outers,
        inner_tolerance=spec.inner_tolerance,
        outer_tolerance=spec.outer_tolerance,
    )

    nsf = solver.materials.nu_sigma_f_per_cell()  # (E, G)
    chi = solver.materials.chi_per_cell()  # (E, G)
    weights = solver.node_weights  # (E, N)
    num_angles = solver.quadrature.num_angles
    shape = (solver.mesh.num_cells, solver.materials.num_groups, executor.num_nodes)

    def production(flux: np.ndarray) -> float:
        """Total fission production integral ``<F phi> = int nu_sigma_f phi``."""
        return float(np.einsum("egn,eg,en->", flux, nsf, weights))

    guess = spec.initial_flux_value if spec.initial_flux_value > 0.0 else 1.0
    phi = np.full(shape, guess)
    prod = production(phi)
    if prod <= 0.0:
        raise ValueError("the initial guess produces no fission source")
    phi /= prod

    boundary_values = None
    if executor.reflective is not None:
        # Seed the lagged ghost table with the flat initial iterate so a
        # spatially-flat problem stays exactly flat from the first sweep.
        boundary_values = executor.reflective.seed_flat(guess / prod, solver.materials.num_groups)

    k = 1.0
    k_history: list[float] = []
    diffs: list[float] = []
    rate_prev: np.ndarray | None = None
    dominance: float | None = None
    history = IterationHistory()
    timings = AssemblyTimings()
    converged = False
    last_sweep = None

    t0 = time.perf_counter()
    with phase(tel, "solve"):
        for _ in range(spec.max_power_iters):
            rate = np.einsum("egn,eg->en", phi, nsf)  # (E, N) production rate
            fission_nodal = chi[:, :, None] * rate[:, None, :] / k  # (E, G, N)
            angular = np.broadcast_to(fission_nodal[None], (num_angles,) + shape)
            scalar, last_sweep, part, part_timings = controller.run(
                initial_flux=phi,
                boundary_values=boundary_values,
                angular_source=angular,
            )
            timings = timings.merge(part_timings)
            merge_history(history, part)
            with phase(tel, "power"):
                prod_new = production(scalar)
                if prod_new <= 0.0:
                    raise ValueError("fission production vanished during power iteration")
                # <F phi_m> is normalised to 1, so the update ratio is just
                # the new production integral.
                k_new = k * prod_new
                phi = scalar / prod_new
                rate_new = np.einsum("egn,eg->en", phi, nsf)
                if rate_prev is not None:
                    diffs.append(float(np.linalg.norm(rate_new - rate_prev)))
                    if len(diffs) >= 2 and diffs[-2] > 0.0:
                        dominance = diffs[-1] / diffs[-2]
                rate_prev = rate_new
                k_history.append(k_new)
                delta_k = abs(k_new - k)
                k = k_new
            if tel is not None:
                tel.incr("power_iterations")
            if (
                spec.k_tolerance > 0.0
                and len(k_history) >= 2
                and delta_k <= spec.k_tolerance
            ):
                converged = True
                break
    solve_seconds = time.perf_counter() - t0
    history.converged = converged

    assert last_sweep is not None
    scale = 1.0 / production(last_sweep.scalar_flux)
    leakage = last_sweep.leakage * scale
    angular_flux = last_sweep.angular_flux
    if angular_flux is not None:
        angular_flux.psi = angular_flux.psi * scale

    # Balance against the normalised eigen-source chi <F phi> / k: a
    # converged eigenpair satisfies the steady balance with the fission
    # source as emission.
    rate_avg = cell_average(
        chi[:, :, None] * np.einsum("egn,eg->en", phi, nsf)[:, None, :] / k,
        weights,
        solver.factors.volumes,
    )
    balance = particle_balance(
        scalar_flux=phi,
        node_weights=weights,
        materials=solver.materials,
        fixed=FixedSource(density=rate_avg),
        leakage=leakage,
        volumes=solver.factors.volumes,
    )
    return RunResult(
        scalar_flux=phi,
        cell_average_flux=cell_average(phi, weights, solver.factors.volumes),
        leakage=leakage,
        history=history,
        timings=timings,
        balance=balance,
        setup_seconds=solver.setup_seconds,
        solve_seconds=solve_seconds,
        num_ranks=1,
        messages=0,
        bytes_exchanged=0,
        engine=engine_name,
        solver=spec.solver,
        spec=spec,
        angular_flux=angular_flux,
        telemetry=tel,
        k_effective=k,
        k_history=k_history,
        dominance_ratio=dominance,
    )
