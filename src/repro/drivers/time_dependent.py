"""The backward-Euler time-dependent driver.

Implicit (backward-Euler) discretisation of the time-dependent transport
equation ``(1/v) d psi/dt + L psi = S psi + q``: each step solves the steady
problem

``(L + 1/(v dt) - S) psi^{n+1} = q + psi^n / (v dt)``

through the existing iteration controller.  The ``1/(v_g dt)`` term is folded
into the total cross section once, before the solver is built
(:meth:`~repro.materials.cross_sections.MaterialLibrary.with_time_absorption`),
so the modified system matrix -- and any engine factor cache built on it
(e.g. the ``prefactorized`` engine's LU factors) -- is reused unchanged for
every step: the system is time-invariant, only the right-hand side moves.
The previous step's angular flux enters per ordinate through the executor's
``angular_source`` hook.

On a reflected, spatially-flat pure-absorber problem the discrete solution
is exactly ``phi^n = phi^0 / (1 + v sigma dt)^n``, the backward-Euler
approximation of the analytic decay ``phi(t) = phi^0 exp(-v sigma t)`` --
first-order accurate in ``dt``, which the verification suite asserts as an
observed convergence order.
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

__all__ = ["time_dependent_driver"]


@register_driver("time_dependent", aliases=("time", "transient", "backward_euler"))
def time_dependent_driver(
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
    """Backward-Euler time stepping over the steady sweep core."""
    from ..runner import RunResult

    require_single_rank(spec, "time_dependent")
    reject_angular_source(angular_source, "time_dependent")
    tel = active(telemetry)
    library = resolve_driver_materials(spec, materials)
    if not library.has_velocity:
        raise ValueError(
            "time_dependent needs group speeds on every material; attach "
            "them with repro.materials.with_snap_velocities or pass velocity"
        )
    dt = spec.dt
    n_steps = spec.num_time_steps

    with phase(tel, "setup"):
        solver = TransportSolver(
            spec,
            materials=library.with_time_absorption(dt),
            fixed_source=(
                fixed_source
                if fixed_source is not None
                else uniform_source(spec.num_cells, library.num_groups, spec.source_strength)
            ),
            quadrature=quadrature,
            engine=engine_obj,
            num_threads=num_threads,
            octant_parallel=octant_parallel,
            # The next step's source needs the full angular flux whether or
            # not the caller wants it on the result.
            store_angular_flux=True,
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

    inv_vdt = 1.0 / (solver.materials.velocity_per_cell() * dt)  # (E, G)
    num_angles = solver.quadrature.num_angles
    shape = (solver.mesh.num_cells, solver.materials.num_groups, executor.num_nodes)
    volumes = solver.factors.volumes
    weights = solver.node_weights

    phi = np.full(shape, spec.initial_flux_value)
    # Isotropic initial condition: psi^0 = phi^0 (quadrature weights sum to 1).
    psi_prev = np.full((shape[0], num_angles) + shape[1:], spec.initial_flux_value)

    boundary_values = None
    if executor.reflective is not None:
        # A flat initial state is a fixed point of the reflected sweep only
        # if the first sweep already sees its own mirror trace.
        boundary_values = executor.reflective.seed_flat(spec.initial_flux_value, shape[1])

    times: list[float] = []
    step_mean_flux: list[list[float]] = []
    snapshots: list[np.ndarray] | None = [] if spec.snapshot_every > 0 else None
    history = IterationHistory()
    timings = AssemblyTimings()
    phi_prev = phi
    last_sweep = None

    t0 = time.perf_counter()
    with phase(tel, "solve"):
        for step in range(1, n_steps + 1):
            source = psi_prev.transpose(1, 0, 2, 3) * inv_vdt[None, :, :, None]
            scalar, last_sweep, part, part_timings = controller.run(
                initial_flux=phi,
                boundary_values=boundary_values,
                angular_source=source,
            )
            timings = timings.merge(part_timings)
            merge_history(history, part)
            with phase(tel, "step"):
                phi_prev = phi
                phi = scalar
                psi_prev = last_sweep.angular_flux.psi
                times.append(step * dt)
                averages = cell_average(phi, weights, volumes)  # (E, G)
                step_mean_flux.append(
                    [float(x) for x in (volumes @ averages) / volumes.sum()]
                )
                if snapshots is not None and step % spec.snapshot_every == 0:
                    snapshots.append(phi.copy())
            if tel is not None:
                tel.incr("time_steps")
    solve_seconds = time.perf_counter() - t0

    assert last_sweep is not None
    # Balance for the final step: the lagged-flux source's isotropic
    # equivalent is phi^{n-1}/(v dt), folded into the emission density.
    emission = FixedSource(
        density=solver.fixed_source.density
        + cell_average(phi_prev, weights, volumes) * inv_vdt
    )
    balance = particle_balance(
        scalar_flux=phi,
        node_weights=weights,
        materials=solver.materials,
        fixed=emission,
        leakage=last_sweep.leakage,
        volumes=volumes,
    )
    return RunResult(
        scalar_flux=phi,
        cell_average_flux=cell_average(phi, weights, volumes),
        leakage=last_sweep.leakage,
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
        angular_flux=last_sweep.angular_flux if store_angular_flux else None,
        telemetry=tel,
        times=times,
        step_mean_flux=step_mean_flux,
        flux_snapshots=snapshots,
    )
