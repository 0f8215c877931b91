"""Boundary leakage as one precomputed contraction, held to the per-face tally.

:meth:`SweepExecutor._boundary_leakage` reduces each angle with one gather,
one batched product against the :class:`BoundaryFaceTable`'s weight rows and
one running sum in slot order.  The engine contract checks it on its fixed
scenarios (``check_leakage_oracle``); here hypothesis draws twisted meshes,
orders 1-3, one or two groups (a single group is where an axis-0 sum would
stop being a running sum), vacuum or incident boundaries and every engine,
and the leakage must equal :func:`contract.reference_leakage` bit for bit.
"""

from __future__ import annotations

import numpy as np
from contract import reference_leakage
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BoundaryCondition, ProblemSpec
from repro.core.solver import TransportSolver
from repro.engines import available_engines


@settings(max_examples=16, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2)),
    order=st.integers(1, 3),
    twist=st.floats(min_value=0.0, max_value=0.3),
    groups=st.integers(1, 2),
    incident=st.sampled_from((0.0, 1.5)),
    engine=st.sampled_from(sorted(available_engines())),
    octant=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_leakage_is_the_per_face_tally_bit_for_bit(
    dims, order, twist, groups, incident, engine, octant, seed
):
    nx, ny, nz = dims
    boundary = (
        BoundaryCondition(kind="incident", incident_flux=incident)
        if incident
        else BoundaryCondition()
    )
    spec = ProblemSpec(
        nx=nx, ny=ny, nz=nz, order=order, angles_per_octant=1, num_groups=groups,
        max_twist=twist, boundary=boundary, engine=engine,
    )
    executor = TransportSolver(
        spec, octant_parallel=octant, num_threads=2 if octant else 1, store_angular_flux=True
    ).executor
    shape = (executor.mesh.num_cells, executor.num_groups, executor.num_nodes)
    result = executor.sweep(1.0 + np.random.default_rng(seed).random(shape))
    np.testing.assert_array_equal(result.leakage, reference_leakage(executor, result))
