"""Property tests for the executor's static boundary-face table.

:meth:`SweepExecutor.boundary_table` is what the per-angle epilogue walks and
what the ``compiled`` engine hangs its ghost rows on, so its indexing must be
exact for any mesh, halo subset and quadrature: the slot map is a bijection
onto ``mesh.boundary_faces()``, every angle's halo outflow slots are exactly
the halo faces with orientation +1, every angle's leakage rows are the
non-halo outflow (and, with an incident flux, inflow) faces in slot order
with the per-face tally's weights, and -- being a pure function of the
executor's inputs -- building it again, or from two racing threads, yields
equal arrays.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BoundaryCondition, ProblemSpec
from repro.core.solver import TransportSolver
from repro.core.sweep import BoundaryFaceTable, SweepExecutor
from repro.mesh.hexmesh import BOUNDARY


def _executor_with_halo(
    template: SweepExecutor, halo_faces: np.ndarray, boundary: BoundaryCondition | None
) -> SweepExecutor:
    return SweepExecutor(
        mesh=template.mesh,
        factors=template.factors,
        ref=template.ref,
        matrices=template.matrices,
        schedule=template.schedule,
        quadrature=template.quadrature,
        materials=template.materials,
        boundary=boundary,
        halo_faces=halo_faces,
    )


def _assert_tables_equal(first: BoundaryFaceTable, second: BoundaryFaceTable) -> None:
    for name in ("faces", "slot", "halo", "halo_outflow"):
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name), err_msg=name)
    for name in ("leakage", "halo_cells"):
        assert len(getattr(first, name)) == len(getattr(second, name)), name
        for mine, theirs in zip(getattr(first, name), getattr(second, name)):
            for array, other in zip(mine, theirs):
                np.testing.assert_array_equal(array, other, err_msg=name)


@settings(max_examples=20, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    angles_per_octant=st.integers(1, 3),
    twist=st.floats(min_value=0.0, max_value=0.3),
    halo_share=st.sampled_from((0.0, 0.3, 1.0)),
    incident=st.sampled_from((0.0, 1.5)),
    order=st.integers(1, 2),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_boundary_table_indexes_the_boundary_exactly(
    dims, angles_per_octant, twist, halo_share, incident, order, seed
):
    nx, ny, nz = dims
    spec = ProblemSpec(
        nx=nx, ny=ny, nz=nz, angles_per_octant=angles_per_octant, num_groups=1,
        max_twist=twist, order=order,
    )
    template = TransportSolver(spec).executor
    mesh = template.mesh
    boundary_faces = mesh.boundary_faces()
    is_halo = np.random.default_rng(seed).random(boundary_faces.shape[0]) < halo_share
    boundary = BoundaryCondition(kind="incident", incident_flux=incident) if incident else None
    executor = _executor_with_halo(template, boundary_faces[is_halo], boundary)
    assert executor._boundary_table is None  # never built at construction
    table = executor.boundary_table()
    assert executor.boundary_table() is table

    # The slot map is a bijection onto mesh.boundary_faces().
    np.testing.assert_array_equal(table.faces, boundary_faces)
    cells, faces = boundary_faces[:, 0], boundary_faces[:, 1]
    np.testing.assert_array_equal(table.slot[cells, faces], np.arange(boundary_faces.shape[0]))
    np.testing.assert_array_equal(table.slot >= 0, mesh.face_neighbors == BOUNDARY)
    np.testing.assert_array_equal(table.halo, is_halo)

    # Per angle: halo outflow is exactly the +1 halo faces, gathered from
    # their cells in slot order.
    num_angles = executor.quadrature.num_angles
    assert table.halo_outflow.shape == (num_angles, boundary_faces.shape[0])
    assert len(table.halo_cells) == len(table.leakage) == num_angles
    for angle, (slots, halo_cells) in enumerate(table.halo_cells):
        orientation = executor.schedule.for_angle(angle).classification.orientation
        on_boundary = orientation[cells, faces]
        outflow_halo = (on_boundary == 1) & is_halo
        np.testing.assert_array_equal(table.halo_outflow[angle], outflow_halo)
        np.testing.assert_array_equal(slots, np.flatnonzero(outflow_halo))
        np.testing.assert_array_equal(halo_cells, cells[slots])

        # Leakage rows: the non-halo outflow faces in slot order, each with
        # the per-face tally's weights; with an incident flux, the non-halo
        # inflow faces spliced in at their slot positions.
        leak_cells, weights, inflow_at, inflow_coef = table.leakage[angle]
        direction = executor.quadrature.directions[angle]
        per_face = [
            np.einsum("d,dij->ij", direction, executor.matrices.face_own[cell, face])
            for cell, face in boundary_faces.tolist()
        ]
        outflow = np.nonzero((on_boundary == 1) & ~is_halo)[0]
        np.testing.assert_array_equal(leak_cells, cells[outflow])
        assert weights.shape == (outflow.shape[0], executor.num_nodes)
        for row, s in zip(weights, outflow):
            np.testing.assert_array_equal(row, per_face[s].sum(axis=0))
        inflow = np.nonzero((on_boundary == -1) & ~is_halo)[0] if incident else outflow[:0]
        spliced = np.insert(outflow, inflow_at, inflow)
        np.testing.assert_array_equal(spliced, np.sort(np.concatenate([outflow, inflow])))
        assert inflow_coef.tolist() == [per_face[s].sum() for s in inflow]

    # A pure function of the executor's inputs: a second executor builds an
    # equal table, and so do two threads racing on a third.
    rebuilt, raced = (
        _executor_with_halo(template, boundary_faces[is_halo], boundary) for _ in range(2)
    )
    _assert_tables_equal(table, rebuilt.boundary_table())
    barrier = threading.Barrier(2)

    def build(_):
        barrier.wait()
        return raced.boundary_table()

    with ThreadPoolExecutor(max_workers=2) as pool:
        for built in pool.map(build, range(2)):
            _assert_tables_equal(table, built)
    _assert_tables_equal(table, raced.boundary_table())
