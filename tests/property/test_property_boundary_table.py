"""Property tests for the executor's static boundary-face table.

:meth:`SweepExecutor.boundary_table` is what the per-angle epilogue walks and
what the ``compiled`` engine hangs its ghost rows on, so its indexing must be
exact for any mesh, halo subset and quadrature: the slot map is a bijection
onto ``mesh.boundary_faces()``, every angle's inflow slots are exactly the
boundary faces with orientation -1, and -- being a pure function of mesh,
halo set and schedule -- building it again, or from two racing threads,
yields equal arrays.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ProblemSpec
from repro.core.solver import TransportSolver
from repro.core.sweep import BoundaryFaceTable, SweepExecutor
from repro.mesh.hexmesh import BOUNDARY


def _executor_with_halo(template: SweepExecutor, halo_faces: np.ndarray) -> SweepExecutor:
    return SweepExecutor(
        mesh=template.mesh,
        factors=template.factors,
        ref=template.ref,
        matrices=template.matrices,
        schedule=template.schedule,
        quadrature=template.quadrature,
        materials=template.materials,
        halo_faces=halo_faces,
    )


def _assert_tables_equal(first: BoundaryFaceTable, second: BoundaryFaceTable) -> None:
    for name in ("faces", "slot", "halo"):
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name), err_msg=name)
    assert first.domain_faces == second.domain_faces
    assert first.halo_outflow == second.halo_outflow
    assert len(first.inflow) == len(second.inflow)
    for (slots, keys), (other_slots, other_keys) in zip(first.inflow, second.inflow):
        np.testing.assert_array_equal(slots, other_slots)
        assert keys == other_keys


@settings(max_examples=20, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    angles_per_octant=st.integers(1, 3),
    twist=st.floats(min_value=0.0, max_value=0.3),
    halo_share=st.sampled_from((0.0, 0.3, 1.0)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_boundary_table_indexes_the_boundary_exactly(
    dims, angles_per_octant, twist, halo_share, seed
):
    nx, ny, nz = dims
    spec = ProblemSpec(
        nx=nx, ny=ny, nz=nz, angles_per_octant=angles_per_octant, num_groups=1, max_twist=twist
    )
    template = TransportSolver(spec).executor
    mesh = template.mesh
    boundary_faces = mesh.boundary_faces()
    is_halo = np.random.default_rng(seed).random(boundary_faces.shape[0]) < halo_share
    executor = _executor_with_halo(template, boundary_faces[is_halo])
    assert executor._boundary_table is None  # never built at construction
    table = executor.boundary_table()
    assert executor.boundary_table() is table

    # The slot map is a bijection onto mesh.boundary_faces().
    np.testing.assert_array_equal(table.faces, boundary_faces)
    cells, faces = boundary_faces[:, 0], boundary_faces[:, 1]
    np.testing.assert_array_equal(table.slot[cells, faces], np.arange(boundary_faces.shape[0]))
    np.testing.assert_array_equal(table.slot >= 0, mesh.face_neighbors == BOUNDARY)
    np.testing.assert_array_equal(table.halo, is_halo)
    assert table.domain_faces == [tuple(pair) for pair in boundary_faces[~is_halo].tolist()]

    # Per angle: inflow slots are exactly the orientation -1 boundary faces,
    # keyed (cell, face, angle); halo outflow exactly the +1 halo faces.
    assert len(table.inflow) == len(table.halo_outflow) == executor.quadrature.num_angles
    for angle, (slots, keys) in enumerate(table.inflow):
        orientation = executor.schedule.for_angle(angle).classification.orientation
        on_boundary = orientation[cells, faces]
        np.testing.assert_array_equal(slots, np.nonzero(on_boundary == -1)[0])
        assert keys == [(int(cells[s]), int(faces[s]), angle) for s in slots]
        outflow_halo = np.nonzero((on_boundary == 1) & is_halo)[0]
        assert sorted(table.halo_outflow[angle]) == [
            (int(cells[s]), int(faces[s]), angle) for s in outflow_halo
        ]

    # A pure function of mesh + halo set + schedule: a second executor builds
    # an equal table, and so do two threads racing on a third.
    rebuilt, raced = (_executor_with_halo(template, boundary_faces[is_halo]) for _ in range(2))
    _assert_tables_equal(table, rebuilt.boundary_table())
    barrier = threading.Barrier(2)

    def build(_):
        barrier.wait()
        return raced.boundary_table()

    with ThreadPoolExecutor(max_workers=2) as pool:
        for built in pool.map(build, range(2)):
            _assert_tables_equal(table, built)
    _assert_tables_equal(table, raced.boundary_table())
