"""Reflective boundaries: mirror tables and the infinite-medium limit."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.angular import snap_dummy_quadrature
from repro.config import BoundaryCondition
from repro.core.reflect import (
    ReflectiveBoundary,
    mirror_angle_table,
    mirror_node_permutations,
)
from repro.core import sweep as sweep_module
from repro.core.sweep import BoundaryValues
from repro.engines import available_engines
from repro.fem.lagrange import FACE_NORMAL_AXIS, LagrangeHexBasis
from repro.materials import snap_option1_materials
from repro.parallel.block_jacobi import BlockJacobiDriver

REFLECTED = repro.ProblemSpec(
    nx=2, ny=2, nz=2,
    max_twist=0.0,
    angles_per_octant=2,
    num_groups=2,
    num_inners=40,
    num_outers=10,
    inner_tolerance=1e-13,
    outer_tolerance=1e-12,
    boundary=BoundaryCondition(kind="reflective"),
)


class TestMirrorTables:
    def test_angle_table_negates_exactly_one_axis(self):
        quadrature = snap_dummy_quadrature(3)
        table = mirror_angle_table(quadrature)
        for axis in range(3):
            mirrored = quadrature.directions[table[axis]]
            expected = quadrature.directions.copy()
            expected[:, axis] = -expected[:, axis]
            np.testing.assert_allclose(mirrored, expected)

    def test_angle_table_is_an_involution(self):
        table = mirror_angle_table(snap_dummy_quadrature(2))
        identity = np.arange(table.shape[1])
        for axis in range(3):
            np.testing.assert_array_equal(table[axis][table[axis]], identity)

    @pytest.mark.parametrize("order", [1, 2])
    def test_node_permutation_flips_the_tensor_index(self, order):
        basis = LagrangeHexBasis(order)
        perm = mirror_node_permutations(basis)
        idx = basis.node_indices
        for axis in range(3):
            mirrored = idx[perm[axis]]
            expected = idx.copy()
            expected[:, axis] = order - expected[:, axis]
            np.testing.assert_array_equal(mirrored, expected)
            # Flipping twice is the identity.
            np.testing.assert_array_equal(
                perm[axis][perm[axis]], np.arange(basis.num_nodes)
            )

    def test_update_mirrors_the_angle_and_the_nodes(self):
        quadrature = snap_dummy_quadrature(1)
        basis = LagrangeHexBasis(1)
        # Two slots: cell 0's faces 0 (normal x) and 4 (normal z).
        boundary = ReflectiveBoundary(quadrature, basis, np.array([[0, 0], [0, 4]]))
        trace = np.arange(8, dtype=float)[None, :]  # (G=1, N=8), distinct nodes
        outgoing = BoundaryValues().allocate(8, 2, 1, 8)
        outgoing.traces[3, 0], outgoing.present[3, 0] = trace, True
        # Slot 0 has normal axis x: the ghost must appear at the x-mirrored
        # ordinate with the nodal vector flipped along x, and nowhere else.
        values = boundary.update(BoundaryValues(), outgoing)
        angles, slots = np.nonzero(values.present)
        assert slots.tolist() == [0]
        assert angles.tolist() == [int(boundary.mirror_angle[0, 3])]
        np.testing.assert_array_equal(values.get(angles[0], 0), trace[:, boundary.node_perm[0]])

    def test_seed_flat_fills_every_slot(self):
        boundary = ReflectiveBoundary(
            snap_dummy_quadrature(1), LagrangeHexBasis(1), np.array([[0, 0], [1, 3], [2, 5]])
        )
        seeded = boundary.seed_flat(0.25, num_groups=2)
        assert seeded.traces.shape == (8, 3, 2, 8)
        assert seeded.present.all() and (seeded.traces == 0.25).all()


def oracle_update(boundary: ReflectiveBoundary, values: dict, outgoing: dict) -> dict:
    """The per-key dict mirror update the slot arrays replaced: every outgoing
    ``(cell, face, angle)`` trace becomes the ghost of the mirrored angle."""
    for (cell, face, angle), psi in outgoing.items():
        axis = FACE_NORMAL_AXIS[face]
        mirrored = int(boundary.mirror_angle[axis, angle])
        values[(cell, face, mirrored)] = np.asarray(psi[:, boundary.node_perm[axis]], dtype=float)
    return values


def as_entries(values: BoundaryValues, faces: np.ndarray) -> dict:
    """``(cell, face, angle) -> trace`` of a slot table's present entries."""
    if values.present is None:
        return {}
    return {
        (*faces[slot].tolist(), angle): values.traces[angle, slot]
        for angle, slot in zip(*(n.tolist() for n in np.nonzero(values.present)))
    }


class TestMirrorOracle:
    """The array update equals the per-key dict update, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        order=st.integers(1, 2),
        per_octant=st.integers(1, 2),
        groups=st.integers(1, 2),
        start=st.sampled_from(("empty", "partial", "seeded")),
        sweeps=st.integers(1, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_update_matches_the_dict_oracle(self, order, per_octant, groups, start, sweeps, seed):
        rng = np.random.default_rng(seed)
        quadrature = snap_dummy_quadrature(per_octant)
        basis = LagrangeHexBasis(order)
        num_angles, nodes = quadrature.num_angles, basis.num_nodes
        pairs = np.array([(cell, face) for cell in range(3) for face in range(6)])
        faces = pairs[rng.permutation(len(pairs))[: rng.integers(1, len(pairs) + 1)]]
        boundary = ReflectiveBoundary(quadrature, basis, faces)
        shape = (num_angles, len(faces), groups, nodes)

        values = BoundaryValues()
        if start == "seeded":
            values = boundary.seed_flat(rng.random(), groups)
        elif start == "partial":
            values.allocate(*shape)
            values.traces[...] = rng.random(shape)
            values.present[...] = rng.random(shape[:2]) < 0.5
        oracle = {key: trace.copy() for key, trace in as_entries(values, faces).items()}

        # The outgoing pattern is fixed (it is geometry); the traces change.
        present = rng.random(shape[:2]) < 0.5
        for _ in range(sweeps):
            outgoing = BoundaryValues(rng.random(shape), present)
            oracle_update(boundary, oracle, as_entries(outgoing, faces))
            assert boundary.update(values, outgoing) is values
            got = as_entries(values, faces)
            assert got.keys() == oracle.keys()
            for key, trace in oracle.items():
                assert np.array_equal(got[key], trace), key


@pytest.fixture(scope="module")
def reflected_run():
    return repro.run(REFLECTED)


class TestInfiniteMediumLimit:
    def test_reflected_fixed_source_run_matches_the_analytic_flux(self, reflected_run):
        """All-reflective faces + uniform data = an infinite medium: the flux
        must converge to (diag(sigma_t) - sigma_s^T)^-1 q, spatially flat."""
        material = snap_option1_materials(2, REFLECTED.scattering_ratio)
        expected = material.infinite_medium_flux(np.ones(2))
        for g in range(2):
            np.testing.assert_allclose(
                reflected_run.scalar_flux[:, g, :], expected[g], rtol=1e-9
            )

    def test_reflective_faces_leak_nothing(self, reflected_run):
        np.testing.assert_array_equal(reflected_run.leakage, np.zeros(2))

    def test_balance_closes_without_leakage(self, reflected_run):
        balance = reflected_run.balance
        assert balance.relative_residual() < 1e-9
        np.testing.assert_array_equal(balance.leakage, np.zeros(2))


@pytest.mark.skipif(
    "compiled" not in available_engines(), reason="no JIT provider (numba/cffi) available"
)
class TestCompiledTierReflects:
    """The compiled tier reads the mirrored traces from its ghost rows --
    the same infinite-medium limit, whichever provider built the kernels."""

    def test_infinite_medium_limit_on_ghost_rows(self, reflected_run):
        compiled = repro.run(REFLECTED, engine="compiled")
        material = snap_option1_materials(2, REFLECTED.scattering_ratio)
        expected = material.infinite_medium_flux(np.ones(2))
        for g in range(2):
            np.testing.assert_allclose(compiled.scalar_flux[:, g, :], expected[g], rtol=1e-9)
        np.testing.assert_array_equal(compiled.leakage, np.zeros(2))
        assert compiled.balance.relative_residual() < 1e-9
        # Same iteration, sweep for sweep, as the reference engine.
        assert compiled.total_inners == reflected_run.total_inners
        np.testing.assert_allclose(
            compiled.scalar_flux, reflected_run.scalar_flux, rtol=1e-11, atol=0
        )


class TestAbsentSlotsFallBack:
    """An absent slot reads the boundary condition, as a missing key did."""

    SPEC = repro.ProblemSpec(
        nx=3, ny=2, nz=2, order=1, angles_per_octant=1, num_groups=2, npex=2, npey=1,
        max_twist=0.001, boundary=BoundaryCondition(kind="incident", incident_flux=0.5),
    )

    @staticmethod
    def _rank(engine):
        executor = BlockJacobiDriver(TestAbsentSlotsFallBack.SPEC, engine=engine).executors[0]
        shape = (executor.mesh.num_cells, executor.num_groups, executor.num_nodes)
        source = 1.0 + np.random.default_rng(5).random(shape)
        return executor, source

    @pytest.mark.parametrize("engine", available_engines())
    def test_first_block_jacobi_iteration_reads_incident(self, engine):
        executor, source = self._rank(engine)
        table = executor.boundary_table()
        want = executor.sweep(source).scalar_flux
        absent = BoundaryValues().allocate(
            executor.quadrature.num_angles, len(table.faces), executor.num_groups,
            executor.num_nodes,
        )
        for values in (BoundaryValues(), absent):  # the driver's first inner
            assert np.array_equal(executor.sweep(source, values).scalar_flux, want)

    @pytest.mark.parametrize("engine", available_engines())
    def test_mix_of_incident_and_lagged_inflow(self, engine):
        """Traces on every other inflow halo slot: the rest read exactly what
        a present incident-valued trace would (bit for bit on ``compiled``,
        whose fallback *is* a ghost row holding the incident value)."""
        executor, source = self._rank(engine)
        table = executor.boundary_table()
        num_angles = executor.quadrature.num_angles
        shape = (num_angles, len(table.faces), executor.num_groups, executor.num_nodes)
        mixed = BoundaryValues().allocate(*shape)
        filled = BoundaryValues(np.full(shape, 0.5), table.halo[None, :].repeat(num_angles, 0))
        rng = np.random.default_rng(9)
        inflow_pairs = 0
        for angle in range(num_angles):
            orientation = executor.schedule.for_angle(angle).classification.orientation
            inflow = np.flatnonzero(table.halo & (orientation[tuple(table.faces.T)] == -1))
            lagged = inflow[angle % 2 :: 2]
            inflow_pairs += inflow.size
            mixed.traces[angle, lagged] = filled.traces[angle, lagged] = 1.0 + rng.random(
                (lagged.size, *shape[2:])
            )
            mixed.present[angle, lagged] = True
        assert 0 < len(mixed) < inflow_pairs
        got = executor.sweep(source, mixed).scalar_flux
        want = executor.sweep(source, filled).scalar_flux
        if engine == "compiled":
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert np.max(np.abs(got - executor.sweep(source).scalar_flux)) > 1e-3


class TestLaziness:
    """Set-up and vacuum sweeps never touch the boundary-state machinery."""

    def test_reflective_solver_builds_no_table_and_no_mirror_plan(self):
        solver = repro.TransportSolver(REFLECTED)
        executor = solver.executor
        assert executor._boundary_table is None
        assert executor.reflective._plan is None
        solver.solve()  # the first sweep and update build them
        assert executor._boundary_table is not None
        assert executor.reflective._plan is not None

    @pytest.mark.parametrize("engine", available_engines())
    def test_vacuum_sweep_allocates_no_trace_arrays(self, engine, monkeypatch):
        executor = repro.TransportSolver(REFLECTED.with_(boundary=BoundaryCondition())).executor
        executor.set_engine(engine)

        def refuse(*_args, **_kwargs):
            raise AssertionError("a vacuum single-rank sweep allocated boundary traces")

        monkeypatch.setattr(sweep_module, "BoundaryValues", refuse)
        monkeypatch.setattr(BoundaryValues, "allocate", refuse)
        empty = BoundaryValues()
        shape = (executor.mesh.num_cells, executor.num_groups, executor.num_nodes)
        for values in (None, empty):
            result = executor.sweep(np.ones(shape), values)
            assert result.outgoing_halo is None
        assert empty.traces is None and empty.present is None


def test_outgoing_halo_mask_is_read_only():
    """Every outgoing halo's mask is the executor's static table: no writes."""
    executor = repro.TransportSolver(REFLECTED).executor
    source = np.ones((executor.mesh.num_cells, executor.num_groups, executor.num_nodes))
    present = executor.sweep(source).outgoing_halo.present
    assert present is executor.boundary_table().halo_outflow
    with pytest.raises(ValueError, match="read-only"):
        present[0, 0] = True


def test_octant_workers_fill_one_outgoing_halo():
    """Octant workers write disjoint angles of one shared outgoing halo: with
    more workers than cores and a short switch interval, it still equals the
    serial sweep's, bit for bit."""
    executor = repro.TransportSolver(REFLECTED.with_(engine="vectorized")).executor
    source = np.ones((executor.mesh.num_cells, executor.num_groups, executor.num_nodes))
    serial = executor.sweep(source).outgoing_halo
    executor.octant_parallel, executor.num_threads = True, 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            octant = executor.sweep(source).outgoing_halo
            assert np.array_equal(octant.present, serial.present)
            assert np.array_equal(octant.traces, serial.traces)
    finally:
        sys.setswitchinterval(interval)
