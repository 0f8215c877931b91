"""Property-style equivalence tests: the batched engines must match ``reference``.

The ``vectorized`` and ``prefactorized`` engines re-order floating-point
reductions (batched einsum, batched dense solves, cached LU factors) but
implement the identical discretisation, so their scalar flux must agree
with the per-element reference engine to roughly machine precision
(asserted at 1e-12 absolute / relative -- well inside the 1e-10 acceptance
bound) across element orders, boundary conditions, local solvers and the
block-Jacobi multi-rank path.
"""

import numpy as np
import pytest

import repro
from repro.angular.quadrature import snap_dummy_quadrature
from repro.config import BoundaryCondition, ProblemSpec
from repro.core.assembly import ElementMatrices
from repro.core.sweep import BoundaryValues, SweepExecutor, boundary_slots
from repro.fem.element import HexElementFactors
from repro.fem.reference import ReferenceElement
from repro.materials.library import snap_option1_library
from repro.mesh.builder import StructuredGridSpec, build_snap_mesh
from repro.sweepsched.schedule import build_sweep_schedule

TOL = 1e-12

VACUUM = BoundaryCondition()
INCIDENT = BoundaryCondition(kind="incident", incident_flux=1.5)

#: The engines equivalence is asserted against ``reference`` for.
BATCHED_ENGINES = ("vectorized", "prefactorized")


def _sweep_pair(order, boundary, solver, engine="vectorized", halo_faces=None,
                boundary_values=None, num_groups=2, n=3):
    """Run one identical sweep with ``reference`` and ``engine``."""
    mesh = build_snap_mesh(StructuredGridSpec(n, n, n), max_twist=0.001)
    ref = ReferenceElement(order)
    factors = HexElementFactors.build(mesh.cell_vertices(), ref)
    matrices = ElementMatrices.build(factors, ref)
    quadrature = snap_dummy_quadrature(2)
    schedule = build_sweep_schedule(mesh, factors, quadrature)
    materials = snap_option1_library(num_groups).for_cells(mesh.num_cells)
    rng = np.random.default_rng(order * 101 + mesh.num_cells)
    source = rng.uniform(0.25, 2.0, size=(mesh.num_cells, num_groups, ref.num_nodes))
    results = {}
    for name in ("reference", engine):
        executor = SweepExecutor(
            mesh=mesh, factors=factors, ref=ref, matrices=matrices,
            schedule=schedule, quadrature=quadrature, materials=materials,
            boundary=boundary, solver=solver, engine=name,
            halo_faces=halo_faces,
        )
        results[name] = executor.sweep(source, boundary_values=boundary_values)
    return results["reference"], results[engine]


class TestSweepEquivalence:
    @pytest.mark.parametrize("engine", BATCHED_ENGINES)
    @pytest.mark.parametrize("order", (1, 2))
    @pytest.mark.parametrize("boundary", (VACUUM, INCIDENT), ids=("vacuum", "incident"))
    @pytest.mark.parametrize("solver", ("ge", "lapack"))
    def test_single_sweep_matches(self, order, boundary, solver, engine):
        ref, vec = _sweep_pair(order, boundary, solver, engine=engine)
        np.testing.assert_allclose(vec.scalar_flux, ref.scalar_flux, rtol=TOL, atol=TOL)
        np.testing.assert_allclose(vec.leakage, ref.leakage, rtol=TOL, atol=TOL)
        assert vec.timings.systems_solved == ref.timings.systems_solved

    @pytest.mark.parametrize("engine", BATCHED_ENGINES)
    def test_lagged_boundary_values_match(self, engine):
        # Mark two faces as rank boundaries and feed lagged traces, exercising
        # the block-Jacobi inflow path of both engines directly.
        halo = np.array([[0, 0, 1, 0], [1, 2, 2, 1]])
        faces, slot = boundary_slots(build_snap_mesh(StructuredGridSpec(3, 3, 3)))
        bv = BoundaryValues().allocate(16, len(faces), 2, 8)
        rng = np.random.default_rng(7)
        for angle in range(16):
            for cell, face in ((0, 0), (1, 2)):
                bv.traces[angle, slot[cell, face]] = rng.uniform(0.1, 1.0, size=(2, 8))
                bv.present[angle, slot[cell, face]] = True
        ref, vec = _sweep_pair(1, VACUUM, "ge", engine=engine,
                               halo_faces=halo, boundary_values=bv)
        np.testing.assert_allclose(vec.scalar_flux, ref.scalar_flux, rtol=TOL, atol=TOL)
        assert np.array_equal(vec.outgoing_halo.present, ref.outgoing_halo.present)
        np.testing.assert_allclose(
            vec.outgoing_halo.traces, ref.outgoing_halo.traces, rtol=TOL, atol=TOL
        )


class TestFullSolveEquivalence:
    @pytest.mark.parametrize("engine", BATCHED_ENGINES)
    @pytest.mark.parametrize("order", (1, 2))
    @pytest.mark.parametrize("boundary", (VACUUM, INCIDENT), ids=("vacuum", "incident"))
    @pytest.mark.parametrize("solver", ("ge", "lapack"))
    def test_run_facade_matches(self, order, boundary, solver, engine):
        spec = ProblemSpec(
            nx=3, ny=3, nz=3, order=order, angles_per_octant=2, num_groups=2,
            max_twist=0.001, num_inners=3, num_outers=2, solver=solver,
            boundary=boundary,
        )
        ref = repro.run(spec, engine="reference")
        vec = repro.run(spec, engine=engine)
        np.testing.assert_allclose(vec.scalar_flux, ref.scalar_flux, rtol=TOL, atol=TOL)
        np.testing.assert_allclose(
            vec.cell_average_flux, ref.cell_average_flux, rtol=TOL, atol=TOL
        )
        assert vec.history.inner_errors == pytest.approx(ref.history.inner_errors, rel=1e-9)

    @pytest.mark.parametrize("engine", BATCHED_ENGINES)
    @pytest.mark.parametrize("solver", ("ge", "lapack"))
    def test_block_jacobi_2x2_matches(self, solver, engine):
        spec = ProblemSpec(
            nx=4, ny=4, nz=2, order=1, angles_per_octant=1, num_groups=2,
            max_twist=0.001, num_inners=4, num_outers=1, solver=solver,
            npex=2, npey=2,
        )
        ref = repro.run(spec, engine="reference")
        vec = repro.run(spec, engine=engine)
        assert ref.num_ranks == vec.num_ranks == 4
        assert ref.messages == vec.messages
        np.testing.assert_allclose(vec.scalar_flux, ref.scalar_flux, rtol=TOL, atol=TOL)
        np.testing.assert_allclose(vec.leakage, ref.leakage, rtol=TOL, atol=TOL)

    @pytest.mark.slow
    @pytest.mark.parametrize("engine", BATCHED_ENGINES)
    def test_block_jacobi_incident_boundary_matches(self, engine):
        # Incident domain boundaries + lagged rank boundaries together, over
        # an asymmetric rank grid and more inners: the heaviest cross-check.
        spec = ProblemSpec(
            nx=6, ny=4, nz=3, order=1, angles_per_octant=2, num_groups=3,
            max_twist=0.001, num_inners=6, num_outers=2,
            boundary=BoundaryCondition(kind="incident", incident_flux=0.7),
            npex=3, npey=2,
        )
        ref = repro.run(spec, engine="reference")
        vec = repro.run(spec, engine=engine)
        np.testing.assert_allclose(vec.scalar_flux, ref.scalar_flux, rtol=TOL, atol=TOL)
        np.testing.assert_allclose(
            vec.history.inner_errors, ref.history.inner_errors, rtol=1e-9
        )
