"""Tests for the sweep executor, the iteration controller and the solver facade."""

import numpy as np
import pytest

from repro.angular.quadrature import snap_dummy_quadrature
from repro.config import BoundaryCondition, ProblemSpec
from repro.core.assembly import ElementMatrices
from repro.core.iteration import IterationController
from repro.core.solver import TransportSolver
from repro.core.sweep import BoundaryValues, SweepExecutor
from repro.fem.element import HexElementFactors
from repro.fem.reference import ReferenceElement
from repro.materials.cross_sections import MaterialLibrary
from repro.materials.library import pure_absorber
from repro.materials.source_terms import uniform_source
from repro.mesh.builder import StructuredGridSpec, build_snap_mesh
from repro.sweepsched.schedule import build_sweep_schedule


def make_executor(mesh, order, quadrature, materials, boundary=None, solver="ge", **kwargs):
    ref = ReferenceElement(order)
    factors = HexElementFactors.build(mesh.cell_vertices(), ref)
    matrices = ElementMatrices.build(factors, ref)
    schedule = build_sweep_schedule(mesh, factors, quadrature)
    executor = SweepExecutor(
        mesh=mesh,
        factors=factors,
        ref=ref,
        matrices=matrices,
        schedule=schedule,
        quadrature=quadrature,
        materials=materials,
        boundary=boundary,
        solver=solver,
        **kwargs,
    )
    return executor, factors, ref


class TestSweepExecutor:
    def test_pure_absorber_infinite_medium_limit(self):
        # With reflective-like conditions unavailable, emulate the infinite
        # medium with a large optically thick domain: the interior flux of a
        # pure absorber tends to q / sigma_t.
        sigma_t = 50.0
        mesh = build_snap_mesh(StructuredGridSpec(3, 3, 3, 1.0, 1.0, 1.0))
        quadrature = snap_dummy_quadrature(2)
        materials = MaterialLibrary(materials=[pure_absorber(1, sigma_t=sigma_t)])
        executor, factors, ref = make_executor(mesh, 1, quadrature, materials)
        source = np.full((mesh.num_cells, 1, 8), 1.0)
        result = executor.sweep(source)
        centre_cell = 13
        expected = 1.0 / sigma_t
        centre_flux = result.scalar_flux[centre_cell].mean()
        assert centre_flux == pytest.approx(expected, rel=1e-2)

    def test_result_shapes_and_timings(self, small_mesh, small_quadrature, small_materials):
        executor, _, _ = make_executor(small_mesh, 1, small_quadrature, small_materials)
        source = np.ones((small_mesh.num_cells, small_materials.num_groups, 8))
        result = executor.sweep(source)
        assert result.scalar_flux.shape == (27, 3, 8)
        assert result.leakage.shape == (3,)
        assert result.timings.systems_solved == 27 * small_quadrature.num_angles * 3
        assert result.timings.assembly_seconds > 0
        assert result.timings.solve_seconds > 0

    def test_scalar_flux_positive_for_positive_source(
        self, small_mesh, small_quadrature, small_materials
    ):
        executor, _, _ = make_executor(small_mesh, 1, small_quadrature, small_materials)
        source = np.ones((27, 3, 8))
        result = executor.sweep(source)
        assert np.all(result.scalar_flux > 0)
        assert np.all(result.leakage > 0)

    def test_ge_and_lapack_agree(self, small_mesh, small_quadrature, small_materials):
        source = np.ones((27, 3, 8))
        res = {}
        for solver in ("ge", "lapack"):
            executor, _, _ = make_executor(
                small_mesh, 1, small_quadrature, small_materials, solver=solver
            )
            res[solver] = executor.sweep(source).scalar_flux
        assert np.allclose(res["ge"], res["lapack"], atol=1e-10)

    def test_threaded_bucket_processing_matches_serial(
        self, small_mesh, small_quadrature, small_materials
    ):
        source = np.ones((27, 3, 8))
        serial, _, _ = make_executor(small_mesh, 1, small_quadrature, small_materials)
        threaded, _, _ = make_executor(
            small_mesh, 1, small_quadrature, small_materials, num_threads=4
        )
        assert np.allclose(
            serial.sweep(source).scalar_flux, threaded.sweep(source).scalar_flux, atol=1e-14
        )

    def test_incident_boundary_increases_flux(self, small_mesh, small_quadrature):
        materials = MaterialLibrary(materials=[pure_absorber(1, sigma_t=1.0)])
        source = np.zeros((27, 1, 8))
        vac, _, _ = make_executor(small_mesh, 1, small_quadrature, materials)
        inc, _, _ = make_executor(
            small_mesh, 1, small_quadrature, materials,
            boundary=BoundaryCondition(kind="incident", incident_flux=1.0),
        )
        flux_vac = vac.sweep(source).scalar_flux
        flux_inc = inc.sweep(source).scalar_flux
        assert np.allclose(flux_vac, 0.0, atol=1e-14)
        assert np.all(flux_inc.mean(axis=(1, 2)) > 0)

    def test_boundary_values_used_as_lagged_inflow(self, small_mesh, small_quadrature):
        materials = MaterialLibrary(materials=[pure_absorber(1, sigma_t=1.0)])
        executor, _, _ = make_executor(
            small_mesh, 1, small_quadrature, materials,
            halo_faces=np.array([[0, 0, 1, 0]]),
        )
        source = np.zeros((27, 1, 8))
        empty = executor.sweep(source, boundary_values=BoundaryValues())
        table = executor.boundary_table()
        bv = BoundaryValues().allocate(small_quadrature.num_angles, len(table.faces), 1, 8)
        slot = table.slot[0, 0]
        bv.traces[:, slot] = 3.0
        bv.present[:, slot] = True
        lagged = executor.sweep(source, boundary_values=bv)
        assert lagged.scalar_flux.sum() > empty.scalar_flux.sum()

    def test_outgoing_halo_collected(self, small_mesh, small_quadrature, small_materials):
        halo = np.array([[26, 1, 1, 0], [26, 3, 1, 1]])
        executor, _, _ = make_executor(
            small_mesh, 1, small_quadrature, small_materials, halo_faces=halo,
            store_angular_flux=True,
        )
        source = np.ones((27, 3, 8))
        result = executor.sweep(source)
        outgoing = result.outgoing_halo
        faces = executor.boundary_table().faces
        assert outgoing.traces.shape == (small_quadrature.num_angles, len(faces), 3, 8)
        angles, slots = np.nonzero(outgoing.present)
        assert angles.size
        assert {tuple(pair) for pair in faces[slots].tolist()} == {(26, 1), (26, 3)}
        # Absent slots hold nothing; present ones the owning cell's flux.
        assert not outgoing.traces[~outgoing.present].any()
        psi = result.angular_flux.psi
        np.testing.assert_array_equal(outgoing.traces[angles, slots], psi[faces[slots, 0], angles])

    def test_store_angular_flux(self, small_mesh, small_quadrature, small_materials):
        executor, _, _ = make_executor(
            small_mesh, 1, small_quadrature, small_materials, store_angular_flux=True
        )
        source = np.ones((27, 3, 8))
        result = executor.sweep(source)
        assert result.angular_flux is not None
        reconstructed = result.angular_flux.scalar_flux(small_quadrature.weights)
        assert np.allclose(reconstructed, result.scalar_flux, atol=1e-12)

    def test_source_shape_validation(self, small_mesh, small_quadrature, small_materials):
        executor, _, _ = make_executor(small_mesh, 1, small_quadrature, small_materials)
        with pytest.raises(ValueError):
            executor.sweep(np.ones((27, 2, 8)))


class TestIterationController:
    def test_fixed_iteration_counts(self, small_mesh, small_quadrature, small_materials):
        executor, _, _ = make_executor(small_mesh, 1, small_quadrature, small_materials)
        fixed = uniform_source(27, 3)
        controller = IterationController(
            executor, small_materials, fixed, num_inners=4, num_outers=2
        )
        _flux, _last, history, timings = controller.run()
        assert history.total_inners == 8
        assert history.num_outers == 2
        assert not history.converged
        assert timings.systems_solved == 8 * 27 * small_quadrature.num_angles * 3

    def test_inner_tolerance_early_exit(self, small_mesh, small_quadrature, small_materials):
        executor, _, _ = make_executor(small_mesh, 1, small_quadrature, small_materials)
        fixed = uniform_source(27, 3)
        controller = IterationController(
            executor, small_materials, fixed,
            num_inners=50, num_outers=1, inner_tolerance=1e-6,
        )
        _flux, _last, history, _ = controller.run()
        assert history.total_inners < 50
        assert history.inner_errors[-1] <= 1e-6

    def test_source_mismatch_rejected(self, small_mesh, small_quadrature, small_materials):
        executor, _, _ = make_executor(small_mesh, 1, small_quadrature, small_materials)
        with pytest.raises(ValueError):
            IterationController(executor, small_materials, uniform_source(5, 3))

    def test_monotone_flux_growth_during_source_iteration(
        self, small_mesh, small_quadrature, small_materials
    ):
        # Source iteration from a zero initial guess produces a monotonically
        # non-decreasing scalar flux for a non-negative source.
        executor, _, _ = make_executor(small_mesh, 1, small_quadrature, small_materials)
        fixed = uniform_source(27, 3)
        prev_mean = -1.0
        flux = np.zeros((27, 3, 8))
        for _ in range(4):
            controller = IterationController(
                executor, small_materials, fixed, num_inners=1, num_outers=1
            )
            flux, _last, _hist, _t = controller.run(initial_flux=flux)
            mean = flux.mean()
            assert mean >= prev_mean
            prev_mean = mean


class TestTransportSolver:
    def test_converged_balance_closes(self):
        spec = ProblemSpec(
            nx=3, ny=3, nz=3, order=1, angles_per_octant=2, num_groups=2,
            max_twist=0.001, num_inners=40, num_outers=20,
            inner_tolerance=1e-9, outer_tolerance=1e-9,
        )
        result = TransportSolver(spec).solve()
        assert result.balance.relative_residual() < 1e-6
        assert result.history.converged

    def test_higher_order_elements_run(self):
        spec = ProblemSpec(
            nx=2, ny=2, nz=2, order=2, angles_per_octant=1, num_groups=2,
            num_inners=2, num_outers=1,
        )
        result = TransportSolver(spec).solve()
        assert result.scalar_flux.shape == (8, 2, 27)
        assert np.all(result.scalar_flux > 0)

    def test_solver_choice_does_not_change_answer(self):
        base = ProblemSpec(nx=2, ny=2, nz=2, order=1, angles_per_octant=1,
                           num_groups=2, num_inners=3, num_outers=1)
        ge = TransportSolver(base.with_(solver="ge")).solve()
        la = TransportSolver(base.with_(solver="lapack")).solve()
        assert np.allclose(ge.scalar_flux, la.scalar_flux, atol=1e-10)

    def test_memory_report_ratio(self):
        spec = ProblemSpec(nx=2, ny=2, nz=2, order=1, angles_per_octant=1,
                           num_groups=2, num_inners=1)
        solver = TransportSolver(spec)
        report = solver.memory_report()
        assert report["fem_to_fd_ratio"] == 8.0
        assert report["angular_flux_bytes"] == 8 * report["fd_equivalent_angular_flux_bytes"]

    def test_summary_keys(self):
        spec = ProblemSpec(nx=2, ny=2, nz=2, order=1, angles_per_octant=1,
                           num_groups=2, num_inners=1)
        summary = TransportSolver(spec).solve().summary()
        for key in ("cells", "groups", "solve_fraction", "balance_residual", "total_inners"):
            assert key in summary

    def test_twist_changes_solution_slightly(self):
        base = ProblemSpec(nx=3, ny=3, nz=3, order=1, angles_per_octant=1,
                           num_groups=1, num_inners=3, num_outers=1)
        untwisted = TransportSolver(base.with_(max_twist=0.0)).solve()
        twisted = TransportSolver(base.with_(max_twist=0.01)).solve()
        diff = np.abs(untwisted.scalar_flux - twisted.scalar_flux).max()
        assert 0 < diff < 0.05 * untwisted.scalar_flux.max()
