"""Unit tests for the local assembly, sources, convergence and balance pieces."""

import numpy as np
import pytest

from repro.core.assembly import AssemblyTimings
from repro.core.balance import particle_balance
from repro.core.convergence import is_converged, max_relative_difference, relative_change
from repro.core.flux import FluxMoments, AngularFluxBank
from repro.core.source import build_outer_source, build_total_source, scattering_source
from repro.materials.library import snap_option1_library
from repro.materials.source_terms import uniform_source
from repro.sweepsched.graph import classify_faces


class TestAssemblyTimings:
    def test_fractions(self):
        t = AssemblyTimings(assembly_seconds=3.0, solve_seconds=1.0, systems_solved=10)
        assert t.total_seconds == pytest.approx(4.0)
        assert t.solve_fraction == pytest.approx(0.25)
        assert AssemblyTimings().solve_fraction == 0.0

    def test_merge(self):
        a = AssemblyTimings(1.0, 2.0, 5)
        b = AssemblyTimings(0.5, 0.5, 3)
        m = a.merge(b)
        assert m.assembly_seconds == 1.5 and m.solve_seconds == 2.5 and m.systems_solved == 8


class TestElementMatrices:
    def test_mass_matrix_row_sums_equal_volume(self, small_matrices, small_factors):
        # sum_ij M_ij = int (sum_i phi_i)(sum_j phi_j) dV = cell volume.
        totals = small_matrices.mass.sum(axis=(1, 2))
        assert np.allclose(totals, small_factors.volumes, rtol=1e-12)

    def test_mass_matrices_spd(self, small_matrices):
        for m in small_matrices.mass:
            assert np.allclose(m, m.T, atol=1e-13)
            assert np.all(np.linalg.eigvalsh(m) > 0)

    def test_node_int_weights_sum_to_volume(self, small_matrices, small_factors):
        assert np.allclose(small_matrices.node_int_weights.sum(axis=1), small_factors.volumes)

    def test_gradient_matrices_constant_function(self, small_matrices):
        # G[d] applied to the constant vector integrates d(phi_i)/dx_d over the
        # cell, and summing over i gives zero (divergence of a constant).
        ones = np.ones(small_matrices.num_nodes)
        for e in range(small_matrices.num_elements):
            for d in range(3):
                assert small_matrices.gradient[e, d] @ ones @ ones == pytest.approx(0.0, abs=1e-10)

    def test_face_matrices_sum_to_signed_area(self, small_matrices, small_factors):
        # sum_ij F[f,d]_ij = oint_f n_d dS (the signed face-area vector).
        for e in range(small_matrices.num_elements):
            for f in range(6):
                expected = np.einsum(
                    "q,qd->d", small_factors.face_weights[e, f], small_factors.face_normals[e, f]
                )
                total = small_matrices.face_own[e, f].sum(axis=(1, 2))
                assert np.allclose(total, expected, atol=1e-12)

    def test_divergence_theorem(self, small_matrices):
        # For any direction Omega: G.Omega + G.Omega^T = sum_f F_own[f].Omega
        # (integration by parts with sum_i phi_i = 1 gives the weak identity
        # int phi_j Omega.grad(phi_i) + int phi_i Omega.grad(phi_j)
        #   = oint (Omega.n) phi_i phi_j).
        omega = np.array([0.3, -0.5, 0.81])
        for e in range(small_matrices.num_elements):
            lhs = np.einsum("d,dij->ij", omega, small_matrices.gradient[e])
            lhs = lhs + lhs.T
            rhs = np.einsum("d,fdij->ij", omega, small_matrices.face_own[e])
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_streaming_matrix_uses_outflow_faces_only(
        self, small_matrices, small_factors
    ):
        omega = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        cls = classify_faces(small_factors, omega)
        a = small_matrices.streaming_matrix(0, omega, cls.orientation[0])
        # Adding sigma M must produce a non-singular (invertible) system.
        sys = a + 1.0 * small_matrices.mass[0]
        assert np.linalg.cond(sys) < 1e8

    def test_assemble_systems_shapes(self, small_matrices, small_factors):
        omega = np.array([0.6, 0.64, 0.48])
        cls = classify_faces(small_factors, omega)
        num_groups = 3
        sigma_t = np.array([1.0, 1.1, 1.2])
        source = np.ones((num_groups, small_matrices.num_nodes))
        a, b = small_matrices.assemble_systems(0, omega, cls.orientation[0], sigma_t, source, {})
        assert a.shape == (num_groups, 8, 8)
        assert b.shape == (num_groups, 8)
        # Group dependence enters only through sigma_t * M.
        assert np.allclose(a[1] - a[0], 0.1 * small_matrices.mass[0], atol=1e-12)

    def test_upwind_trace_moves_rhs(self, small_matrices, small_factors):
        omega = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        cls = classify_faces(small_factors, omega)
        # Cell 13 (centre of the 3^3 mesh) has interior inflow faces 0, 2, 4.
        sigma_t = np.ones(1)
        source = np.zeros((1, 8))
        trace = {0: np.full((1, 8), 2.0)}
        _a0, b0 = small_matrices.assemble_systems(
            13, omega, cls.orientation[13], sigma_t, source, {}
        )
        _a1, b1 = small_matrices.assemble_systems(
            13, omega, cls.orientation[13], sigma_t, source, trace
        )
        assert np.allclose(b0, 0.0)
        # Incoming flux adds a positive contribution (Omega.n < 0 on inflow).
        assert b1.sum() > 0.0

    def test_memory_footprint(self, small_matrices):
        assert small_matrices.memory_footprint_bytes() > 0


class TestSources:
    def test_scattering_source_selectors(self):
        phi = np.ones((2, 3, 4))
        sigma_s = np.tile(np.array([[0.2, 0.1, 0.0], [0.0, 0.3, 0.1], [0.0, 0.0, 0.4]]), (2, 1, 1))
        full = scattering_source(phi, sigma_s)
        within = scattering_source(phi, sigma_s, within_group_only=True)
        cross = scattering_source(phi, sigma_s, exclude_within_group=True)
        assert np.allclose(full, within + cross)
        assert np.allclose(within[0, 0], 0.2)
        assert np.allclose(cross[0, 1], 0.1)
        with pytest.raises(ValueError):
            scattering_source(phi, sigma_s, within_group_only=True, exclude_within_group=True)

    def test_outer_and_total_source(self, small_mesh):
        num_groups = 3
        materials = snap_option1_library(num_groups).for_cells(small_mesh.num_cells)
        fixed = uniform_source(small_mesh.num_cells, num_groups, strength=2.0)
        phi = np.zeros((small_mesh.num_cells, num_groups, 8))
        outer = build_outer_source(fixed, materials, phi, num_nodes=8)
        # With zero flux the outer source is just the fixed source.
        assert np.allclose(outer, 2.0)
        total = build_total_source(outer, materials, phi)
        assert np.allclose(total, outer)
        # A non-zero flux adds in-group scattering to the total source.
        phi[:] = 1.0
        total = build_total_source(outer, materials, phi)
        assert np.all(total >= outer)


class TestConvergence:
    def test_max_relative_difference(self):
        a = np.array([1.0, 2.0, 4.0])
        b = np.array([1.0, 1.0, 4.0])
        assert max_relative_difference(a, b) == pytest.approx(0.5)
        assert max_relative_difference(a, a) == 0.0
        with pytest.raises(ValueError):
            max_relative_difference(a, b[:2])

    def test_relative_change(self):
        a = np.ones(4)
        assert relative_change(a, a) == 0.0
        assert relative_change(a, np.zeros(4)) == pytest.approx(1.0)

    def test_is_converged_disabled_by_nonpositive_tolerance(self):
        a, b = np.ones(3), np.ones(3)
        assert not is_converged(a, b, 0.0)
        assert is_converged(a, b, 1e-12)


class TestFluxContainers:
    def test_flux_moments(self, small_factors, small_matrices):
        flux = FluxMoments.zeros(27, 2, 8)
        assert flux.shape == (27, 2, 8)
        weights = small_matrices.node_int_weights
        flux.scalar[:] = 2.0
        avg = flux.cell_average(small_factors.volumes, weights)
        assert np.allclose(avg, 2.0)
        assert np.allclose(flux.group_integrals(weights), 2.0 * small_factors.volumes.sum())
        copy = flux.copy()
        copy.scalar[:] = 0.0
        assert np.all(flux.scalar == 2.0)

    def test_angular_bank(self):
        bank = AngularFluxBank.zeros(4, 8, 2, 8)
        bank.psi[:] = 1.0
        weights = np.full(8, 1.0 / 8.0)
        assert np.allclose(bank.scalar_flux(weights), 1.0)
        assert bank.fd_footprint_ratio() == 8.0
        assert bank.memory_footprint_bytes() == 4 * 8 * 2 * 8 * 8


class TestBalanceReport:
    def test_pure_absorber_closed_box_balance(self, small_mesh, small_factors, small_matrices):
        # Construct a fake converged state where absorption exactly equals the
        # source and leakage is zero, and check the report arithmetic.
        from repro.materials.cross_sections import MaterialLibrary
        from repro.materials.library import pure_absorber

        num_groups = 2
        materials = MaterialLibrary(materials=[pure_absorber(num_groups, sigma_t=2.0)]).for_cells(
            small_mesh.num_cells
        )
        fixed = uniform_source(small_mesh.num_cells, num_groups, strength=1.0)
        weights = small_matrices.node_int_weights
        flux = np.full((small_mesh.num_cells, num_groups, 8), 0.5)  # q / sigma_t
        report = particle_balance(
            scalar_flux=flux,
            node_weights=weights,
            materials=materials,
            fixed=fixed,
            leakage=np.zeros(num_groups),
            volumes=small_factors.volumes,
        )
        assert report.relative_residual() < 1e-12
        assert np.allclose(report.scattering_in, 0.0)
        assert np.allclose(report.residual, 0.0, atol=1e-12)
