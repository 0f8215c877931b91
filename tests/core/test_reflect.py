"""Reflective boundaries: mirror tables and the infinite-medium limit."""

import numpy as np
import pytest

import repro
from repro.angular import snap_dummy_quadrature
from repro.config import BoundaryCondition
from repro.core.reflect import (
    ReflectiveBoundary,
    mirror_angle_table,
    mirror_node_permutations,
)
from repro.core.sweep import BoundaryValues
from repro.engines import available_engines
from repro.fem.lagrange import LagrangeHexBasis
from repro.materials import snap_option1_materials

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
        boundary = ReflectiveBoundary(quadrature, basis)
        trace = np.arange(8, dtype=float)[None, :]  # (G=1, N=8), distinct nodes
        # Face 0 has normal axis x: the ghost must appear at the x-mirrored
        # ordinate with the nodal vector flipped along x.
        values = boundary.update(BoundaryValues(), {(0, 0, 3): trace})
        (key, stored), = values.values.items()
        cell, face, angle = key
        assert (cell, face) == (0, 0)
        assert angle == int(boundary.mirror_angle[0, 3])
        np.testing.assert_array_equal(stored, trace[:, boundary.node_perm[0]])


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
