"""k-eigenvalue driver: infinite-medium physics, guards, telemetry."""

import numpy as np
import pytest

import repro
from repro.config import BoundaryCondition
from repro.engines import available_engines
from repro.materials import snap_driver_library, snap_option1_library
from repro.telemetry import Telemetry

REFLECTED = repro.ProblemSpec(
    nx=2, ny=2, nz=2,
    max_twist=0.0,
    angles_per_octant=1,
    num_groups=2,
    num_inners=50,
    inner_tolerance=1e-13,
    boundary=BoundaryCondition(kind="reflective"),
    driver="k_eigenvalue",
    k_tolerance=1e-10,
    max_power_iters=100,
)
#: Looser settings for tests probing plumbing rather than 1e-8 physics.
QUICK = REFLECTED.with_(num_inners=10, inner_tolerance=1e-8, k_tolerance=1e-6)


@pytest.fixture(scope="module")
def converged():
    return repro.run(REFLECTED)


class TestInfiniteMediumPhysics:
    def test_k_matches_the_analytic_k_infinity(self, converged):
        analytic = snap_driver_library(
            2, REFLECTED.scattering_ratio
        ).materials[0].k_infinity()
        assert converged.k_effective == pytest.approx(analytic, abs=1e-8)

    @pytest.mark.parametrize("num_groups", [1, 3])
    def test_k_infinity_holds_for_any_group_count(self, num_groups):
        spec = REFLECTED.with_(num_groups=num_groups)
        result = repro.run(spec)
        analytic = snap_driver_library(
            num_groups, spec.scattering_ratio
        ).materials[0].k_infinity()
        assert result.k_effective == pytest.approx(analytic, abs=1e-8)

    def test_converged_flux_is_spatially_flat(self, converged):
        """An infinite medium has no gradients: every node sees the same flux."""
        flux = converged.scalar_flux  # (E, G, N)
        for g in range(flux.shape[1]):
            values = flux[:, g, :]
            assert np.allclose(values, values.flat[0], rtol=1e-9)

    def test_k_history_converges_and_reports_dominance(self, converged):
        assert converged.k_history[-1] == converged.k_effective
        assert (
            abs(converged.k_history[-1] - converged.k_history[-2])
            <= REFLECTED.k_tolerance
        )
        assert converged.history.converged
        assert 0.0 < converged.dominance_ratio < 1.0

    def test_summary_carries_the_driver_fields(self, converged):
        summary = converged.summary()
        assert summary["k_effective"] == pytest.approx(0.6, abs=1e-8)
        assert summary["power_iterations"] == len(converged.k_history)
        assert "dominance_ratio" in summary

    def test_flux_is_normalised_to_unit_fission_production(self, converged):
        library = snap_driver_library(2, REFLECTED.scattering_ratio)
        nsf = library.materials[0].nu_sigma_f  # uniform material
        # cell_average_flux is (E, G); production = sum_E V_e * nsf . phi_e.
        volumes = np.full(converged.cell_average_flux.shape[0], 1.0 / 8.0)
        production = float(
            np.einsum("e,eg,g->", volumes, converged.cell_average_flux, nsf)
        )
        assert production == pytest.approx(1.0, rel=1e-9)

    def test_engines_agree_bit_for_bit(self):
        ge = repro.run(QUICK, engine="vectorized")
        lu = repro.run(QUICK, engine="prefactorized")
        np.testing.assert_array_equal(ge.scalar_flux, lu.scalar_flux)
        assert ge.k_history == lu.k_history

    @pytest.mark.skipif(
        "compiled" not in available_engines(), reason="no JIT provider (numba/cffi) available"
    )
    def test_compiled_tier_finds_the_same_k_in_the_same_iterations(self, converged):
        """Every sweep of a reflective run reads ghost rows on the compiled
        tier: same power iteration as the reference engine, k to rounding."""
        compiled = repro.run(REFLECTED, engine="compiled")
        assert compiled.k_effective == pytest.approx(0.6, abs=1e-8)
        assert len(compiled.k_history) == len(converged.k_history)
        assert compiled.total_inners == converged.total_inners
        np.testing.assert_allclose(compiled.k_history, converged.k_history, rtol=1e-12)
        np.testing.assert_allclose(
            compiled.scalar_flux, converged.scalar_flux, rtol=1e-11, atol=0
        )

    def test_unconverged_run_reports_it(self):
        result = repro.run(QUICK.with_(max_power_iters=2))
        assert not result.history.converged
        assert len(result.k_history) == 2


class TestGuards:
    def test_multi_rank_rejected(self):
        with pytest.raises(ValueError, match="single-rank"):
            repro.run(QUICK.with_(npex=2))

    def test_angular_source_hook_rejected(self):
        shape = (QUICK.num_angles, QUICK.num_cells, 2, 8)
        with pytest.raises(ValueError, match="angular source"):
            repro.run(QUICK, angular_source=np.zeros(shape))

    def test_fixed_source_rejected(self):
        from repro.materials.source_terms import uniform_source

        with pytest.raises(ValueError, match="homogeneous eigenproblem"):
            repro.run(QUICK, fixed_source=uniform_source(8, 2, 1.0))

    def test_missing_fission_data_rejected(self):
        fissionless = snap_option1_library(2, QUICK.scattering_ratio)
        with pytest.raises(ValueError, match="fission data"):
            repro.run(QUICK, materials=fissionless.for_cells(8))


class TestTelemetry:
    def test_power_phase_and_counter_and_bit_identity(self):
        plain = repro.run(QUICK)
        instrumented = repro.run(QUICK, telemetry=Telemetry())
        tel = instrumented.telemetry
        assert tel.counters["power_iterations"] == len(instrumented.k_history)
        assert "solve.power" in tel.phase_seconds
        assert "solve.sweep" in tel.phase_seconds
        np.testing.assert_array_equal(plain.scalar_flux, instrumented.scalar_flux)
        assert plain.k_history == instrumented.k_history
