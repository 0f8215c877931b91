"""Tests for the cross-engine/solver/backend conformance matrix."""

import numpy as np
import pytest

from repro.config import ProblemSpec
from repro.engines import register_engine, unregister_engine
from repro.engines import BatchedSweepEngine
from repro.verify.conformance import canonical_spec, conformance_matrix

#: Small, quick matrix problem for the fast tier (the canonical spec with a
#: lighter angle count; the slow test runs the real thing).
FAST_SPEC = ProblemSpec(
    nx=3, ny=3, nz=3, angles_per_octant=1, num_groups=2, max_twist=0.001, num_inners=2
)


class TestConformanceMatrix:
    def test_registry_discovery_covers_every_engine_solver_combination(self):
        report = conformance_matrix(
            FAST_SPEC, backends=("serial",), thread_counts=(1,), octant_modes=(False,)
        )
        combos = {(case.engine, case.solver) for case in report.cases}
        assert {"reference", "vectorized", "prefactorized"} <= {e for e, _ in combos}
        assert {"ge", "lapack"} <= {s for _, s in combos}
        assert len(report.cases) == len(report.engines) * len(report.solvers)
        assert report.passed

    def test_batched_family_is_bitwise_identical_under_ge_only(self):
        report = conformance_matrix(
            FAST_SPEC, backends=("serial",), thread_counts=(1,), octant_modes=(False,)
        )
        family_checks = [c for c in report.checks if c.kind == "engine-family"]
        assert family_checks, "vectorized/prefactorized must form a checked family"
        # ge claims prefactorisation_exact, lapack does not: the exact class
        # is asserted for ge and never for lapack.
        assert all("/ge/" in c.group or c.group.startswith("batched/ge") for c in family_checks)
        assert all(c.passed for c in family_checks)
        digests = {(c.engine, c.solver): c.flux_digest for c in report.cases}
        assert digests[("vectorized", "ge")] == digests[("prefactorized", "ge")]

    def test_octant_parallel_and_threads_are_deterministic(self):
        report = conformance_matrix(
            FAST_SPEC,
            backends=("serial",),
            thread_counts=(1, 3),
            octant_modes=(False, True),
        )
        thread_checks = [c for c in report.checks if c.kind == "thread-determinism"]
        assert any("/octant/" in c.group for c in thread_checks)
        assert all(c.passed for c in thread_checks)
        assert report.passed

    def test_max_pairwise_deviation_is_tiny(self):
        report = conformance_matrix(
            FAST_SPEC, backends=("serial",), thread_counts=(1,), octant_modes=(False,)
        )
        assert report.max_pairwise_deviation < 1e-13

    def test_report_serialises_to_json_ready_dict(self):
        report = conformance_matrix(
            FAST_SPEC, backends=("serial",), thread_counts=(1,), octant_modes=(False,)
        )
        data = report.to_dict()
        assert data["passed"] is True
        assert data["num_cases"] == len(data["cases"])
        assert all(len(case["flux_digest"]) == 64 for case in data["cases"])
        assert {check["kind"] for check in data["bitwise_checks"]} <= {
            "backend-invariance",
            "thread-determinism",
            "engine-family",
        }

    def test_canonical_spec_exercises_the_interesting_paths(self):
        spec = canonical_spec()
        assert spec.angles_per_octant > 1  # octant reductions actually reduce
        assert spec.num_inners > 1  # factor caches are actually reused
        assert spec.num_groups > 1 and spec.max_twist > 0.0


class _SkewedEngine(BatchedSweepEngine):
    """A deliberately non-conforming engine (perturbs the flux by ~1e-9)."""

    def sweep_angle(self, executor, angle, total_source, boundary_values, incident, timings):
        psi = super().sweep_angle(
            executor, angle, total_source, boundary_values, incident, timings
        )
        return psi * (1.0 + 1e-9)


class TestNegativeControls:
    def test_a_non_conforming_engine_fails_the_tolerance(self):
        register_engine("skewed-for-test")(_SkewedEngine(keep_factors=False))
        try:
            report = conformance_matrix(
                FAST_SPEC,
                engines=("vectorized", "skewed-for-test"),
                solvers=("ge",),
                backends=("serial",),
                thread_counts=(1,),
                octant_modes=(False,),
            )
            assert not report.passed
            assert report.max_pairwise_deviation > report.tolerance
        finally:
            unregister_engine("skewed-for-test")

    def test_a_false_bitwise_family_claim_fails_exactly(self):
        # The skewed engine inherits bitwise_family="batched" from the
        # vectorized engine but does not reproduce its bytes: the family
        # check must catch the lie even when the deviation is within any
        # reasonable tolerance.
        register_engine("skewed-for-test")(_SkewedEngine(keep_factors=False))
        try:
            report = conformance_matrix(
                FAST_SPEC,
                engines=("vectorized", "skewed-for-test"),
                solvers=("ge",),
                backends=("serial",),
                thread_counts=(1,),
                octant_modes=(False,),
                tolerance=1.0,
            )
            family_checks = [c for c in report.checks if c.kind == "engine-family"]
            assert family_checks and not any(c.passed for c in family_checks)
            assert not report.passed
        finally:
            unregister_engine("skewed-for-test")


@pytest.mark.slow
class TestFullMatrix:
    def test_every_registered_combination_conforms(self):
        report = conformance_matrix()
        # engines x solvers x octant modes x thread counts x backends
        expected = (
            len(report.engines) * len(report.solvers) * 2 * 2 * len(report.backends)
        )
        assert len(report.cases) == expected
        assert report.passed, [c.to_dict() for c in report.failed_checks]

    def test_backends_return_identical_bytes(self):
        report = conformance_matrix(
            FAST_SPEC, thread_counts=(1,), octant_modes=(False,), jobs=2
        )
        backend_checks = [c for c in report.checks if c.kind == "backend-invariance"]
        assert backend_checks and all(c.passed for c in backend_checks)

    def test_fluxes_are_actually_compared_not_just_hashed(self):
        report = conformance_matrix(
            FAST_SPEC, backends=("serial",), thread_counts=(1,), octant_modes=(False,)
        )
        means = np.array([case.mean_flux for case in report.cases])
        np.testing.assert_allclose(means, means[0], rtol=1e-12)
