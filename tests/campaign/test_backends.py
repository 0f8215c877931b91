"""Tests for the execution-backend registry and the backends' run contract.

The process-backend equivalence test is the acceptance gate of the campaign
subsystem: a study grid sharded across worker processes must reproduce the
serial fluxes and balance bit for bit.
"""

import numpy as np
import pytest

import repro
from repro.campaign import (
    Study,
    available_backends,
    backend_aliases,
    backend_listing,
    get_backend,
    register_backend,
    run_study,
    unregister_backend,
)
from repro.config import ProblemSpec

BASE = ProblemSpec(nx=3, ny=3, nz=3, angles_per_octant=1, num_groups=2, num_inners=2)
GRID = dict(engine=["vectorized", "prefactorized"], order=[1, 2])


class TestRegistry:
    def test_builtins_registered(self):
        assert available_backends() == ["distributed", "process", "serial", "thread"]

    def test_aliases(self):
        assert backend_aliases("process") == ["mp", "processes"]
        assert backend_aliases("distributed") == ["cluster", "spool"]
        assert get_backend("mp") is get_backend("process")
        assert get_backend("sequential") is get_backend("serial")
        assert get_backend("spool") is get_backend("distributed")

    def test_listing_has_descriptions(self):
        rows = {name: desc for name, _aliases, desc in backend_listing()}
        assert "serial" in rows and rows["serial"]

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="warp-drive"):
            get_backend("warp-drive")

    def test_instance_passthrough_and_rejection(self):
        assert get_backend(get_backend("serial")) is get_backend("serial")
        with pytest.raises(TypeError):
            get_backend(object())

    def test_register_and_unregister_custom_backend(self):
        @register_backend("test-custom", aliases=("tc",))
        class CustomBackend:
            """Delegates to serial (registration test only)."""

            def execute_iter(self, items, *, jobs=None):
                return get_backend("serial").execute_iter(items, jobs=jobs)

        try:
            assert "test-custom" in available_backends()
            result = run_study(Study.grid(BASE, order=[1]), backend="tc")
            assert len(result) == 1
        finally:
            unregister_backend("test-custom")
        assert "test-custom" not in available_backends()

    def test_register_rejects_non_backend(self):
        with pytest.raises(TypeError, match="execute_iter"):
            register_backend("broken")(object())

    def test_execute_only_backend_gets_a_migration_error(self):
        class LegacyBackend:
            """Implements only the retired in-order v1 contract."""

            def execute(self, items, *, jobs=None):
                return []

        for attempt in (register_backend("legacy"), get_backend):
            with pytest.raises(TypeError, match=r"execute_iter.*contract \(v1\) is retired"):
                attempt(LegacyBackend())
        assert "legacy" not in available_backends()


@pytest.fixture(scope="module")
def serial_result():
    return run_study(Study.grid(BASE, **GRID), backend="serial")


class TestBackendEquivalence:
    def _assert_bit_for_bit(self, serial, other):
        assert len(other) == len(serial)
        for a, b in zip(serial, other):
            assert a.axes == b.axes
            np.testing.assert_array_equal(a.result.scalar_flux, b.result.scalar_flux)
            np.testing.assert_array_equal(
                a.result.cell_average_flux, b.result.cell_average_flux
            )
            np.testing.assert_array_equal(a.result.leakage, b.result.leakage)
            np.testing.assert_array_equal(
                a.result.balance.residual, b.result.balance.residual
            )
            assert a.result.history.inner_errors == b.result.history.inner_errors

    def test_process_backend_bit_for_bit_equal_to_serial(self, serial_result):
        process = run_study(Study.grid(BASE, **GRID), backend="process", jobs=2)
        self._assert_bit_for_bit(serial_result, process)

    def test_thread_backend_bit_for_bit_equal_to_serial(self, serial_result):
        threaded = run_study(Study.grid(BASE, **GRID), backend="thread", jobs=2)
        self._assert_bit_for_bit(serial_result, threaded)

    def test_results_in_declaration_order_whatever_the_backend(self, serial_result):
        expected = [
            {"engine": engine, "order": order}
            for engine in GRID["engine"]
            for order in GRID["order"]
        ]
        assert [r.axes for r in serial_result] == expected

    def test_serial_matches_direct_run_facade(self, serial_result):
        direct = repro.run(BASE.with_(engine="vectorized", order=1))
        np.testing.assert_array_equal(
            serial_result[0].result.scalar_flux, direct.scalar_flux
        )

    def test_run_option_axis_forwarded(self):
        result = run_study(Study.grid(BASE, num_threads=[1, 2]), backend="serial")
        np.testing.assert_array_equal(
            result[0].result.scalar_flux, result[1].result.scalar_flux
        )

    def test_empty_study_executes_no_runs(self):
        result = run_study(Study.cases(BASE, []), backend="process")
        assert len(result) == 0 and result.new_run_count == 0

    def test_out_of_range_jobs_clamped_on_all_pool_backends(self):
        # ThreadPoolExecutor/ProcessPoolExecutor reject max_workers <= 0;
        # the backends clamp instead of crashing.
        study = Study.grid(BASE, order=[1])
        for backend in ("thread", "process"):
            result = run_study(study, backend=backend, jobs=0)
            assert result.new_run_count == 1

    def test_backend_result_count_mismatch_detected(self):
        class LossyBackend:
            """Drops the last result (contract-violation test only)."""

            def execute_iter(self, items, *, jobs=None):
                return list(get_backend("serial").execute_iter(items, jobs=jobs))[:-1]

        with pytest.raises(RuntimeError, match="1 results for 2 runs"):
            run_study(Study.grid(BASE, order=[1, 2]), backend=LossyBackend())
