"""Registry-coverage guard: nothing registered escapes the conformance matrix.

The conformance matrix and the MMS engine-independence check are only as
good as their discovery: an engine (or solver, or campaign backend)
registered without appearing in them would ship unproven.  These tests pin
the wiring:

* the conformance matrix defaults cover *every* registered engine, solver
  and backend (checked against a stubbed study runner, so the full default
  matrix -- including process/distributed backends -- is asserted without
  paying for real runs);
* a real serial-backend conformance pass covers all engines x solvers and
  passes.

Registering something new without extending the matrix makes one of these
fail by construction -- that is the point.
"""

from __future__ import annotations

from repro.campaign.backends import available_backends
from repro.config import ProblemSpec
from repro.engines import available_engines
from repro.solvers import available_solvers
from repro.verify.conformance import conformance_matrix

FAST = ProblemSpec(
    nx=3, ny=3, nz=3, angles_per_octant=1, num_groups=2,
    max_twist=0.001, num_inners=2,
)


class TestConformanceCoverage:
    def test_default_matrix_covers_every_registry(self, monkeypatch):
        """The default (no-argument) matrix enumerates every registered
        engine, solver and backend -- asserted against a stub runner."""
        from repro.verify import conformance as module

        executed: list[tuple[str, object]] = []
        real_run_study = module.run_study

        def capture(study, *, backend, jobs=None):
            executed.append((backend, study))
            return real_run_study(study, backend="serial", jobs=jobs)

        monkeypatch.setattr(module, "run_study", capture)
        report = conformance_matrix(FAST, octant_modes=(False,), thread_counts=(1,))
        assert set(report.engines) == set(available_engines())
        assert set(report.solvers) == set(available_solvers())
        assert set(report.backends) == set(available_backends())
        assert {backend for backend, _ in executed} == set(available_backends())
        for _, study in executed:
            specs = [point.spec for point in study.runs()]
            assert {spec.engine for spec in specs} == set(available_engines())
            assert {spec.solver for spec in specs} == set(available_solvers())

    def test_serial_matrix_passes_with_every_engine(self):
        report = conformance_matrix(
            FAST, backends=("serial",), thread_counts=(1,), octant_modes=(False,)
        )
        assert report.passed, report.summary() if hasattr(report, "summary") else report
        covered = {case.engine for case in report.cases}
        assert covered == set(available_engines())
