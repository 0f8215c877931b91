"""Reusable engine-contract harness.

Every registered sweep engine -- built-in, the optional ``compiled`` tier,
or a third-party plugin -- must honour the same behavioural contract:

* **accuracy** -- the manufactured-solutions study observes the theoretical
  convergence order, and the flux agrees with the ``reference`` engine to
  conformance tolerance on a twisted multi-group problem;
* **factor-cache lifecycle** -- ``update_materials`` and ``set_engine``
  invalidate any memoised factors (no stale-factor reuse, bit-for-bit
  agreement with a freshly built solver); an engine either caches under
  keys namespaced by its own registered name and counts hits/misses, or
  leaves the cache empty and counts nothing; engines registered as several
  instances of one class (``vectorized`` / ``prefactorized``) never read
  each other's entries on a shared executor;
* **boundary inflow** -- incident-flux, lagged (block-Jacobi subdomain,
  traces present on some inflow faces and absent on others) and reflective
  sweeps agree with ``reference`` in flux, leakage and every outgoing halo
  trace, for orders 1 and 2, and are bit-identical across octant threads;
* **leakage** -- ``SweepResult.leakage`` equals the per-face tally of
  :func:`reference_leakage` bit for bit: vacuum, incident, block-Jacobi
  subdomain and reflective, orders 1 and 2, serial and octant-parallel;
* **one epilogue** -- the serial and the octant-parallel sweep weight, bank
  and halo-collect every angle identically: same ``outgoing_halo`` slots and
  traces, same angular-flux bank, bit for bit;
* **determinism** -- octant-parallel execution is bit-for-bit identical
  across thread counts, including under a factor-cache budget;
* **observability is free** -- telemetry (even with bucket sampling at full
  rate, which times every bucket of every sweep) never changes a single
  bit of the numerics, and a budgeted factor cache stays within its byte
  budget while producing the identical flux (spilled factors are
  recomputed, never refused).

:class:`EngineContract` packages each clause as a ``check_*`` method so the
parametrised suite (``test_contract.py``) can run every clause against
every engine in ``available_engines()`` with no per-engine special-casing
-- adding an engine to the registry automatically subjects it to the full
contract.  (The tests tree is not a package; pytest's rootdir handling
puts this directory on ``sys.path``, so the suite imports the harness as
the top-level module ``contract``.)
"""

from __future__ import annotations

import numpy as np

import repro
from repro.config import BoundaryCondition, ProblemSpec
from repro.core.solver import TransportSolver
from repro.core.sweep import BoundaryValues
from repro.engines import available_engines, get_engine
from repro.materials.library import snap_option1_library
from repro.parallel.block_jacobi import BlockJacobiDriver
from repro.telemetry import Telemetry
from repro.verify.mms import FemMMSProblem, estimate_order

__all__ = ["EngineContract", "CONTRACT_SPEC", "reference_leakage"]

#: Small but non-trivial: twisted mesh, multi-group, scattering, several
#: buckets per angle -- enough structure to catch wrong coupling signs,
#: stale factors and cross-group mixups while staying fast-tier sized.
CONTRACT_SPEC = ProblemSpec(
    nx=3,
    ny=3,
    nz=3,
    angles_per_octant=2,
    num_groups=2,
    num_inners=3,
    num_outers=2,
)


def reference_leakage(executor, result) -> np.ndarray:
    """The leakage oracle: the sweep's per-face tally, one face at a time.

    Walks ``mesh.boundary_faces()`` in order, skipping the executor's halo
    faces (their flow is the halo exchange's), over the angular flux
    ``result`` banked, and reduces the angles as :meth:`SweepExecutor.sweep`
    does: one running sum over every angle, or one per octant summed in
    octant order.  ``SweepResult.leakage`` must equal it bit for bit.
    """
    psi = result.angular_flux.psi  # (E, A, G, N)
    quadrature = executor.quadrature
    incident = executor.boundary.incoming_value()
    zeros = np.zeros(executor.num_groups, dtype=float)

    def tally(angle):
        direction = quadrature.directions[angle]
        orientation = executor.schedule.for_angle(angle).classification.orientation
        leak = zeros.copy()
        for element, face in executor.mesh.boundary_faces().tolist():
            if (element, face) in executor._halo_set:
                continue
            coupling = np.einsum("d,dij->ij", direction, executor.matrices.face_own[element, face])
            if orientation[element, face] == 1:
                # oint_f (Omega.n) psi dS = 1^T F psi: the constant is in the space.
                leak += psi[element, angle] @ coupling.sum(axis=0)
            elif orientation[element, face] == -1 and incident != 0.0:
                # Incident flux is constant over the face: psi = incident.
                leak += incident * coupling.sum()
        return leak

    def partial(angles):
        part = zeros.copy()
        for angle in angles:
            part += quadrature.weights[angle] * tally(angle)
        return part

    octants = [octant.tolist() for octant in quadrature.octant_order()]
    if not executor.octant_parallel:
        return partial([angle for octant in octants for angle in octant])
    total = zeros.copy()
    for octant in octants:
        total += partial(octant)
    return total


class EngineContract:
    """All contract clauses for one engine name (see module docstring)."""

    def __init__(self, engine: str, spec: ProblemSpec = CONTRACT_SPEC):
        self.engine = engine
        self.spec = spec.with_(engine=engine)

    # ------------------------------------------------------------- accuracy
    def check_mms_order(self) -> None:
        """The engine observes the theoretical MMS convergence order."""
        estimate = estimate_order(
            FemMMSProblem(order=1, engine=self.engine), resolutions=(4, 8)
        )
        assert estimate.passed, (
            f"{self.engine}: observed order {estimate.observed_order:.3f} "
            f"vs theoretical {estimate.theoretical_order}"
        )

    def check_reference_agreement(self, tolerance: float = 1e-12) -> None:
        """Flux agrees with the reference engine to conformance tolerance."""
        flux = repro.run(self.spec).scalar_flux
        baseline = repro.run(self.spec.with_(engine="reference")).scalar_flux
        scale = float(np.max(np.abs(baseline)))
        diff = float(np.max(np.abs(flux - baseline))) / scale
        assert diff <= tolerance, f"{self.engine}: relative deviation {diff:.3e}"

    # ------------------------------------------------------- boundary inflow
    @staticmethod
    def _boundary_inflow_sweep(spec: ProblemSpec, scenario: str, octant_threads: int = 0):
        """``(executor, result)`` of the last sweep of one boundary scenario
        (see the clauses), its angular flux banked."""
        threads = (
            {"octant_parallel": True, "num_threads": octant_threads} if octant_threads else {}
        )
        if scenario == "lagged":
            boundary = BoundaryCondition(kind="incident", incident_flux=0.5)
            spec = spec.with_(boundary=boundary, npex=2, npey=1)
            executor = BlockJacobiDriver(spec, **threads).executors[0]
        else:
            boundary = {
                "vacuum": BoundaryCondition(),
                "incident": BoundaryCondition(kind="incident", incident_flux=1.5),
                "reflective": BoundaryCondition(kind="reflective"),
            }[scenario]
            executor = TransportSolver(spec.with_(boundary=boundary), **threads).executor
        executor.store_angular_flux = True
        rng = np.random.default_rng(7)
        shape = (executor.mesh.num_cells, executor.num_groups, executor.num_nodes)
        source = 1.0 + rng.random(shape)
        lagged = BoundaryValues()
        if scenario == "lagged":
            # A trace on every other inflow halo slot: within one bucket some
            # faces read their lagged value, the rest fall back to incident.
            table = executor.boundary_table()
            lagged.allocate(executor.quadrature.num_angles, len(table.faces), *shape[1:])
            for angle in range(executor.quadrature.num_angles):
                orientation = executor.schedule.for_angle(angle).classification.orientation
                inflow = np.flatnonzero(table.halo & (orientation[tuple(table.faces.T)] == -1))
                for slot in inflow[angle % 2 :: 2].tolist():
                    lagged.traces[angle, slot] = 1.0 + rng.random(shape[1:])
                    lagged.present[angle, slot] = True
            assert len(lagged) > 0
        result = executor.sweep(source, lagged)
        if scenario == "reflective":
            # Two more sweeps, each consuming the mirrored traces of the last.
            for _ in range(2):
                executor.reflective.update(lagged, result.outgoing_halo)
                result = executor.sweep(source, lagged)
        return executor, result

    def check_boundary_inflow(self, tolerance: float = 1e-12) -> None:
        """Boundary inflow of every kind agrees with ``reference``.

        Incident flux, lagged block-Jacobi traces (mixed with incident
        fall-backs) and reflected traces, orders 1 and 2: flux, leakage and
        every ``outgoing_halo`` trace match the reference engine to
        ``tolerance``; octant-parallel sweeps on 1 and 2 threads are
        bit-identical to each other and collect the serial sweep's traces.
        """

        def close(got, want, what):
            scale = float(np.max(np.abs(want))) or 1.0
            diff = float(np.max(np.abs(got - want))) / scale
            assert diff <= tolerance, f"{self.engine}: {what} deviates {diff:.3e}"

        for order in (1, 2):
            spec = self.spec.with_(order=order)
            for scenario in ("incident", "lagged", "reflective"):
                what = f"order {order} {scenario}"
                _, want = self._boundary_inflow_sweep(spec.with_(engine="reference"), scenario)
                _, serial = self._boundary_inflow_sweep(spec, scenario)
                close(serial.scalar_flux, want.scalar_flux, f"{what} flux")
                close(serial.leakage, want.leakage, f"{what} leakage")
                halo, want_halo = serial.outgoing_halo, want.outgoing_halo
                assert (halo is None) == (want_halo is None) == (scenario == "incident"), what
                if halo is not None:
                    assert np.array_equal(halo.present, want_halo.present), what
                    for key in zip(*np.nonzero(want_halo.present)):
                        close(halo.traces[key], want_halo.traces[key], f"{what} halo {key}")

                one, two = (
                    self._boundary_inflow_sweep(spec, scenario, octant_threads=threads)[1]
                    for threads in (1, 2)
                )
                assert np.array_equal(one.scalar_flux, two.scalar_flux), what
                assert np.array_equal(one.leakage, two.leakage), what
                close(one.scalar_flux, serial.scalar_flux, f"{what} octant flux")
                for octant in (one, two):
                    if halo is None:
                        assert octant.outgoing_halo is None, what
                        continue
                    assert np.array_equal(octant.outgoing_halo.present, halo.present), what
                    assert np.array_equal(octant.outgoing_halo.traces, halo.traces), what

    def check_leakage_oracle(self) -> None:
        """``SweepResult.leakage`` is the per-face tally's, bit for bit.

        Vacuum, incident, a block-Jacobi 2x1 subdomain (its rank-interface
        faces excluded, lagged traces on some of them) and reflective (every
        boundary face a halo face: no domain face, zero leakage), orders 1
        and 2, serial and octant-parallel: see :func:`reference_leakage`.
        """
        for order in (1, 2):
            spec = self.spec.with_(order=order)
            for scenario in ("vacuum", "incident", "lagged", "reflective"):
                for threads in (0, 2):
                    executor, result = self._boundary_inflow_sweep(spec, scenario, threads)
                    want = reference_leakage(executor, result)
                    assert np.array_equal(result.leakage, want), (
                        f"{self.engine}: order {order} {scenario} octant threads {threads}: "
                        f"leakage {result.leakage} vs the per-face tally {want}"
                    )
                    if scenario == "reflective":
                        assert not want.any(), self.engine

    # -------------------------------------------------- factor-cache lifecycle
    def check_update_materials_invalidates(self) -> None:
        """Swapping cross sections mid-run never reuses stale factors."""
        solver = TransportSolver(self.spec)
        solver.solve()  # populate any factor cache
        replacement = snap_option1_library(self.spec.num_groups, 0.3)
        solver.update_materials(replacement)
        assert len(solver.executor.factor_cache) == 0, (
            f"{self.engine}: update_materials left factor-cache entries behind"
        )
        resolved = solver.solve().scalar_flux
        fresh = TransportSolver(self.spec, materials=replacement).solve().scalar_flux
        assert np.array_equal(resolved, fresh), (
            f"{self.engine}: post-update solve differs from a fresh solver "
            "(stale factors reused)"
        )

    def check_set_engine_invalidates(self) -> None:
        """Engine switches on a reused executor go through cache invalidation."""
        others = [name for name in available_engines() if name != self.engine]
        if not others:
            return
        solver = TransportSolver(self.spec)
        baseline = solver.solve().scalar_flux
        solver.set_engine(others[0])
        assert len(solver.executor.factor_cache) == 0, (
            f"{self.engine}: set_engine left factor-cache entries behind"
        )
        solver.solve()
        solver.set_engine(self.engine)
        assert len(solver.executor.factor_cache) == 0
        again = solver.solve().scalar_flux
        assert np.array_equal(baseline, again), (
            f"{self.engine}: solve after a round-trip engine switch differs"
        )

    def check_cache_policy(self) -> None:
        """Caching engines own namespaced entries and count them; others
        leave the factor cache empty and emit no hit/miss counters."""
        telemetry = Telemetry()
        solver = TransportSolver(self.spec, telemetry=telemetry)
        solver.solve()
        cache = solver.executor.factor_cache
        hits = telemetry.counters.get("factor_cache_hits", 0)
        misses = telemetry.counters.get("factor_cache_misses", 0)
        if len(cache) == 0:
            assert "factor_cache_hits" not in telemetry.counters, self.engine
            assert "factor_cache_misses" not in telemetry.counters, self.engine
            return
        assert all(key[0] == self.engine for key in cache), (
            f"{self.engine}: cache keys not namespaced by the registered name"
        )
        # Unbudgeted: every angle misses once, then only hits -- one entry,
        # one lookup and one count per angle per sweep.
        assert misses == len(cache), f"{self.engine}: {misses} misses, {len(cache)} entries"
        assert hits == misses * (telemetry.counters["sweeps"] - 1), self.engine

    def check_same_class_instances_never_collide(self) -> None:
        """Engines registered as instances of one class stay distinct: on a
        shared executor ``set_engine`` between them invalidates, and each
        only ever sees entries under its own name."""
        engine = get_engine(self.engine)
        siblings = [
            name
            for name in available_engines()
            if name != self.engine and type(get_engine(name)) is type(engine)
        ]
        for sibling in siblings:
            assert get_engine(sibling) is not engine
            solver = TransportSolver(self.spec)
            own = solver.solve().scalar_flux
            solver.set_engine(sibling)
            assert len(solver.executor.factor_cache) == 0, (
                f"{self.engine} -> {sibling}: entries survived the switch"
            )
            solver.solve()
            assert all(key[0] == sibling for key in solver.executor.factor_cache)
            solver.set_engine(self.engine)
            assert len(solver.executor.factor_cache) == 0
            assert np.array_equal(own, solver.solve().scalar_flux), (
                f"{self.engine}: flux changed after sharing an executor with {sibling}"
            )

    # --------------------------------------------------------- one epilogue
    def check_serial_and_octant_epilogues_agree(self) -> None:
        """Serial and octant-parallel sweeps differ only in reduction order.

        On a block-Jacobi subdomain (so there *are* halo faces) both modes
        must collect exactly the outflow halo traces, bank every angle and
        agree on both bit for bit; scalar flux and leakage agree to
        rounding (the octant mode sums per-octant partials).
        """
        executor = BlockJacobiDriver(self.spec.with_(npex=2, npey=1)).executors[0]
        executor.store_angular_flux = True
        source = np.ones((executor.mesh.num_cells, executor.num_groups, executor.num_nodes))
        serial = executor.sweep(source)
        executor.octant_parallel, executor.num_threads = True, 2
        octant = executor.sweep(source)

        faces = executor.boundary_table().faces
        halo = np.array([pair in executor._halo_set for pair in map(tuple, faces.tolist())])
        orientations = (
            executor.schedule.for_angle(angle).classification.orientation
            for angle in range(executor.quadrature.num_angles)
        )
        expected = np.array([halo & (orient[tuple(faces.T)] == 1) for orient in orientations])
        assert expected.any(), "contract spec produced no outflow halo faces"
        for result in (serial, octant):
            assert np.array_equal(result.outgoing_halo.present, expected), self.engine
        traces = serial.outgoing_halo.traces
        assert np.array_equal(traces, octant.outgoing_halo.traces), self.engine
        angles, slots = np.nonzero(expected)
        psi = serial.angular_flux.psi
        assert np.array_equal(traces[angles, slots], psi[faces[slots, 0], angles])
        assert np.array_equal(serial.angular_flux.psi, octant.angular_flux.psi), self.engine
        banked = serial.angular_flux.scalar_flux(executor.quadrature.weights)
        for result in (serial, octant):
            np.testing.assert_allclose(result.scalar_flux, banked, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(serial.leakage, octant.leakage, rtol=1e-12)
        assert serial.timings.systems_solved == octant.timings.systems_solved

    # ---------------------------------------------------------- determinism
    def check_thread_invariance(self) -> None:
        """Octant-parallel sweeps are bit-identical across thread counts.

        The octant pool fixes its angle-reduction order, so within the
        octant-parallel mode the worker count must never change a bit (the
        serial non-octant loop is a *different* documented reduction order
        and is covered by :func:`check_reference_agreement` at tolerance).
        """
        single = repro.run(self.spec, num_threads=1, octant_parallel=True).scalar_flux
        for threads in (2, 3):
            parallel = repro.run(
                self.spec, num_threads=threads, octant_parallel=True
            ).scalar_flux
            assert np.array_equal(single, parallel), (
                f"{self.engine}: flux changed under octant_parallel x{threads}"
            )

    # -------------------------------------------------------- observability
    def check_telemetry_off_identity(self) -> None:
        """Telemetry -- even full-rate bucket sampling -- changes no bits.

        Includes the tracing extension: a telemetry instrument with an
        attached span exporter (every phase becomes a span event) must
        also reproduce the bare flux bit for bit, and the span file must
        actually carry the solve phases under one trace id.
        """
        import tempfile
        from pathlib import Path

        from repro.obs.trace import SpanExporter, read_spans

        bare = repro.run(self.spec).scalar_flux
        plain = Telemetry()
        sampled = Telemetry(bucket_sample_rate=1.0)
        assert np.array_equal(bare, repro.run(self.spec, telemetry=plain).scalar_flux)
        assert np.array_equal(bare, repro.run(self.spec, telemetry=sampled).scalar_flux)
        # Rate 1 times every bucket of every angle of every sweep, one at a time.
        schedule = TransportSolver(self.spec).executor.schedule
        assert sampled.counters["bucket_samples"] == (
            sampled.counters["sweeps"] * schedule.total_buckets()
        ), self.engine
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "contract.jsonl"
            with SpanExporter(path) as exporter:
                traced = Telemetry().attach_exporter(exporter)
                with exporter.span("contract"):
                    flux = repro.run(self.spec, telemetry=traced).scalar_flux
            assert np.array_equal(bare, flux), (
                f"{self.engine}: attached span exporter changed the flux"
            )
            spans = read_spans(path)
            names = {span["name"] for span in spans}
            assert "solve" in names, (
                f"{self.engine}: traced run exported no solve-phase span "
                f"(got {sorted(names)})"
            )
            assert len({span["trace_id"] for span in spans}) == 1, (
                f"{self.engine}: one traced run produced multiple trace ids"
            )

    def check_budget_bounded(self, budget_bytes: int = 100_000) -> None:
        """A budgeted factor cache spills and recomputes, never refuses,
        stays within budget and reproduces the unbudgeted flux bit for bit."""
        unbudgeted = repro.run(self.spec).scalar_flux
        telemetry = Telemetry()
        budgeted = repro.run(
            self.spec, telemetry=telemetry, factor_cache_budget_bytes=budget_bytes
        ).scalar_flux
        assert np.array_equal(unbudgeted, budgeted), (
            f"{self.engine}: budgeted flux differs from unbudgeted"
        )
        caching = telemetry.counters.get("factor_cache_misses", 0) > 0
        if caching:
            # Engines that memoise factors must report their cache bytes,
            # stay under the (deliberately tight) budget and actually spill.
            peak = telemetry.gauges.get("factor_cache_bytes")
            assert peak is not None, f"{self.engine}: no factor_cache_bytes gauge"
            assert peak <= budget_bytes, (
                f"{self.engine}: cache holds {peak} bytes over the "
                f"{budget_bytes}-byte budget"
            )
            assert telemetry.counters.get("factor_cache_spills", 0) > 0, (
                f"{self.engine}: tight budget produced no spills"
            )

    # ------------------------------------------------------------- umbrella
    def check_all(self) -> None:
        """Every clause, in one call (used by plugin smoke tests)."""
        self.check_mms_order()
        self.check_reference_agreement()
        self.check_boundary_inflow()
        self.check_leakage_oracle()
        self.check_update_materials_invalidates()
        self.check_set_engine_invalidates()
        self.check_cache_policy()
        self.check_same_class_instances_never_collide()
        self.check_serial_and_octant_epilogues_agree()
        self.check_thread_invariance()
        self.check_telemetry_off_identity()
        self.check_budget_bounded()
