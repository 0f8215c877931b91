"""Geometry reuse: one per-process slot of mesh, factors, matrices, schedule.

A single-rank solver built from a spec alone takes its geometry from
:func:`repro.core.solver.geometry_for`, which keeps the last one it built and
hands it to the next spec with the same :data:`repro.config.GEOMETRY_FIELDS`.
Reuse must be invisible in the results (bit for bit against a private build)
and safe to share (every array read-only, threads included).
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.angular.quadrature import snap_dummy_quadrature
from repro.campaign import Study, run_study
from repro.config import GEOMETRY_FIELDS, BoundaryCondition, ProblemSpec
from repro.core import solver as solver_module
from repro.core.solver import Geometry, TransportSolver, geometry_for
from repro.engines import available_engines
from repro.mesh.builder import StructuredGridSpec, build_snap_mesh
from repro.telemetry import Telemetry

#: Every ProblemSpec field the geometry does *not* depend on.  A new field
#: fails the partition test until it is added here or to GEOMETRY_FIELDS.
NON_GEOMETRY_FIELDS = (
    "num_groups",
    "scattering_ratio",
    "source_strength",
    "num_inners",
    "num_outers",
    "inner_tolerance",
    "outer_tolerance",
    "solver",
    "engine",
    "octant_parallel",
    "boundary",
    "npex",
    "npey",
    "driver",
    "k_tolerance",
    "max_power_iters",
    "dt",
    "n_steps",
    "t_end",
    "initial_flux_value",
    "snapshot_every",
    "factor_cache_budget_bytes",
)

TINY = ProblemSpec(
    nx=2, ny=2, nz=2, angles_per_octant=1, num_groups=2, num_inners=2, engine="compiled"
)


@pytest.fixture(autouse=True)
def empty_slot(monkeypatch):
    """Each test starts from an empty slot and leaves the process's alone."""
    monkeypatch.setattr(solver_module, "_slot", None)


def _bypass_quadrature(spec: ProblemSpec):
    return snap_dummy_quadrature(spec.angles_per_octant)


class TestGeometryKey:
    def test_every_spec_field_is_classified(self):
        names = [f.name for f in dataclasses.fields(ProblemSpec)]
        assert not set(GEOMETRY_FIELDS) & set(NON_GEOMETRY_FIELDS)
        assert sorted(names) == sorted(GEOMETRY_FIELDS + NON_GEOMETRY_FIELDS)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_one_geometry_field_apart_never_shares(self, data):
        values = {
            "nx": st.integers(1, 2),
            "ny": st.integers(1, 2),
            "nz": st.integers(1, 2),
            "lx": st.floats(0.5, 2.0),
            "ly": st.floats(0.5, 2.0),
            "lz": st.floats(0.5, 2.0),
            "max_twist": st.floats(-0.01, 0.01),
            "twist_axis": st.sampled_from("xyz"),
            "order": st.integers(1, 2),
            "angles_per_octant": st.integers(1, 2),
        }
        base = TINY.with_(**{name: data.draw(values[name]) for name in GEOMETRY_FIELDS})
        name = data.draw(st.sampled_from(GEOMETRY_FIELDS))
        value = data.draw(
            values[name].filter(lambda v: repr(v) != repr(getattr(base, name))), label=name
        )
        other = base.with_(**{name: value})

        first = geometry_for(base)
        second = geometry_for(other)
        assert second is not first
        assert second.mesh.num_cells == other.num_cells
        assert second.ref.order == other.order
        assert second.quadrature.num_angles == other.num_angles
        assert geometry_for(base) is not first  # the slot holds one geometry

    @settings(max_examples=30, deadline=None)
    @given(
        changes=st.fixed_dictionaries(
            {},
            optional={
                "num_groups": st.integers(1, 3),
                "scattering_ratio": st.floats(0.0, 0.9),
                "source_strength": st.floats(0.0, 2.0),
                "num_inners": st.integers(1, 4),
                "solver": st.sampled_from(["ge", "lapack"]),
                "engine": st.sampled_from(available_engines()),
                "octant_parallel": st.booleans(),
                "boundary": st.sampled_from(
                    [BoundaryCondition(), BoundaryCondition(kind="reflective")]
                ),
                "driver": st.sampled_from(["fixed_source", "k_eigenvalue", "time_dependent"]),
                "dt": st.floats(0.01, 1.0),
                "factor_cache_budget_bytes": st.integers(0, 10**6),
            },
        )
    )
    def test_physics_and_driver_fields_share(self, changes):
        first = geometry_for(TINY)
        assert geometry_for(TINY.with_(**changes)) is first

    def test_equal_but_not_identical_floats_do_not_share(self):
        first = geometry_for(TINY.with_(max_twist=0.0))
        assert geometry_for(TINY.with_(max_twist=-0.0)) is not first

    def test_solvers_of_one_geometry_share_it(self):
        a = TransportSolver(TINY)
        b = TransportSolver(TINY.with_(num_groups=3, scattering_ratio=0.1))
        for name in ("mesh", "ref", "factors", "matrices", "quadrature", "schedule"):
            assert getattr(a, name) is getattr(b, name)
        assert a.executor is not b.executor

    def test_caller_mesh_or_quadrature_bypasses_the_slot(self):
        shared = TransportSolver(TINY)
        mesh = build_snap_mesh(StructuredGridSpec(2, 2, 2), max_twist=TINY.max_twist)
        for private in (
            TransportSolver(TINY, mesh=mesh),
            TransportSolver(TINY, quadrature=_bypass_quadrature(TINY)),
        ):
            assert private.factors is not shared.factors
            assert private.matrices.mass.flags.writeable
        assert solver_module._slot[1].factors is shared.factors


class TestReadOnly:
    def test_writes_into_shared_geometry_raise(self):
        shared = TransportSolver(TINY)
        schedule = shared.schedule.angle_schedules[0]
        arrays = {
            "mesh.vertices": shared.mesh.vertices,
            "mesh.face_neighbors": shared.mesh.face_neighbors,
            "factors.vol_weights": shared.factors.vol_weights,
            "factors.face_normals": shared.factors.face_normals,
            "matrices.mass": shared.matrices.mass,
            "matrices.face_neighbor": shared.matrices.face_neighbor,
            "matrices.node_int_weights": shared.matrices.node_int_weights,
            "schedule.tlevels": schedule.tlevels,
            "schedule.buckets[0]": schedule.buckets[0],
            "schedule.orientation": schedule.classification.orientation,
            "ref.phi_vol": shared.ref.phi_vol,
            "quadrature.directions": shared.quadrature.directions,
        }
        for name, array in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]
            assert not array.flags.writeable, name

    def test_geometry_fields_are_not_rebindable(self):
        geometry = geometry_for(TINY)
        with pytest.raises(dataclasses.FrozenInstanceError):
            geometry.mesh = None


def _assert_same(hit, built):
    np.testing.assert_array_equal(hit.scalar_flux, built.scalar_flux)
    np.testing.assert_array_equal(hit.leakage, built.leakage)
    assert hit.k_effective == built.k_effective
    assert hit.k_history == built.k_history


@pytest.mark.parametrize("engine", available_engines())
@pytest.mark.parametrize(
    "spec",
    [
        TINY,
        TINY.with_(
            max_twist=0.0,
            boundary=BoundaryCondition(kind="reflective"),
            driver="k_eigenvalue",
            num_inners=4,
            k_tolerance=1e-8,
            max_power_iters=6,
        ),
        TINY.with_(
            driver="time_dependent",
            scattering_ratio=0.0,
            source_strength=0.0,
            initial_flux_value=1.0,
            dt=0.25,
            n_steps=3,
        ),
    ],
    ids=["fixed-vacuum", "keff-reflective", "time-dependent"],
)
def test_slot_hit_is_bit_identical_to_a_private_build(spec, engine):
    spec = spec.with_(engine=engine)
    repro.run(spec.with_(scattering_ratio=0.3))  # fills the slot
    telemetry = Telemetry()
    hit = repro.run(spec, telemetry=telemetry)
    assert telemetry.counters["geometry_hits"] == 1
    assert "geometry_misses" not in telemetry.counters
    built = repro.run(spec, quadrature=_bypass_quadrature(spec))
    _assert_same(hit, built)
    if spec.driver == "fixed_source":
        mesh = build_snap_mesh(StructuredGridSpec(2, 2, 2), max_twist=spec.max_twist)
        np.testing.assert_array_equal(
            hit.scalar_flux, TransportSolver(spec, mesh=mesh).solve().scalar_flux
        )


def test_misses_are_counted_and_uninstrumented_runs_count_nothing():
    first, again = Telemetry(), Telemetry()
    repro.run(TINY, telemetry=first)
    repro.run(TINY, telemetry=again)
    assert first.counters["geometry_misses"] == 1 and "geometry_hits" not in first.counters
    assert again.counters["geometry_hits"] == 1
    assert repro.run(TINY).telemetry is None


def test_thread_backend_on_one_geometry_equals_serial():
    study = Study.grid(TINY, scattering_ratio=[0.1 * k for k in range(8)])
    serial = run_study(study, backend="serial")
    solver_module._slot = None  # the threads race to fill the slot
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_study(study, backend="thread", jobs=4)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, threaded):
        np.testing.assert_array_equal(a.result.scalar_flux, b.result.scalar_flux)
        np.testing.assert_array_equal(a.result.leakage, b.result.leakage)
    assert isinstance(solver_module._slot[1], Geometry)
