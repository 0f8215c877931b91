"""The compiled engine tier: providers, kernel equivalence, budget races.

The portable Python kernels (:mod:`repro.engines.compiled.kernels`) are the
single source of truth; the C the cffi provider emits from them
(:mod:`repro.engines.compiled.cgen`) must reproduce them *bit for bit* (same
statements, ``-ffp-contract=off``), and the LU kernel must reproduce the
numpy ``batched_gaussian_lu_factor`` bit for bit -- both asserted here on
randomised data for the cold-path kernels (the sweep kernel's twin is in
``test_angle_kernel.py``).  The remaining tests cover the provider selection override,
the cold entry build (compiled, singular systems, each coupling matrix held
once), the ghost rows that carry boundary inflow through the same kernels,
and the interaction between a factor-cache budget (spills mid-run) and
``update_materials`` (invalidation mid-run) -- the two must compose without
ever reusing a stale factor.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from contract import EngineContract
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import hashlib

import repro
from repro.config import BoundaryCondition, ProblemSpec
from repro.core.solver import TransportSolver
from repro.core.sweep import BoundaryValues
from repro.engines import available_engines, batched, get_engine
from repro.engines.compiled import providers
from repro.engines.compiled.kernels import build_angle_kernel, lu_factor_kernel
from repro.materials.library import snap_option1_library
from repro.mesh.hexmesh import BOUNDARY
from repro.parallel.block_jacobi import BlockJacobiDriver
from repro.solvers.prefactor import batched_gaussian_lu_factor
from repro.telemetry import Telemetry

pytestmark = pytest.mark.skipif(
    "compiled" not in available_engines(),
    reason="no JIT provider (numba/cffi) available",
)

SMALL = ProblemSpec(nx=3, ny=3, nz=3, angles_per_octant=2, num_groups=2,
                    num_inners=3, num_outers=2, engine="compiled")


def _random_build_inputs(rng, nodes, num_cells=5, groups=2):
    """Random data for ``build_angle_kernel``, every orientation present: all
    ``num_cells`` elements in a shuffled sweep order, cut into three buckets."""
    elements = np.asarray(rng.permutation(num_cells), dtype=np.int64)
    orient = np.asarray(rng.integers(-1, 2, size=(num_cells, 6)), dtype=np.int64)
    orient[0, :3] = (-1, 0, 1)
    # Some inflow faces sit on the domain boundary (negative upwind id).
    upwind = np.where(
        (orient == -1) & (rng.random((num_cells, 6)) < 0.7),
        rng.integers(0, num_cells, size=(num_cells, 6)),
        -1,
    ).astype(np.int64)
    num_cpl = int(np.count_nonzero(upwind >= 0))
    return dict(
        offsets=np.array([0, 2, 3, num_cells], dtype=np.int64),
        elements=elements,
        orient=orient,
        upwind=upwind,
        direction=rng.standard_normal(3),
        gradient=rng.standard_normal((num_cells, 3, nodes, nodes)),
        face_own=rng.standard_normal((num_cells, 6, 3, nodes, nodes)),
        face_neighbor=rng.standard_normal((num_cells, 6, 3, nodes, nodes)),
        mass=rng.standard_normal((num_cells, nodes, nodes)),
        sigma_t=rng.random((num_cells, groups)),
        # NaN-poisoned outputs: every element must be written.
        lu=np.full((num_cells * groups, nodes, nodes), np.nan),
        cpl_pos=np.full(num_cpl, -7, dtype=np.int64),
        cpl_src=np.full(num_cpl, -7, dtype=np.int64),
        cpl_mat=np.full((num_cpl, nodes, nodes), np.nan),
    )


def _run_lu_kernel(kernel, matrices):
    """``(status, lu, piv)`` of an in-place LU kernel on a copy of ``matrices``."""
    lu = np.array(matrices, dtype=np.float64, order="C")
    piv = np.full(lu.shape[:2], -7, dtype=np.int64)
    return kernel(lu, piv), lu, piv


def _swap_every_step(n, batch=2):
    """Strongly diagonally dominant systems with the rows rotated up by one:
    at every step but the last the pivot sits in the last row."""
    rng = np.random.default_rng(n)
    dominant = rng.standard_normal((batch, n, n)) + 4.0 * n * np.eye(n)
    return np.roll(dominant, -1, axis=1)


class TestProviders:
    def test_a_provider_is_selected(self):
        provider = providers.select_provider()
        assert provider is not None
        assert provider.name in ("numba", "cffi", "python")
        assert get_engine("compiled").provider_name == provider.name

    def test_engine_aliases_resolve(self):
        engine = get_engine("compiled")
        assert get_engine("jit") is engine
        assert get_engine("native") is engine

    @pytest.mark.skipif(not providers._cffi_available(), reason="cffi/cc missing")
    @pytest.mark.parametrize("nodes", (1, 8, 27, 64))
    def test_cffi_build_and_lu_match_python_kernels_bit_for_bit(self, nodes):
        """The cold path's emitted C: assembly, couplings, LU and pivots."""
        c_kernels = providers._build_cffi_kernels()
        rng = np.random.default_rng(nodes)
        data = _random_build_inputs(rng, nodes)
        py = {k: np.copy(v) for k, v in data.items()}
        cc = {k: np.copy(v) for k, v in data.items()}
        build_angle_kernel(**py)
        c_kernels.build_angle(**cc)
        for name in ("lu", "cpl_pos", "cpl_src", "cpl_mat"):
            np.testing.assert_array_equal(py[name], cc[name], err_msg=name)
        assert not np.isnan(py["lu"]).any() and not np.isnan(py["cpl_mat"]).any()
        assert (py["cpl_pos"] >= 0).all() and (py["cpl_src"] >= 0).all()

        # Factor the assembled systems plus random ones that need row swaps.
        for systems in (py["lu"], rng.standard_normal((3, nodes, nodes))):
            py_status, py_lu, py_piv = _run_lu_kernel(lu_factor_kernel, systems)
            c_status, c_lu, c_piv = _run_lu_kernel(c_kernels.lu_factor, systems)
            assert py_status == c_status == 0
            np.testing.assert_array_equal(py_lu, c_lu)
            np.testing.assert_array_equal(py_piv, c_piv)

    def test_build_kernel_matches_the_numpy_assembly(self):
        """The kernel assembles the systems and couplings the numpy engines
        do (to rounding: einsum reduces in its own order), bucket by bucket
        in sweep order, the couplings face-major within each bucket."""
        executor = TransportSolver(SMALL).executor
        angle = 3
        direction = executor.quadrature.directions[angle]
        asched = executor.schedule.for_angle(angle)
        entry, _ = get_engine("compiled").build_entry(executor, angle)
        groups = executor.num_groups
        np.testing.assert_array_equal(entry["elements"], np.concatenate(asched.buckets))

        for t, bucket in enumerate(asched.buckets):
            first, last = entry["offsets"][t : t + 2]
            orient = asched.classification.orientation[bucket]
            systems = batched.assemble_bucket_matrices(executor, direction, orient, bucket)
            lu, piv = batched_gaussian_lu_factor(systems.reshape(-1, *systems.shape[2:]))
            mine = slice(first * groups, last * groups)
            np.testing.assert_array_equal(entry["piv"][mine], piv)
            np.testing.assert_allclose(entry["lu"][mine], lu, rtol=1e-12, atol=1e-14)
            interior = batched.interior_upwind_couplings(executor, direction, orient, bucket)
            lo = entry["cpl_offsets"][t]
            for face in sorted(interior):
                idx, neighbors, coupling = interior[face]
                packed = slice(lo, lo := lo + idx.shape[0])
                np.testing.assert_array_equal(entry["cpl_pos"][packed], bucket[idx])
                np.testing.assert_array_equal(entry["cpl_src"][packed], neighbors)
                np.testing.assert_allclose(
                    entry["cpl_mat"][packed], coupling, rtol=1e-13, atol=1e-16
                )
            assert lo == entry["cpl_offsets"][t + 1]
        assert entry["cpl_offsets"][-1] == entry["cpl_pos"].shape[0] > 0

    def test_cffi_module_cache_is_reused(self):
        if providers.select_provider().name != "cffi":
            pytest.skip("resolved provider is not cffi")
        # Loading twice must come from the on-disk cache: same module file.
        emitted = providers._emit_c()
        first = providers._compile_cffi_module(emitted)
        second = providers._compile_cffi_module(emitted)
        assert first.__file__ == second.__file__


class TestLuKernelReproducesTheNumpyFactorisation:
    """``lu_factor_kernel`` == ``batched_gaussian_lu_factor``, bit for bit."""

    @staticmethod
    def _assert_same(matrices):
        status, lu, piv = _run_lu_kernel(lu_factor_kernel, matrices)
        try:
            want_lu, want_piv = batched_gaussian_lu_factor(matrices)
        except np.linalg.LinAlgError:
            assert status == 1
            return None
        assert status == 0
        np.testing.assert_array_equal(lu, want_lu)
        np.testing.assert_array_equal(piv, want_piv)
        return piv

    # Small integers force exact pivot ties (and singular batches: both
    # sides must then agree that the batch is singular); the floats include
    # signed zeros, subnormals and wide magnitude ranges.
    @given(
        st.integers(1, 6).flatmap(
            lambda n: hnp.arrays(
                np.float64,
                st.tuples(st.integers(1, 3), st.just(n), st.just(n)),
                elements=st.one_of(
                    st.integers(-2, 2).map(float),
                    st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True),
                ),
            )
        )
    )
    # A three-way tie in column 0 (the first maximum wins), a zero pivot
    # column, and a batch whose second system only is singular.
    @example(np.array([[[2.0, 1.0, 0.0], [-2.0, 0.0, 1.0], [2.0, 5.0, 3.0]]]))
    @example(np.array([[[0.0, 1.0], [0.0, 2.0]]]))
    @example(np.stack([np.eye(3), np.ones((3, 3))]))
    @settings(max_examples=150, deadline=None)
    def test_property(self, matrices):
        self._assert_same(matrices)

    @pytest.mark.parametrize("n", (2, 8, 27))
    def test_swap_at_every_step(self, n):
        piv = self._assert_same(_swap_every_step(n))
        assert (piv[:, :-1] == n - 1).all()  # every step but the last swaps


@pytest.fixture
def numpy_build_spy(monkeypatch):
    """Names of the engines whose entry build reached the numpy assembly."""
    callers: list[str] = []
    for function in ("assemble_bucket_matrices", "interior_upwind_couplings"):
        original = getattr(batched, function)

        def spy(executor, *args, _original=original):
            callers.append(executor.engine.name)
            return _original(executor, *args)

        monkeypatch.setattr(batched, function, spy)
    return callers


class TestCompiledColdBuild:
    """The entry build runs in the kernels: no numpy assembly, same contract."""

    def test_contract_clauses_never_reach_the_numpy_build(self, numpy_build_spy):
        """``update_materials``, ``set_engine`` and a spilling budget are
        registration-driven clauses; here they are shown to have run on the
        compiled build -- only the *other* engine of the switch assembles
        in numpy."""
        contract = EngineContract("compiled")
        contract.check_update_materials_invalidates()
        contract.check_budget_bounded()
        assert numpy_build_spy == []
        contract.check_set_engine_invalidates()
        assert numpy_build_spy and "compiled" not in numpy_build_spy

    def test_singular_system_raises_and_caches_nothing(self):
        solver = TransportSolver(SMALL)
        # Zeroed copies: the solver's own matrices are shared and read-only.
        solver.executor.matrices = dataclasses.replace(
            solver.executor.matrices,
            **{
                name: np.zeros_like(getattr(solver.executor.matrices, name))
                for name in ("mass", "gradient", "face_own")
            },
        )  # every local system is the zero matrix
        with pytest.raises(
            np.linalg.LinAlgError, match="^at least one matrix in the batch is singular$"
        ):
            solver.solve()
        assert len(solver.executor.factor_cache) == 0

    @pytest.mark.parametrize("boundary", ("vacuum", "reflective"))
    def test_cache_holds_every_byte_once(self, boundary):
        """``total_bytes`` is the footprint of distinct buffers: no coupling
        matrix is kept twice, no view is counted beside its base."""
        solver = TransportSolver(SMALL.with_(boundary=BoundaryCondition(kind=boundary)))
        solver.solve()
        cache = solver.executor.factor_cache
        buffers = {}
        for key in cache:
            for array in cache[key].values():
                assert isinstance(array, np.ndarray)
                while array.base is not None:
                    array = array.base
                buffers[id(array)] = array
        assert cache.total_bytes == sum(array.nbytes for array in buffers.values())
        assert cache.total_bytes > 0


#: ``SMALL`` on the parent of the ghost-row change (cffi provider): sha256 of
#: the scalar flux, and the factor cache's ``total_bytes`` over 112 entries
#: that each still held a 7-int64 ``cpl_offsets``.
PARENT_VACUUM_DIGEST = "d7033eea42d62033ff3e0556982758d220c51eb5b011e39333e2a3224bc4dd9b"
PARENT_VACUUM_CACHE_BYTES = 1_236_608


def _raise_numpy_assembly(*args, **kwargs):
    raise AssertionError("the compiled engine reached the numpy RHS assembly")


class TestGhostRows:
    """Boundary inflow rides the interior path: ghost rows behind ``psi[:E]``."""

    def test_boundary_inflow_never_reaches_the_numpy_assembly(self, monkeypatch):
        """Incident, lagged and reflective sweeps stay in the kernels."""
        monkeypatch.setattr(batched, "assemble_bucket_rhs", _raise_numpy_assembly)
        with pytest.raises(AssertionError, match="numpy RHS assembly"):
            repro.run(SMALL.with_(engine="prefactorized"))
        EngineContract("compiled").check_boundary_inflow()

    def test_vacuum_executor_packs_interior_couplings_only(self):
        """No ghost coupling, no ghost row -- and the flux of the parent
        commit, bit for bit, from one entry per angle holding no copy of a
        shared matrix."""
        solver = TransportSolver(SMALL)
        flux = solver.solve().scalar_flux
        executor = solver.executor
        assert not executor.sees_boundary_inflow
        cache = executor.factor_cache
        num_angles = executor.quadrature.num_angles
        assert sorted(cache) == [("compiled", angle) for angle in range(num_angles)]
        for angle in range(num_angles):
            orientation = executor.schedule.for_angle(angle).classification.orientation
            interior_inflow = (orientation == -1) & (executor.mesh.face_neighbors != BOUNDARY)
            entry = cache[("compiled", angle)]
            assert entry["cpl_pos"].shape[0] == np.count_nonzero(interior_inflow)
            assert (entry["cpl_src"] < executor.mesh.num_cells).all()
        # The parent's 112 per-bucket entries held a copy of their elements'
        # mass matrices and an rhs scratch; an angle holds its bucket offsets
        # (twice: elements and couplings) and its elements' sweep order.
        cells, groups, nodes = executor.mesh.num_cells, executor.num_groups, executor.num_nodes
        buckets = executor.schedule.total_buckets()
        parent = PARENT_VACUUM_CACHE_BYTES - 56 * buckets
        copies = 8 * num_angles * cells * (nodes * nodes + groups * nodes)
        csr = 8 * (2 * (buckets + num_angles) + num_angles * cells)
        assert cache.total_bytes == parent - copies + csr
        digest = hashlib.sha256(np.ascontiguousarray(flux).tobytes()).hexdigest()
        assert digest == PARENT_VACUUM_DIGEST

    def test_ghost_couplings_cover_every_boundary_inflow_face(self):
        executor = TransportSolver(
            SMALL.with_(boundary=BoundaryCondition(kind="reflective"))
        ).executor
        assert executor.sees_boundary_inflow
        num_cells = executor.mesh.num_cells
        faces = executor.boundary_table().faces
        engine = get_engine("compiled")
        for angle in range(executor.quadrature.num_angles):
            orientation = executor.schedule.for_angle(angle).classification.orientation
            entry, _ = engine.build_entry(executor, angle)
            assert entry["cpl_pos"].shape[0] == np.count_nonzero(orientation == -1)
            sources = entry["cpl_src"]
            ghosts = sources[sources >= num_cells] - num_cells
            inflow_slots = np.flatnonzero(orientation[tuple(faces.T)] == -1)
            assert sorted(ghosts.tolist()) == inflow_slots.tolist()

    def test_untouched_lagged_entries_persist_and_absent_ones_fall_back(self):
        """Lagged traces present on some inflow faces of a bucket and absent
        on others: the present ones are read on *every* sweep until replaced,
        the absent ones read ``incident``."""
        spec = SMALL.with_(
            boundary=BoundaryCondition(kind="incident", incident_flux=0.5), npex=2, npey=1
        )
        results = {}
        for engine in ("compiled", "reference"):
            executor = BlockJacobiDriver(spec.with_(engine=engine)).executors[0]
            table = executor.boundary_table()
            num_angles = executor.quadrature.num_angles

            def halo_inflow(angle):
                orientation = executor.schedule.for_angle(angle).classification.orientation
                return np.flatnonzero(table.halo & (orientation[tuple(table.faces.T)] == -1))

            # The first angle flowing in through the rank interface.
            angle = next(a for a in range(num_angles) if halo_inflow(a).size >= 2)
            slot = halo_inflow(angle)[0]
            rng = np.random.default_rng(3)
            shape = (executor.mesh.num_cells, executor.num_groups, executor.num_nodes)
            source = 1.0 + rng.random(shape)
            lagged = BoundaryValues().allocate(num_angles, len(table.faces), *shape[1:])
            lagged.traces[angle, slot] = 2.0 + rng.random(shape[1:])
            lagged.present[angle, slot] = True  # the rest: absent
            first = executor.sweep(source, lagged).scalar_flux
            again = executor.sweep(source, lagged).scalar_flux  # entry untouched
            np.testing.assert_array_equal(first, again)
            absent = executor.sweep(source, BoundaryValues()).scalar_flux  # incident only
            assert np.max(np.abs(first - absent)) > 1e-3
            results[engine] = (first, absent)
        for got, want in zip(*results.values()):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_lagged_values_without_halo_faces_are_refused(self):
        """Lagged traces belong to declared ``halo_faces``; a vacuum executor
        built with none has no ghost rows to put them in and says so."""
        executor = TransportSolver(SMALL).executor
        source = np.ones((executor.mesh.num_cells, executor.num_groups, executor.num_nodes))
        lagged = BoundaryValues().allocate(
            executor.quadrature.num_angles, len(executor.mesh.boundary_faces()),
            executor.num_groups, executor.num_nodes,
        )
        lagged.traces[0, 0], lagged.present[0, 0] = 1.0, True
        with pytest.raises(ValueError, match="halo_faces"):
            executor.sweep(source, lagged)
        executor.sweep(source, BoundaryValues())  # empty: nothing to refuse


class TestCompiledEngineBehaviour:
    def test_flux_matches_prefactorized_to_tolerance(self):
        compiled = repro.run(SMALL).scalar_flux
        baseline = repro.run(SMALL.with_(engine="prefactorized")).scalar_flux
        np.testing.assert_allclose(compiled, baseline, rtol=1e-12, atol=0)

    def test_factor_cache_entries_are_engine_namespaced(self):
        solver = TransportSolver(SMALL)
        solver.solve()
        keys = list(solver.executor.factor_cache)
        assert keys and all(key[0] == "compiled" for key in keys)

    def test_reflective_and_incident_boundaries(self):
        for boundary in (
            BoundaryCondition(kind="reflective"),
            BoundaryCondition(kind="incident", incident_flux=1.5),
        ):
            spec = SMALL.with_(boundary=boundary)
            compiled = repro.run(spec).scalar_flux
            baseline = repro.run(spec.with_(engine="prefactorized")).scalar_flux
            np.testing.assert_allclose(compiled, baseline, rtol=1e-12, atol=0)


class TestBudgetSpillVsInvalidation:
    """Cache spills and mid-run invalidation must compose: an entry evicted
    by the budget and rebuilt after ``update_materials`` must always factor
    against the *current* cross sections."""

    @pytest.mark.parametrize("engine", ("prefactorized", "compiled"))
    def test_no_stale_factors_after_update_under_budget(self, engine):
        spec = SMALL.with_(engine=engine)
        telemetry = Telemetry()
        solver = TransportSolver(spec, telemetry=telemetry)
        solver.executor.factor_cache.budget_bytes = 60_000
        solver.solve()
        assert telemetry.counters.get("factor_cache_spills", 0) > 0

        replacement = snap_option1_library(spec.num_groups, 0.3)
        solver.update_materials(replacement)
        assert len(solver.executor.factor_cache) == 0
        resolved = solver.solve().scalar_flux

        fresh = TransportSolver(spec, materials=replacement).solve().scalar_flux
        np.testing.assert_array_equal(resolved, fresh)

    @pytest.mark.parametrize("engine", ("prefactorized", "compiled"))
    def test_update_between_every_sweep_under_budget(self, engine):
        """Alternate materials every solve with a budget tight enough to
        spill constantly; each solve must equal its fresh-solver twin."""
        spec = SMALL.with_(engine=engine)
        solver = TransportSolver(spec)
        solver.executor.factor_cache.budget_bytes = 40_000
        libraries = [
            snap_option1_library(spec.num_groups, ratio) for ratio in (0.5, 0.2, 0.8)
        ]
        for library in libraries:
            solver.update_materials(library)
            got = solver.solve().scalar_flux
            want = TransportSolver(spec, materials=library).solve().scalar_flux
            np.testing.assert_array_equal(got, want)
