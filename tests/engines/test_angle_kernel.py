"""The compiled sweep: one ``sweep_angle`` kernel call per angle.

``sweep_angle_kernel`` walks an angle's CSR bucket offsets itself, so an
uninstrumented steady sweep crosses from Python into the kernels exactly
once per angle.  Asserted here: the C the cffi provider emits reproduces the
Python kernel bit for bit (ghost rows included), sweeping an angle in one
call equals sweeping it one bucket slice of the offsets at a time (the path
bucket sampling takes), and a real sweep makes exactly the expected number
of kernel calls.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import BoundaryCondition, ProblemSpec
from repro.core.solver import TransportSolver
from repro.engines import available_engines
from repro.engines.compiled import providers
from repro.engines.compiled.kernels import sweep_angle_kernel
from repro.solvers.prefactor import batched_gaussian_lu_factor
from repro.telemetry import Telemetry

pytestmark = pytest.mark.skipif(
    "compiled" not in available_engines(),
    reason="no JIT provider (numba/cffi) available",
)

SPEC = ProblemSpec(nx=3, ny=3, nz=2, angles_per_octant=2, num_groups=2,
                   num_inners=2, num_outers=1, max_twist=0.2, engine="compiled")


def _random_angle(rng, nodes, num_cells=7, ghosts=3, groups=2):
    """Well-conditioned random data for one angle of ``sweep_angle_kernel``.

    The elements, in shuffled sweep order, fall into three buckets; every
    coupling subtracts into an element of its bucket and reads an element of
    an earlier bucket or one of the ``ghosts`` rows behind the elements (the
    first coupling reads the last ghost row).  The element rows of ``psi``
    start as NaN: each must be written before it is read.
    """
    elements = np.asarray(rng.permutation(num_cells), dtype=np.int64)
    offsets = np.array([0, 2, 5, num_cells], dtype=np.int64)
    cpl_offsets, cpl_pos, cpl_src = [0], [], []
    for t in range(offsets.shape[0] - 1):
        first, last = offsets[t], offsets[t + 1]
        upwind = np.concatenate([elements[:first], num_cells + np.arange(ghosts)])
        count = int(rng.integers(2, 5))
        cpl_pos.extend(rng.choice(elements[first:last], size=count).tolist())
        cpl_src.extend(rng.choice(upwind, size=count).tolist())
        cpl_offsets.append(cpl_offsets[-1] + count)
    cpl_src[0] = num_cells + ghosts - 1
    systems = rng.standard_normal((num_cells * groups, nodes, nodes))
    systems += nodes * np.eye(nodes)  # diagonally dominant: safe pivots
    lu, piv = batched_gaussian_lu_factor(systems)
    psi = rng.standard_normal((num_cells + ghosts, groups, nodes))
    psi[:num_cells] = np.nan
    return dict(
        offsets=offsets,
        cpl_offsets=np.asarray(cpl_offsets, dtype=np.int64),
        elements=elements,
        mass=rng.standard_normal((num_cells, nodes, nodes)),
        source=rng.standard_normal((num_cells, groups, nodes)),
        cpl_pos=np.asarray(cpl_pos, dtype=np.int64),
        cpl_src=np.asarray(cpl_src, dtype=np.int64),
        cpl_mat=rng.standard_normal((len(cpl_pos), nodes, nodes)),
        lu=np.ascontiguousarray(lu),
        piv=np.ascontiguousarray(piv),
        psi=psi,
    )


@pytest.mark.skipif(not providers._cffi_available(), reason="cffi/cc missing")
@pytest.mark.parametrize("nodes", (1, 8, 27, 64))
def test_cffi_kernel_matches_python_kernel_bit_for_bit(nodes):
    """The emitted C is the Python statement for statement: identical IEEE
    arithmetic, ghost rows (``cpl_src >= E``) included."""
    c_kernel = providers._build_cffi_kernels().sweep_angle
    rng = np.random.default_rng(42 + nodes)
    for _ in range(3):
        data = _random_angle(rng, nodes)
        py = {k: np.copy(v) for k, v in data.items()}
        cc = {k: np.copy(v) for k, v in data.items()}
        sweep_angle_kernel(**py)
        c_kernel(**cc)
        np.testing.assert_array_equal(py["psi"], cc["psi"])
        assert not np.isnan(py["psi"]).any()
        # Only the element rows are written; ghost rows are read-only.
        num_cells = data["elements"].shape[0]
        np.testing.assert_array_equal(py["psi"][num_cells:], data["psi"][num_cells:])


@pytest.mark.parametrize("nodes", (1, 8))
def test_one_call_equals_one_bucket_slice_at_a_time(nodes):
    """A slice of the offsets sweeps just those buckets, with the same
    arithmetic: the whole angle in one call and bucket by bucket agree."""
    kernel = providers.select_provider().kernels().sweep_angle
    data = _random_angle(np.random.default_rng(nodes), nodes)
    whole = {k: np.copy(v) for k, v in data.items()}
    kernel(**whole)
    sliced = {k: np.copy(v) for k, v in data.items()}
    for t in range(data["offsets"].shape[0] - 1):
        kernel(**{
            **sliced,
            "offsets": sliced["offsets"][t : t + 2],
            "cpl_offsets": sliced["cpl_offsets"][t : t + 2],
        })
    np.testing.assert_array_equal(whole["psi"], sliced["psi"])
    assert not np.isnan(whole["psi"]).any()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls per kernel of the selected provider, through a counting shim."""
    provider = providers.select_provider()
    calls = dict.fromkeys(providers.Kernels._fields, 0)

    def counted(name, kernel):
        def call(*args):
            calls[name] += 1
            return kernel(*args)

        return call

    shim = providers.Kernels(*(counted(*pair) for pair in provider.kernels()._asdict().items()))
    monkeypatch.setattr(provider, "_kernels", shim)
    return calls


@pytest.mark.parametrize(
    "boundary",
    [BoundaryCondition(), BoundaryCondition(kind="incident", incident_flux=1.5)],
    ids=["vacuum", "incident"],
)
def test_a_sweep_is_one_kernel_call_per_angle(kernel_calls, boundary):
    """Cold: one build, one factorisation and one sweep call per angle.
    Steady: one sweep call per angle and nothing else.  With bucket
    sampling on, one sweep call per bucket."""
    solver = TransportSolver(SPEC.with_(boundary=boundary))
    executor = solver.executor
    angles = executor.quadrature.num_angles
    source = np.ones((executor.mesh.num_cells, executor.num_groups, executor.num_nodes))
    executor.sweep(source)
    assert kernel_calls == {"build_angle": angles, "lu_factor": angles, "sweep_angle": angles}
    for _ in range(2):
        kernel_calls.update(dict.fromkeys(kernel_calls, 0))
        executor.sweep(source)
        assert kernel_calls == {"build_angle": 0, "lu_factor": 0, "sweep_angle": angles}

    kernel_calls["sweep_angle"] = 0
    executor.telemetry = Telemetry(bucket_sample_rate=0.5)
    executor.sweep(source)
    assert kernel_calls["sweep_angle"] == executor.schedule.total_buckets()
