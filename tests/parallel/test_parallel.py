"""Tests for the simulated communicator, halo exchange and block Jacobi."""

import numpy as np
import pytest

import repro
from repro.config import ProblemSpec
from repro.core.sweep import BoundaryValues, boundary_slots
from repro.core.solver import TransportSolver
from repro.engines import available_engines
from repro.mesh.builder import StructuredGridSpec, build_snap_mesh
from repro.mesh.partition import partition_kba
from repro.parallel.block_jacobi import BlockJacobiDriver
from repro.parallel.comm import SimCommWorld
from repro.parallel.halo import HaloExchanger


class TestSimComm:
    def test_rank_and_size(self):
        world = SimCommWorld(3)
        comms = world.comms()
        assert [c.Get_rank() for c in comms] == [0, 1, 2]
        assert all(c.Get_size() == 3 for c in comms)

    def test_send_recv_fifo_per_source_and_tag(self):
        world = SimCommWorld(2)
        c0, c1 = world.comms()
        c0.send("first", dest=1, tag=5)
        c0.send("second", dest=1, tag=5)
        c0.send("other", dest=1, tag=9)
        assert c1.recv(source=0, tag=5) == "first"
        assert c1.recv(source=0, tag=9) == "other"
        assert c1.recv(source=0, tag=5) == "second"
        assert world.pending_messages() == 0

    def test_recv_without_message_raises(self):
        world = SimCommWorld(2)
        with pytest.raises(RuntimeError):
            world.comm(0).recv(source=1, tag=0)

    def test_message_accounting(self):
        world = SimCommWorld(2)
        world.comm(0).send(np.zeros(10), dest=1)
        assert world.message_count == 1
        assert world.bytes_sent == 80

    def test_invalid_ranks(self):
        world = SimCommWorld(2)
        with pytest.raises(ValueError):
            world.comm(5)
        with pytest.raises(ValueError):
            world.comm(0).send("x", dest=7)
        with pytest.raises(ValueError):
            SimCommWorld(0)

    def test_single_rank_allreduce_and_bcast(self):
        world = SimCommWorld(1)
        comm = world.comm(0)
        assert comm.allreduce(4.0) == 4.0
        assert comm.bcast({"a": 1}) == {"a": 1}


class TestHaloExchanger:
    def test_round_trip_between_two_ranks(self):
        mesh = build_snap_mesh(StructuredGridSpec(2, 1, 1))
        decomp = partition_kba(mesh, 2, 1)
        world = SimCommWorld(2)
        ex0 = HaloExchanger(decomp.subdomains[0], world.comm(0))
        ex1 = HaloExchanger(decomp.subdomains[1], world.comm(1))
        assert ex0.partners == [1] and ex1.partners == [0]

        # Each rank's only cell has six boundary-face slots (faces 0..5).
        slots = [boundary_slots(sub.mesh)[1] for sub in decomp.subdomains]
        outgoing = [BoundaryValues().allocate(8, 6, 1, 8) for _ in range(2)]
        # Rank 0's only cell sends its +x trace for angle 3; rank 1 nothing.
        trace = np.arange(8, dtype=float).reshape(1, 8)
        outgoing[0].traces[3, slots[0][0, 1]] = trace
        outgoing[0].present[3, slots[0][0, 1]] = True
        assert ex0.post_outgoing(outgoing[0]) == ex1.post_outgoing(outgoing[1]) == 1
        incoming1 = ex1.collect_incoming()
        incoming0 = ex0.collect_incoming()
        # Rank 1 sees the trace in the slot of its own local cell and the
        # face as seen from its side (-x), same angle; nothing else.
        np.testing.assert_array_equal(incoming1.get(3, slots[1][0, 0]), trace)
        assert len(incoming1) == 1
        assert len(incoming0) == 0
        # One (K, G, N) message per partner: the bytes are the traces'.
        assert world.message_count == 2 and world.bytes_sent == trace.nbytes

    def test_halo_volume_estimate(self):
        mesh = build_snap_mesh(StructuredGridSpec(4, 4, 2))
        decomp = partition_kba(mesh, 2, 1)
        world = SimCommWorld(2)
        ex = HaloExchanger(decomp.subdomains[0], world.comm(0))
        assert ex.halo_volume_bytes(num_groups=4, num_nodes=8, num_angles=8) > 0

    def test_boundary_values_container(self):
        bv = BoundaryValues()
        assert bv.get(0, 0) is None and len(bv) == 0  # empty: nothing allocated
        assert bv.allocate(4, 3, 2, 8) is bv
        assert bv.traces.shape == (4, 3, 2, 8) and bv.get(3, 2) is None
        bv.traces[3, 2], bv.present[3, 2] = 1.0, True
        assert bv.get(3, 2).shape == (2, 8)
        assert len(bv) == 1
        traces = bv.traces
        assert bv.allocate(4, 3, 2, 8).traces is traces  # allocated once


class TestBlockJacobi:
    @pytest.fixture(scope="class")
    def base_spec(self):
        return ProblemSpec(
            nx=4, ny=4, nz=2, order=1, angles_per_octant=1, num_groups=2,
            max_twist=0.001, num_inners=25, num_outers=1, inner_tolerance=1e-9,
        )

    def test_matches_single_rank_at_convergence(self, base_spec):
        single = TransportSolver(base_spec).solve()
        multi = BlockJacobiDriver(base_spec.with_(npex=2, npey=2)).solve()
        rel = np.abs(multi.scalar_flux - single.scalar_flux) / np.maximum(
            single.scalar_flux, 1e-12
        )
        assert rel.max() < 1e-6
        assert multi.num_ranks == 4

    def test_convergence_degrades_with_rank_count(self, base_spec):
        spec = base_spec.with_(num_inners=6, inner_tolerance=0.0)
        single = BlockJacobiDriver(spec.with_(npex=1, npey=1)).solve()
        multi = BlockJacobiDriver(spec.with_(npex=4, npey=2)).solve()
        # After the same number of inners the multi-rank Jacobi iterate is
        # farther from convergence (larger last relative change).
        assert multi.inner_errors[-1] > single.inner_errors[-1]

    def test_halo_traffic_present_only_with_multiple_ranks(self, base_spec):
        spec = base_spec.with_(num_inners=2, inner_tolerance=0.0)
        single = BlockJacobiDriver(spec).solve()
        multi = BlockJacobiDriver(spec.with_(npex=2, npey=1)).solve()
        assert single.messages == 0
        assert multi.messages > 0

    def test_leakage_and_balance_gathered_globally(self, base_spec):
        spec = base_spec.with_(npex=2, npey=1, num_inners=30, inner_tolerance=1e-9)
        result = BlockJacobiDriver(spec).solve()
        single = TransportSolver(base_spec).solve()
        assert np.allclose(result.leakage, single.leakage, rtol=1e-5)
        assert abs(result.balance.relative_residual() - single.balance.relative_residual()) < 1e-5

    def test_per_rank_cells_partition_mesh(self, base_spec):
        result = BlockJacobiDriver(base_spec.with_(npex=2, npey=2, num_inners=1)).solve()
        assert sum(result.per_rank_cells) == base_spec.num_cells


@pytest.mark.skipif(
    "compiled" not in available_engines(), reason="no JIT provider (numba/cffi) available"
)
class TestHaloTrafficCounts:
    """Exact halo traffic: one message per partner per inner, the traces'
    bytes only -- ``(A_out, G, N)`` FP64 per outflow halo face."""

    @pytest.mark.parametrize(
        "npex, npey, order, messages, nbytes",
        [(2, 1, 1, 8, 65_536), (2, 2, 1, 32, 131_072), (2, 2, 2, 32, 442_368)],
    )
    def test_counts_are_pinned(self, npex, npey, order, messages, nbytes):
        spec = ProblemSpec(
            nx=4, ny=4, nz=2, order=order, angles_per_octant=2, num_groups=2,
            num_inners=4, num_outers=1, npex=npex, npey=npey, engine="compiled",
        )
        result = repro.run(spec, telemetry=True)
        assert (result.messages, result.bytes_exchanged) == (messages, nbytes)
        counters = result.telemetry.counters
        assert (counters["halo_messages"], counters["halo_bytes"]) == (messages, nbytes)
