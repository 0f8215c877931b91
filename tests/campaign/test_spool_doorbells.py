"""Spool doorbells: advisory wake-ups beside the spool files.

The files stay the protocol; a bell only ends a wait early.  These tests
cover the wake-up itself and each way it can fail: a bell that cannot be
bound (no unix sockets, or a deep spool whose socket paths overflow
``sun_path``: the waiter polls), a stale bell left by a SIGKILLed worker,
and two concurrent coordinator drains on one spool, each of which must
wake for its own item.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import WorkItem
from repro.campaign.distributed import DistributedBackend, SpoolDir, SpoolWorker
from repro.campaign.distributed import spool as spool_module
from repro.campaign.distributed.spool import COORDINATOR, WORKER
from repro.config import ProblemSpec

BASE = ProblemSpec(
    nx=2, ny=2, nz=2, angles_per_octant=1, num_groups=1, num_inners=1,
    engine="vectorized",
)
SRC = str(Path(__file__).resolve().parents[2] / "src")


def serve(spool, poll_seconds=30.0):
    """An in-process worker on a daemon thread; a long poll, so only a bell wakes it."""
    worker = SpoolWorker(spool, worker_id="bell-worker", poll_seconds=poll_seconds,
                         heartbeat_seconds=0.1)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


def one_miss(spool, item, poll_seconds):
    """Run one point through the coordinator against external workers."""
    backend = DistributedBackend(spool_dir=spool.root, workers=0, poll_seconds=poll_seconds,
                                 timeout_seconds=60.0)
    return list(backend.execute_iter([item]))


class TestDoorbell:
    def test_ring_wakes_a_bound_bell_and_one_wait_drains_every_ring(self, tmp_path):
        spool = SpoolDir(tmp_path / "spool")
        with spool.doorbell(COORDINATOR) as bell:
            assert spool.doorbells() == {WORKER: 0, COORDINATOR: 1}
            assert bell.path.parent == spool.root / "bells"
            assert bell.wait(0.0) is False
            spool.ring(COORDINATOR)
            spool.ring(COORDINATOR)
            began = time.monotonic()
            assert bell.wait(30.0) is True
            assert time.monotonic() - began < 1.0
            assert bell.wait(0.0) is False  # both rings drained by one wake
        assert not bell.path.exists()  # closing unlinks the socket file

    def test_rings_reach_only_the_named_role(self, tmp_path):
        spool = SpoolDir(tmp_path / "spool")
        with spool.doorbell(WORKER) as worker, spool.doorbell(COORDINATOR) as coordinator:
            spool.publish(WorkItem(spec=BASE, index=0))
            assert worker.wait(1.0) is True
            assert coordinator.wait(0.0) is False
            spool.request_stop()
            assert worker.wait(1.0) is True

    def test_ring_without_bells_or_bells_directory_never_raises(self, tmp_path):
        spool = SpoolDir(tmp_path / "spool")
        spool.ring(WORKER)
        os.rmdir(spool.root / "bells")
        spool.ring(WORKER)
        assert spool.doorbells() == {WORKER: 0, COORDINATOR: 0}

    def test_a_full_bell_is_already_ringing(self, tmp_path):
        spool = SpoolDir(tmp_path / "spool")
        with spool.doorbell(WORKER) as bell:
            for _ in range(5000):  # far past any datagram queue: EAGAIN, not a block
                spool.ring(WORKER)
            assert bell.path.exists()  # a live-but-full bell is never unlinked
            assert bell.wait(0.0) is True


class TestFallbackAndFaults:
    def test_refused_bind_still_completes_a_miss_by_polling(self, tmp_path, monkeypatch):
        def no_unix_sockets(*_args, **_kwargs):
            raise OSError(97, "Address family not supported by protocol")

        monkeypatch.setattr(spool_module.socket, "socket", no_unix_sockets)
        spool = SpoolDir(tmp_path / "spool")
        worker, thread = serve(spool, poll_seconds=0.02)
        try:
            ((index, result, meta),) = one_miss(spool, WorkItem(spec=BASE, index=0), 0.02)
        finally:
            spool.request_stop()
            thread.join(timeout=10)
        assert index == 0 and meta["worker_id"] == "bell-worker"
        assert result.summary()["mean_flux"] > 0
        assert spool.status()["doorbells"] == {WORKER: 0, COORDINATOR: 0}
        assert os.listdir(spool.root / "bells") == []

    def test_over_long_spool_path_completes_a_miss_by_polling(self, tmp_path):
        deep = tmp_path
        for _ in range(4):
            deep = deep / ("d" * 40)
        spool = SpoolDir(deep / "spool")
        assert len(os.fsencode(spool.root / "bells")) > 108  # over any sun_path
        worker, thread = serve(spool, poll_seconds=0.02)
        try:
            with spool.doorbell(COORDINATOR) as bell:
                assert not bell.path.exists()  # the bind failed: this waiter polls
            ((index, result, meta),) = one_miss(spool, WorkItem(spec=BASE, index=0), 0.02)
        finally:
            spool.request_stop()
            thread.join(timeout=10)
        assert index == 0 and meta["worker_id"] == "bell-worker"
        assert result.summary()["mean_flux"] > 0
        assert not thread.is_alive()
        assert spool.status()["doorbells"] == {WORKER: 0, COORDINATOR: 0}
        assert os.listdir(spool.root / "bells") == []

    def test_stale_bell_of_a_sigkilled_worker_is_unlinked_by_the_next_ring(self, tmp_path):
        spool = SpoolDir(tmp_path / "spool")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH", "")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker", str(spool.root), "--poll", "30"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline and not os.listdir(spool.root / "bells"):
                time.sleep(0.02)
            (stale,) = os.listdir(spool.root / "bells")
            assert spool.doorbells()[WORKER] == 1
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert (spool.root / "bells" / stale).exists()  # SIGKILL skips the cleanup
        assert spool.doorbells()[WORKER] == 0  # but a refused probe is not live

        began = time.monotonic()
        spool.publish(WorkItem(spec=BASE, index=0))
        assert time.monotonic() - began < 0.5
        assert os.listdir(spool.root / "bells") == []

    def test_idle_worker_exits_within_a_second_of_stop(self, tmp_path):
        spool = SpoolDir(tmp_path / "spool")
        worker, thread = serve(spool, poll_seconds=30.0)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not spool.doorbells()[WORKER]:
            time.sleep(0.01)
        time.sleep(0.1)  # let the worker settle into its idle wait
        began = time.monotonic()
        spool.request_stop()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert time.monotonic() - began < 1.0
        assert os.listdir(spool.root / "bells") == []  # closed on the way out

    def test_two_concurrent_drains_each_wake_for_their_own_item(self, tmp_path):
        spool = SpoolDir(tmp_path / "spool")
        items = [WorkItem(spec=BASE.with_(num_groups=g), index=0) for g in (1, 2)]
        worker, thread = serve(spool, poll_seconds=30.0)
        results: dict[int, float] = {}
        errors = []

        def drain(k):
            try:
                began = time.monotonic()
                one_miss(spool, items[k], poll_seconds=30.0)
                results[k] = time.monotonic() - began
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        drains = [threading.Thread(target=drain, args=(k,)) for k in (0, 1)]
        try:
            for t in drains:
                t.start()
            for t in drains:
                t.join(timeout=60)
        finally:
            spool.request_stop()
            thread.join(timeout=10)
        assert errors == []
        # Each drain's own bell rang; a shared or stolen ring would leave
        # one of them asleep for the 30 s poll.
        assert sorted(results) == [0, 1]
        assert max(results.values()) < 15.0
        assert worker.executed == 2
        assert spool.doorbells() == {WORKER: 0, COORDINATOR: 0}


class TestDrainLook:
    """Each drain wake reads only outstanding points' markers, the cheaper way."""

    @staticmethod
    def count(monkeypatch, name):
        calls = []
        original = getattr(SpoolDir, name)

        def counting(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(SpoolDir, name, counting)
        return calls

    def test_many_outstanding_points_open_only_the_listed_markers(self, tmp_path, monkeypatch):
        spool = SpoolDir(tmp_path / "spool")
        opened = self.count(monkeypatch, "done_marker")
        points = 24
        items = [
            WorkItem(spec=BASE.with_(scattering_ratio=0.1 + 0.01 * i), index=i)
            for i in range(points)
        ]
        worker, thread = serve(spool, poll_seconds=30.0)
        backend = DistributedBackend(spool_dir=spool.root, workers=0, poll_seconds=30.0,
                                     timeout_seconds=60.0)
        try:
            done = list(backend.execute_iter(items))
        finally:
            spool.request_stop()
            thread.join(timeout=10)
        assert sorted(index for index, _result, _meta in done) == list(range(points))
        # A blind open of every outstanding marker on every wake would be
        # about points**2 / 2 = 288 opens.
        assert len(opened) <= 2 * points

    def test_a_lone_outstanding_point_never_lists_done(self, tmp_path, monkeypatch):
        spool = SpoolDir(tmp_path / "spool")
        worker, thread = serve(spool, poll_seconds=30.0)
        try:
            one_miss(spool, WorkItem(spec=BASE, index=0), 30.0)
            listed = self.count(monkeypatch, "done_names")
            ((index, _result, _meta),) = one_miss(
                spool, WorkItem(spec=BASE.with_(num_groups=2), index=1), 30.0
            )
        finally:
            spool.request_stop()
            thread.join(timeout=10)
        assert index == 1 and listed == []  # a service drain's cost does not grow with done/
