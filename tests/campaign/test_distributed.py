"""Tests for the distributed campaign backend: spool protocol + coordinator.

The fast deterministic tests drive an in-process :class:`SpoolWorker` on a
background thread (no subprocesses, no timing assumptions); one end-to-end
test exercises the real auto-spawned ``unsnap worker`` subprocess path.
"""

import threading

import numpy as np
import pytest

from repro.campaign import Study, WorkItem, run_study
from repro.campaign.distributed import DistributedBackend, SpoolDir, SpoolWorker
from repro.campaign.distributed.spool import worker_identity
from repro.config import ProblemSpec

BASE = ProblemSpec(
    nx=2, ny=2, nz=2, angles_per_octant=1, num_groups=1, num_inners=1,
    engine="vectorized",
)
STUDY = Study.grid(BASE, order=[1, 2])


@pytest.fixture()
def spool(tmp_path):
    return SpoolDir(tmp_path / "spool")


def in_process_worker(spool, **kwargs):
    """A SpoolWorker serving on a daemon thread until the STOP marker."""
    worker = SpoolWorker(spool, worker_id="test-worker", poll_seconds=0.02,
                         heartbeat_seconds=0.1, **kwargs)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


class TestSpoolPrimitives:
    def test_layout_created(self, spool):
        for sub in SpoolDir.SUBDIRS:
            assert (spool.root / sub).is_dir()

    def test_publish_names_sort_most_expensive_first(self, spool):
        cheap = WorkItem(spec=BASE.with_(order=1), index=0)
        dear = WorkItem(spec=BASE.with_(order=3), index=1)
        spool.publish(cheap)
        spool.publish(dear)
        assert [p.name for p in spool.pending()] == sorted(
            p.name for p in spool.pending()
        )
        first = spool.claim_next("w")
        assert first.index == 1  # the cubic straggler dispatches first

    def test_claim_is_exclusive(self, spool):
        spool.publish(WorkItem(spec=BASE, index=0))
        a = spool.claim_next("alice")
        b = spool.claim_next("bob")
        assert a is not None and a.worker_id == "alice"
        assert b is None
        assert spool.pending() == []
        assert [c.worker_id for c in spool.claims()] == ["alice"]

    def test_claim_round_trips_payload(self, spool):
        item = WorkItem(spec=BASE, run_options={"num_threads": 2}, index=3)
        spool.publish(item, attempts=2, max_attempts=5)
        claim = spool.claim_next("w")
        assert claim.index == 3 and claim.attempts == 2
        loaded, payload = claim.load()
        assert loaded == item
        assert payload["max_attempts"] == 5 and payload["run_key"] == item.run_key

    def test_complete_marks_done_and_releases_claim(self, spool):
        item = WorkItem(spec=BASE, index=1)
        spool.publish(item)
        claim = spool.claim_next("w")
        spool.complete(claim, {"worker_id": "w", "attempts": 1})
        assert spool.claims() == []
        markers = spool.done_markers()
        assert markers[(1, item.run_key[:16])]["worker_id"] == "w"

    def test_heartbeat_liveness_window(self, spool):
        spool.heartbeat("w1")
        assert spool.live_workers(lease_seconds=60) == ["w1"]
        assert spool.live_workers(lease_seconds=-1) == []
        spool.retire("w1")
        assert spool.live_workers(lease_seconds=60) == []

    def test_stop_marker_round_trip(self, spool):
        assert not spool.stop_requested()
        spool.request_stop()
        assert spool.stop_requested()
        spool.clear_stop()
        assert not spool.stop_requested()

    def test_worker_identity_is_filesystem_safe(self):
        assert "/" not in worker_identity("a/b c")
        assert " " not in worker_identity("a/b c")


class TestCoordinatorInProcess:
    def test_bit_for_bit_equal_to_serial(self, spool):
        backend = DistributedBackend(
            spool_dir=spool.root, workers=0, poll_seconds=0.02, lease_seconds=30
        )
        _worker, thread = in_process_worker(spool)
        try:
            distributed = run_study(STUDY, backend=backend)
        finally:
            spool.request_stop()
            thread.join(timeout=10)
        serial = run_study(STUDY, backend="serial")
        for a, b in zip(serial, distributed):
            np.testing.assert_array_equal(a.result.scalar_flux, b.result.scalar_flux)
            assert a.result.history.inner_errors == b.result.history.inner_errors

    def test_meta_reports_worker_and_attempts(self, spool):
        backend = DistributedBackend(
            spool_dir=spool.root, workers=0, poll_seconds=0.02, lease_seconds=30
        )
        _worker, thread = in_process_worker(spool)
        try:
            result = run_study(STUDY, backend=backend)
        finally:
            spool.request_stop()
            thread.join(timeout=10)
        for run in result:
            assert run.meta["worker_id"] == "test-worker"
            assert run.meta["attempts"] == 1
            assert run.meta["queue_wait_seconds"] >= 0.0

    def test_second_campaign_served_from_spool_store(self, spool):
        backend = DistributedBackend(
            spool_dir=spool.root, workers=0, poll_seconds=0.02, lease_seconds=30
        )
        _worker, thread = in_process_worker(spool)
        try:
            run_study(STUDY, backend=backend)
        finally:
            spool.request_stop()
            thread.join(timeout=10)
        # No worker is alive any more: every point must come from the store.
        spool.clear_stop()
        rerun = run_study(STUDY, backend=backend)
        assert all(r.meta["worker_id"] == "store" for r in rerun)
        assert all(r.meta["attempts"] == 0 for r in rerun)

    def test_sharded_spools_merge_into_zero_new_runs(self, spool, tmp_path):
        # Two independent spools execute half the study each; their stores
        # merge into one, which then satisfies the whole campaign.
        points = STUDY.runs()
        other = SpoolDir(tmp_path / "spool-b")
        for half, target in ((0, spool), (1, other)):
            backend = DistributedBackend(
                spool_dir=target.root, workers=0, poll_seconds=0.02, lease_seconds=30
            )
            _w, thread = in_process_worker(target)
            try:
                run_study(Study.cases(BASE, [points[half].axes]), backend=backend)
            finally:
                target.request_stop()
                thread.join(timeout=10)
        stats = spool.store.merge(other.store)
        assert stats["merged"] == 1
        spool.clear_stop()
        backend = DistributedBackend(spool_dir=spool.root, workers=0)
        result = run_study(STUDY, backend=backend)
        assert all(r.meta["worker_id"] == "store" for r in result)

    def test_empty_item_list_is_a_no_op(self, spool):
        backend = DistributedBackend(spool_dir=spool.root, workers=0)
        assert list(backend.execute_iter([])) == []


class TestCoordinatorSubprocess:
    def test_auto_spawned_workers_execute_the_campaign(self):
        # The zero-config mode: private temp spool, local `unsnap worker`
        # subprocesses, cleanup afterwards.
        study = Study.grid(BASE, engine=["vectorized", "prefactorized"])
        backend = DistributedBackend(workers=2, poll_seconds=0.05, lease_seconds=30)
        result = run_study(study, backend=backend)
        serial = run_study(study, backend="serial")
        for a, b in zip(serial, result):
            np.testing.assert_array_equal(a.result.scalar_flux, b.result.scalar_flux)
        assert all(r.meta["worker_id"] not in ("store", None) for r in result)


class TestQuarantineNote:
    """Drain-failure messages point at quarantined jobs and their reasons."""

    def _quarantine(self, spool, name, reason):
        target = spool.root / "quarantine" / f"{name}.json"
        target.write_text("{}")
        if reason is not None:
            target.with_suffix(".reason").write_text(reason + "\n")

    def test_empty_spool_adds_nothing(self, spool):
        from repro.campaign.distributed.coordinator import _quarantine_note

        assert _quarantine_note(spool) == ""

    def test_note_excerpts_reasons(self, spool):
        from repro.campaign.distributed.coordinator import _quarantine_note

        self._quarantine(spool, "j1", "ValueError: truncated payload")
        self._quarantine(spool, "j2", None)
        note = _quarantine_note(spool)
        assert "2 quarantined job(s)" in note
        assert "j1.json: ValueError: truncated payload" in note
        assert "j2.json: (no reason recorded)" in note

    def test_note_caps_at_three_excerpts(self, spool):
        from repro.campaign.distributed.coordinator import _quarantine_note

        for i in range(5):
            self._quarantine(spool, f"j{i}", "boom")
        note = _quarantine_note(spool)
        assert "5 quarantined job(s)" in note
        assert note.count("boom") == 3
        assert "(+2 more)" in note

    def test_timeout_error_carries_the_note(self, spool):
        self._quarantine(spool, "stuck", "RuntimeError: engine exploded")
        backend = DistributedBackend(
            spool_dir=spool.root, workers=0, poll_seconds=0.02,
            lease_seconds=30, timeout_seconds=0.1,
        )
        items = [WorkItem(spec=BASE, index=0)]
        with pytest.raises(RuntimeError) as err:
            list(backend.execute_iter(items))  # no worker: the drain times out
        message = str(err.value)
        assert "timed out" in message
        assert "stuck.json: RuntimeError: engine exploded" in message
