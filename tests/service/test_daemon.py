"""The job-queue daemon: dedup, coalescing, cancellation, back-pressure."""

import threading
import time

import pytest

from repro.campaign import ResultStore
from repro.campaign.store import run_key
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    RUNNING,
    QueueFullError,
    ServiceDaemon,
)


def wait_for(predicate, timeout: float = 10.0, interval: float = 0.005):
    """Poll ``predicate`` until truthy (test helper for async daemon state)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(interval)


class TestExecution:
    def test_submit_executes_and_completes(self, tiny_spec, tmp_path):
        with ServiceDaemon(store=tmp_path, backend="serial", workers=1) as daemon:
            job = daemon.submit(tiny_spec)
            done = daemon.wait(job.id, timeout=60.0)
        assert done.state == DONE and not done.cache_hit
        assert done.result_summary["mean_flux"] > 0
        assert done.started_at is not None and done.finished_at >= done.started_at

    def test_dedup_second_submission_runs_nothing(self, tiny_spec, tmp_path):
        store = ResultStore(tmp_path)
        with ServiceDaemon(store=store, backend="serial", workers=1) as daemon:
            first = daemon.wait(daemon.submit(tiny_spec).id, timeout=60.0)
            second = daemon.wait(daemon.submit(tiny_spec).id, timeout=60.0)
            stats = daemon.stats()
        # Exactly one stored record and one executed solve: the second
        # submission was served from the store, bit-identical summary.
        assert len(store) == 1
        assert stats["executed"] == 1 and stats["store_hits"] == 1
        assert not first.cache_hit and second.cache_hit
        assert second.result_summary == first.result_summary

    def test_failed_job_isolated_from_worker(self, tiny_spec, tiny_result, blocking_executor_cls):
        executor = blocking_executor_cls(tiny_result, fail_times=1)
        executor.release.set()
        with ServiceDaemon(workers=1, executor=executor) as daemon:
            failed = daemon.wait(daemon.submit(tiny_spec).id, timeout=10.0)
            # The worker thread survived the failure and runs the next job.
            ok = daemon.wait(daemon.submit(tiny_spec.with_(nx=3)).id, timeout=10.0)
        assert failed.state == FAILED
        assert "RuntimeError: manufactured failure" in failed.error
        assert ok.state == DONE

    def test_validation_happens_before_queueing(self, tiny_spec):
        with ServiceDaemon(workers=1) as daemon:
            with pytest.raises(KeyError, match="unknown run option"):
                daemon.submit(tiny_spec, {"bogus": 1})
            with pytest.raises(KeyError, match="unknown engine"):
                daemon.submit(tiny_spec.with_(engine="warpdrive"))
            assert daemon.stats()["submitted"] == 0

    def test_wait_timeout(self, tiny_spec, tiny_result, blocking_executor_cls):
        executor = blocking_executor_cls(tiny_result)
        with ServiceDaemon(workers=1, executor=executor) as daemon:
            job = daemon.submit(tiny_spec)
            with pytest.raises(TimeoutError):
                daemon.wait(job.id, timeout=0.05)
            executor.release.set()
            assert daemon.wait(job.id, timeout=10.0).state == DONE

    def test_get_unknown_job(self):
        with ServiceDaemon(workers=1) as daemon:
            with pytest.raises(KeyError, match="no such job"):
                daemon.get(999)


class TestCoalescing:
    def test_identical_inflight_jobs_coalesce(self, tiny_spec, tiny_result, blocking_executor_cls):
        executor = blocking_executor_cls(tiny_result)
        key = run_key(tiny_spec)
        with ServiceDaemon(workers=2, executor=executor) as daemon:
            leader = daemon.submit(tiny_spec)
            assert executor.started.wait(timeout=10.0)
            follower = daemon.submit(tiny_spec)
            # Deterministic: wait until the twin is parked behind the leader.
            wait_for(lambda: len(daemon._followers.get(key, [])) == 1)
            executor.release.set()
            daemon.wait(leader.id, timeout=10.0)
            daemon.wait(follower.id, timeout=10.0)
            stats = daemon.stats()
        assert executor.calls == 1
        assert leader.state == DONE and follower.state == DONE
        assert follower.cache_hit and not leader.cache_hit
        assert follower.result_summary == leader.result_summary
        assert stats["coalesced_hits"] == 1 and stats["executed"] == 1

    def test_followers_requeue_when_leader_fails(
        self, tiny_spec, tiny_result, blocking_executor_cls
    ):
        executor = blocking_executor_cls(tiny_result, fail_times=1)
        key = run_key(tiny_spec)
        with ServiceDaemon(workers=2, executor=executor) as daemon:
            leader = daemon.submit(tiny_spec)
            assert executor.started.wait(timeout=10.0)
            follower = daemon.submit(tiny_spec)
            wait_for(lambda: len(daemon._followers.get(key, [])) == 1)
            executor.release.set()
            assert daemon.wait(leader.id, timeout=10.0).state == FAILED
            # The parked follower retries individually and succeeds.
            assert daemon.wait(follower.id, timeout=10.0).state == DONE
        assert executor.calls == 2
        assert not follower.cache_hit


class TestCancellation:
    def test_cancel_queued_always_wins(self, tiny_spec, tiny_result, blocking_executor_cls):
        executor = blocking_executor_cls(tiny_result)
        with ServiceDaemon(workers=1, executor=executor) as daemon:
            running = daemon.submit(tiny_spec)
            assert executor.started.wait(timeout=10.0)
            queued = daemon.submit(tiny_spec.with_(nx=3))
            cancelled = daemon.cancel(queued.id)
            assert cancelled.state == CANCELLED  # immediate, before any run
            executor.release.set()
            assert daemon.wait(running.id, timeout=10.0).state == DONE
        assert executor.calls == 1  # the cancelled job never executed

    def test_cancel_inflight_best_effort(self, tiny_spec, tiny_result, blocking_executor_cls):
        executor = blocking_executor_cls(tiny_result)
        with ServiceDaemon(workers=1, executor=executor) as daemon:
            job = daemon.submit(tiny_spec)
            assert executor.started.wait(timeout=10.0)
            assert daemon.cancel(job.id).state == RUNNING
            assert job.cancel_requested
            executor.release.set()
            assert daemon.wait(job.id, timeout=10.0).state == CANCELLED

    def test_cancel_terminal_is_noop(self, tiny_spec, tmp_path):
        with ServiceDaemon(store=tmp_path, backend="serial", workers=1) as daemon:
            job = daemon.submit(tiny_spec)
            daemon.wait(job.id, timeout=60.0)
            assert daemon.cancel(job.id).state == DONE

    def test_shutdown_cancels_queued_jobs(self, tiny_spec, tiny_result, blocking_executor_cls):
        executor = blocking_executor_cls(tiny_result)
        daemon = ServiceDaemon(workers=1, executor=executor).start()
        running = daemon.submit(tiny_spec)
        assert executor.started.wait(timeout=10.0)
        queued = daemon.submit(tiny_spec.with_(nx=3))
        # Begin the shutdown while the worker is still blocked: the queued
        # job must be cancelled before the worker could ever pick it up.
        stopper = threading.Thread(target=daemon.shutdown)
        stopper.start()
        wait_for(lambda: queued.state == CANCELLED)
        executor.release.set()  # let the in-flight job finish and workers exit
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        assert running.terminal
        assert queued.state == CANCELLED


class TestBackPressure:
    def test_queue_full_raises_429_payload(self, tiny_spec, tiny_result, blocking_executor_cls):
        executor = blocking_executor_cls(tiny_result)
        with ServiceDaemon(workers=1, max_queue_depth=2, executor=executor) as daemon:
            daemon.submit(tiny_spec)
            assert executor.started.wait(timeout=10.0)  # occupies the worker
            daemon.submit(tiny_spec.with_(nx=3))
            daemon.submit(tiny_spec.with_(nx=4))
            with pytest.raises(QueueFullError) as excinfo:
                daemon.submit(tiny_spec.with_(nx=5))
            assert excinfo.value.depth == 2 and excinfo.value.limit == 2
            executor.release.set()

    def test_submit_after_shutdown_rejected(self, tiny_spec):
        daemon = ServiceDaemon(workers=1).start()
        daemon.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            daemon.submit(tiny_spec)

    def test_max_retained_prunes_oldest_terminal(self, tiny_spec, tmp_path):
        with ServiceDaemon(
            store=tmp_path, backend="serial", workers=1, max_retained=2
        ) as daemon:
            ids = []
            for nx in (2, 3, 4):
                job = daemon.submit(tiny_spec.with_(nx=nx))
                daemon.wait(job.id, timeout=60.0)
                ids.append(job.id)
            retained = [job.id for job in daemon.jobs()]
        assert len(retained) == 2
        assert ids[0] not in retained and ids[-1] in retained


class TestStats:
    def test_stats_shape(self, tiny_spec, tmp_path):
        with ServiceDaemon(store=tmp_path, backend="serial", workers=3) as daemon:
            daemon.wait(daemon.submit(tiny_spec).id, timeout=60.0)
            daemon.wait(daemon.submit(tiny_spec).id, timeout=60.0)
            stats = daemon.stats()
        assert stats["backend"] == "serial" and stats["workers"] == 3
        assert stats["queue_depth"] == 0
        assert stats["jobs"][DONE] == 2
        assert stats["submitted"] == 2
        assert stats["cache_hits"] == 1
        assert stats["cache_hit_ratio"] == pytest.approx(0.5)
        assert stats["store"]["records"] == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ServiceDaemon(workers=0)
        with pytest.raises(ValueError, match="max_queue_depth"):
            ServiceDaemon(max_queue_depth=0)
        with pytest.raises(ValueError, match="max_retained"):
            ServiceDaemon(max_retained=0)


class TestSharedSpoolStore:
    """``--backend distributed --store SPOOL/store``: the spool worker writes
    the record, so a miss that keeps its flux costs one store write, not two."""

    @pytest.mark.parametrize("keep_flux, writes", [(True, 1), (False, 2)])
    def test_one_record_write_per_distributed_miss(
        self, tiny_spec, tmp_path, monkeypatch, keep_flux, writes
    ):
        from repro.campaign.distributed import DistributedBackend, SpoolDir, SpoolWorker

        spool = SpoolDir(tmp_path / "spool")
        written = []
        atomic_write = ResultStore._atomic_write

        def counting(path, payload):
            written.append(path.name)
            atomic_write(path, payload)

        monkeypatch.setattr(ResultStore, "_atomic_write", staticmethod(counting))
        worker = SpoolWorker(spool, worker_id="w", poll_seconds=0.02, heartbeat_seconds=0.1)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        backend = DistributedBackend(spool_dir=spool.root, workers=0, poll_seconds=0.02)
        try:
            with ServiceDaemon(store=spool.root / "store", backend=backend, workers=1) as daemon:
                job = daemon.wait(daemon.submit(tiny_spec, keep_flux=keep_flux).id, timeout=60)
        finally:
            spool.request_stop()
            thread.join(timeout=10)
        assert job.state == DONE and not job.cache_hit
        assert written == [f"{job.key}.json"] * writes
        record = ResultStore(spool.root / "store").get(tiny_spec)
        assert (record.scalar_flux is not None) == keep_flux

    def test_a_flux_less_record_from_another_writer_is_overwritten(
        self, tiny_spec, tiny_result, tmp_path
    ):
        # Another writer on the shared store (say a second daemon that drops
        # flux) lands a flux-less record while this job executes: the daemon
        # did not run on a spool that writes its store, so it rewrites the
        # full record, as it always did.
        store = ResultStore(tmp_path / "store")
        other = ResultStore(tmp_path / "store")

        def execute(job):
            other.put(job.spec, tiny_result, job.run_options, include_flux=False)
            return tiny_result

        with ServiceDaemon(store=store, executor=execute, workers=1) as daemon:
            job = daemon.wait(daemon.submit(tiny_spec, keep_flux=True).id, timeout=60)
        assert job.state == DONE and not job.cache_hit
        assert store.get(tiny_spec).scalar_flux is not None

    def test_a_spool_with_another_store_still_gets_the_daemon_write(
        self, tiny_spec, tmp_path, monkeypatch
    ):
        from repro.campaign.distributed import DistributedBackend, SpoolDir, SpoolWorker

        spool = SpoolDir(tmp_path / "spool")
        written = []
        atomic_write = ResultStore._atomic_write

        def counting(path, payload):
            written.append(path.parent.name)
            atomic_write(path, payload)

        monkeypatch.setattr(ResultStore, "_atomic_write", staticmethod(counting))
        worker = SpoolWorker(spool, worker_id="w", poll_seconds=0.02, heartbeat_seconds=0.1)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        backend = DistributedBackend(spool_dir=spool.root, workers=0, poll_seconds=0.02)
        try:
            with ServiceDaemon(store=tmp_path / "mine", backend=backend, workers=1) as daemon:
                job = daemon.wait(daemon.submit(tiny_spec).id, timeout=60)
        finally:
            spool.request_stop()
            thread.join(timeout=10)
        assert job.state == DONE
        assert written == ["store", "mine"]  # the worker's record, then the daemon's
        assert ResultStore(tmp_path / "mine").get(tiny_spec).scalar_flux is not None
