"""Tests for the content-hashed ResultStore and study resumability."""

import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.campaign import ResultStore, Study, run_key, run_study
from repro.config import ProblemSpec

BASE = ProblemSpec(nx=3, ny=3, nz=3, angles_per_octant=1, num_groups=2, num_inners=2)


class TestRunKey:
    def test_stable_and_content_addressed(self):
        assert run_key(BASE) == run_key(ProblemSpec(**BASE.to_dict()))
        assert len(run_key(BASE)) == 64

    def test_differs_across_specs_and_run_options(self):
        assert run_key(BASE) != run_key(BASE.with_(nx=4))
        assert run_key(BASE) != run_key(BASE, {"num_threads": 2})
        assert run_key(BASE, {"num_threads": 2}) == run_key(BASE, {"num_threads": 2})

    def test_independent_of_option_ordering(self):
        # A single run option exists today; the canonicalisation must still
        # hold once more are added, so exercise the dict-order independence.
        a = run_key(BASE, dict([("num_threads", 2)]))
        b = run_key(BASE, {"num_threads": 2})
        assert a == b


class TestResultStore:
    def test_get_on_empty_store(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        assert store.get(BASE) is None
        assert len(store) == 0 and store.keys() == []

    def test_put_get_round_trip_bit_for_bit(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        result = repro.run(BASE)
        path = store.put(BASE, result)
        assert path.exists() and path.stem == run_key(BASE)
        loaded = store.get(BASE)
        np.testing.assert_array_equal(loaded.scalar_flux, result.scalar_flux)
        np.testing.assert_array_equal(loaded.cell_average_flux, result.cell_average_flux)
        assert loaded.spec == BASE
        assert BASE in store and run_key(BASE) in store

    def test_foreign_json_in_store_rejected_cleanly(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(BASE, repro.run(BASE))
        (tmp_path / f"{run_key(BASE.with_(nx=4))}.json").write_text('{"not": "a record"}')
        with pytest.raises(ValueError, match="not a result-store record"):
            store.get(BASE.with_(nx=4))
        with pytest.raises(ValueError, match="unsnap-run-v1"):
            store.results()
        # The valid record is still readable directly.
        assert store.get(BASE) is not None

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(BASE, repro.run(BASE))
        assert list(tmp_path.glob("*.tmp")) == []
        assert len(store) == 1

    def test_records_are_self_describing(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(BASE, repro.run(BASE), {"num_threads": 2})
        record = json.loads(store.path_for(store.keys()[0]).read_text())
        assert record["format"] == "unsnap-run-v1"
        assert record["spec"]["nx"] == 3
        assert record["run_options"] == {"num_threads": 2}
        specs_and_results = store.results()
        assert len(specs_and_results) == 1
        spec, options, result = specs_and_results[0]
        assert spec == BASE and options == {"num_threads": 2}
        assert result.scalar_flux.shape == (27, 2, 8)


class TestDamagedRecords:
    """A store directory is a long-lived artifact: damage must fail loudly."""

    def test_corrupted_json_names_the_file_and_suggests_recovery(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(BASE, repro.run(BASE))
        path.write_text('{"format": "unsnap-run-v1", "result": {{{ garbage')
        with pytest.raises(ValueError, match="not valid JSON") as excinfo:
            store.get(BASE)
        assert path.name in str(excinfo.value)
        assert "delete it" in str(excinfo.value)

    def test_truncated_record_is_reported_as_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(BASE, repro.run(BASE))
        content = path.read_text()
        path.write_text(content[: len(content) // 2])
        with pytest.raises(ValueError, match="not valid JSON"):
            store.get(BASE)
        with pytest.raises(ValueError, match="corrupt"):
            store.results()

    def test_empty_file_is_reported_as_corrupt(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(BASE, repro.run(BASE))
        path.write_text("")
        with pytest.raises(ValueError, match="not valid JSON"):
            store.get(BASE)

    def test_wrong_format_marker_is_rejected_with_both_formats_named(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(BASE, repro.run(BASE))
        record = json.loads(path.read_text())
        record["format"] = "unsnap-run-v999"
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match="unsnap-run-v999") as excinfo:
            store.get(BASE)
        assert "unsnap-run-v1" in str(excinfo.value)

    def test_non_dict_json_is_rejected_as_foreign(self, tmp_path):
        store = ResultStore(tmp_path)
        (tmp_path / f"{run_key(BASE)}.json").write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="not a result-store record"):
            store.get(BASE)


class TestConcurrentWriters:
    """The atomic publish (unique temp + rename) must survive racing writers."""

    def test_racing_writers_of_the_same_run_leave_one_complete_record(self, tmp_path):
        store = ResultStore(tmp_path)
        result = repro.run(BASE)
        with ThreadPoolExecutor(max_workers=8) as pool:
            paths = list(pool.map(lambda _: store.put(BASE, result), range(16)))
        assert len({p.name for p in paths}) == 1
        assert len(store) == 1
        assert list(tmp_path.glob("*.tmp")) == []
        loaded = store.get(BASE)
        np.testing.assert_array_equal(loaded.scalar_flux, result.scalar_flux)

    def test_racing_writers_of_distinct_runs_all_publish(self, tmp_path):
        store = ResultStore(tmp_path)
        specs = [BASE.with_(nx=n) for n in (2, 3, 4, 5)]
        results = {spec: repro.run(spec) for spec in specs}
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(lambda s: store.put(s, results[s]), specs * 4))
        assert len(store) == len(specs)
        assert list(tmp_path.glob("*.tmp")) == []
        for spec in specs:
            np.testing.assert_array_equal(
                store.get(spec).scalar_flux, results[spec].scalar_flux
            )

    def test_concurrent_writers_and_readers_never_see_partial_records(self, tmp_path):
        # Readers either miss (pre-publish) or read a complete record --
        # never a half-written file, thanks to the rename publish.
        store = ResultStore(tmp_path)
        result = repro.run(BASE)
        observations = []

        def reader(_):
            hit = store.get(BASE)
            observations.append(hit is not None)
            return hit

        with ThreadPoolExecutor(max_workers=8) as pool:
            writes = [pool.submit(store.put, BASE, result) for _ in range(8)]
            reads = [pool.submit(reader, i) for i in range(24)]
            for future in writes + reads:
                future.result()  # raises if any reader saw a partial record
        assert len(store) == 1


class _ExplodingBackend:
    """Fails on any non-empty batch: proves resumption executed nothing."""

    def execute_iter(self, items, *, jobs=None):
        if items:
            raise AssertionError(f"backend was asked to execute {len(items)} runs")
        return iter(())


class TestResumability:
    GRID = dict(engine=["vectorized", "prefactorized"], order=[1, 2])

    def test_rerun_with_warm_store_executes_zero_new_runs(self, tmp_path):
        store = ResultStore(tmp_path / "campaign")
        study = Study.grid(BASE, **self.GRID)

        first = run_study(study, store=store)
        assert first.new_run_count == 4 and first.cached_run_count == 0
        assert len(store) == 4

        second = run_study(study, store=store, backend=_ExplodingBackend())
        assert second.new_run_count == 0 and second.cached_run_count == 4
        assert all(r.from_cache for r in second)
        for a, b in zip(first, second):
            assert a.axes == b.axes
            np.testing.assert_array_equal(a.result.scalar_flux, b.result.scalar_flux)

    def test_partial_store_runs_only_missing_points(self, tmp_path):
        store = ResultStore(tmp_path / "campaign")
        study = Study.grid(BASE, **self.GRID)
        points = study.runs()
        # Pre-fill half the grid out of order.
        for point in (points[3], points[1]):
            store.put(point.spec, repro.run(point.spec, **point.run_options),
                      point.run_options)

        result = run_study(study, store=store)
        assert result.new_run_count == 2 and result.cached_run_count == 2
        assert [r.from_cache for r in result] == [False, True, False, True]
        assert len(store) == 4

    def test_store_accepts_plain_path(self, tmp_path):
        study = Study.grid(BASE, order=[1])
        result = run_study(study, store=tmp_path / "as-path")
        assert result.new_run_count == 1
        assert len(ResultStore(tmp_path / "as-path")) == 1

    def test_store_hit_respects_run_options(self, tmp_path):
        store = ResultStore(tmp_path)
        run_study(Study.grid(BASE, num_threads=[1]), store=store)
        result = run_study(Study.grid(BASE, num_threads=[2]), store=store)
        assert result.new_run_count == 1
        assert len(store) == 2

    def test_changed_spec_axis_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        run_study(Study.grid(BASE, order=[1]), store=store)
        result = run_study(Study.grid(BASE, order=[2]), store=store)
        assert result.new_run_count == 1 and len(store) == 2

    def test_failed_run_keeps_completed_prefix_in_store(self, tmp_path):
        # Results stream into the store per run, so a mid-study failure
        # (here: an engine that resolves only at execution time) keeps every
        # completed run and the re-invocation resumes from that prefix.
        store = ResultStore(tmp_path / "interrupted")
        broken = Study.cases(
            BASE, [{"engine": "vectorized"}, {"engine": "not-an-engine"}])
        with pytest.raises(KeyError, match="not-an-engine"):
            run_study(broken, store=store)
        assert len(store) == 1

        fixed = Study.cases(
            BASE, [{"engine": "vectorized"}, {"engine": "prefactorized"}])
        result = run_study(fixed, store=store)
        assert result.new_run_count == 1 and result.cached_run_count == 1
        assert [r.from_cache for r in result] == [True, False]


class TestCacheStatistics:
    def test_get_counts_hits_and_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(BASE) is None
        assert (store.hits, store.misses) == (0, 1)
        store.put(BASE, repro.run(BASE))
        assert store.get(BASE) is not None
        assert store.get(BASE) is not None
        assert (store.hits, store.misses) == (2, 1)
        assert store.hit_ratio == pytest.approx(2 / 3)

    def test_hit_ratio_zero_on_fresh_store(self, tmp_path):
        assert ResultStore(tmp_path).hit_ratio == 0.0

    def test_contains_probes_without_counting(self, tmp_path):
        store = ResultStore(tmp_path)
        assert not store.contains(BASE)
        store.put(BASE, repro.run(BASE))
        # By key, by spec, and via the `in` operator -- none of them count.
        assert store.contains(run_key(BASE))
        assert store.contains(BASE)
        assert not store.contains(BASE, {"num_threads": 2})
        assert BASE in store
        assert (store.hits, store.misses) == (0, 0)
        assert store.hit_ratio == 0.0

    def test_put_without_flux_still_dedups(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(BASE, repro.run(BASE), include_flux=False)
        assert store.contains(BASE)
        loaded = store.get(BASE)
        # The flux-less record loads with summary statistics intact -- the
        # service daemon's keep_flux=False memory/disk opt-out.
        assert loaded.scalar_flux is None
        assert loaded.summary()["mean_flux"] > 0


@pytest.mark.slow
class TestProcessBackendWithStore:
    def test_process_backend_populates_and_resumes(self, tmp_path):
        store = ResultStore(tmp_path / "proc")
        study = Study.grid(BASE, engine=["vectorized", "prefactorized"])
        first = run_study(study, backend="process", store=store, jobs=2)
        assert first.new_run_count == 2
        second = run_study(study, backend="process", store=store, jobs=2)
        assert second.new_run_count == 0
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.result.scalar_flux, b.result.scalar_flux)
