"""Tests for the streaming backend contract (execute_iter / on_result)."""

import pytest

from repro.campaign import (
    Study,
    WorkItem,
    get_backend,
    iter_backend_results,
    run_study,
)
from repro.config import ProblemSpec

BASE = ProblemSpec(
    nx=2, ny=2, nz=2, angles_per_octant=1, num_groups=1, num_inners=1,
    engine="vectorized",
)


class ReversedStreamBackend:
    """Yields results in reverse index order (out-of-order test double)."""

    def __init__(self, meta=None):
        self.meta = meta

    def execute_iter(self, items, *, jobs=None):
        events = list(get_backend("serial").execute_iter(items, jobs=jobs))
        for item, (_index, result) in reversed(list(zip(items, events))):
            if self.meta is not None:
                yield item.index, result, dict(self.meta, index=item.index)
            else:
                yield item.index, result


class TestIterBackendResults:
    def test_v2_backend_streams_with_meta(self):
        events = list(
            iter_backend_results(
                ReversedStreamBackend(meta={"worker_id": "w0"}),
                [WorkItem(spec=BASE, index=i) for i in (0, 1)],
            )
        )
        assert [index for index, _r, _m in events] == [1, 0]
        assert all(meta["worker_id"] == "w0" for _i, _r, meta in events)

    def test_two_tuple_events_get_empty_meta(self):
        events = list(
            iter_backend_results(ReversedStreamBackend(), [WorkItem(spec=BASE)])
        )
        assert events[0][2] == {}

    def test_serial_backend_streams_in_input_order(self):
        items = [WorkItem(spec=BASE, index=i) for i in (0, 1)]
        events = list(iter_backend_results(get_backend("serial"), items))
        assert [index for index, _r, _m in events] == [0, 1]

    def test_every_builtin_backend_implements_execute_iter(self):
        for name in ("serial", "thread", "process", "distributed"):
            assert callable(getattr(get_backend(name), "execute_iter", None)), name

    def test_thread_execute_iter_covers_every_index(self):
        items = [WorkItem(spec=BASE.with_(order=o), index=i) for i, o in enumerate([1, 1])]
        events = list(iter_backend_results(get_backend("thread"), items, jobs=2))
        assert sorted(index for index, _r, _m in events) == [0, 1]


class TestRunStudyV2:
    def test_out_of_order_stream_reassembled_in_declaration_order(self):
        study = Study.grid(BASE, order=[1, 2])
        result = run_study(study, backend=ReversedStreamBackend())
        assert [r.axes["order"] for r in result] == [1, 2]

    def test_on_result_sees_completion_order(self):
        study = Study.grid(BASE, order=[1, 2])
        seen = []
        run_study(study, backend=ReversedStreamBackend(), on_result=lambda r: seen.append(r.index))
        assert seen == [1, 0]

    def test_on_result_fires_for_cached_runs_first(self, tmp_path):
        study = Study.grid(BASE, order=[1, 2])
        run_study(study, backend="serial", store=tmp_path)
        seen = []
        result = run_study(
            study, backend="serial", store=tmp_path, on_result=lambda r: seen.append(r)
        )
        assert [r.index for r in seen] == [0, 1]
        assert all(r.from_cache for r in seen)
        assert result.new_run_count == 0

    def test_meta_lands_in_records(self):
        study = Study.grid(BASE, order=[1])
        result = run_study(study, backend=ReversedStreamBackend(meta={"worker_id": "w7"}))
        record = result.records()[0]
        assert record["worker_id"] == "w7"

    def test_axes_win_over_meta_keys(self):
        study = Study.grid(BASE, order=[1])
        result = run_study(study, backend=ReversedStreamBackend(meta={"order": "bogus"}))
        assert result.records()[0]["order"] == 1

    def test_unknown_index_rejected(self):
        class RogueBackend:
            def execute_iter(self, items, *, jobs=None):
                ((_index, result),) = get_backend("serial").execute_iter(items, jobs=jobs)
                yield 99, result

        with pytest.raises(RuntimeError, match="unknown run index 99"):
            run_study(Study.grid(BASE, order=[1]), backend=RogueBackend())

    def test_duplicate_index_rejected(self):
        class StutterBackend:
            def execute_iter(self, items, *, jobs=None):
                ((_index, result),) = get_backend("serial").execute_iter(items, jobs=jobs)
                yield items[0].index, result
                yield items[0].index, result

        with pytest.raises(RuntimeError, match="index 0 twice"):
            run_study(Study.grid(BASE, order=[1]), backend=StutterBackend())

    def test_short_stream_rejected(self):
        class SilentBackend:
            def execute_iter(self, items, *, jobs=None):
                return iter(())

        with pytest.raises(RuntimeError, match="0 results for 1 runs"):
            run_study(Study.grid(BASE, order=[1]), backend=SilentBackend())

    def test_legacy_tuple_payloads_rejected(self):
        # The one-release tuple deprecation window (PR-7) is over: feeding
        # raw (spec, options) tuples into a backend is a clean TypeError.
        serial = get_backend("serial")
        with pytest.raises(TypeError, match="WorkItem"):
            list(serial.execute_iter([(BASE, {}), (BASE.with_(order=2), {})]))
