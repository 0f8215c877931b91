"""The benchmark runner: registration, selection, workload tiers, the report."""

import json

import pytest

from repro.bench import (
    FULL,
    SMOKE,
    BenchWorkload,
    available_benchmarks,
    benchmark_listing,
    get_benchmark,
    register_benchmark,
    run_benchmarks,
    run_case,
    select_benchmarks,
)
from repro.bench.suite import _benchmarks

#: The paper's experiments (plus the distributed overhead): exactly these.
KEPT_CASES = [
    "block-jacobi-ranks",
    "distributed-overhead",
    "fd-vs-fem",
    "matrix-setup",
    "table2-solvers",
    "thread-scaling-cubic",
    "thread-scaling-linear",
]


@pytest.fixture
def scratch_case():
    """Register a throwaway case and clean it up afterwards."""
    name = "scratch-case"

    @register_benchmark(name, tags=("scratch", "Setup"), aliases=("sc",))
    def bench_scratch(workload):
        """A throwaway case for registry tests."""
        return {"only": {"seconds": 0.0, "n": workload.n}}

    yield name
    _benchmarks.remove(name)


def _register_temporary(name, func):
    register_benchmark(name, tags=("scratch",))(func)
    return get_benchmark(name)


class TestRegistry:
    def test_built_in_cases_are_the_paper_experiments(self):
        assert available_benchmarks() == KEPT_CASES

    def test_register_and_lookup(self, scratch_case):
        case = get_benchmark(scratch_case)
        assert case.name == scratch_case
        assert case.tags == ("scratch", "setup")
        assert case.description == "A throwaway case for registry tests."
        assert get_benchmark("sc") is case
        assert get_benchmark("SCRATCH-CASE") is case

    def test_duplicate_name_rejected(self, scratch_case):
        with pytest.raises(ValueError, match="already registered"):
            register_benchmark(scratch_case)(lambda workload: {})

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            get_benchmark("no-such-case")

    def test_listing_carries_tags_and_descriptions(self):
        rows = {name: (tags, desc) for name, tags, desc in benchmark_listing()}
        assert sorted(rows) == KEPT_CASES
        tags, desc = rows["block-jacobi-ranks"]
        assert "scaling" in tags
        assert desc


class TestSelection:
    def test_no_filter_selects_everything(self):
        assert [c.name for c in select_benchmarks(None)] == available_benchmarks()

    def test_select_by_tag(self):
        names = {c.name for c in select_benchmarks(["scaling"])}
        assert names == {
            "thread-scaling-linear", "thread-scaling-cubic", "block-jacobi-ranks"
        }

    def test_select_by_name_and_alias(self):
        assert [c.name for c in select_benchmarks(["table2-solvers"])] == ["table2-solvers"]
        assert [c.name for c in select_benchmarks(["fig3"])] == ["thread-scaling-linear"]

    def test_filters_union_without_duplicates(self, scratch_case):
        names = [c.name for c in select_benchmarks(["scratch-case", "scratch", "setup"])]
        assert names.count(scratch_case) == 1
        assert set(names) == {scratch_case, "matrix-setup"}

    def test_unknown_filter_names_choices(self):
        with pytest.raises(KeyError, match="tags:"):
            select_benchmarks(["warp-drive"])


class TestCaseContract:
    def test_sample_without_seconds_rejected(self):
        case = _register_temporary("bad-shape-case", lambda w: {"s": {"no_seconds": 1.0}})
        try:
            with pytest.raises(TypeError, match="'seconds'"):
                run_case(case, SMOKE)
        finally:
            _benchmarks.remove("bad-shape-case")

    def test_empty_result_rejected(self):
        case = _register_temporary("empty-case", lambda w: {})
        try:
            with pytest.raises(TypeError, match="non-empty"):
                run_case(case, SMOKE)
        finally:
            _benchmarks.remove("empty-case")

    def test_warmup_discarded_repeats_kept(self):
        calls = []

        def bench_policy(workload):
            calls.append(len(calls))
            return {"only": {"seconds": float(len(calls)), "calls": len(calls)}}

        case = _register_temporary("policy-case", bench_policy)
        try:
            report = run_case(case, BenchWorkload(repeats=3, warmup=2))
        finally:
            _benchmarks.remove("policy-case")
        assert len(calls) == 5
        # Warmup invocations (seconds 1.0 and 2.0) never reach the stats.
        only = report.sample("only")
        assert only.seconds == (3.0, 4.0, 5.0)
        assert (only.best, only.mean) == (3.0, 4.0)
        assert only.metrics == {"calls": 5}
        assert report.warmup == 2 and report.repeats == 3


class TestWorkload:
    def test_two_tiers(self):
        assert FULL == BenchWorkload() and not FULL.smoke
        assert SMOKE.smoke and SMOKE.n < FULL.n and SMOKE.repeats == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchWorkload(n=0)
        with pytest.raises(ValueError):
            BenchWorkload(repeats=0)
        with pytest.raises(ValueError):
            BenchWorkload(warmup=-1)


class TestReport:
    def test_saved_report_is_the_json_artefact(self, tmp_path, scratch_case):
        report = run_benchmarks([scratch_case], workload=SMOKE)
        data = json.loads(report.save(tmp_path / "out" / "report.json").read_text())
        assert data["format"] == "unsnap-bench-v1"
        assert data["workload"] == SMOKE.to_dict()
        assert data["machine"]["cpus"] >= 1
        (case,) = data["cases"]
        assert case["name"] == scratch_case and case["tags"] == ["scratch", "setup"]
        (sample,) = case["samples"]
        assert sample["seconds"] == [0.0] and sample["metrics"] == {"n": SMOKE.n}
        assert report.case(scratch_case).sample("only").best == 0.0
