"""Property-based tests (hypothesis): the bench report's JSON artefact."""

import json

from hypothesis import given, settings, strategies as st

from repro.bench import BenchReport, BenchWorkload, CaseReport, SampleStats, run_case
from repro.bench.suite import _benchmarks, register_benchmark

# ------------------------------------------------------------------ strategies
#: Positive finite doubles; JSON serialises doubles exactly, so arbitrary
#: magnitudes must survive the round trip bit for bit.
seconds = st.floats(
    min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False
)
names = st.text(
    alphabet=st.characters(categories=("Ll", "Nd"), include_characters="-_"),
    min_size=1, max_size=20,
)
metric_values = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    seconds,
    st.booleans(),
    names,
)


@st.composite
def sample_stats(draw):
    return SampleStats(
        name=draw(names),
        seconds=tuple(draw(st.lists(seconds, min_size=1, max_size=5))),
        metrics=draw(st.dictionaries(names, metric_values, max_size=4)),
    )


@st.composite
def case_reports(draw):
    samples = draw(st.lists(sample_stats(), min_size=1, max_size=4,
                            unique_by=lambda s: s.name))
    return CaseReport(
        name=draw(names),
        tags=tuple(draw(st.lists(names, max_size=3))),
        samples=tuple(samples),
        warmup=draw(st.integers(min_value=0, max_value=3)),
        repeats=draw(st.integers(min_value=1, max_value=5)),
    )


@st.composite
def bench_workloads(draw):
    return BenchWorkload(
        n=draw(st.integers(min_value=1, max_value=32)),
        angles_per_octant=draw(st.integers(min_value=1, max_value=8)),
        num_groups=draw(st.integers(min_value=1, max_value=16)),
        jobs=draw(st.integers(min_value=1, max_value=8)),
        repeats=draw(st.integers(min_value=1, max_value=5)),
        warmup=draw(st.integers(min_value=0, max_value=3)),
        smoke=draw(st.booleans()),
    )


@st.composite
def bench_reports(draw):
    cases = draw(st.lists(case_reports(), max_size=4, unique_by=lambda c: c.name))
    return BenchReport(
        cases=tuple(cases),
        workload=draw(bench_workloads()),
        machine=draw(st.dictionaries(names, st.one_of(names, st.integers()), max_size=4)),
        git=draw(st.one_of(st.none(), st.fixed_dictionaries(
            {"commit": names, "branch": names, "dirty": st.booleans()}
        ))),
    )


# ----------------------------------------------------------------- properties
@settings(max_examples=50, deadline=None)
@given(report=bench_reports())
def test_dict_round_trip_is_identity(report):
    """Every case and sample the dict lists is the one the lookups return."""
    data = report.to_dict()
    assert [case["name"] for case in data["cases"]] == [case.name for case in report.cases]
    for case in data["cases"]:
        for sample in case["samples"]:
            stats = report.case(case["name"]).sample(sample["name"])
            assert stats.to_dict() == sample
            assert tuple(sample["seconds"]) == stats.seconds


@settings(max_examples=50, deadline=None)
@given(report=bench_reports())
def test_json_round_trip_is_identity(report):
    """Through actual JSON text: doubles and structure survive exactly."""
    text = json.dumps(report.to_dict())
    assert json.loads(text) == report.to_dict()


@settings(max_examples=50, deadline=None)
@given(report=bench_reports(), tmp_suffix=st.integers(min_value=0, max_value=10**6))
def test_save_load_round_trip(report, tmp_suffix, tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / f"report-{tmp_suffix}.json"
    report.save(path)
    assert json.loads(path.read_text()) == report.to_dict()


@settings(max_examples=50, deadline=None)
@given(sample=sample_stats())
def test_statistics_are_ordered(sample):
    stats = sample.to_dict()
    assert stats["best"] <= stats["mean"] * (1 + 1e-12)
    assert stats["mean"] <= stats["max"] * (1 + 1e-12)
    assert stats["best"] in sample.seconds and stats["max"] in sample.seconds


@settings(max_examples=50, deadline=None)
@given(workload=bench_workloads())
def test_workload_round_trip(workload):
    assert BenchWorkload(**workload.to_dict()) == workload


@settings(max_examples=25, deadline=None)
@given(warmup=st.integers(min_value=0, max_value=3),
       repeats=st.integers(min_value=1, max_value=4))
def test_run_case_keeps_exactly_the_measured_repeats(warmup, repeats):
    calls = []

    def bench_count(workload):
        calls.append(None)
        return {"only": {"seconds": float(len(calls))}}

    register_benchmark("property-count-case")(bench_count)
    try:
        case = run_case(_benchmarks.resolve("property-count-case"),
                        BenchWorkload(warmup=warmup, repeats=repeats))
    finally:
        _benchmarks.remove("property-count-case")
    assert len(calls) == warmup + repeats
    assert case.sample("only").seconds == tuple(
        float(i) for i in range(warmup + 1, warmup + repeats + 1)
    )
