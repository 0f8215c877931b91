"""The bench report: statistics, lookups and the JSON artefact ``--json`` writes."""

import json

import pytest

from repro.bench import BenchReport, BenchWorkload, CaseReport, SampleStats, run_benchmarks
from repro.bench.suite import _benchmarks, git_info, machine_info, register_benchmark


def make_report(seconds_by_sample: dict[str, float], case: str = "case-a") -> BenchReport:
    """A minimal single-case report with one measurement per sample."""
    return BenchReport(
        cases=(
            CaseReport(
                name=case,
                tags=("kernel",),
                samples=tuple(
                    SampleStats(name=name, seconds=(value,), metrics={"iterations": 1})
                    for name, value in seconds_by_sample.items()
                ),
            ),
        ),
        workload=BenchWorkload(),
        machine={"python": "test"},
        git=None,
    )


class TestSampleStats:
    def test_statistics(self):
        stats = SampleStats(name="s", seconds=(3.0, 1.0, 2.0))
        assert stats.best == 1.0
        assert stats.mean == 2.0
        assert stats.to_dict()["max"] == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no measurements"):
            SampleStats(name="s", seconds=())


class TestLookups:
    def test_unknown_case_names_the_cases(self):
        with pytest.raises(KeyError, match="case-a"):
            make_report({"fast": 0.1}).case("case-b")

    def test_unknown_sample_names_the_case(self):
        with pytest.raises(KeyError, match="case-a"):
            make_report({"fast": 0.1}).case("case-a").sample("slow")


class TestReportRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        report = make_report({"fast": 0.1 + 0.2, "slow": 1.0})
        path = report.save(tmp_path / "report.json")
        assert json.loads(path.read_text()) == report.to_dict()
        assert path.read_text().endswith("}\n")

    def test_format_marker_written(self, tmp_path):
        path = make_report({"fast": 0.1}).save(tmp_path / "nested" / "report.json")
        assert json.loads(path.read_text())["format"] == "unsnap-bench-v1"

    def test_run_benchmarks_report_round_trips(self, tmp_path):
        """A real measured report survives save -> JSON bit for bit."""

        @register_benchmark("report-rt-case", tags=("scratch",))
        def bench_rt(workload):
            return {"only": {"seconds": 0.001, "n": workload.n}}

        try:
            report = run_benchmarks(["report-rt-case"],
                                    workload=BenchWorkload(repeats=2, warmup=0))
        finally:
            _benchmarks.remove("report-rt-case")
        path = report.save(tmp_path / "real.json")
        assert json.loads(path.read_text()) == report.to_dict()
        case = report.case("report-rt-case")
        assert case.sample("only").seconds == (0.001, 0.001)


class TestProvenance:
    def test_live_machine_info(self):
        info = machine_info()
        assert info["cpus"] >= 1
        assert info["python"].count(".") == 2
        assert info["numpy"]

    def test_git_info_outside_a_checkout_is_none(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        assert git_info() is None
