"""CLI surface: ``unsnap bench`` and ``unsnap store gc``."""

import json

import pytest

import repro
from repro.campaign import ResultStore
from repro.campaign.store import GOLDEN_MARKER
from repro.cli import main
from repro.config import ProblemSpec

#: The cheapest registered case keeps the CLI tests inside the fast tier.
CASE = "matrix-setup"


def run_cli(*argv):
    return main(list(argv))


class TestBenchCommand:
    def test_list_names_exactly_the_kept_cases(self, capsys):
        assert run_cli("bench", "--list") == 0
        listed = {
            line.split("|")[0].strip()
            for line in capsys.readouterr().out.splitlines()[3:]
        }
        assert listed == {
            "block-jacobi-ranks", "distributed-overhead", "fd-vs-fem", "matrix-setup",
            "table2-solvers", "thread-scaling-cubic", "thread-scaling-linear",
        }

    def test_smoke_run_writes_json_report(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert run_cli("bench", "--smoke", "--filter", CASE, "--json", str(path)) == 0
        assert CASE in capsys.readouterr().out
        data = json.loads(path.read_text())
        assert data["format"] == "unsnap-bench-v1"
        assert data["workload"]["smoke"] is True
        (case,) = data["cases"]
        assert case["name"] == CASE
        # Table I's local-matrix sizes, (p + 1)^3, for the smoke orders.
        sizes = {s["name"]: s["metrics"]["matrix_size"] for s in case["samples"]}
        assert sizes == {"order-1": 8, "order-2": 27}

    def test_list_shows_each_cases_tags(self, capsys):
        assert run_cli("bench", "--list") == 0
        rows = {
            line.split("|")[0].strip(): line.split("|")[1]
            for line in capsys.readouterr().out.splitlines()[3:]
        }
        assert "scaling" in rows["block-jacobi-ranks"]
        assert "distributed" in rows["distributed-overhead"]

    def test_tag_filter_runs_only_the_tagged_case(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert run_cli("bench", "--smoke", "--filter", "setup", "--json", str(path)) == 0
        captured = capsys.readouterr()
        assert "bench matrix-setup [kernel, setup]" in captured.err
        assert "smoke tier" in captured.out and "matrix-setup [kernel, setup]" in captured.out
        assert [case["name"] for case in json.loads(path.read_text())["cases"]] == [CASE]

    def test_without_json_only_prints(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli("bench", "--smoke", "--filter", CASE) == 0
        assert "wrote" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_unknown_filter_is_a_clean_error(self, capsys):
        assert run_cli("bench", "--filter", "warp-drive") == 2
        assert "unknown benchmark filter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--compare=x.json", "--fail-on-regress", "--tolerance=0.1",
                 "--trend=dir", "--against-model"],
    )
    def test_retired_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("bench", "--smoke", flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestStoreGcCommand:
    @pytest.fixture
    def filled_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        spec = ProblemSpec(nx=2, ny=2, nz=2, angles_per_octant=1, num_groups=1,
                           num_inners=1, num_outers=1)
        for n in (2, 3):
            s = spec.with_(nx=n)
            store.put(s, repro.run(s))
        return store

    def test_gc_keep_latest_and_drop_flux(self, filled_store, capsys):
        assert run_cli(
            "store", "gc", str(filled_store.root), "--keep-latest", "1", "--drop-flux",
        ) == 0
        out = capsys.readouterr().out
        assert "removed" in out
        assert len(filled_store) == 1
        # Compacted records still load (flux-less summary payloads).
        ((spec, _options, result),) = filled_store.results()
        assert result.scalar_flux is None
        assert result.mean_flux > 0

    def test_gc_dry_run_touches_nothing(self, filled_store):
        before = {p.name: p.read_bytes() for p in filled_store.root.glob("*.json")}
        assert run_cli(
            "store", "gc", str(filled_store.root),
            "--keep-latest", "0", "--drop-flux", "--dry-run",
        ) == 0
        after = {p.name: p.read_bytes() for p in filled_store.root.glob("*.json")}
        assert after == before

    def test_gc_refuses_golden_store(self, filled_store, capsys):
        (filled_store.root / GOLDEN_MARKER).touch()
        assert run_cli("store", "gc", str(filled_store.root), "--drop-flux") == 2
        assert "golden" in capsys.readouterr().err
        assert len(filled_store) == 2

    def test_gc_missing_directory_is_a_clean_error(self, tmp_path, capsys):
        assert run_cli("store", "gc", str(tmp_path / "nope")) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_gc_max_age_flag(self, filled_store, capsys):
        assert run_cli(
            "store", "gc", str(filled_store.root), "--max-age", "0",
        ) == 0
        assert "removed" in capsys.readouterr().out
        assert len(filled_store) == 0

    def test_gc_max_bytes_flag_keeps_the_newest_fit(self, filled_store):
        largest = max(
            p.stat().st_size for p in filled_store.root.glob("*.json")
        )
        assert run_cli(
            "store", "gc", str(filled_store.root), "--max-bytes", str(largest),
        ) == 0
        assert len(filled_store) == 1

    def test_gc_negative_policy_values_are_clean_errors(self, filled_store, capsys):
        assert run_cli(
            "store", "gc", str(filled_store.root), "--max-age", "-1",
        ) == 2
        assert ">= 0" in capsys.readouterr().err
        assert len(filled_store) == 2
