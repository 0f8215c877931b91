"""The paper's experiments as benchmark cases: what each smoke sample carries.

One smoke run of every registered case (a few seconds) feeds all the checks
below.  Timings are only checked for shape; the paper-facing content is in
the non-timing metrics: Table I's matrix sizes, Table II's grid, the
determinism of the thread-scaling fluxes, the block-Jacobi halo traffic and
the FD/FEM flux agreement.
"""

import pytest

from repro.bench import SMOKE, available_benchmarks, run_benchmarks
from repro.solvers import available_solvers


@pytest.fixture(scope="module")
def report():
    return run_benchmarks(smoke=True)


def metrics(report, case):
    return {s.name: s.metrics for s in report.case(case).samples}


@pytest.mark.parametrize("name", available_benchmarks())
def test_every_case_reports_measured_samples(report, name):
    case = report.case(name)
    assert case.samples
    assert case.warmup == SMOKE.warmup and case.repeats == SMOKE.repeats
    for sample in case.samples:
        assert len(sample.seconds) == SMOKE.repeats
        assert all(seconds >= 0.0 for seconds in sample.seconds)
        assert "seconds" not in sample.metrics


class TestMatrixSetup:
    def test_matrix_sizes_are_table1_nodes_per_element(self, report):
        sizes = {name: m["matrix_size"] for name, m in metrics(report, "matrix-setup").items()}
        assert sizes == {"order-1": 8, "order-2": 27}

    def test_every_order_builds_the_same_mesh(self, report):
        n = max(2, SMOKE.n // 2)
        assert {m["cells"] for m in metrics(report, "matrix-setup").values()} == {n**3}


class TestTable2Solvers:
    def test_grid_covers_every_order_and_solver(self, report):
        assert set(metrics(report, "table2-solvers")) == {
            f"order{order}-{solver}" for order in (1, 2) for solver in available_solvers()
        }

    def test_solvers_solve_the_same_systems_per_order(self, report):
        rows = metrics(report, "table2-solvers")
        for order in (1, 2):
            counts = {rows[f"order{order}-{s}"]["systems_solved"] for s in available_solvers()}
            assert len(counts) == 1 and counts.pop() > 0

    def test_solve_fraction_is_a_fraction(self, report):
        for row in metrics(report, "table2-solvers").values():
            assert 0.0 < row["solve_fraction"] <= 1.0


@pytest.mark.parametrize("case", ["thread-scaling-linear", "thread-scaling-cubic"])
class TestThreadScaling:
    def test_labels_cover_engines_and_thread_counts(self, report, case):
        assert set(metrics(report, case)) == {
            f"{engine}-t{threads}"
            for engine in ("vectorized", "prefactorized") for threads in (1, 2)
        }

    def test_thread_metric_matches_label(self, report, case):
        for label, row in metrics(report, case).items():
            assert label.endswith(f"-t{row['threads']}")

    def test_flux_is_bitwise_independent_of_thread_count(self, report, case):
        # Octant partials are reduced in a fixed order (Figures 3-4 compare
        # time only: every thread count must compute the same answer).
        rows = metrics(report, case)
        for engine in ("vectorized", "prefactorized"):
            assert rows[f"{engine}-t1"]["mean_flux"] == rows[f"{engine}-t2"]["mean_flux"]

    def test_engines_agree_on_flux(self, report, case):
        rows = metrics(report, case)
        assert rows["prefactorized-t1"]["mean_flux"] == pytest.approx(
            rows["vectorized-t1"]["mean_flux"], rel=1e-12
        )


class TestBlockJacobiRanks:
    def test_ranks_match_the_decomposition(self, report):
        for label, row in metrics(report, "block-jacobi-ranks").items():
            npex, npey = map(int, label.split("x"))
            assert row["ranks"] == npex * npey

    def test_single_rank_exchanges_no_halo(self, report):
        single = metrics(report, "block-jacobi-ranks")["1x1"]
        assert single["halo_messages"] == 0 and single["halo_bytes"] == 0

    def test_halo_traffic_grows_with_ranks(self, report):
        rows = sorted(metrics(report, "block-jacobi-ranks").values(), key=lambda r: r["ranks"])
        messages = [row["halo_messages"] for row in rows]
        volume = [row["halo_bytes"] for row in rows]
        assert messages == sorted(set(messages)) and volume == sorted(set(volume))

    def test_lagged_halos_slow_convergence(self, report):
        # Section III-A.1: more subdomains lag more boundary data, so after
        # the same number of inners the error is no smaller.
        rows = sorted(metrics(report, "block-jacobi-ranks").values(), key=lambda r: r["ranks"])
        errors = [row["final_inner_error"] for row in rows]
        assert errors == sorted(errors)

    def test_decompositions_approach_one_solution(self, report):
        fluxes = [row["mean_flux"] for row in metrics(report, "block-jacobi-ranks").values()]
        assert max(fluxes) == pytest.approx(min(fluxes), rel=0.05)


class TestFdVsFem:
    def test_both_discretisations_agree_on_the_flux(self, report):
        rows = metrics(report, "fd-vs-fem")
        assert rows["fd"]["mean_flux"] > 0.0
        assert rows["fem"]["mean_flux"] == pytest.approx(rows["fd"]["mean_flux"], rel=0.02)

    def test_work_ratio_is_the_ratio_of_the_timings(self, report):
        case = report.case("fd-vs-fem")
        fd, fem = case.sample("fd").best, case.sample("fem").best
        assert case.sample("fem").metrics["work_ratio"] == pytest.approx(fem / fd)


class TestDistributedOverhead:
    def test_both_backends_run_the_whole_study(self, report):
        rows = metrics(report, "distributed-overhead")
        assert rows["serial"]["runs"] == rows["distributed"]["runs"] == 2

    def test_worker_count_is_the_workloads(self, report):
        assert metrics(report, "distributed-overhead")["distributed"]["workers"] == SMOKE.jobs

    def test_overhead_is_the_timing_difference(self, report):
        case = report.case("distributed-overhead")
        distributed = case.sample("distributed")
        assert distributed.metrics["overhead_seconds"] == pytest.approx(
            distributed.best - case.sample("serial").best
        )
        assert distributed.metrics["mean_queue_wait_seconds"] >= 0.0
