"""Section III-A.1: parallel block Jacobi vs rank count.

The paper's global schedule trades KBA pipeline idle time for a convergence
rate that degrades with the number of Jacobi blocks (MPI ranks).  The timing
body is now the registered ``block-jacobi-ranks`` benchmark case (per-grid
multi-rank solves with telemetry-counted halo traffic); this wrapper runs it,
prints the measured behaviours and checks the expected shapes:

* the iteration error after a fixed number of inners grows with the rank
  count, and
* the halo traffic grows with the rank count (and is zero on one rank).
"""

import pytest

from repro.analysis.reporting import format_table
from repro.bench import BenchWorkload
from repro.bench.registry import get_benchmark
from repro.bench.suite import run_case


@pytest.fixture(scope="module")
def case_report():
    workload = BenchWorkload.from_env().with_(repeats=1, warmup=0)
    return run_case(get_benchmark("block-jacobi-ranks"), workload)


def test_print_rank_comparison(case_report):
    rows = [
        (
            sample.name,
            round(sample.best, 3),
            sample.metrics["halo_messages"],
            sample.metrics["halo_bytes"],
            f"{sample.metrics['final_inner_error']:.3e}",
        )
        for sample in case_report.samples
    ]
    print()
    print(
        format_table(
            ("rank grid", "solve s", "halo messages", "halo bytes", "final inner error"),
            rows,
            title="Block Jacobi vs rank count (measured, telemetry-counted halo)",
        )
    )
    assert len(rows) >= 3


def test_convergence_degrades_with_rank_count(case_report):
    errors = [s.metrics["final_inner_error"] for s in case_report.samples]
    assert errors[-1] > errors[0]


def test_all_rank_grids_agree_with_single_rank(case_report):
    """Every decomposition converges towards the same solution.

    After a fixed number of lagged inners the iterates differ slightly, but
    each rank grid's mean flux must sit within a few per cent of the 1x1
    solve (the exact multi-rank-vs-single agreement at convergence is
    asserted by ``tests/parallel/test_parallel.py``).
    """
    single = case_report.sample("1x1").metrics["mean_flux"]
    for sample in case_report.samples:
        assert sample.metrics["mean_flux"] == pytest.approx(single, rel=0.05), sample.name


def test_halo_traffic_grows_with_rank_count(case_report):
    messages = [s.metrics["halo_messages"] for s in case_report.samples]
    assert messages[0] == 0
    assert all(b >= a for a, b in zip(messages, messages[1:]))
