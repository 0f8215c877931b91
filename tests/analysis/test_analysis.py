"""Tests for the table/figure generators and text reporting."""

import pytest

from repro.analysis.figures import (
    PAPER_THREAD_COUNTS,
    block_jacobi_convergence_series,
    figure3_series,
    figure4_series,
)
from repro.analysis.reporting import format_scaling_series, format_table
from repro.analysis.tables import (
    fd_vs_fem_comparison,
    table1_matrix_sizes,
    table2_solver_comparison,
)
from repro.config import ProblemSpec


class TestTable1:
    def test_matches_paper_exactly(self):
        rows = table1_matrix_sizes()
        sizes = [(r.order, r.matrix_size) for r in rows]
        assert sizes == [(1, 8), (2, 27), (3, 64), (4, 125), (5, 216)]
        footprints = [round(r.footprint_kb, 1) for r in rows]
        assert footprints == [0.5, 5.7, 32.0, 122.1, 364.5]

    def test_custom_orders(self):
        rows = table1_matrix_sizes(orders=(2, 6))
        assert rows[1].matrix_size == 343


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self):
        spec = ProblemSpec(nx=3, ny=3, nz=3, angles_per_octant=1, num_groups=2,
                           num_inners=1, num_outers=1, max_twist=0.001)
        return table2_solver_comparison(orders=(1, 2), base_spec=spec)

    def test_row_structure(self, rows):
        assert len(rows) == 4  # 2 orders x 2 solvers
        assert {r.solver for r in rows} == {"ge", "lapack"}
        assert all(r.assemble_solve_seconds > 0 for r in rows)
        assert all(0 <= r.solve_fraction <= 1 for r in rows)

    def test_higher_order_costs_more(self, rows):
        per_order = {}
        for r in rows:
            per_order.setdefault(r.order, []).append(r.assemble_solve_seconds)
        assert min(per_order[2]) > min(per_order[1])

    def test_solve_fraction_grows_with_order(self, rows):
        # Paper shape: the share of time in the local solve grows with order
        # (34 % -> ~74-87 %).  Checked on the GE path, whose margin holds at
        # these sizes; the LAPACK fractions of orders 1 and 2 sit within noise.
        fraction = {r.order: r.solve_fraction for r in rows if r.solver == "ge"}
        assert fraction[2] > fraction[1]

    def test_as_tuple_formatting(self, rows):
        tup = rows[0].as_tuple()
        assert tup[0] == 1 and tup[1] in ("ge", "lapack")
        assert tup[3].endswith("%")


class TestFdVsFem:
    def test_agreement_and_ratios(self):
        report = fd_vs_fem_comparison(n=4, num_groups=2, angles_per_octant=2, num_inners=15)
        # The two discretisations of the same problem agree to within a few
        # per cent on this coarse mesh, and the FEM memory/work overheads
        # match the Section II-C discussion (8x memory for linear elements).
        assert report["mean_relative_flux_difference"] < 0.05
        assert report["fem_memory_ratio"] == 8.0
        assert report["fem_to_fd_work_ratio"] > 10.0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_memory_ratio_grows_with_order(self, order):
        spec = ProblemSpec(nx=2, ny=2, nz=2, order=order, angles_per_octant=1, num_groups=1)
        assert spec.nodes_per_element == (order + 1) ** 3
        assert spec.angular_flux_bytes() == (
            8 * spec.num_cells * spec.num_angles * (order + 1) ** 3
        )


class TestFigures:
    @pytest.fixture(scope="class")
    def fig3(self):
        return figure3_series(thread_counts=(1, 4, 14, 56))

    @pytest.fixture(scope="class")
    def fig4(self):
        return figure4_series(thread_counts=(1, 4, 14, 56))

    def test_series_structure(self, fig3):
        assert len(fig3.series) == 6
        assert all(len(v) == 4 for v in fig3.series.values())
        assert fig3.order == 1

    def test_all_schemes_speed_up(self, fig3):
        for label in fig3.series:
            assert fig3.speedup(label) > 2.0

    def test_element_major_collapse_fastest_at_56(self, fig3):
        fastest = fig3.fastest_at(56)
        assert "element" in fastest and "*group*" in fastest

    def test_element_major_layout_wins_for_linear(self, fig3):
        # Section IV-A.1: angle/element/group beats angle/group/element.
        def group_major(label):
            return label.startswith("angle/*group*") or label.startswith("angle/group")

        elem = min(v[-1] for k, v in fig3.series.items() if not group_major(k))
        group = min(v[-1] for k, v in fig3.series.items() if group_major(k))
        assert elem < group

    def test_collapse_fastest_at_56_for_cubic(self, fig4):
        fastest = fig4.fastest_at(56)
        assert "*element*" in fastest and "*group*" in fastest

    def test_all_cubic_schemes_speed_up(self, fig4):
        for label, values in fig4.series.items():
            assert values[0] > values[-1], label

    def test_cubic_much_slower_than_linear(self, fig3, fig4):
        best3 = min(v[-1] for v in fig3.series.values())
        best4 = min(v[-1] for v in fig4.series.values())
        assert best4 > 20 * best3

    def test_group_major_layout_penalty_larger_for_linear(self, fig3, fig4):
        # Section IV-A.2: the angle/group/element layout is only competitive
        # for cubic elements; for linear it is clearly slower.
        def layout_ratio(series):
            elem = min(v[-1] for k, v in series.items()
                       if k.startswith("angle/*element*") or k.startswith("angle/element"))
            group = min(v[-1] for k, v in series.items()
                        if "/element" in k.split("angle/")[1][:20]
                        and k.startswith("angle/*group*") or k.startswith("angle/group"))
            return group / elem

        assert layout_ratio(fig3.series) >= layout_ratio(fig4.series) - 1e-9

    def test_paper_thread_counts(self):
        assert PAPER_THREAD_COUNTS == (1, 2, 4, 8, 14, 28, 56)


class TestBlockJacobiSeries:
    def test_convergence_histories(self):
        spec = ProblemSpec(nx=4, ny=4, nz=2, order=1, angles_per_octant=1,
                           num_groups=1, num_inners=6, num_outers=1)
        histories = block_jacobi_convergence_series(
            rank_grids=((1, 1), (2, 2)), base_spec=spec
        )
        assert set(histories) == {"1x1 ranks", "2x2 ranks"}
        assert len(histories["1x1 ranks"]) == 6
        # More Jacobi blocks -> larger residual change after the same inners.
        assert histories["2x2 ranks"][-1] >= histories["1x1 ranks"][-1]


class TestReporting:
    def test_format_table_alignment_and_title(self):
        text = format_table(("a", "bb"), [(1, 2.5), (10, 0.001)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_row_length_check(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), [(1,)])

    def test_format_scaling_series(self):
        text = format_scaling_series([1, 2], {"s1": [3.0, 1.5]}, title="F")
        assert "1 thr" in text and "3.00s" in text
        with pytest.raises(ValueError):
            format_scaling_series([1, 2], {"s1": [3.0]})
