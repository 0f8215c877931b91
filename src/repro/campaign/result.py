"""Study outcomes: tidy per-run records plus pivot helpers.

A :class:`StudyResult` keeps one :class:`StudyRun` per study point, in
declaration order, whether the run was freshly executed or loaded from a
:class:`~repro.campaign.store.ResultStore`.  Analysis code consumes it two
ways: :meth:`StudyResult.records` yields tidy dictionaries (axis values
merged with the run summary -- one row per run, ready for tabulation), and
:meth:`StudyResult.pivot` reshapes one quantity onto a (row axis, column
axis) grid for the paper-style tables and scaling series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import ProblemSpec
from ..runner import RunResult
from .study import Study

__all__ = ["StudyRun", "StudyResult", "PivotTable"]


@dataclass(frozen=True)
class StudyRun:
    """One executed (or cache-loaded) run of a study.

    :attr:`meta` is the backend's per-run execution metadata (third element
    of an ``execute_iter`` event): the ``distributed`` backend reports ``worker_id``,
    ``attempts`` and ``queue_wait_seconds`` per point, so a re-executed
    straggler (dead worker, expired lease) is visible in the study records.
    Empty for backends that report none.
    """

    index: int
    axes: dict
    spec: ProblemSpec
    run_options: dict
    result: RunResult
    from_cache: bool = False
    meta: dict = field(default_factory=dict)

    def record(self) -> dict:
        """Axes + execution metadata merged with the result summary.

        Axis values win over summary keys of the same name; metadata keys
        (``worker_id``, ``attempts``...) are merged first so an axis named
        like one still wins.
        """
        row = self.result.summary()
        row.update(self.meta)
        row.update(self.axes)
        row["from_cache"] = self.from_cache
        return row


@dataclass(frozen=True)
class PivotTable:
    """One quantity reshaped onto a (row axis, column axis) grid."""

    row_axis: str
    col_axis: str
    value: str
    rows: tuple
    cols: tuple
    cells: dict

    def at(self, row, col):
        return self.cells[(row, col)]

    def as_rows(self) -> list[tuple]:
        """``(row_label, v_col0, v_col1, ...)`` tuples for text tables."""
        return [
            (row, *[self.cells.get((row, col)) for col in self.cols]) for row in self.rows
        ]


@dataclass(frozen=True)
class StudyResult:
    """Outcome of :func:`repro.run_study`: all runs, in declaration order."""

    study: Study
    runs: tuple[StudyRun, ...]

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    def __getitem__(self, index: int) -> StudyRun:
        return self.runs[index]

    # ---------------------------------------------------------- accounting
    @property
    def new_run_count(self) -> int:
        """Runs actually executed by the backend this invocation."""
        return sum(1 for r in self.runs if not r.from_cache)

    @property
    def cached_run_count(self) -> int:
        """Runs satisfied from the result store."""
        return sum(1 for r in self.runs if r.from_cache)

    # ------------------------------------------------------------- tidy API
    def records(self) -> list[dict]:
        """One tidy dictionary per run: axes + summary + ``from_cache``."""
        return [run.record() for run in self.runs]

    def values(self, key: str) -> list:
        """One record value per run, in study order."""
        return [record[key] for record in self.records()]

    def pivot(self, row_axis: str, col_axis: str, value: str) -> PivotTable:
        """Reshape one record quantity onto a (row axis, column axis) grid.

        Row/column labels keep the study's declaration order; a duplicated
        (row, col) coordinate keeps the last run's value.
        """
        rows: dict = {}
        cols: dict = {}
        cells: dict = {}
        for record in self.records():
            r, c = record[row_axis], record[col_axis]
            rows.setdefault(r)
            cols.setdefault(c)
            cells[(r, c)] = record[value]
        return PivotTable(
            row_axis=row_axis,
            col_axis=col_axis,
            value=value,
            rows=tuple(rows),
            cols=tuple(cols),
            cells=cells,
        )

    def series(self, x_axis: str, value: str, series_axis: str | None = None) -> dict:
        """``{label: [(x, value), ...]}`` grouped by an optional series axis.

        With ``series_axis=None`` everything lands under the study name.
        Points keep study order; the caller sorts if the axis demands it.
        """
        grouped: dict = {}
        for record in self.records():
            label = (
                f"{series_axis}={record[series_axis]}"
                if series_axis is not None
                else self.study.name
            )
            grouped.setdefault(label, []).append((record[x_axis], record[value]))
        return grouped
