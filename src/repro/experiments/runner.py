"""Experiment framework: figure rows, results, tables, and scaling presets.

Every figure of the paper's evaluation section, and every extension
experiment, is one :class:`FigureRow`; calling it returns a
:class:`FigureResult`, which holds the same rows/series the paper plots,
renders as an aligned text table, and is what the shape checks of ``python
-m repro report`` (:data:`repro.experiments.report.SHAPE_CHECKS`) are
evaluated on.

Scales
------
``full``  — the paper's sizes (1000–5400 nodes, 2·10^4–10^5 keys).
``medium``— one quarter of the paper's sizes (CI-friendly minutes).
``small`` — one tenth (seconds; what the tier-1 tests and CI's report leg run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = ["SCALES", "ScalePreset", "FigureResult", "FigureRow", "format_table"]


@dataclass(frozen=True)
class ScalePreset:
    """System/workload sizes for one experiment scale."""

    name: str
    node_counts: tuple[int, ...]
    key_counts: tuple[int, ...]
    vocabulary_size: int

    def paired(self) -> list[tuple[int, int]]:
        """(nodes, keys) growth steps, paired as in the paper's sweeps."""
        return list(zip(self.node_counts, self.key_counts))


SCALES: dict[str, ScalePreset] = {
    # The paper: "The system size increases from 1000 nodes to 5400 nodes,
    # and the number of stored keys increases from 2*10^4 to 10^5."
    "full": ScalePreset(
        name="full",
        node_counts=(1000, 2000, 3200, 4300, 5400),
        key_counts=(20_000, 40_000, 60_000, 80_000, 100_000),
        vocabulary_size=4000,
    ),
    "medium": ScalePreset(
        name="medium",
        node_counts=(250, 500, 800, 1100, 1350),
        key_counts=(5_000, 10_000, 15_000, 20_000, 25_000),
        vocabulary_size=2000,
    ),
    "small": ScalePreset(
        name="small",
        node_counts=(100, 200, 320, 430, 540),
        key_counts=(2_000, 4_000, 6_000, 8_000, 10_000),
        vocabulary_size=1200,
    ),
}


@dataclass
class FigureResult:
    """One reproduced figure: metadata plus its data rows."""

    figure: str
    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def series(self, column: str) -> list[Any]:
        """All values of one column, in row order (a plotted series)."""
        return [row.get(column) for row in self.rows]

    def filtered(self, **match: Any) -> "FigureResult":
        """Rows whose columns equal the given values."""
        rows = [
            row
            for row in self.rows
            if all(row.get(k) == v for k, v in match.items())
        ]
        return FigureResult(self.figure, self.title, self.columns, rows, self.notes)

    def to_text(self) -> str:
        header = f"{self.figure}: {self.title}"
        lines = [header, "=" * len(header)]
        lines.append(format_table(self.columns, self.rows))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Comma-separated export of the rows (header + data lines)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=self.columns, extrasaction="ignore")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({c: row.get(c, "") for c in self.columns})
        return buffer.getvalue()

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()


@dataclass(frozen=True)
class FigureRow:
    """One row of a figure table: what a figure is, claims, and is run by."""

    id: str
    title: str
    #: The paper's claim (for an extension, what it quantifies), one line.
    claim: str
    #: Seed of a run that names none.
    seed: int
    #: ``runner(row, scale, seed, **inputs) -> FigureResult``.
    runner: Callable[..., FigureResult]
    #: For a snapshot: the id of the sweep it cuts, which a caller that has
    #: already run it may pass as ``sweep=``.
    of: str | None = None

    def __call__(
        self, scale: str = "small", seed: int | None = None, **inputs: Any
    ) -> FigureResult:
        """Run the figure at a scale preset (see :data:`SCALES`)."""
        return self.runner(
            self, SCALES[scale], self.seed if seed is None else seed, **inputs
        )


def format_table(columns: list[str], rows: Iterable[dict[str, Any]]) -> str:
    """Render rows as an aligned, pipe-separated text table."""
    rows = list(rows)
    rendered = [[_fmt(row.get(col)) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) if rendered else len(col)
        for i, col in enumerate(columns)
    ]
    out = [
        " | ".join(col.ljust(w) for col, w in zip(columns, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    for r in rendered:
        out.append(" | ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(out)


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 100 else f"{value:.1f}"
    return str(value)
