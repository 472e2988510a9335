"""Experiment harness: parameter sweeps producing the paper's data series.

Every subfigure of the paper's Figure 3 is a set of (x, y) series —
response time or tuples shipped against the number of sites, the data
size, the tableau size or the mining threshold.  An
:class:`ExperimentResult` captures exactly that, renders the aligned text
table the benchmarks print, and persists it under ``results/``.

Dataset sizes follow the paper scaled by ``REPRO_SCALE`` (default 0.1:
cust8 = 80K, cust16 = 160K, xref8 = 80K, xrefH = 270K tuples); set the
environment variable to 1.0 to regenerate at full paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..knobs import resolve


def scale() -> float:
    """The global dataset scale factor (``REPRO_SCALE``, default 0.1)."""
    return resolve("REPRO_SCALE")


def scaled(n_paper_tuples: int) -> int:
    """A paper dataset size scaled to the current ``REPRO_SCALE``."""
    return max(100, int(n_paper_tuples * scale()))


@dataclass
class Series:
    """One curve of a figure."""

    label: str
    ys: list[float] = field(default_factory=list)


@dataclass
class ExperimentResult:
    """A reproduced figure: x values and one or more labelled series."""

    experiment_id: str
    title: str
    x_label: str
    y_label: str
    xs: list[object] = field(default_factory=list)
    series: list[Series] = field(default_factory=list)
    notes: str = ""

    def add_point(self, x: object, values: dict[str, float]) -> None:
        """Record one sweep point: ``values`` maps series label -> y."""
        if not self.series:
            self.series = [Series(label) for label in values]
        self.xs.append(x)
        by_label = {s.label: s for s in self.series}
        for label, y in values.items():
            by_label[label].ys.append(y)

    def table(self) -> str:
        """An aligned text table of the series (what the paper plots)."""
        header = [self.x_label] + [s.label for s in self.series]
        rows = [header]
        for i, x in enumerate(self.xs):
            row = [str(x)]
            for s in self.series:
                y = s.ys[i]
                row.append(f"{y:.3f}" if isinstance(y, float) else str(y))
            rows.append(row)
        widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
        lines = [
            f"{self.experiment_id}: {self.title}",
            f"(y = {self.y_label}; REPRO_SCALE={scale()})",
        ]
        for i, row in enumerate(rows):
            lines.append(
                "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
            )
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def save(self, directory: str | Path = "results") -> Path:
        """Write the table to ``<directory>/<experiment_id>.txt``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.experiment_id}.txt"
        path.write_text(self.table() + "\n")
        return path

    def series_by_label(self, label: str) -> list[float]:
        for s in self.series:
            if s.label == label:
                return s.ys
        raise KeyError(label)


def sweep(
    result: ExperimentResult,
    xs: Sequence[object],
    point: Callable[[object], dict[str, float]],
) -> ExperimentResult:
    """Run ``point`` for every x and collect the series."""
    for x in xs:
        result.add_point(x, point(x))
    return result
