"""Plain-text reporting helpers that format the benchmarks' output.

Every benchmark regenerates a table or figure of the paper; these helpers
format the measured rows/series consistently so the benchmark output can be
compared against the paper by eye.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "format_table",
    "format_series",
    "speedup_table",
    "session_table",
    "Series",
    "ExperimentReport",
]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None, float_format: str = "{:.4g}") -> str:
    """Render an ASCII table with aligned columns.

    Floats are formatted with ``float_format``; everything else with ``str``.
    """
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)

    headers = [str(h) for h in headers]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError("every row must have one cell per header")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_line(headers))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(render_line(row) for row in rendered_rows)
    return "\n".join(lines)


@dataclass
class Series:
    """A named (x, y) series, e.g. accuracy over training time."""

    name: str
    x: List[float] = field(default_factory=list)
    y: List[float] = field(default_factory=list)

    def append(self, x: float, y: float) -> None:
        self.x.append(float(x))
        self.y.append(float(y))

    def final(self) -> Tuple[float, float]:
        if not self.x:
            raise ValueError(f"series {self.name!r} is empty")
        return self.x[-1], self.y[-1]

    def __len__(self) -> int:
        return len(self.x)


def format_series(series: Iterable[Series], x_label: str = "x", y_label: str = "y",
                  max_points: int = 12, title: Optional[str] = None) -> str:
    """Render several series as a compact table sampling at most
    ``max_points`` evenly spaced points per series."""
    blocks = []
    if title:
        blocks.append(title)
    for s in series:
        n = len(s)
        if n == 0:
            blocks.append(f"{s.name}: (empty)")
            continue
        if n <= max_points:
            picks = range(n)
        else:
            picks = [round(i * (n - 1) / (max_points - 1)) for i in range(max_points)]
        rows = [(f"{s.x[i]:.4g}", f"{s.y[i]:.4g}") for i in picks]
        blocks.append(format_table([x_label, y_label], rows, title=s.name))
    return "\n\n".join(blocks)


def session_table(sessions: Mapping[str, object],
                  title: Optional[str] = None) -> str:
    """Cross-step summary table of labelled sync sessions.

    ``sessions`` maps display labels to
    :class:`~repro.core.pipeline.SyncSession` objects (or anything with a
    compatible ``summary()``); the table shows the step count, cumulative
    rounds/volume and the first/last schedule-resolved ``k`` — the
    quantities the k-schedule and bucketing examples report.
    """
    headers = ["session", "steps", "rounds", "total volume", "k first", "k last"]
    rows = []
    for label, session in sessions.items():
        summary = session.summary()
        rows.append((
            label,
            summary["steps"],
            summary["rounds"],
            float(summary["total_volume"]),
            "-" if summary["k_first"] is None else summary["k_first"],
            "-" if summary["k_last"] is None else summary["k_last"],
        ))
    return format_table(headers, rows, title=title)


def speedup_table(times: Mapping[str, float], reference: str,
                  title: Optional[str] = None) -> str:
    """Table of per-method times and speedups relative to ``reference``
    (speedup > 1 means faster than the reference)."""
    if reference not in times:
        raise ValueError(f"reference method {reference!r} not in the measured times")
    ref_time = times[reference]
    rows = []
    for name, value in times.items():
        speedup = ref_time / value if value > 0 else float("inf")
        rows.append((name, value, speedup))
    rows.sort(key=lambda row: row[1])
    return format_table(["method", "time", f"speedup vs {reference}"], rows, title=title)


@dataclass
class ExperimentReport:
    """A labelled collection of tables and series for one experiment."""

    experiment: str
    description: str = ""
    sections: List[str] = field(default_factory=list)

    def add_table(self, headers: Sequence[str], rows: Sequence[Sequence[object]],
                  title: Optional[str] = None) -> None:
        self.sections.append(format_table(headers, rows, title=title))

    def add_series(self, series: Iterable[Series], x_label: str = "x", y_label: str = "y",
                   title: Optional[str] = None) -> None:
        self.sections.append(format_series(series, x_label=x_label, y_label=y_label,
                                           title=title))

    def add_text(self, text: str) -> None:
        self.sections.append(text)

    def render(self) -> str:
        header = f"== {self.experiment} =="
        if self.description:
            header += f"\n{self.description}"
        return "\n\n".join([header, *self.sections])

    def print(self) -> None:  # pragma: no cover - console convenience
        print(self.render())
