"""Render benchmark artifacts as markdown, CSV, or JSON text.

Three renderers: dataset statistics tables, metric grids over experiment
settings (rows) by category (column groups of mAP/AP50/mAR), and inference
timing summaries. Each builds its header, display rows and JSON payload,
and one table path (``_render``) checks the format and writes one of them.
Rendering is pure: identical inputs produce byte identical output. Display
conventions: counts carry thousands separators, statistics averages round
half-to-even to integers, metrics are shown x100 with one decimal, missing
values render as an em dash.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .datamodel import NUMBER, STRING, CategoryStats, DatasetStats, field, parse_json, read_text
from .errors import ValidationError
from .evaluation import EvaluationReport
from .geometry import left_sum

__all__ = [
    "GridRow",
    "ExperimentGrid",
    "TimingRecord",
    "render_stats_table",
    "render_metric_grid",
    "render_report_table",
    "load_timing_log",
    "summarize_timing",
]

FORMATS = ("markdown", "csv", "json")
MISSING = "—"
METRIC_KEYS = ("mAP", "AP50", "mAR")


@dataclass(frozen=True)
class GridRow:
    """One experiment setting: a split manifest plus a prediction file."""

    label: str
    manifest: str
    predictions: str


@dataclass(frozen=True)
class ExperimentGrid:
    rows: tuple[GridRow, ...]
    metrics: tuple[str, ...] = METRIC_KEYS
    output_format: str = "markdown"

    def __post_init__(self):
        labels = [r.label for r in self.rows]
        if len(labels) != len(set(labels)):
            raise ValidationError("grid row labels must be unique")
        for k, metric in enumerate(self.metrics):
            if metric not in METRIC_KEYS:
                raise ValidationError(f"unknown metric {metric!r}; choose from {METRIC_KEYS}")
            if metric in self.metrics[:k]:
                raise ValidationError(f"metric {metric!r} is listed twice")
        if self.output_format not in FORMATS:
            raise ValidationError(f"unknown format {self.output_format!r}")

    def check_files_exist(self, base: Path) -> None:
        for row in self.rows:
            for path in (row.manifest, row.predictions):
                if not (base / path).is_file():
                    raise ValidationError(f"grid row {row.label!r}: missing file {path}")


@dataclass(frozen=True)
class TimingRecord:
    model: str
    latencies_ms: tuple[float, ...]

    def __post_init__(self):
        if not self.latencies_ms:
            raise ValidationError(f"model {self.model!r}: empty latency list")
        if any(v <= 0 for v in self.latencies_ms):
            raise ValidationError(f"model {self.model!r}: latencies must be positive")
        if not (math.isfinite(self.mean_ms) and math.isfinite(1000.0 / self.mean_ms)):
            raise ValidationError(f"model {self.model!r}: mean latency or FPS overflows a float")

    @property
    def mean_ms(self) -> float:
        return left_sum(self.latencies_ms) / len(self.latencies_ms)


def _fmt_count(n: int) -> str:
    return f"{n:,}"


def _fmt_rounded(value: float | None) -> str:
    # round() is round-half-to-even, matching the documented display rule.
    return MISSING if value is None else f"{round(value):,}"


def _fmt_metric(value: float | None) -> str:
    return MISSING if value is None else f"{value * 100:.1f}"


def _markdown_table(header: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines) + "\n"


def _render(header: list[str], rows: list[list[str]], payload, output_format: str) -> str:
    """The one table path: ``payload`` as indented JSON, or ``header`` and
    the display ``rows`` as a markdown or CSV table."""
    if output_format not in FORMATS:
        raise ValidationError(f"unknown format {output_format!r}")
    if output_format == "json":
        return json.dumps(payload, indent=2) + "\n"
    if output_format == "markdown":
        return _markdown_table(header, rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _stats_json(row: CategoryStats) -> dict:
    return {
        "name": row.name,
        "images": row.image_count,
        "bboxes": row.bbox_count,
        "avg_bboxes_per_image": row.avg_boxes_per_image,
        "avg_size_per_instance": row.avg_instance_area,
        "region": row.region,
    }


def render_stats_table(stats: DatasetStats, output_format: str = "markdown") -> str:
    """Dataset statistics with a total row."""
    header = ["Category", "# imgs", "# bboxes", "avg bboxes/image", "avg size/instance", "Region"]
    rows = [
        [
            row.name,
            _fmt_count(row.image_count),
            _fmt_count(row.bbox_count),
            _fmt_rounded(row.avg_boxes_per_image),
            _fmt_rounded(row.avg_instance_area),
            row.region,
        ]
        for row in (*stats.per_category, stats.total)
    ]
    payload = {
        "categories": [_stats_json(row) for row in stats.per_category],
        "total": _stats_json(stats.total),
    }
    return _render(header, rows, payload, output_format)


def _grid_categories(reports) -> list[tuple[int, str]]:
    seen: dict[int, str] = {}
    for report in reports.values():
        for row in report.per_category:
            seen.setdefault(row.category_id, row.name)
    return sorted(seen.items())


def render_metric_grid(
    grid: ExperimentGrid, reports: dict[str, EvaluationReport]
) -> tuple[str, int]:
    """Rows are experiment settings, column groups are categories.

    Returns the rendered text and the number of missing cells (rendered as
    an em dash): either the row's report was not supplied or the metric is
    absent in it.
    """
    categories = _grid_categories(reports)
    warnings = 0
    table_rows = []
    json_rows = []
    for row in grid.rows:
        report = reports.get(row.label)
        by_id = {r.category_id: r for r in report.per_category} if report is not None else {}
        cells = [row.label]
        json_cells: dict[str, dict] = {}
        for cat_id, cat_name in categories:
            cat_row = by_id.get(cat_id)
            values = (cat_row.map, cat_row.ap50, cat_row.mar) if cat_row else (None,) * 3
            values = dict(zip(METRIC_KEYS, values))
            json_cells[cat_name] = {m: values[m] for m in grid.metrics}
            for metric in grid.metrics:
                if values[metric] is None:
                    warnings += 1
                cells.append(_fmt_metric(values[metric]))
        table_rows.append(cells)
        json_rows.append({"label": row.label, "cells": json_cells})
    header = ["Setting"] + [
        f"{name} {metric}" for _, name in categories for metric in grid.metrics
    ]
    payload = {"rows": json_rows, "missing_cells": warnings}
    return _render(header, table_rows, payload, grid.output_format), warnings


def render_report_table(report: EvaluationReport) -> str:
    """One evaluation report as a markdown table: a mAP / AP50 / mAR row
    per category, then a "(mean)" row of the aggregates."""
    values = [(r.name, r.map, r.ap50, r.mar) for r in report.per_category]
    values.append(("(mean)", report.mean_ap, report.mean_ap50, report.mean_ar))
    rows = [[name, *map(_fmt_metric, metrics)] for name, *metrics in values]
    return _markdown_table(["Category", *METRIC_KEYS], rows)


def load_timing_log(path) -> list[TimingRecord]:
    """Read a JSON-lines latency log ({model, image_id, latency_ms} per
    line) and group it by model in order of first appearance."""
    grouped: dict[str, list[float]] = {}
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        where = f"{path}:{line_no}"
        record = parse_json(line, where)
        model = field(record, "model", where, STRING)
        grouped.setdefault(model, []).append(field(record, "latency_ms", where, NUMBER))
    return [TimingRecord(model, tuple(values)) for model, values in grouped.items()]


def summarize_timing(records: list[TimingRecord], output_format: str = "markdown") -> str:
    """Per-model mean latency and FPS = 1000 / mean latency, one decimal
    each (so FPS x latency stays consistent within display rounding)."""
    header = ["Model", "FPS (imgs/s)", "Inference time per image (ms)"]
    rows = [[r.model, f"{1000.0 / r.mean_ms:.1f}", f"{r.mean_ms:.1f}"] for r in records]
    payload = [
        {
            "model": r.model,
            "fps": round(1000.0 / r.mean_ms, 1),
            "mean_latency_ms": round(r.mean_ms, 1),
            "images": len(r.latencies_ms),
        }
        for r in records
    ]
    return _render(header, rows, payload, output_format)
