"""Per-layer spans for a traced op, recorded from the benchmark's side.

``Tracer.installed()`` swaps each traced public function of the library
for a wrapper that records a span around the call, at the module attribute
the CLI looks up, so ``fruitbench.cli.main`` makes its usual calls in its
usual order and the library's source is untouched. Nesting follows the
library's own calls: ``evaluate_rec`` calls ``evaluate``, and ``set_loss``
calls ``build_match_cost`` and ``hungarian``.

The per-pair and per-cell layers of ``evaluate`` (IoU, greedy matching, the
precision-recall sweep) are too fine to wrap, so after the op each
captured ``evaluate`` call is replayed through the public
``geometry.iou``, ``evaluation.match_detections`` and
``evaluation.average_precision`` on the same cells. Replay spans carry
``replay: true`` and lie outside the op's wall time.

Spans stay in memory (name, start, end, parent span, op id) and are
written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

from fruitbench import assignment, cli, datamodel, evaluation, reporting, splits
from fruitbench.geometry import iou

# (module, attribute the CLI or library looks up, span name)
TRACED = (
    (datamodel, "load_coco", "datamodel.load_coco"),
    (datamodel, "load_predictions", "datamodel.load_predictions"),
    (splits, "split_train_test", "splits.split"),
    (splits, "sample_k_shot", "splits.split"),
    (splits, "write_manifest", "splits.split"),
    (splits, "load_manifest", "splits.load_manifest"),
    (evaluation, "evaluate", "evaluation.evaluate"),
    (evaluation, "evaluate_rec", "evaluation.evaluate_rec"),
    (evaluation, "report_to_dict", "reporting.render"),
    (reporting, "render_metric_grid", "reporting.render"),
    (cli, "set_loss", "assignment.set_loss"),
    (assignment, "build_match_cost", "assignment.build_match_cost"),
    (assignment, "hungarian", "assignment.hungarian"),
)

# Per-layer metrics in report order: name -> unit. Seconds are summed over
# the spans of one op; every value is the median over the run's traced ops.
PER_LAYER = {
    "datamodel.load_coco.s": "s",
    "datamodel.load_predictions.s": "s",
    "datamodel.records_per_s": "1/s",
    "splits.split.s": "s",
    "splits.load_manifest.s": "s",
    "evaluation.evaluate.s": "s",
    "evaluation.evaluate_rec.s": "s",
    "evaluation.evaluate_rec.self_s": "s",
    "evaluation.cells": "count",
    "evaluation.iou_pairs": "count",
    "evaluation.evaluate.us_per_pair": "us",
    "evaluation.dets_kept_ratio": "ratio",
    "evaluation.crowd_ignored": "count",
    "geometry.iou.s": "s",
    "evaluation.match_detections.s": "s",
    "evaluation.average_precision.s": "s",
    "assignment.set_loss.s": "s",
    "assignment.set_loss.self_s": "s",
    "assignment.build_match_cost.s": "s",
    "assignment.hungarian.s": "s",
    "assignment.cost_cells": "count",
    "assignment.hungarian.us_per_cell": "us",
    "reporting.render.s": "s",
    "cli.self.s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Span:
    name: str
    op: int
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    replay: bool = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._counts: dict[str, float] = {}
        self._evaluate_calls: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, replay: bool = False):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.op, perf_counter(), 0.0, parent, replay)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def _count(self, key: str, amount: float) -> None:
        self._counts[key] = self._counts.get(key, 0) + amount

    def _wrap(self, fn, name: str):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._record(fn.__name__, bound.arguments, result)
            return result

        return traced

    def _record(self, function: str, arguments: dict, result) -> None:
        if function == "load_coco":
            ds = result[0]
            self._count("records", len(ds.images) + len(ds.instances) + len(ds.categories))
        elif function == "load_predictions":
            self._count("records", len(result))
        elif function == "evaluate":
            self._evaluate_calls.append(
                (arguments["ds"], arguments["split"], arguments["dets"], arguments["config"])
            )
        elif function == "set_loss":
            self._count(
                "cost_cells", len(arguments["predictions"]) * len(arguments["ground_truth"])
            )

    @contextlib.contextmanager
    def installed(self, op: int):
        """Trace op number ``op`` for the duration of the block."""
        self.op = op
        self._counts = {}
        self._evaluate_calls = []
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in TRACED]
        try:
            for module, attr, name in TRACED:
                setattr(module, attr, self._wrap(getattr(module, attr), name))
            yield
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def replay(self) -> None:
        """Replay the op's ``evaluate`` calls layer by layer (see module
        docstring) and count their cells, pairs and dropped detections."""
        for ds, split, dets, config in self._evaluate_calls:
            self._replay_evaluate(ds, split, dets, config)

    def _replay_evaluate(self, ds, split, dets, config) -> None:
        test_ids = sorted(split.test_image_ids)
        test_set = set(test_ids)
        used = [d for d in dets if d.image_id in test_set]
        gts_cell: dict[tuple[int, int], list] = {}
        for image_id in test_ids:
            for inst in ds.instances_for_image(image_id):
                gts_cell.setdefault((inst.category_id, image_id), []).append(inst)
        dets_cell: dict[tuple[int, int], list] = {}
        for det in used:
            dets_cell.setdefault((det.category_id, det.image_id), []).append(det)
        cells = []
        for key in sorted(set(gts_cell) | set(dets_cell)):
            ordered = sorted(dets_cell.get(key, []), key=lambda d: -d.score)
            cells.append((key[0], ordered[: config.max_dets], gts_cell.get(key, [])))
        self._count("cells", len(cells))
        self._count("iou_pairs", sum(len(capped) * len(gts) for _, capped, gts in cells))
        self._count("dets_used", len(used))
        self._count("dets_kept", sum(len(capped) for _, capped, _ in cells))

        with self.span("geometry.iou", replay=True):
            for _, capped, gts in cells:
                [[iou(d.box, g.box) for g in gts] for d in capped]
        pooled: dict[tuple[int, float], list] = {}
        with self.span("evaluation.match_detections", replay=True):
            for threshold in config.iou_thresholds:
                for cat_id, capped, gts in cells:
                    rows = evaluation.match_detections(capped, gts, threshold)
                    pooled.setdefault((cat_id, threshold), []).extend(rows)
        self._count("crowd_ignored", sum(r.ignored for rows in pooled.values() for r in rows))
        totals = {cat.id: 0 for cat in ds.categories}
        for cat_id, _, gts in cells:
            totals[cat_id] += sum(1 for g in gts if not g.iscrowd)
        with self.span("evaluation.average_precision", replay=True):
            for cat in ds.categories:
                for threshold in config.iou_thresholds:
                    evaluation.average_precision(pooled.get((cat.id, threshold), []), totals[cat.id])

    def op_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer values of the current op, whose wall time (replay
        excluded) was ``wall``."""
        spans = [s for s in self.spans if s.op == self.op]
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        top_level = 0.0
        for index, s in enumerate(self.spans):
            if s.op != self.op:
                continue
            duration = s.end - s.start
            total[s.name] = total.get(s.name, 0.0) + duration
            children = [c for c in spans if c.parent == index]
            self_time[s.name] = self_time.get(s.name, 0.0) + duration - _covered(s, children)
            if s.parent is None and not s.replay:
                top_level += duration
        counts = self._counts
        load_s = total.get("datamodel.load_coco", 0.0) + total.get("datamodel.load_predictions", 0.0)
        pairs = counts.get("iou_pairs", 0)
        cost_cells = counts.get("cost_cells", 0)
        hungarian_s = total.get("assignment.hungarian", 0.0)
        evaluate_s = total.get("evaluation.evaluate", 0.0)
        values = {
            name + ".s": total.get(name, 0.0)
            for name in {n for _, _, n in TRACED} | {
                "geometry.iou", "evaluation.match_detections", "evaluation.average_precision"
            }
        }
        values.update(
            {
                "datamodel.records_per_s": counts.get("records", 0) / load_s if load_s else 0.0,
                "evaluation.evaluate_rec.self_s": self_time.get("evaluation.evaluate_rec", 0.0),
                "evaluation.cells": counts.get("cells", 0),
                "evaluation.iou_pairs": pairs,
                "evaluation.evaluate.us_per_pair": evaluate_s * 1e6 / pairs if pairs else 0.0,
                "evaluation.dets_kept_ratio": (
                    counts["dets_kept"] / counts["dets_used"] if counts.get("dets_used") else 0.0
                ),
                "evaluation.crowd_ignored": counts.get("crowd_ignored", 0),
                "assignment.set_loss.self_s": self_time.get("assignment.set_loss", 0.0),
                "assignment.cost_cells": cost_cells,
                "assignment.hungarian.us_per_cell": (
                    hungarian_s * 1e6 / cost_cells if cost_cells else 0.0
                ),
                "cli.self.s": wall - top_level,
            }
        )
        return values

    def write(self, path: Path) -> None:
        path.write_text(
            "".join(json.dumps(asdict(s)) + "\n" for s in self.spans), encoding="utf-8"
        )


def _covered(parent: Span, children: list[Span]) -> float:
    """Length of the part of ``parent``'s interval that ``children`` cover."""
    covered = 0.0
    cursor = parent.start
    for c in sorted(children, key=lambda c: c.start):
        start = max(c.start, cursor)
        end = min(c.end, parent.end)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def summarize(per_op: list[dict[str, float]], traced_walls, untraced_walls) -> dict[str, float]:
    """Median of each per-layer value over the traced ops, plus the
    tracing overhead as a share of the untraced op wall time."""
    values = {name: statistics.median(op[name] for op in per_op) for name in per_op[0]}
    untraced = statistics.median(untraced_walls)
    values["trace.overhead_ratio"] = (statistics.median(traced_walls) - untraced) / untraced
    return {name: values[name] for name in PER_LAYER}
