"""Detection metrics: greedy IoU matching, precision-recall construction,
and per-category mAP / AP50 / mAR.

Protocol (the standard benchmark conventions, spelled out because every
number downstream depends on them):

* detections are processed in descending score order, ties broken by input
  order (stable sort); per image and category only the ``max_dets``
  highest-scoring detections are kept;
* a detection matches the not-yet-matched ground-truth box with the highest
  IoU if that IoU reaches the threshold (ties on IoU go to the earliest
  ground-truth instance); crowd regions may be matched repeatedly and count
  as neither true positives nor false negatives, and detections whose only
  qualifying overlap is a crowd region are dropped from the sweep;
* AP at a threshold is the mean of the right-envelope interpolated
  precision sampled at the 101 recall levels 0.00, 0.01, ..., 1.00 over the
  global score-sorted sweep (images in ascending-id order feed the sort);
* AR at a threshold is the recall achieved under the detection cap;
* mAP / mAR average the 10 thresholds 0.50:0.05:0.95, AP50 is AP at 0.50;
  aggregate values are unweighted means over categories that have ground
  truth in the evaluated split.

A category with no ground truth in the split reports absent metrics when
it also has no detections and zeros otherwise; either way it is excluded
from the aggregate means.

One array path computes it all. Detections arrive only as the
``PredictionTable`` that ``load_predictions`` read against the dataset,
and ground truth as the dataset's columns; on both sides a cell is keyed
by ``category * len(ds.images) + image``. ``np.isin`` picks the test
images' rows (``gt_filter``, called on each row's ``gt_attributes`` map,
is one mask over the ground-truth ones); a stable lexsort by (key,
descending score) and its segment offsets form the capped detection
cells, and ``searchsorted`` finds each one's ground-truth run.
Each cell gets its IoU array from ``geometry.pairwise_iou``, the exact
array twin of ``geometry.iou``, greedy matching over short per-detection
candidate lists, and each category a cumsum / envelope / searchsorted sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .datamodel import (
    ARRAY, BOOLEAN, STRING, Detection, DetectionDataset, GroundTruthInstance, PredictionTable,
    checked, field,
)
from .errors import ValidationError
from .geometry import corner_array, pairwise_iou
from .splits import SplitResult

__all__ = [
    "RECALL_LEVELS",
    "DEFAULT_IOU_THRESHOLDS",
    "EvalConfig",
    "DetMatch",
    "PRCurve",
    "CategoryReport",
    "EvaluationReport",
    "match_detections",
    "average_precision",
    "evaluate",
    "evaluate_rec",
    "attribute_predicate",
    "report_to_dict",
]

RECALL_LEVELS: tuple[float, ...] = tuple(i / 100 for i in range(101))
DEFAULT_IOU_THRESHOLDS: tuple[float, ...] = tuple((50 + 5 * i) / 100 for i in range(10))
_LEVELS = np.array(RECALL_LEVELS)


@dataclass(frozen=True)
class EvalConfig:
    """IoU thresholds (ascending, each in (0, 1]) and the per image and
    category detection cap."""

    iou_thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS
    max_dets: int = 100

    def __post_init__(self):
        object.__setattr__(self, "iou_thresholds", tuple(self.iou_thresholds))
        if not self.iou_thresholds:
            raise ValidationError("at least one IoU threshold is required")
        for t in self.iou_thresholds:
            if not (0.0 < t <= 1.0):
                raise ValidationError(f"IoU thresholds must lie in (0, 1], got {t!r}")
        if list(self.iou_thresholds) != sorted(self.iou_thresholds):
            raise ValidationError("IoU thresholds must be ascending")
        if self.max_dets < 1:
            raise ValidationError(f"max_dets must be >= 1, got {self.max_dets!r}")


@dataclass(frozen=True)
class DetMatch:
    """One detection's outcome at a threshold. ``ignored`` marks crowd
    matches, which never enter the precision-recall sweep."""

    detection: Detection
    gt_instance_id: int | None
    is_tp: bool
    ignored: bool


@dataclass(frozen=True)
class PRCurve:
    """Raw sweep points plus the 101-level interpolated precision, which is
    monotone non-increasing by construction."""

    points: tuple[tuple[float, float], ...]  # (recall, precision)
    interpolated: tuple[float, ...]


@dataclass(frozen=True)
class CategoryReport:
    category_id: int
    name: str
    num_gt: int
    num_detections: int
    per_threshold_ap: tuple[float | None, ...]
    per_threshold_ar: tuple[float | None, ...]
    map: float | None
    ap50: float | None
    mar: float | None


@dataclass(frozen=True)
class EvaluationReport:
    per_category: tuple[CategoryReport, ...]
    mean_ap: float | None
    mean_ap50: float | None
    mean_ar: float | None
    iou_thresholds: tuple[float, ...]
    max_dets: int
    num_detections_used: int
    num_detections_ignored: int
    num_gt: int
    split_digest: str | None = None
    prompt: str | None = None


def _greedy(a, b, crowd, thresholds) -> list[list[tuple[int, int]]]:
    """Per threshold, the ``(row, column)`` hits of one cell's detection
    corners ``a`` (D, 4), sorted by descending score, on its ground-truth
    corners ``b`` (G, 4); a hit on a ``crowd`` column is ignored.

    A row's candidates are its columns with IoU >= the lowest threshold:
    non-crowd ones by descending IoU, earliest first on ties, then crowd
    ones in column order. The best untaken non-crowd column reaches a
    threshold exactly when some untaken candidate does, and is the first
    one that does; a crowd candidate is only the fallback.
    """
    if not (len(a) and len(b)):
        return [[] for _ in thresholds]
    ious = pairwise_iou(a, b)
    rows, cols = np.nonzero(ious >= min(thresholds))
    values = ious[rows, cols]
    is_crowd = crowd[cols]
    order = np.lexsort((np.where(is_crowd, 0.0, -values), is_crowd, rows))
    candidates: dict[int, list[tuple[int, float, bool]]] = {}
    for r, c, v, k in zip(*(x[order].tolist() for x in (rows, cols, values, is_crowd))):
        candidates.setdefault(r, []).append((c, v, k))
    out = []
    for t in thresholds:
        taken = set()
        hits = []
        for r, entries in candidates.items():
            for c, v, k in entries:
                if v >= t and (k or c not in taken):
                    if not k:
                        taken.add(c)
                    hits.append((r, c))
                    break
        out.append(hits)
    return out


def _sweep(order, tps, ignored, total_gt: int, curve: bool):
    """``(ap, curve)`` of one category at one threshold. ``order`` is the
    sweep order of the pooled rows (stable by descending score), ``tps`` and
    ``ignored`` list the true positives and crowd matches among them."""
    if total_gt == 0:
        # Absent only with no detections at all; crowd-ignored detections
        # still count as "having detections" and pin the metric to 0.
        if not len(order):
            return None, None
        return 0.0, PRCurve(points=(), interpolated=(0.0,) * len(RECALL_LEVELS))
    state = np.zeros(len(order), dtype=np.int8)
    state[tps] = 1
    state[ignored] = -1
    swept = state[order]
    tp = np.cumsum(swept[swept >= 0])
    precision = tp / np.arange(1, len(tp) + 1)
    recall = tp / total_gt
    envelope = np.append(np.maximum.accumulate(precision[::-1])[::-1], 0.0)
    interpolated = envelope[np.searchsorted(recall, _LEVELS, side="left")].tolist()
    ap = sum(interpolated) / len(RECALL_LEVELS)
    if not curve:
        return ap, None
    return ap, PRCurve(tuple(zip(recall.tolist(), precision.tolist())), tuple(interpolated))


def match_detections(
    dets: Sequence[Detection], gts: Sequence[GroundTruthInstance], threshold: float
) -> list[DetMatch]:
    """Greedy matching of one image/category cell at one threshold."""
    if not (0.0 < threshold <= 1.0):
        raise ValidationError(f"IoU threshold must lie in (0, 1], got {threshold!r}")
    ordered = sorted(dets, key=lambda d: -d.score)  # stable: input order breaks ties
    crowd = np.array([g.iscrowd for g in gts], dtype=bool)
    a, b = corner_array(d.box for d in ordered), corner_array(g.box for g in gts)
    hit = {r: gts[c] for r, c in _greedy(a, b, crowd, (threshold,))[0]}
    return [
        DetMatch(det, hit[r].id, not hit[r].iscrowd, bool(hit[r].iscrowd))
        if r in hit
        else DetMatch(det, None, False, False)
        for r, det in enumerate(ordered)
    ]


def average_precision(
    matches: Sequence[DetMatch], total_gt: int
) -> tuple[float | None, PRCurve | None]:
    """AP of one category at one threshold from its pooled match rows.

    ``matches`` must be the concatenation over images in ascending image-id
    order; the global sweep re-sorts stably by descending score. With no
    ground truth the metric is absent unless detections exist, in which
    case it is 0.
    """
    if total_gt < 0:
        raise ValidationError("total_gt must be non-negative")
    order = np.argsort([-m.detection.score for m in matches], kind="stable")
    tps = [k for k, m in enumerate(matches) if m.is_tp]
    ignored = [k for k, m in enumerate(matches) if m.ignored]
    return _sweep(order, tps, ignored, total_gt, curve=True)


@dataclass
class _Pool:
    """One category's capped detections: scores, and per threshold the
    true-positive and crowd-matched rows; plus its non-crowd GT count."""

    scores: np.ndarray
    hits: list[tuple[list[int], list[int]]]
    num_gt: int


def _segments(key: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal values in the sorted ``key``,
    followed by its length."""
    change = np.ones(len(key), dtype=bool)
    change[1:] = key[1:] != key[:-1]
    return np.append(np.flatnonzero(change), len(change))


def _category_pools(ds, test_positions, table, used, config, gt_filter) -> list[_Pool]:
    """One pool per category of ``ds``, in position order, from the
    ``used`` rows of ``table``. A cell of either side is keyed by
    ``category * len(ds.images) + image``."""
    n_images = len(ds.images)
    gt = np.flatnonzero(np.isin(ds.gt_image, test_positions))
    if gt_filter is not None:
        attrs = ds.gt_attributes
        gt = gt[np.array([bool(gt_filter(attrs[k])) for k in gt.tolist()], dtype=bool)]
    gt_key = ds.gt_category[gt] * n_images + ds.gt_image[gt]
    by_key = np.argsort(gt_key, kind="stable")  # id order within a cell
    gt, gt_key = gt[by_key], gt_key[by_key]
    gt_boxes, gt_crowd = ds.gt_boxes[gt], ds.gt_crowd[gt]
    num_gt = np.bincount(ds.gt_category[gt[~gt_crowd]], minlength=len(ds.categories)).tolist()
    # Cells in key order, each by descending score with input order breaking
    # ties, capped at max_dets; a category's cells are one run.
    key = table.category[used] * n_images + table.image[used]
    by_key = np.lexsort((-table.score[used], key))
    order, key = used[by_key], key[by_key]
    bounds = _segments(key)
    capped = np.arange(len(order)) - np.repeat(bounds[:-1], np.diff(bounds)) < config.max_dets
    kept, key = order[capped], key[capped]
    runs = np.searchsorted(key, np.arange(len(ds.categories) + 1) * n_images).tolist()
    pools = [
        _Pool(table.score[kept[runs[k]:runs[k + 1]]], [([], []) for _ in config.iou_thresholds], n)
        for k, n in enumerate(num_gt)
    ]
    bounds = _segments(key)
    cell_key = key[bounds[:-1]]
    gt_bounds = (np.searchsorted(gt_key, cell_key, side) for side in ("left", "right"))
    cells = (x.tolist() for x in (cell_key // n_images, bounds[:-1], bounds[1:], *gt_bounds))
    for k, start, end, gt_start, gt_end in zip(*cells):
        if gt_start == gt_end:
            continue
        crowd = gt_crowd[gt_start:gt_end]
        hits = _greedy(
            table.boxes[kept[start:end]], gt_boxes[gt_start:gt_end], crowd, config.iou_thresholds
        )
        base = start - runs[k]
        for (tps, ignored), cell_hits in zip(pools[k].hits, hits):
            for r, c in cell_hits:
                (ignored if crowd[c] else tps).append(base + r)
    return pools


def _check_table(ds: DetectionDataset, dets) -> None:
    if not (isinstance(dets, PredictionTable) and dets.ds is ds):
        raise ValidationError("detections must be a PredictionTable read against the dataset")


def evaluate(
    ds: DetectionDataset,
    split: SplitResult,
    dets: PredictionTable,
    config: EvalConfig = EvalConfig(),
    *,
    gt_filter: Callable[[Mapping[str, str]], bool] | None = None,
) -> EvaluationReport:
    """Score detections against the test portion of a split.

    ``dets`` is a ``PredictionTable`` read against ``ds``; anything else is
    a ``ValidationError``. Detections referencing images outside the test
    split are ignored and counted. With ``gt_filter``, only the ground
    truth whose attribute map it accepts is scored. Raises on an empty test
    split.
    """
    _check_table(ds, dets)
    test_ids = sorted(split.test_image_ids)
    if not test_ids:
        raise ValidationError("empty test split")
    test_positions = [ds.image_index(image_id) for image_id in test_ids]
    used = np.flatnonzero(np.isin(dets.image, test_positions))
    pools = _category_pools(ds, test_positions, dets, used, config, gt_filter)

    rows = []
    for cat, pool in zip(ds.categories, pools):
        order = np.argsort(-pool.scores, kind="stable")
        aps = []
        ars = []
        for tps, crowd_rows in pool.hits:
            ap, _ = _sweep(order, tps, crowd_rows, pool.num_gt, curve=False)
            aps.append(ap)
            ars.append(len(tps) / pool.num_gt if pool.num_gt else (None if ap is None else 0.0))
        if pool.num_gt == 0 and not len(pool.scores):
            map_value = ap50 = mar = None
        else:
            map_value = sum(aps) / len(aps)
            ap50 = aps[config.iou_thresholds.index(0.5)] if 0.5 in config.iou_thresholds else None
            mar = sum(ars) / len(ars)
        rows.append(
            CategoryReport(
                category_id=cat.id,
                name=cat.name,
                num_gt=pool.num_gt,
                num_detections=len(pool.scores),
                per_threshold_ap=tuple(aps),
                per_threshold_ar=tuple(ars),
                map=map_value,
                ap50=ap50,
                mar=mar,
            )
        )

    scored = [r for r in rows if r.num_gt > 0]
    mean_ap = sum(r.map for r in scored) / len(scored) if scored else None
    with_ap50 = scored and all(r.ap50 is not None for r in scored)
    mean_ap50 = sum(r.ap50 for r in scored) / len(scored) if with_ap50 else None
    mean_ar = sum(r.mar for r in scored) / len(scored) if scored else None
    return EvaluationReport(
        per_category=tuple(rows),
        mean_ap=mean_ap,
        mean_ap50=mean_ap50,
        mean_ar=mean_ar,
        iou_thresholds=config.iou_thresholds,
        max_dets=config.max_dets,
        num_detections_used=len(used),
        num_detections_ignored=len(dets) - len(used),
        num_gt=sum(pool.num_gt for pool in pools),
        split_digest=split.manifest_digest,
    )


def attribute_predicate(spec: Mapping) -> Callable[[Mapping[str, str]], bool]:
    """Build a ground-truth filter, a test of a row's attribute map, from a
    small JSON-friendly description.

    Forms: ``{"any": true}`` with no other key, or
    ``{"attribute": name, <op>: value}`` with one of the ops
    ``equals | not_equals | in | not_in``; the value is a string, a list of
    strings for ``in | not_in``. ``any`` is a JSON boolean. A missing
    attribute compares as the empty string.
    """
    context = f"predicate {spec!r:.80}"
    if field(spec, "any", context, BOOLEAN, False):
        if len(spec) > 1:
            raise ValidationError(f"{context}: 'any': true takes no other key")
        return lambda attrs: True
    attribute = field(spec, "attribute", context, STRING)
    if not attribute:
        raise ValidationError(f"{context}: 'attribute' must be a non-empty name")
    ops = [op for op in ("equals", "not_equals", "in", "not_in") if op in spec]
    if len(ops) != 1:
        raise ValidationError(f"{context}: needs exactly one operator")
    op = ops[0]
    if op in ("in", "not_in"):
        operand = {checked(v, STRING, context, op) for v in field(spec, op, context, ARRAY)}
    else:
        operand = field(spec, op, context, STRING)

    if op == "equals":
        return lambda attrs: attrs.get(attribute, "") == operand
    if op == "not_equals":
        return lambda attrs: attrs.get(attribute, "") != operand
    if op == "in":
        return lambda attrs: attrs.get(attribute, "") in operand
    return lambda attrs: attrs.get(attribute, "") not in operand


def evaluate_rec(
    ds: DetectionDataset,
    split: SplitResult,
    dets: PredictionTable,
    prompt_filters: Mapping[str, Callable[[Mapping[str, str]], bool]],
    config: EvalConfig = EvalConfig(),
) -> list[EvaluationReport]:
    """Prompt-conditioned evaluation of a ``PredictionTable`` read against
    ``ds``.

    For each prompt, the ground truth is restricted to the rows whose
    attribute map satisfies the prompt's predicate and only detections
    carrying that prompt are scored; the result is one report per prompt
    (sorted by prompt). Every prompt appearing on a detection must have a
    filter.
    """
    _check_table(ds, dets)
    rows: dict[str, list[int]] = {prompt: [] for prompt in prompt_filters}
    for row, prompt in enumerate(dets.prompt):
        if prompt is None:
            raise ValidationError("REC evaluation requires a prompt on every detection")
        if prompt not in rows:
            raise ValidationError(f"unknown prompt {prompt!r}: no filter provided")
        rows[prompt].append(row)
    reports = []
    for prompt in sorted(prompt_filters):
        part = dets[np.array(rows[prompt], dtype=np.int64)]
        report = evaluate(ds, split, part, config, gt_filter=prompt_filters[prompt])
        reports.append(replace(report, prompt=prompt))
    return reports


def report_to_dict(report: EvaluationReport) -> dict:
    """JSON-friendly view of a report (the on-disk report schema)."""
    payload = {
        "per_category": {
            row.name: {
                "mAP": row.map,
                "AP50": row.ap50,
                "mAR": row.mar,
                "per_threshold_AP": list(row.per_threshold_ap),
                "per_threshold_AR": list(row.per_threshold_ar),
                "num_gt": row.num_gt,
                "num_detections": row.num_detections,
            }
            for row in report.per_category
        },
        "aggregate": {"mAP": report.mean_ap, "AP50": report.mean_ap50, "mAR": report.mean_ar},
        "counts": {
            "detections_used": report.num_detections_used,
            "detections_ignored": report.num_detections_ignored,
            "ground_truth": report.num_gt,
        },
        "iou_thresholds": list(report.iou_thresholds),
        "max_dets": report.max_dets,
        "split_digest": report.split_digest,
    }
    if report.prompt is not None:
        payload["prompt"] = report.prompt
    return payload
