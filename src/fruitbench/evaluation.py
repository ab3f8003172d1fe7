"""Detection metrics: greedy IoU matching, a precision-recall sweep, and
per-category mAP / AP50 / mAR.

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
and ground truth as the dataset's columns. ``evaluate`` scores all rows
as one group, ``evaluate_rec`` each prompt's rows as a group against the
test ground truth its filter accepts. A cell of either side is keyed by
``(group * len(ds.categories) + category) * len(ds.images) + image``;
``np.isin`` picks the test images' rows, a stable lexsort by (key,
descending score) and its segment offsets form the capped detection
cells, and ``searchsorted`` finds each one's ground-truth run. ``_match``
then matches every cell at every threshold at once. A detection is paired
only with its cell's boxes that can overlap it along x; their IoU
(``geometry.paired_iou``, the exact array twin of ``geometry.iou``) is
built in blocks of about ``_BLOCK`` pairs, and the detection of rank r in
its cell keeps at most r + 1 non-crowd candidates plus the first crowd
region to reach each threshold, so memory grows with D * min(D, G), not
D * G. Detections holding no contested box are matched in one pass, the
others one rank per pass. Each group's category gets a (T, N) int8 state
(1 true positive, -1 crowd-ignored, 0 otherwise) and one sweep, which
returns the AP per threshold; no precision-recall curve is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .datamodel import (
    ARRAY, BOOLEAN, STRING, Detection, DetectionDataset, GroundTruthInstance, PredictionTable,
    checked, field,
)
from .errors import ValidationError
from .geometry import corner_array, left_sum, paired_iou
from .splits import SplitResult

__all__ = [
    "RECALL_LEVELS",
    "DEFAULT_IOU_THRESHOLDS",
    "EvalConfig",
    "DetMatch",
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
    """IoU thresholds (strictly ascending, each in (0, 1]) and the per
    image and category detection cap."""

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
        for t, following in zip(self.iou_thresholds, self.iou_thresholds[1:]):
            if t == following:
                raise ValidationError(f"IoU threshold {t!r} is listed twice")
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


# IoU pairs built at a time: a bound on the matcher's working memory that
# leaves its result unchanged.
_BLOCK = 1 << 12


def _ranges(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each position's run and its offset in it, for runs of ``lengths``
    laid end to end."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    return owner, np.arange(len(owner)) - (np.cumsum(lengths) - lengths)[owner]


def _prior(run, level, n_levels: int) -> np.ndarray:
    """Per entry, the highest ``level`` (0 to ``n_levels``) of the earlier
    entries of its ``run``; 0 for the first."""
    base = run * (n_levels + 1)
    return np.maximum(np.append(0, np.maximum.accumulate(base + level)[:-1]) - base, 0)


def _prune(rank, row, col, value, crowd, thresholds):
    """The candidates a row tries, in order: non-crowd ones by descending
    IoU (earliest column on ties), then crowd ones by column. A row of rank
    r in its cell needs at most its first r + 1 non-crowd ones, since each
    earlier row takes one column, and of the crowd ones the first to reach
    each threshold."""
    order = np.lexsort((col, np.where(crowd, 0.0, -value), crowd, row))
    rank, row, col, value, crowd = (x[order] for x in (rank, row, col, value, crowd))
    run, offset = _ranges(np.diff(_segments(2 * row + crowd)))
    level = np.searchsorted(thresholds, value, side="right")
    keep = np.where(crowd, level > _prior(run, level, len(thresholds)), offset <= rank)
    return [x[keep] for x in (rank, row, col, value, crowd)]


def _match(a, b, crowd, cells, thresholds) -> np.ndarray:
    """The (T, D) column each row takes per threshold, or -1: greedy
    matching of the corner stacks ``a`` (4, D) on ``b`` (4, G) in every
    cell at every threshold at once. ``cells`` holds four int arrays: per cell
    in row order, its rows ``start:end`` (by descending score) and columns
    ``gt_start:gt_end``. A row takes its first ``_prune`` candidate that
    reaches the threshold and is ``crowd`` or not taken by an earlier row
    of its cell. A non-crowd column two rows of a cell may take is
    contested: rows holding none are matched in pass 0, and the k-th row of
    a cell holding one in pass k."""
    thresholds, n = np.array(thresholds), len(thresholds)
    row, col, value, is_crowd = _candidates(a, b, crowd, cells, thresholds)
    free = ~is_crowd
    hot = np.zeros(a.shape[1], dtype=bool)
    hot[row[free & (np.bincount(col[free], minlength=b.shape[1]) > 1)[col]]] = True
    hot = np.flatnonzero(hot)
    step = np.zeros(a.shape[1], dtype=np.int64)
    step[hot] = _ranges(np.diff(_segments(np.searchsorted(cells[0], hot, side="right"))))[1]
    order = np.argsort(step[row], kind="stable")
    row, col, is_crowd = row[order], col[order], is_crowd[order]
    level = np.searchsorted(thresholds, value[order], side="right")  # thresholds reached
    # The smallest signed type that holds -1 and every column.
    hit = np.full((n, a.shape[1]), -1, dtype=np.min_scalar_type(-1 - b.shape[1]))
    taken = np.zeros((n, b.shape[1]), dtype=bool)
    # Nothing is taken in pass 0: a row's candidate serves the thresholds
    # above the highest level of the ones before it, up to its own level.
    end = np.searchsorted(step[row], 1)
    prior = _prior(_ranges(np.diff(_segments(row[:end])))[0], level[:end], n)
    owner, t = _ranges(np.maximum(level[:end] - prior, 0))
    t += prior[owner]
    hit[t, row[owner]] = col[owner]
    taken[t, col[owner]] |= ~is_crowd[owner]
    # Later passes test their candidates against the columns taken so far.
    bounds = (end + _segments(step[row[end:]])).tolist()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        c, k = col[lo:hi], is_crowd[lo:hi]
        ok = (level[lo:hi] > np.arange(n)[:, None]) & (k | ~taken[:, c])
        runs = _segments(row[lo:hi])[:-1]
        first = np.minimum.reduceat(np.where(ok, np.arange(hi - lo), hi - lo), runs, axis=1)
        t, run = np.nonzero(first < hi - lo)
        pick = first[t, run]
        hit[t, row[lo:hi][runs[run]]] = c[pick]
        taken[t, c[pick]] |= ~k[pick]
    return hit


def _candidates(a, b, crowd, cells, thresholds):
    """``(row, column, IoU, crowd)`` of the ``_prune`` candidates of every
    row of the ``_match`` cells. The IoU is built for at most ``_BLOCK``
    columns of a row, and about ``_BLOCK`` pairs, at a time; a row whose
    columns go on into the next block is cut again with them."""
    seg_row, seg_rank, seg_first, seg_len, col = _windows(a, b, cells)
    seg_start = np.cumsum(seg_len) - seg_len
    blocks = np.searchsorted(seg_start, np.arange(0, max(seg_len.sum(), 1), _BLOCK)).tolist()
    found, pending, count = [], [], 0
    for lo, hi in zip(blocks, blocks[1:] + [len(seg_len)]):
        owner, offset = _ranges(seg_len[lo:hi])
        owner += lo
        c = col.take(seg_first[owner] + offset)
        pairs = np.repeat(a[:, seg_row[lo:hi]], seg_len[lo:hi], axis=1)
        value = paired_iou(pairs, np.take(b, c, axis=1))
        keep = np.flatnonzero(value >= thresholds[0])
        owner = owner[keep]
        pending.append((seg_rank[owner], seg_row[owner], c[keep], value[keep]))
        count += len(owner)
        last = hi == len(seg_len)
        if count >= _BLOCK or last:
            rank, row, c, value = map(np.concatenate, zip(*pending))
            cut = _prune(rank, row, c, value, crowd[c], thresholds)
            going_on = not last and seg_row[hi] == seg_row[hi - 1]
            done = np.searchsorted(cut[1], seg_row[hi]) if going_on else len(cut[1])
            found.append([x[:done] for x in cut])
            pending, count = [tuple(x[done:] for x in cut[:4])], len(cut[1]) - done
    return [np.concatenate(x) for x in zip(*found)][1:]


def _windows(a, b, cells):
    """Per segment of at most ``_BLOCK`` of a row's columns: the row, its
    rank in its cell, the start and length of its run in the columns by
    cell and x_min; then those columns. A row gets the columns that can
    overlap it along x: after the last whose running x_max is left of its
    x_min, before the first that starts at or right of its x_max. Ranks
    among the columns' values compare x exactly and, offset by cell, one
    sorted array serves the searches of every cell."""
    starts, ends, gt_starts, gt_ends = cells
    cell, rank = _ranges(ends - starts)
    col_cell, offset = _ranges(gt_ends - gt_starts)
    row, col = starts[cell] + rank, gt_starts[col_cell] + offset
    x_min, x_min_rank = np.unique(b[0, col], return_inverse=True)
    x_max, x_max_rank = np.unique(b[2, col], return_inverse=True)
    first_key = col_cell * (len(x_min) + 1) + x_min_rank
    by_x = np.argsort(first_key, kind="stable")
    reach = np.maximum.accumulate((col_cell * (len(x_max) + 1) + x_max_rank)[by_x])
    left = cell * (len(x_max) + 1) + np.searchsorted(x_max, a[0, row], side="right")
    right = cell * (len(x_min) + 1) + np.searchsorted(x_min, a[2, row])
    lo = np.searchsorted(reach, left)
    width = np.maximum(np.searchsorted(first_key[by_x], right) - lo, 0)
    seg, chunk = _ranges(-(-width // _BLOCK))
    length = np.minimum(width[seg] - chunk * _BLOCK, _BLOCK)
    return row[seg], rank[seg], lo[seg] + chunk * _BLOCK, length, col[by_x]


def _sweep(state: np.ndarray, total_gt: int) -> list[float | None]:
    """The AP per threshold of one category from its (T, N) ``state`` in
    sweep order (stable by descending score): 1 for a true positive, -1 for
    a crowd-ignored row, 0 otherwise."""
    n_thresholds, n = state.shape
    if total_gt == 0:
        # Absent only with no detections at all; crowd-ignored detections
        # still count as "having detections" and pin the metric to 0.
        return [0.0 if n else None] * n_thresholds
    # At the k-th true positive of a threshold, precision is k over the rows
    # counted so far, and it falls until the next one: the envelope needs
    # only true positives. Recall k / total_gt first reaches a level at the
    # least k that does.
    t, pos = np.nonzero(state == 1)
    crowd_t, crowd_pos = np.nonzero(state < 0)
    tps, crowds = (np.bincount(x, minlength=n_thresholds) for x in (t, crowd_t))
    k = np.arange(1, len(t) + 1) - (np.cumsum(tps) - tps)[t]
    ignored = np.searchsorted(crowd_t * n + crowd_pos, t * n + pos)
    ignored -= (np.cumsum(crowds) - crowds)[t]
    width = min(n, total_gt) + 1
    envelope = np.zeros((n_thresholds, width))
    envelope[t, k - 1] = k / (pos + 1 - ignored)
    envelope = np.maximum.accumulate(envelope[:, ::-1], axis=1)[:, ::-1]
    need = np.searchsorted(np.arange(total_gt + 1) / total_gt, _LEVELS)
    interpolated = envelope[:, np.clip(need - 1, 0, width - 1)].tolist()
    return [left_sum(levels) / len(RECALL_LEVELS) for levels in interpolated]


def match_detections(
    dets: Sequence[Detection], gts: Sequence[GroundTruthInstance], threshold: float
) -> list[DetMatch]:
    """Greedy matching of one image/category cell at one threshold."""
    if not (0.0 < threshold <= 1.0):
        raise ValidationError(f"IoU threshold must lie in (0, 1], got {threshold!r}")
    ordered = sorted(dets, key=lambda d: -d.score)  # stable: input order breaks ties
    crowd = np.array([g.iscrowd for g in gts], dtype=bool)
    a, b = corner_array(d.box for d in ordered).T, corner_array(g.box for g in gts).T
    cells = np.array([[0], [len(dets)], [0], [len(gts)]])
    hit = _match(a, b, crowd, cells, (threshold,))[0].tolist()
    return [
        DetMatch(det, gts[c].id, not gts[c].iscrowd, bool(gts[c].iscrowd))
        if c >= 0
        else DetMatch(det, None, False, False)
        for det, c in zip(ordered, hit)
    ]


def average_precision(matches: Sequence[DetMatch], total_gt: int) -> float | None:
    """AP of one category at one threshold from its pooled match rows.

    ``matches`` must be the concatenation over images in ascending image-id
    order; the global sweep re-sorts stably by descending score. With no
    ground truth the metric is absent unless detections exist, in which
    case it is 0.
    """
    if total_gt < 0:
        raise ValidationError("total_gt must be non-negative")
    order = np.argsort([-m.detection.score for m in matches], kind="stable")
    state = np.array([-1 if m.ignored else int(m.is_tp) for m in matches], dtype=np.int8)
    return _sweep(state[order][None], total_gt)[0]


def _segments(key: np.ndarray) -> np.ndarray:
    """Start offsets of the runs of equal values in the sorted ``key``,
    followed by its length."""
    change = np.ones(len(key), dtype=bool)
    change[1:] = key[1:] != key[:-1]
    return np.append(np.flatnonzero(change), len(change))


def _category_pools(ds, test_positions, table, used, group, filters, config) -> list:
    """Per group, then category of ``ds``: the scores of its capped ``used``
    rows of ``table``, their (T, N) ``_sweep`` state and its non-crowd GT
    count. ``group`` holds the used rows' groups; the values of ``filters``
    are each group's test of a GT row's ``gt_attributes`` map, or None for
    all."""
    n_images, n_categories = len(ds.images), len(ds.categories)
    test_gt = np.flatnonzero(np.isin(ds.gt_image, test_positions))
    keep = np.ones((len(filters), len(test_gt)), dtype=bool)
    for k, gt_filter in enumerate(filters.values()):
        if gt_filter is not None:
            keep[k] = [bool(gt_filter(ds.gt_attributes[row])) for row in test_gt.tolist()]
    gt_group, gt = np.nonzero(keep)
    gt = test_gt[gt]
    gt_key = (ds.gt_category[gt] + gt_group * n_categories) * n_images + ds.gt_image[gt]
    del test_gt, keep, gt_group  # freed before the matcher's working arrays
    by_key = np.argsort(gt_key, kind="stable")  # id order within a cell
    gt, gt_key = gt[by_key], gt_key[by_key]
    gt_corners, gt_crowd = np.ascontiguousarray(ds.gt_boxes[gt].T), ds.gt_crowd[gt]
    num_gt = np.bincount(gt_key[~gt_crowd] // n_images, minlength=len(filters) * n_categories)
    # Cells in key order, each by descending score with input order breaking
    # ties, capped at max_dets; a group's and a category's cells are runs.
    key = (table.category[used] + group * n_categories) * n_images + table.image[used]
    by_key = np.lexsort((-table.score[used], key))
    order, key = used[by_key], key[by_key]
    bounds = _segments(key)
    capped = np.arange(len(order)) - np.repeat(bounds[:-1], np.diff(bounds)) < config.max_dets
    kept, key = order[capped], key[capped]
    bounds = _segments(key)
    gt_bounds = (np.searchsorted(gt_key, key[bounds[:-1]], side) for side in ("left", "right"))
    cells = (bounds[:-1], bounds[1:], *gt_bounds)
    corners = np.ascontiguousarray(table.boxes[kept].T)
    hit = _match(corners, gt_corners, gt_crowd, cells, config.iou_thresholds)
    state = np.append(np.where(gt_crowd, -1, 1), 0).astype(np.int8)[hit]  # -1 takes the 0
    runs = np.searchsorted(key, np.arange(len(num_gt) + 1) * n_images).tolist()
    return [
        (table.score[kept[lo:hi]], state[:, lo:hi], n)
        for lo, hi, n in zip(runs[:-1], runs[1:], num_gt.tolist())
    ]


def _check_table(ds: DetectionDataset, dets) -> None:
    if not (isinstance(dets, PredictionTable) and dets.ds is ds):
        raise ValidationError("detections must be a PredictionTable read against the dataset")


def _reports(ds, split, dets, group, filters, config) -> list[EvaluationReport]:
    """A report per ``prompt: filter`` item, of the rows whose ``group`` is
    its index; it counts its detections, used and in all, from ``group``."""
    test_ids = sorted(split.test_image_ids)
    if not test_ids:
        raise ValidationError("empty test split")
    test_positions = [ds.image_index(image_id) for image_id in test_ids]
    used = np.flatnonzero(np.isin(dets.image, test_positions))
    totals = np.bincount(group, minlength=len(filters)).tolist()
    group = group[used]
    counts = np.bincount(group, minlength=len(filters)).tolist()
    pools = _category_pools(ds, test_positions, dets, used, group, filters, config)
    rows = []
    for cat, (scores, state, num_gt) in zip(ds.categories * len(filters), pools):
        aps = _sweep(state[:, np.argsort(-scores, kind="stable")], num_gt)
        tps = np.count_nonzero(state == 1, axis=1).tolist()
        ars = [n / num_gt if num_gt else (None if ap is None else 0.0) for n, ap in zip(tps, aps)]
        if num_gt == 0 and not len(scores):
            map_value = ap50 = mar = None
        else:
            map_value = left_sum(aps) / len(aps)
            ap50 = aps[config.iou_thresholds.index(0.5)] if 0.5 in config.iou_thresholds else None
            mar = left_sum(ars) / len(ars)
        rows.append(CategoryReport(
            cat.id, cat.name, num_gt, len(scores), tuple(aps), tuple(ars), map_value, ap50, mar
        ))
    reports, n = [], len(ds.categories)
    for k, (prompt, n_used, total) in enumerate(zip(filters, counts, totals)):
        part = tuple(rows[k * n:(k + 1) * n])
        scored = [r for r in part if r.num_gt > 0]
        mean_ap = left_sum(r.map for r in scored) / len(scored) if scored else None
        with_ap50 = scored and all(r.ap50 is not None for r in scored)
        mean_ap50 = left_sum(r.ap50 for r in scored) / len(scored) if with_ap50 else None
        mean_ar = left_sum(r.mar for r in scored) / len(scored) if scored else None
        reports.append(EvaluationReport(
            part, mean_ap, mean_ap50, mean_ar, config.iou_thresholds, config.max_dets,
            n_used, total - n_used, sum(r.num_gt for r in part), split.manifest_digest, prompt,
        ))
    return reports


def evaluate(
    ds: DetectionDataset,
    split: SplitResult,
    dets: PredictionTable,
    config: EvalConfig = EvalConfig(),
) -> EvaluationReport:
    """Score detections against the test portion of a split.

    ``dets`` is a ``PredictionTable`` read against ``ds``; anything else is
    a ``ValidationError``. Detections referencing images outside the test
    split are ignored and counted. Raises on an empty test split.
    """
    _check_table(ds, dets)
    return _reports(ds, split, dets, np.zeros(len(dets), np.int64), {None: None}, config)[0]


def attribute_predicate(spec: Mapping) -> Callable[[Mapping[str, str]], bool]:
    """Build a ground-truth filter, a test of a row's attribute map, from a
    small JSON-friendly description.

    Forms: ``{"any": true}`` with no other key, or
    ``{"attribute": name, <op>: value}`` with one of the ops
    ``equals | not_equals | in | not_in``; the value is a string, a list of
    strings for ``in | not_in``. ``any`` is a JSON boolean. Any other key
    is rejected. A missing attribute compares as the empty string.
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
    unknown = set(spec) - {"any", "attribute", op}
    if unknown:
        raise ValidationError(f"{context} has unknown keys: {sorted(unknown)}")
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
    ``ds``: one report per prompt (sorted by prompt) of the detections
    carrying it, against the ground truth whose attribute map its filter
    accepts. Every prompt on a detection must have a filter.
    """
    _check_table(ds, dets)
    prompts = sorted(prompt_filters)
    position = {prompt: k for k, prompt in enumerate(prompts)}
    group = np.array([position.get(prompt, -1) for prompt in dets.prompt], dtype=np.int64)
    if -1 in group:
        prompt = dets.prompt[np.argmax(group < 0)]
        if prompt is None:
            raise ValidationError("REC evaluation requires a prompt on every detection")
        raise ValidationError(f"unknown prompt {prompt!r}: no filter provided")
    if not prompts:
        return []
    filters = {prompt: prompt_filters[prompt] for prompt in prompts}
    return _reports(ds, split, dets, group, filters, config)


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
