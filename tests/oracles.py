"""Independent reference implementations used as test oracles.

Everything here is deliberately written in the dumbest possible style
(explicit loops, repeated scans, no shared helpers beyond the geometry
primitives and dataclasses under test) so that agreement with the engine
is meaningful.
"""

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fruitbench.datamodel import (
    ARRAY, FLAG, INTEGER, NUMBER, OBJECT, OPTIONAL_STRING, STRING, Category, Detection,
    DetectionDataset, GroundTruthInstance, ImageRecord, checked, field, read_json,
)
from fruitbench.errors import IntegrityError, ValidationError
from fruitbench.geometry import BoundingBox, box_from_xywh, giou, iou, l1_box_distance


def raster_intersection_union_enclosure(a: BoundingBox, b: BoundingBox):
    """Pixel-counting areas for integer-coordinate boxes.

    A box covers the unit cells [x_min, x_max) x [y_min, y_max), so the
    cell count equals the plain-product area exactly.
    """
    x_hi = int(max(a.x_max, b.x_max)) + 1
    y_hi = int(max(a.y_max, b.y_max)) + 1
    grid_a = np.zeros((y_hi, x_hi), dtype=bool)
    grid_b = np.zeros((y_hi, x_hi), dtype=bool)
    grid_a[int(a.y_min):int(a.y_max), int(a.x_min):int(a.x_max)] = True
    grid_b[int(b.y_min):int(b.y_max), int(b.x_min):int(b.x_max)] = True
    inter = int((grid_a & grid_b).sum())
    union = int((grid_a | grid_b).sum())
    ex0 = min(int(a.x_min), int(b.x_min))
    ey0 = min(int(a.y_min), int(b.y_min))
    ex1 = max(int(a.x_max), int(b.x_max))
    ey1 = max(int(a.y_max), int(b.y_max))
    enclosure = (ex1 - ex0) * (ey1 - ey0)
    return inter, union, enclosure


def raster_iou(a: BoundingBox, b: BoundingBox) -> float:
    inter, union, _ = raster_intersection_union_enclosure(a, b)
    if union == 0:
        return 0.0
    return inter / union


def raster_giou(a: BoundingBox, b: BoundingBox) -> float:
    inter, union, enclosure = raster_intersection_union_enclosure(a, b)
    return inter / union - (enclosure - union) / enclosure


@dataclass(frozen=True)
class TokenLogits:
    """Alignment scores of one prediction over the text tokens."""

    scores: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "scores", tuple(float(s) for s in self.scores))
        if not all(math.isfinite(s) for s in self.scores):
            raise ValidationError("token logits must be finite")

    def __len__(self) -> int:
        return len(self.scores)


def _bce_with_logit(logit: float, target: float) -> float:
    # Numerically stable sigmoid cross-entropy.
    return max(logit, 0.0) - logit * target + math.log1p(math.exp(-abs(logit)))


def token_alignment_cost(logits: TokenLogits, positive_mask) -> float:
    """Mean per-token sigmoid binary cross-entropy of the logits against a
    boolean positive-token mask."""
    if len(logits) != len(positive_mask):
        raise ValidationError(
            f"token dimension mismatch: {len(logits)} logits vs {len(positive_mask)} mask bits"
        )
    if len(logits) == 0:
        raise ValidationError("token vectors must be non-empty")
    total = 0.0
    for score, positive in zip(logits.scores, positive_mask):
        total += _bce_with_logit(score, 1.0 if positive else 0.0)
    return total / len(logits)


def scalar_cost_terms(predictions, ground_truth, gt_token_masks, img_w, img_h):
    """The set-loss cost terms ``(l1, giou, tac, negative)`` of
    ``assignment._cost_terms``, pair by pair through the scalar geometry and
    token-cost functions: (P, G) arrays of ``l1_box_distance``, ``giou``
    and ``token_alignment_cost``, and the (P,) token alignment costs
    against the all-negative mask."""
    if len(ground_truth) != len(gt_token_masks):
        raise ValidationError(
            f"{len(ground_truth)} ground-truth instances but {len(gt_token_masks)} token masks"
        )
    l1, g, tac = [], [], []
    for box, logits in predictions:
        for gt, mask in zip(ground_truth, gt_token_masks):
            l1.append(l1_box_distance(box, gt.box, img_w, img_h))
            g.append(giou(box, gt.box))
            tac.append(token_alignment_cost(logits, mask))
    shape = (len(predictions), len(ground_truth))
    l1, g, tac = (np.array(t, dtype=np.float64).reshape(shape) for t in (l1, g, tac))
    negative = [token_alignment_cost(logits, [False] * len(logits)) for _, logits in predictions]
    return l1, g, tac, np.array(negative, dtype=np.float64)


def loss_arrays(predictions, ground_truth, gt_token_masks):
    """The set-loss engine's four arrays from the scalar reference's inputs:
    the (P, 4) corners and (P, V) logits of the ``(BoundingBox,
    TokenLogits)`` pairs, the (G, 4) corners of the ground-truth instances
    and their (G, V') boolean masks. V is the logits' width (the masks'
    without predictions), V' the masks' (V without masks); every logit
    vector, and every mask, must have the same length."""
    width = len(predictions[0][1]) if predictions else len(gt_token_masks[0]) if gt_token_masks else 0
    mask_width = len(gt_token_masks[0]) if gt_token_masks else width
    boxes = np.array([[b.x_min, b.y_min, b.x_max, b.y_max] for b, _ in predictions], dtype=float)
    logits = np.array([t.scores for _, t in predictions], dtype=float)
    gt_boxes = np.array(
        [[g.box.x_min, g.box.y_min, g.box.x_max, g.box.y_max] for g in ground_truth], dtype=float
    )
    masks = np.array(gt_token_masks, dtype=bool)
    return (
        boxes.reshape(len(predictions), 4),
        logits.reshape(len(predictions), width),
        gt_boxes.reshape(len(ground_truth), 4),
        masks.reshape(len(gt_token_masks), mask_width),
    )


def scalar_load_predictions(path, ds) -> list[Detection]:
    """A prediction file read record by record through ``field``,
    ``box_from_xywh`` and the ``Detection`` constructor: the reader the
    columnar ``load_predictions`` must agree with, value for value and
    error for error."""
    path = Path(path)
    detections = []
    for index, record in enumerate(checked(read_json(path), ARRAY, path)):
        context = f"detection #{index}"
        image_id = field(record, "image_id", context, INTEGER)
        category_id = field(record, "category_id", context, INTEGER)
        if not ds.has_image(image_id):
            raise IntegrityError(f"{context} references unknown image {image_id}")
        if not ds.has_category(category_id):
            raise IntegrityError(f"{context} references unknown category {category_id}")
        detections.append(
            Detection(
                image_id=image_id,
                category_id=category_id,
                box=box_from_xywh(field(record, "bbox", context)),
                score=field(record, "score", context, NUMBER),
                prompt=field(record, "prompt", context, OPTIONAL_STRING, None),
            )
        )
    return detections


def scalar_load_coco(path):
    """An annotation file read record by record through ``field``,
    ``box_from_xywh``, ``BoundingBox.clamped`` and the
    ``GroundTruthInstance`` and ``DetectionDataset`` constructors:
    ``(dataset, clamped)``, the reader the columnar ``load_coco`` must
    agree with, value for value and error for error."""
    path = Path(path)
    raw = read_json(path)
    context = f"{path} categories"
    categories = [
        Category(id=field(c, "id", context, INTEGER), name=field(c, "name", context, STRING))
        for c in field(raw, "categories", path, ARRAY)
    ]
    context = f"{path} images"
    images = [
        ImageRecord(
            id=field(m, "id", context, INTEGER),
            file_name=field(m, "file_name", context, STRING),
            width=field(m, "width", context, INTEGER),
            height=field(m, "height", context, INTEGER),
            region=field(m, "region", context, OPTIONAL_STRING, None),
        )
        for m in field(raw, "images", path, ARRAY)
    ]
    image_by_id = {m.id: m for m in images}
    instances = []
    clamped = 0
    for a in field(raw, "annotations", path, ARRAY):
        ann_id = field(a, "id", f"{path} annotations", INTEGER)
        context = f"annotation {ann_id}"
        image_id = field(a, "image_id", context, INTEGER)
        category_id = field(a, "category_id", context, INTEGER)
        iscrowd = field(a, "iscrowd", context, FLAG, 0)
        if image_id not in image_by_id:
            raise IntegrityError(f"annotation {ann_id} references unknown image {image_id}")
        box = box_from_xywh(field(a, "bbox", context))
        img = image_by_id[image_id]
        clipped = box.clamped(img.width, img.height)
        if clipped is not box:
            clamped += 1
        attributes = field(a, "attributes", context, OBJECT, {})
        for key, value in attributes.items():
            checked(value, STRING, context, key)
        instances.append(
            GroundTruthInstance(
                id=ann_id,
                image_id=image_id,
                category_id=category_id,
                box=clipped,
                attributes=attributes,
                iscrowd=bool(iscrowd),
            )
        )
    # The dataset checks: categories and images first, then each instance in
    # id order (the boxes are clamped and the images known by now).
    DetectionDataset(categories, images, [])
    category_ids, seen = {c.id for c in categories}, set()
    for inst in sorted(instances, key=lambda a: a.id):
        if inst.id in seen:
            raise ValidationError(f"duplicate instance id {inst.id}")
        seen.add(inst.id)
        if inst.category_id not in category_ids:
            raise IntegrityError(
                f"instance {inst.id} references unknown category {inst.category_id}"
            )
    return DetectionDataset(categories, images, instances), clamped


def brute_force_assignment_cost(matrix) -> float:
    """Minimum cost over every maximal matching, by full enumeration."""
    m = np.asarray(matrix, dtype=float)
    r, c = m.shape
    best = None
    if r <= c:
        for perm in itertools.permutations(range(c), r):
            cost = 0.0
            for i in range(r):
                cost += m[i, perm[i]]
            if best is None or cost < best:
                best = cost
    else:
        for perm in itertools.permutations(range(r), c):
            cost = 0.0
            for j in range(c):
                cost += m[perm[j], j]
            if best is None or cost < best:
                best = cost
    return 0.0 if best is None else best


def brute_force_lexicographic_assignment(matrix) -> tuple[tuple[int, int], ...]:
    """The pair list of the minimum-cost maximal matching that is smallest
    prediction-major, by full enumeration: minimizes ``(cost, key)`` where
    ``key[i]`` is row ``i``'s column, or infinity when it is unmatched."""
    m = np.asarray(matrix, dtype=float)
    r, c = m.shape
    best = None
    if r <= c:
        matchings = (list(perm) for perm in itertools.permutations(range(c), r))
    else:
        matchings = (
            [rows.index(i) if i in rows else None for i in range(r)]
            for rows in itertools.permutations(range(r), c)
        )
    for cols in matchings:
        cost = 0.0
        for i, j in enumerate(cols):
            if j is not None:
                cost += m[i, j]
        key = [math.inf if j is None else j for j in cols]
        if best is None or (cost, key) < best[:2]:
            best = (cost, key, cols)
    return tuple((i, j) for i, j in enumerate(best[2]) if j is not None)


def forced_lexicographic_assignment(matrix, min_cost) -> tuple[tuple[int, int], ...]:
    """The pair list of ``brute_force_lexicographic_assignment`` at sizes
    enumeration cannot reach. Rows are fixed in order, each to the first
    column (ascending, unmatched last) that keeps a maximal matching of the
    optimal cost possible; ``min_cost(submatrix)`` is the optimum of the
    rest. Exact when the entries are integers."""
    m = np.asarray(matrix, dtype=float)
    r, c = m.shape

    def best_cost(fixed):
        rows = [i for i in range(r) if i not in fixed]
        used = [j for j in fixed.values() if j is not None]
        cols = [j for j in range(c) if j not in used]
        if len(used) + min(len(rows), len(cols)) < min(r, c):
            return None
        cost = 0.0
        for i, j in fixed.items():
            if j is not None:
                cost += m[i, j]
        if rows and cols:
            cost += min_cost(m[np.ix_(rows, cols)])
        return cost

    optimum = best_cost({})
    fixed = {}
    for i in range(r):
        for j in list(range(c)) + [None]:
            if j is not None and j in fixed.values():
                continue
            if best_cost({**fixed, i: j}) == optimum:
                fixed[i] = j
                break
    return tuple((i, j) for i, j in fixed.items() if j is not None)


def _naive_sort_by_score(dets):
    # Stable selection by descending score without relying on sort keys:
    # repeatedly pick the earliest remaining detection with maximal score.
    remaining = list(dets)
    ordered = []
    while remaining:
        best_index = 0
        for k in range(1, len(remaining)):
            if remaining[k].score > remaining[best_index].score:
                best_index = k
        ordered.append(remaining.pop(best_index))
    return ordered


def _naive_match_one_cell(dets, gts, threshold):
    """Returns (flags, tp_count); flags are 'tp'/'fp'/'crowd' per kept
    detection in sweep order."""
    ordered = _naive_sort_by_score(dets)
    matched = [False] * len(gts)
    flags = []
    tp_count = 0
    for det in ordered:
        best_gt = None
        best_iou = None
        for gi in range(len(gts)):
            if gts[gi].iscrowd or matched[gi]:
                continue
            value = iou(det.box, gts[gi].box)
            if best_iou is None or value > best_iou:
                best_iou = value
                best_gt = gi
        if best_gt is not None and best_iou >= threshold:
            matched[best_gt] = True
            flags.append(("tp", det.score))
            tp_count += 1
            continue
        hit_crowd = False
        for gi in range(len(gts)):
            if gts[gi].iscrowd and iou(det.box, gts[gi].box) >= threshold:
                hit_crowd = True
                break
        flags.append(("crowd" if hit_crowd else "fp", det.score))
    return flags, tp_count


def naive_evaluate(ds, split, dets, thresholds, max_dets):
    """Full reimplementation of the metric pipeline, returned as plain
    dictionaries for field-by-field comparison."""
    test_ids = sorted(split.test_image_ids)
    used = [d for d in dets if d.image_id in set(test_ids)]

    result = {"per_category": {}, "aggregate": {}}
    included_maps = []
    included_ap50s = []
    included_mars = []
    for cat in ds.categories:
        total_gt = 0
        n_dets = 0
        for image_id in test_ids:
            for inst in ds.instances_for_image(image_id):
                if inst.category_id == cat.id and not inst.iscrowd:
                    total_gt += 1
        aps = []
        ars = []
        for threshold in thresholds:
            sweep = []
            tp_total = 0
            for image_id in test_ids:
                cell_dets = [d for d in used if d.image_id == image_id and d.category_id == cat.id]
                cell_dets = _naive_sort_by_score(cell_dets)[:max_dets]
                cell_gts = [
                    g for g in ds.instances_for_image(image_id) if g.category_id == cat.id
                ]
                flags, tps = _naive_match_one_cell(cell_dets, cell_gts, threshold)
                sweep.extend(flags)
                tp_total += tps
            ap = _naive_ap(sweep, total_gt)
            aps.append(ap)
            if total_gt == 0:
                ars.append(None if ap is None else 0.0)
            else:
                ars.append(tp_total / total_gt)
        n_dets = 0
        for image_id in test_ids:
            cell = [d for d in used if d.image_id == image_id and d.category_id == cat.id]
            n_dets += len(cell[:max_dets])
        if total_gt == 0 and n_dets == 0:
            map_value = ap50 = mar = None
        else:
            total_ap = 0.0
            for ap in aps:
                total_ap += ap
            map_value = total_ap / len(aps)
            ap50 = None
            for k in range(len(thresholds)):
                if thresholds[k] == 0.5:
                    ap50 = aps[k]
            total_ar = 0.0
            for ar in ars:
                total_ar += ar
            mar = total_ar / len(ars)
        result["per_category"][cat.id] = {
            "per_threshold_ap": aps,
            "per_threshold_ar": ars,
            "mAP": map_value,
            "AP50": ap50,
            "mAR": mar,
            "num_gt": total_gt,
        }
        if total_gt > 0:
            included_maps.append(map_value)
            included_ap50s.append(ap50)
            included_mars.append(mar)
    if included_maps:
        s = 0.0
        for v in included_maps:
            s += v
        result["aggregate"]["mAP"] = s / len(included_maps)
        s = 0.0
        for v in included_ap50s:
            s += v
        result["aggregate"]["AP50"] = s / len(included_ap50s)
        s = 0.0
        for v in included_mars:
            s += v
        result["aggregate"]["mAR"] = s / len(included_mars)
    else:
        result["aggregate"]["mAP"] = None
        result["aggregate"]["AP50"] = None
        result["aggregate"]["mAR"] = None
    return result


def _naive_ap(sweep, total_gt):
    """Naive PR sweep: global stable sort by descending score, cumulative
    precision/recall, right-to-left envelope, 101-level sampling by linear
    scan."""
    if total_gt == 0:
        # Crowd-only rows still count as detections: metric is 0, not absent.
        if not sweep:
            return None
        return 0.0
    kept = []
    # Stable selection sort by descending score over the pooled flags.
    remaining = [(flag, score) for flag, score in sweep if flag != "crowd"]
    while remaining:
        best = 0
        for k in range(1, len(remaining)):
            if remaining[k][1] > remaining[best][1]:
                best = k
        kept.append(remaining.pop(best)[0])
    precisions = []
    recalls = []
    tp = 0
    fp = 0
    for flag in kept:
        if flag == "tp":
            tp += 1
        else:
            fp += 1
        precisions.append(tp / (tp + fp))
        recalls.append(tp / total_gt)
    envelope = list(precisions)
    k = len(envelope) - 2
    while k >= 0:
        if envelope[k + 1] > envelope[k]:
            envelope[k] = envelope[k + 1]
        k -= 1
    total = 0.0
    for level_index in range(101):
        level = level_index / 100
        value = 0.0
        for k in range(len(recalls)):
            if recalls[k] >= level:
                value = envelope[k]
                break
        total += value
    return total / 101


def loop_majority_category(ds):
    """``splits.majority_category`` as a loop over images: per annotated
    image, the category with the most instances, the lowest id on ties."""
    assignment = {}
    for image in ds.images:
        counts = {}
        for inst in ds.instances_for_image(image.id):
            counts[inst.category_id] = counts.get(inst.category_id, 0) + 1
        best = None
        for category_id in sorted(counts):
            if best is None or counts[category_id] > counts[best]:
                best = category_id
        if best is not None:
            assignment[image.id] = best
    return assignment



_LONG = range(-2**63, 2**63)  # C long: CPython's fast paths of ``sum``


def compensated_sum(values, start=0):
    """The builtin ``sum`` of Python 3.12 and later, on any Python. Ints in
    the C long range add exactly; from the first float on, floats add with
    Neumaier's compensation, applied once at the end of the float run, and
    long-range ints add as floats; any other value ends the fast paths, and
    the rest adds with a plain ``+``."""
    items = iter(values)
    total = start
    if type(total) is int and total in _LONG:
        for item in items:
            exact = type(item) in (int, bool) and item in _LONG and total + item in _LONG
            total = total + item
            if not exact:
                break
    if type(total) is float:
        compensation, ended = 0.0, True
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
            elif isinstance(item, int) and item in _LONG:
                total += float(item)
            else:
                ended = False
                break
        if compensation and math.isfinite(compensation):
            total += compensation
        if ended:
            return total
        total = total + item
    for item in items:
        total = total + item
    return total
