"""Optimal set matching between predictions and ground truth, plus the
composite matching loss evaluated on the matched sets.

The loss on a matched pair is the unweighted sum of three terms (weights
default to 1 each but stay configurable): an L1 distance over normalized
center-size box coordinates, a generalized-IoU regression term
``1 - giou``, and a contrastive classification term realized as per-token
sigmoid binary cross-entropy between a prediction's token-alignment logits
and the ground truth's positive-token mask. Losses are normalized by the
number of ground-truth instances; unmatched predictions contribute only
their contrastive penalty against the all-negative mask (on by default).

The solver is a hand-rolled rectangular shortest-augmenting-path algorithm
(Crouse, 2016) from a column-reduction start (Jonker & Volgenant, 1987)
on the short side, padding nothing, rather than a library call: the
assignment must be bit-identical across platforms and library versions,
including a pinned tie-break among equal-cost optima (see ``hungarian``),
which off-the-shelf solvers do not promise. Optimality and the tie-break
are cross-checked against brute-force enumeration, and optimality at
scale against SciPy, in the test suite.

``set_loss`` and ``build_match_cost`` take an image's (P, 4) predicted
corners, (P, V) token logits, (G, 4) ground-truth corners and (G, V)
positive-token masks as arrays, as DETR's matcher takes its tensors. The
cost terms are exact (P, G) float64 arrays: intersection and union come
from ``geometry.pairwise_areas``; the array twins of
``geometry.l1_box_distance`` and ``geometry.giou`` are elementwise numpy
in their operation order, in ``_cost_terms``; and the cross-entropy's
``math`` transcendentals are looked up in a table with one entry per
distinct logit. Every entry equals the scalar reference's value bit for
bit, and bad input raises the reference's first error: the box and size
errors come from ``BoundingBox`` and ``geometry``, the token errors are
raised here with the same text. The suite checks both against the
pair-by-pair scalar loop in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import BoundingBox, giou, l1_box_distance, left_sum, pairwise_areas

__all__ = [
    "CostMatrix",
    "Assignment",
    "LossWeights",
    "LossBreakdown",
    "hungarian",
    "build_match_cost",
    "set_loss",
]


@dataclass(frozen=True)
class CostMatrix:
    """Rectangular matching costs: rows index predictions, columns index
    ground-truth instances. All entries must be finite."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(f"cost matrix must be 2-dimensional, got shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValidationError("cost matrix entries must be finite")
        object.__setattr__(self, "entries", arr)


@dataclass(frozen=True)
class Assignment:
    """A maximal one-to-one matching: ``len(pairs) == min(rows, cols)``."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_predictions: tuple[int, ...]
    unmatched_ground_truth: tuple[int, ...]
    total_cost: float


@dataclass(frozen=True)
class LossWeights:
    l1: float = 1.0
    giou: float = 1.0
    contrastive: float = 1.0

    def __post_init__(self):
        for name in ("l1", "giou", "contrastive"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValidationError(f"loss weight {name} must be finite and non-negative")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values are unweighted; ``total`` applies the weights given
    to ``set_loss``, so ``total == w_l1*l1 + w_giou*giou_loss +
    w_cons*contrastive`` exactly. ``no_matches`` flags degenerate inputs
    with an empty matching. The fields, in order, are a ``loss`` row."""

    l1: float
    giou_loss: float
    contrastive: float
    total: float
    no_matches: bool = False


def _solve_short_side(cost: np.ndarray):
    """Rectangular shortest-augmenting-path assignment (Crouse, 2016) for
    ``rows <= cols``: every row is matched, each column at most once.

    Column reduction starts it: a row whose first cheapest column no other
    row shares takes that column, with ``u`` the row minimum and ``v`` 0;
    only the other rows run a Dijkstra round, in ascending order.
    Returns (col_for_row, row_for_col, u, v), -1 marking unmatched, with
    ``u[i] + v[j] <= cost[i, j]`` for every cell, equality on matched cells,
    ``v <= 0``, and ``v[j] == 0`` on every unmatched column: each round
    only lowers the potentials of the columns it scans, all of which end
    the round matched.
    """
    n_rows, n_cols = cost.shape
    u = np.zeros(n_rows)
    v = np.zeros(n_cols)
    col_for_row = np.full(n_rows, -1)
    row_for_col = np.full(n_cols, -1)
    first = cost.argmin(axis=1)
    own = np.flatnonzero(np.bincount(first, minlength=n_cols)[first] == 1)
    col_for_row[own], row_for_col[first[own]] = first[own], own
    u[own] = cost[own, first[own]]
    for start in np.flatnonzero(col_for_row < 0).tolist():
        shortest = np.full(n_cols, np.inf)
        path = np.full(n_cols, -1)
        scanned = np.zeros(n_cols, dtype=bool)
        rows_seen = []
        min_val = 0.0
        i = start
        while True:
            rows_seen.append(i)
            reduced = min_val + cost[i] - u[i] - v
            better = ~scanned & (reduced < shortest)
            shortest[better] = reduced[better]
            path[better] = i
            frontier = np.where(scanned, np.inf, shortest)
            min_val = frontier.min()
            ties = frontier == min_val
            # Among equally short columns an unmatched one ends the round.
            free = np.flatnonzero(ties & (row_for_col < 0))
            j = int(free[0]) if free.size else int(np.argmax(ties))
            scanned[j] = True
            if row_for_col[j] < 0:
                break
            i = int(row_for_col[j])
        u[start] += min_val
        others = np.array(rows_seen[1:], dtype=int)
        u[others] += min_val - shortest[col_for_row[others]]
        v[scanned] -= min_val - shortest[scanned]
        while True:
            i = int(path[j])
            row_for_col[j] = i
            col_for_row[i], j = j, int(col_for_row[i])
            if i == start:
                break
    return col_for_row, row_for_col, u, v


def _alternate(start, tight, mate, other_mate, may_drop, blocked, parent) -> bool:
    """Re-match the unmatched vertex ``start`` along an alternating path of
    tight edges (row ``x`` of ``tight`` for a vertex ``x`` of its side), in
    place. The path ends at a vertex of the other side that is unmatched, or
    whose mate may go unmatched and is dropped. Vertices for which
    ``blocked`` holds are never entered; ``parent`` (empty on entry)
    collects every other-side vertex reached. Returns whether a path was
    found; ``mate`` and ``other_mate`` are unchanged when none is."""
    tails = [start]
    stack = [iter(np.flatnonzero(tight[start]).tolist())]
    while stack:
        for y in stack[-1]:
            if y in parent or blocked(y):
                continue
            parent[y] = tails[-1]
            x = other_mate[y]
            if x < 0 or may_drop[x]:
                if x >= 0:
                    mate[x] = -1
                while y >= 0:
                    x = parent[y]
                    previous = mate[x]
                    mate[x] = y
                    other_mate[y] = x
                    y = previous
                return True
            tails.append(x)
            stack.append(iter(np.flatnonzero(tight[x]).tolist()))
            break
        else:
            stack.pop()
            tails.pop()
    return False


def _canonicalize(tight, pred_to_gt, gt_to_pred, pred_may_drop, gt_may_drop):
    """Walk predictions in order, giving each the first candidate, in
    ascending ground-truth index with "unmatched" last, that some optimum
    still allows. Optimal matchings are the matchings of ``tight`` edges
    that cover every vertex not flagged in ``*_may_drop``; the given
    matching is one of them. Returns the canonical one in the same form.
    Only predictions with a tight edge are walked, each listing its row of
    ``tight``: any other is unmatched in every optimum, so its one
    candidate is the "unmatched" it holds.
    """
    matched = np.flatnonzero(pred_to_gt >= 0)
    tight[matched, pred_to_gt[matched]] = True
    # The certificate is one optimal matching that agrees with every choice
    # made so far; the candidate it already holds is accepted outright.
    pred_to_gt, gt_to_pred = pred_to_gt.tolist(), gt_to_pred.tolist()
    for i in np.flatnonzero(tight.any(axis=1)).tolist():
        candidates = [j for j in np.flatnonzero(tight[i]).tolist() if not 0 <= gt_to_pred[j] < i]
        if pred_may_drop[i]:
            candidates.append(-1)
        ruled_out = set()
        for j in candidates:
            if j == pred_to_gt[i]:
                break
            if j in ruled_out:
                continue
            # Force i -> j and repair: by Mendelsohn-Dulmage one search for
            # the displaced owner of j and one for the column i vacated
            # decide whether an optimum with i -> j exists.
            trial_pred, trial_gt = list(pred_to_gt), list(gt_to_pred)
            vacated, owner = trial_pred[i], trial_gt[j] if j >= 0 else -1
            trial_pred[i] = j
            if vacated >= 0:
                trial_gt[vacated] = -1
            if j >= 0:
                trial_gt[j] = i
            if owner >= 0:
                trial_pred[owner] = -1
            reached = {}
            if not (owner < 0 or pred_may_drop[owner] or _alternate(
                owner, tight, trial_pred, trial_gt, pred_may_drop,
                lambda g: 0 <= trial_gt[g] <= i, reached,
            )):
                # Hall: the predictions reached can use only the columns
                # reached and j, one too few without j; i taking any of
                # those columns instead leaves them just as short.
                ruled_out.update(reached)
                continue
            reached = {}
            if (
                vacated < 0
                or trial_gt[vacated] >= 0
                or gt_may_drop[vacated]
                or _alternate(vacated, tight.T, trial_gt, trial_pred, gt_may_drop,
                              lambda p: p <= i, reached)
            ):
                pred_to_gt, gt_to_pred = trial_pred, trial_gt
                break
            # Hall: only the predictions reached and i can cover the columns
            # reached, one too few without i, so i must take one of them.
            keep = {vacated, *(trial_pred[p] for p in reached)}
            ruled_out.update(c for c in candidates if c not in keep)
    return pred_to_gt, gt_to_pred


def hungarian(costs: CostMatrix) -> Assignment:
    """Minimum-cost maximal matching with deterministic tie-breaking.

    Solves on the short side (the transpose when predictions outnumber
    ground truth), without padding. Among all minimum-cost matchings the
    lexicographically smallest pair list is returned, prediction-major: each
    prediction in turn takes the smallest ground-truth index an optimum
    allows, "unmatched" last. Costs within ``1e-9 * max(1, max|C|)`` count
    as tied. An empty matrix yields an empty assignment; entries so large
    that the solver's sums overflow a float are a ``ValidationError``.
    """
    entries = costs.entries
    n_rows, n_cols = entries.shape
    if n_rows == 0 or n_cols == 0:
        return Assignment(
            pairs=(),
            unmatched_predictions=tuple(range(n_rows)),
            unmatched_ground_truth=tuple(range(n_cols)),
            total_cost=0.0,
        )
    tol = 1e-9 * max(1.0, float(np.max(np.abs(entries))))
    try:
        with np.errstate(over="raise"):
            if n_rows > n_cols:
                gt_to_pred, pred_to_gt, gt_dual, pred_dual = _solve_short_side(entries.T)
            else:
                pred_to_gt, gt_to_pred, pred_dual, gt_dual = _solve_short_side(entries)
            tight = entries - pred_dual[:, None] - gt_dual[None, :] <= tol
    except FloatingPointError:
        raise ValidationError(
            "cost matrix entries are too large: the solver's sums overflow a float"
        ) from None
    # Complementary slackness: the optimal matchings are exactly the
    # matchings of tight edges that cover the short side and every
    # long-side vertex whose dual is negative.
    pred_may_drop = ((pred_dual >= -tol) & (n_rows > n_cols)).tolist()
    gt_may_drop = ((gt_dual >= -tol) & (n_rows <= n_cols)).tolist()
    pred_to_gt, gt_to_pred = _canonicalize(
        tight, pred_to_gt, gt_to_pred, pred_may_drop, gt_may_drop
    )
    pairs = tuple((i, j) for i, j in enumerate(pred_to_gt) if j >= 0)
    total = left_sum(float(entries[i, j]) for i, j in pairs)
    return Assignment(
        pairs=pairs,
        unmatched_predictions=tuple(i for i, j in enumerate(pred_to_gt) if j < 0),
        unmatched_ground_truth=tuple(j for j, i in enumerate(gt_to_pred) if i < 0),
        total_cost=total,
    )


def _checked_inputs(predictions, logits, ground_truth, gt_token_masks):
    """The inputs as (P, 4) float64 corners, (P, V) float64 logits, (G, 4)
    float64 corners and (G, V) bool masks. The first box row that
    ``BoundingBox`` rejects raises its error, a non-finite logit row
    "token logits must be finite"."""
    expected = "(P, 4) predictions, (P, V) logits, (G, 4) ground_truth and (G, V) gt_token_masks"
    try:
        arrays = [np.asarray(a, dtype=np.float64) for a in (predictions, logits, ground_truth)]
        arrays.append(np.asarray(gt_token_masks, dtype=bool))
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"expected {expected} as arrays of numbers") from None
    boxes, logits, gt_boxes, masks = arrays
    if (
        {a.ndim for a in arrays} != {2}
        or boxes.shape[1] != 4
        or gt_boxes.shape[1] != 4
        or len(boxes) != len(logits)
    ):
        shapes = ", ".join(str(a.shape) for a in arrays)
        raise ValidationError(f"expected {expected}, got shapes {shapes}")
    if len(gt_boxes) != len(masks):
        raise ValidationError(
            f"{len(gt_boxes)} ground-truth instances but {len(masks)} token masks"
        )
    for corners in (boxes, gt_boxes):
        ok = np.isfinite(corners).all(axis=1)
        ok &= (corners[:, 0] <= corners[:, 2]) & (corners[:, 1] <= corners[:, 3])
        if not ok.all():
            BoundingBox(*corners[np.argmin(ok)].tolist())
    if not np.isfinite(logits).all():
        raise ValidationError("token logits must be finite")
    return boxes, logits, gt_boxes, masks


def _cost_terms(predictions, logits, ground_truth, gt_token_masks, img_w, img_h):
    """The matching-cost terms as (P, G) arrays ``l1``, ``giou`` and ``tac``
    (token alignment cost), plus the (P,) token alignment costs of the
    predictions against the all-negative mask.

    Each entry equals the value ``l1_box_distance``, ``giou`` or the
    mean per-token sigmoid cross-entropy gives its pair, bit for bit: the
    array code performs their IEEE operations in their order, summing
    tokens left to right, and the cross-entropy's transcendentals stay
    ``math`` calls, made once per distinct logit. The first pair in
    row-major order that fails raises the error of its first failing term:
    the size, the GIoU, then the token widths.
    """
    boxes, logits, gt_boxes, masks = _checked_inputs(
        predictions, logits, ground_truth, gt_token_masks
    )
    (n_pred, width), n_gt = logits.shape, len(gt_boxes)
    if not n_pred:
        empty = np.zeros((0, n_gt))
        return empty, empty, empty, np.zeros(0)
    inter, union = pairwise_areas(boxes, gt_boxes)
    ax0, ay0, ax1, ay1 = boxes.T[:, :, None]
    bx0, by0, bx1, by1 = gt_boxes.T
    with np.errstate(all="ignore"):
        bad = (
            (not (0 < img_w <= sys.float_info.max and 0 < img_h <= sys.float_info.max))
            | (union <= 0.0)
            | (width != masks.shape[1])
            | (width == 0)
        )
        if bad.any():
            # The scalar geometry on that pair raises the error it raises there.
            i, j = divmod(int(np.argmax(bad)), n_gt)
            box, gt_box = BoundingBox(*boxes[i].tolist()), BoundingBox(*gt_boxes[j].tolist())
            l1_box_distance(box, gt_box, img_w, img_h)
            giou(box, gt_box)
            if width != masks.shape[1]:
                raise ValidationError(
                    f"token dimension mismatch: {width} logits vs {masks.shape[1]} mask bits"
                )
        if not width:  # also without ground truth, where no pair checked the tokens
            raise ValidationError("token vectors must be non-empty")
        enclose = (np.maximum(ax1, bx1) - np.minimum(ax0, bx0)) * (
            np.maximum(ay1, by1) - np.minimum(ay0, by0)
        )
        g = inter / union - (enclose - union) / enclose
        # Without ground truth no pair checked the size, and no entry uses it.
        w, h = (float(img_w), float(img_h)) if n_gt else (1.0, 1.0)
        l1 = (
            np.abs((ax0 + ax1) / 2.0 / w - (bx0 + bx1) / 2.0 / w)
            + np.abs((ay0 + ay1) / 2.0 / h - (by0 + by1) / 2.0 / h)
            + np.abs((ax1 - ax0) / w - (bx1 - bx0) / w)
            + np.abs((ay1 - ay0) / h - (by1 - by0) / h)
        )
    # The stable sigmoid cross-entropy ``max(x, 0) - x * target +
    # log1p(exp(-|x|))`` for both targets, its ``math`` term made once per
    # distinct logit and the rest elementwise in its order; ``codes`` maps
    # each token to its logit's entry. 0.0 and -0.0 share an entry: they
    # give equal cross-entropies. numpy 1.x returns the inverse flat and
    # some 2.x releases in the input's shape, so it is reshaped either way.
    distinct, codes = np.unique(logits, return_inverse=True)
    codes = codes.reshape(logits.shape)
    soft = np.array([math.log1p(math.exp(-abs(v))) for v in distinct.tolist()])
    b0 = (np.maximum(distinct, 0.0) - distinct * 0.0 + soft)[codes]
    b1 = (np.maximum(distinct, 0.0) - distinct * 1.0 + soft)[codes]
    # Without ground truth the masks may be of any width: no rows reshape to V.
    positive = masks.reshape(n_gt, width)
    tac, negative = np.zeros((n_pred, n_gt)), np.zeros(n_pred)
    for t in range(width):
        tac = tac + np.where(positive[:, t], b1[:, t, None], b0[:, t, None])
        negative = negative + b0[:, t]
    return l1, g, tac / width, negative / width


def _combined_cost(terms, weights: LossWeights) -> CostMatrix:
    l1, g, tac, _ = terms
    with np.errstate(over="ignore"):  # CostMatrix reports the non-finite entry
        return CostMatrix(weights.l1 * l1 + weights.giou * (1.0 - g) + weights.contrastive * tac)


def build_match_cost(
    predictions: np.ndarray,
    logits: np.ndarray,
    ground_truth: np.ndarray,
    gt_token_masks: np.ndarray,
    img_w: float,
    img_h: float,
    weights: LossWeights = LossWeights(),
) -> CostMatrix:
    """Pairwise matching costs of the (P, 4) predicted corners with their
    (P, V) token logits against the (G, 4) ground-truth corners with their
    (G, V) boolean positive-token masks.

    ``entry(i, j) = w_l1 * l1_box_distance + w_giou * (1 - giou)
    + w_cons * tac``, ``tac`` the mean per-token sigmoid cross-entropy of
    the logits against the mask. Corners must make valid boxes (the first
    bad row raises the ``BoundingBox`` error) and logits be finite; the
    token dimension V must be non-empty.
    """
    terms = _cost_terms(predictions, logits, ground_truth, gt_token_masks, img_w, img_h)
    return _combined_cost(terms, weights)


def set_loss(
    predictions: np.ndarray,
    logits: np.ndarray,
    ground_truth: np.ndarray,
    gt_token_masks: np.ndarray,
    img_w: float,
    img_h: float,
    weights: LossWeights = LossWeights(),
    count_unmatched_contrastive: bool = True,
) -> LossBreakdown:
    """Composite loss of a prediction set against a ground-truth set, given
    as the arrays ``build_match_cost`` takes.

    The optimal assignment is computed over the ``build_match_cost`` costs,
    whose terms are computed once and reused: each term is summed over
    matched pairs and normalized by the number of ground-truth instances.
    Unmatched predictions add their contrastive penalty against the
    all-negative mask when ``count_unmatched_contrastive`` is on.
    """
    terms = _cost_terms(predictions, logits, ground_truth, gt_token_masks, img_w, img_h)
    l1, g, tac, negative = terms
    assignment = hungarian(_combined_cost(terms, weights))
    pairs = assignment.pairs
    unmatched = assignment.unmatched_predictions if count_unmatched_contrastive else ()
    denom = max(l1.shape[1], 1)
    l1_term = left_sum(float(l1[i, j]) for i, j in pairs) / denom
    giou_term = left_sum(1.0 - float(g[i, j]) for i, j in pairs) / denom
    cons = [float(tac[i, j]) for i, j in pairs] + [float(negative[i]) for i in unmatched]
    cons_term = left_sum(cons) / denom
    return LossBreakdown(
        l1=l1_term,
        giou_loss=giou_term,
        contrastive=cons_term,
        total=weights.l1 * l1_term + weights.giou * giou_term + weights.contrastive * cons_term,
        no_matches=not assignment.pairs,
    )
