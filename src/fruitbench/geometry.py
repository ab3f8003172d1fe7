"""Axis-aligned bounding-box arithmetic.

Boxes live in real-valued (sub-pixel) pixel coordinates, even though most
annotation tools emit integers, because model predictions are real-valued.
Area is the plain coordinate product ``(x_max - x_min) * (y_max - y_min)``
with no +1 pixel correction; this matches the dominant convention of modern
detection benchmarks. Zero-width or zero-height boxes are legal values,
inverted boxes are rejected at construction.

This module owns the box layout: files store ``[x, y, w, h]``
(``box_from_xywh``, and ``corners_from_xywh`` for a list of them), arrays
(N, 4) float64 corners (``corner_array``).
Each array kernel sits next to the scalar function it matches bit for bit
by the same IEEE operations in the same order; the array twins of ``giou``
and ``l1_box_distance`` are in ``assignment._cost_terms``, their only user.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import chain

import numpy as np

from .errors import ValidationError

__all__ = [
    "BoundingBox",
    "box_from_xywh",
    "corners_from_xywh",
    "corner_array",
    "area",
    "intersection_area",
    "union_area",
    "pairwise_areas",
    "iou",
    "paired_iou",
    "giou",
    "l1_box_distance",
]


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box given by its corner coordinates.

    Invariants: all coordinates finite, ``x_min <= x_max`` and
    ``y_min <= y_max``. Degenerate (zero-area) boxes are allowed.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        for name in ("x_min", "y_min", "x_max", "y_max"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValidationError(f"box coordinate {name} must be finite, got {value!r}")
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValidationError(
                f"inverted box: ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def clamped(self, img_w: float, img_h: float) -> "BoundingBox":
        """Return the box clipped to the image rectangle [0, img_w] x [0, img_h];
        a box already inside it is returned as it is."""
        if 0 <= self.x_min and 0 <= self.y_min and self.x_max <= img_w and self.y_max <= img_h:
            return self
        x0 = min(max(self.x_min, 0.0), img_w)
        y0 = min(max(self.y_min, 0.0), img_h)
        x1 = min(max(self.x_max, 0.0), img_w)
        y1 = min(max(self.y_max, 0.0), img_h)
        return BoundingBox(x0, y0, x1, y1)


def box_from_xywh(values) -> BoundingBox:
    """The box of an on-disk ``[x, y, w, h]`` (top-left corner and size):
    a list or tuple of 4 ints or floats (booleans are not numbers here) with
    a non-negative size. Corners are exact for coordinates exactly
    representable in binary (integers, quarter pixels, ...)."""
    if not (isinstance(values, (list, tuple)) and len(values) == 4):
        raise ValidationError(f"expected a list of 4 box numbers, got {values!r}")
    for v in values:  # plain floats, the common case, pass on the first test
        if v.__class__ is not float and (isinstance(v, bool) or not isinstance(v, (int, float))):
            raise ValidationError(f"expected a list of 4 box numbers, got {values!r}")
    try:
        x, y, w, h = map(float, values)
    except OverflowError:
        raise ValidationError(f"box value out of range: {values!r}") from None
    if w < 0 or h < 0:
        raise ValidationError(f"negative box size: w={w}, h={h}")
    return BoundingBox(x, y, x + w, y + h)


def corners_from_xywh(bbox: list) -> np.ndarray | None:
    """``box_from_xywh`` of a list of on-disk boxes, as the (N, 4) float64
    ``corner_array`` of their boxes bit for bit, or None if one is not a
    list ``box_from_xywh`` accepts; an integer past the float range raises
    ``OverflowError``. The exact-class test mirrors the scalar one."""
    if not (
        set(map(type, bbox)) <= {list}
        and set(map(len, bbox)) <= {4}
        and set(map(type, chain.from_iterable(bbox))) <= {int, float}
    ):
        return None
    n = len(bbox)
    xywh = np.fromiter(chain.from_iterable(bbox), np.float64, 4 * n).reshape(n, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        boxes = np.concatenate((xywh[:, :2], xywh[:, :2] + xywh[:, 2:]), axis=1)
    # Finite corners imply finite sizes; NaN fails every comparison.
    return boxes if np.isfinite(boxes).all() and (xywh[:, 2:] >= 0).all() else None


def corner_array(boxes) -> np.ndarray:
    """The (N, 4) float64 corners ``(x_min, y_min, x_max, y_max)`` of an
    iterable of ``BoundingBox``es, one row per box."""
    corners = chain.from_iterable((b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes)
    return np.fromiter(corners, np.float64).reshape(-1, 4)


def left_sum(values) -> float:
    """The float total of ``values`` added left to right from 0.0: the same
    bits on every Python, where the builtin ``sum`` compensates from 3.12."""
    return reduce(operator.add, values, 0.0)


def area(b: BoundingBox) -> float:
    """Plain-product box area in square pixels."""
    return (b.x_max - b.x_min) * (b.y_max - b.y_min)


def intersection_area(a: BoundingBox, b: BoundingBox) -> float:
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def union_area(a: BoundingBox, b: BoundingBox) -> float:
    return area(a) + area(b) - intersection_area(a, b)


def pairwise_areas(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(inter, union)``: the (D, G) arrays of ``intersection_area`` and
    ``union_area`` of every row of the corners ``a`` (D, 4) against every
    row of ``b`` (G, 4), each entry equal to the scalar value bit for bit."""
    return _areas(a.T[:, :, None], b.T)


def _areas(a, b) -> tuple[np.ndarray, np.ndarray]:
    """``(inter, union)`` of corner stacks ``a`` and ``b``, each four
    ``x_min, y_min, x_max, y_max`` arrays that broadcast together."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    with np.errstate(all="ignore"):
        iw = np.minimum(ax1, bx1)
        iw -= np.maximum(ax0, bx0)
        ih = np.minimum(ay1, by1)
        ih -= np.maximum(ay0, by0)
        inter = np.where((iw <= 0.0) | (ih <= 0.0), 0.0, iw * ih)
        del iw, ih  # freed before the union's temporaries: the matcher calls this per block
        union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0)
        union -= inter
    return inter, union


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union in [0, 1].

    Two fully degenerate boxes have an empty union; the ratio is defined
    as 0 in that case.
    """
    union = union_area(a, b)
    if union <= 0.0:
        return 0.0
    return intersection_area(a, b) / union


def paired_iou(a, b) -> np.ndarray:
    """``iou`` of the corner stacks ``a`` and ``b`` (see ``_areas``) entry
    by entry, each equal to the scalar value bit for bit: of the (P,)
    pairs of two (4, P) stacks, or of every row of (D, 4) corners against
    every row of (G, 4) ones as ``paired_iou(a.T[:, :, None], b.T)``."""
    inter, union = _areas(a, b)
    with np.errstate(all="ignore"):
        return np.where(union <= 0.0, 0.0, inter / union)


def giou(a: BoundingBox, b: BoundingBox) -> float:
    """Generalized IoU in (-1, 1].

    ``iou(a, b) - (C - U) / C`` where C is the area of the tightest box
    enclosing both inputs and U the union area. Equals plain IoU exactly
    when the enclosing box coincides with the union; remains informative
    (negative) for disjoint boxes. Requires at least one non-degenerate
    box, otherwise the definition has a vanishing denominator.
    """
    union = union_area(a, b)
    if union <= 0.0:
        raise ValidationError("giou is undefined for two degenerate boxes")
    enclose_w = max(a.x_max, b.x_max) - min(a.x_min, b.x_min)
    enclose_h = max(a.y_max, b.y_max) - min(a.y_min, b.y_min)
    enclose = enclose_w * enclose_h
    return intersection_area(a, b) / union - (enclose - union) / enclose


def l1_box_distance(a: BoundingBox, b: BoundingBox, img_w: float, img_h: float) -> float:
    """Sum of absolute differences of normalized center-size coordinates.

    Both boxes are converted to (cx, cy, w, h) fractions of the image
    dimensions; the distance is the L1 norm of the component differences.
    """
    if not (0 < img_w <= sys.float_info.max and 0 < img_h <= sys.float_info.max):
        raise ValidationError(
            f"image dimensions must be positive and fit a float, got {img_w!r:.40} x {img_h!r:.40}"
        )
    return (
        abs((a.x_min + a.x_max) / 2.0 / img_w - (b.x_min + b.x_max) / 2.0 / img_w)
        + abs((a.y_min + a.y_max) / 2.0 / img_h - (b.y_min + b.y_max) / 2.0 / img_h)
        + abs((a.x_max - a.x_min) / img_w - (b.x_max - b.x_min) / img_w)
        + abs((a.y_max - a.y_min) / img_h - (b.y_max - b.y_min) / img_h)
    )
