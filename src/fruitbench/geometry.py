"""Axis-aligned bounding-box arithmetic.

Boxes live in real-valued (sub-pixel) pixel coordinates, even though most
annotation tools emit integers, because model predictions are real-valued.
Area is the plain coordinate product ``(x_max - x_min) * (y_max - y_min)``
with no +1 pixel correction; this matches the dominant convention of modern
detection benchmarks. Zero-width or zero-height boxes are legal values,
inverted boxes are rejected at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ValidationError

__all__ = [
    "BoundingBox",
    "BoxFormat",
    "area",
    "intersection_area",
    "union_area",
    "iou",
    "giou",
    "l1_box_distance",
    "box_from_values",
    "box_to_values",
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

    def scaled(self, factor: float) -> "BoundingBox":
        """Return the box with every coordinate multiplied by ``factor`` (> 0)."""
        if factor <= 0:
            raise ValidationError(f"scale factor must be positive, got {factor!r}")
        return BoundingBox(
            self.x_min * factor, self.y_min * factor, self.x_max * factor, self.y_max * factor
        )

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


class BoxFormat(str, Enum):
    """Supported quadruple layouts for box serialization.

    CORNER             (x_min, y_min, x_max, y_max), absolute pixels
    TOP_LEFT_SIZE      (x, y, w, h), absolute pixels; the on-disk layout
    CENTER_NORMALIZED  (cx, cy, w, h), fractions of the image dimensions
    """

    CORNER = "corner"
    TOP_LEFT_SIZE = "top-left-size"
    CENTER_NORMALIZED = "center-size-normalized"


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


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union in [0, 1].

    Two fully degenerate boxes have an empty union; the ratio is defined
    as 0 in that case.
    """
    union = union_area(a, b)
    if union <= 0.0:
        return 0.0
    return intersection_area(a, b) / union


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
    if img_w <= 0 or img_h <= 0:
        raise ValidationError(f"image dimensions must be positive, got {img_w!r} x {img_h!r}")
    acx, acy, aw, ah = box_to_values(a, BoxFormat.CENTER_NORMALIZED, img_w, img_h)
    bcx, bcy, bw, bh = box_to_values(b, BoxFormat.CENTER_NORMALIZED, img_w, img_h)
    return abs(acx - bcx) + abs(acy - bcy) + abs(aw - bw) + abs(ah - bh)


def box_from_values(
    values, fmt: BoxFormat, img_w: float | None = None, img_h: float | None = None
) -> BoundingBox:
    """Build a box from a 4-tuple in the given format.

    ``values`` must be a list or tuple of 4 ints or floats (booleans are
    not numbers here). CENTER_NORMALIZED requires the image dimensions.
    Conversions are exact for coordinates exactly representable in binary
    (integers, quarter pixels, ...); arbitrary floats round-trip to within
    one ulp.
    """
    if not (isinstance(values, (list, tuple)) and len(values) == 4):
        raise ValidationError(f"expected a list of 4 box numbers, got {values!r}")
    for v in values:  # plain floats, the common case, pass on the first test
        if v.__class__ is not float and (isinstance(v, bool) or not isinstance(v, (int, float))):
            raise ValidationError(f"expected a list of 4 box numbers, got {values!r}")
    try:
        vals = tuple(map(float, values))
    except OverflowError:
        raise ValidationError(f"box value out of range: {values!r}") from None
    if fmt is BoxFormat.CORNER:
        return BoundingBox(*vals)
    if fmt is BoxFormat.TOP_LEFT_SIZE:
        x, y, w, h = vals
        if w < 0 or h < 0:
            raise ValidationError(f"negative box size: w={w}, h={h}")
        return BoundingBox(x, y, x + w, y + h)
    if fmt is BoxFormat.CENTER_NORMALIZED:
        if img_w is None or img_h is None or img_w <= 0 or img_h <= 0:
            raise ValidationError("center-normalized boxes need positive image dimensions")
        cx, cy, w, h = vals
        if w < 0 or h < 0:
            raise ValidationError(f"negative box size: w={w}, h={h}")
        half_w = w * img_w / 2.0
        half_h = h * img_h / 2.0
        return BoundingBox(
            cx * img_w - half_w, cy * img_h - half_h, cx * img_w + half_w, cy * img_h + half_h
        )
    raise ValidationError(f"unknown box format {fmt!r}")


def box_to_values(
    b: BoundingBox, fmt: BoxFormat, img_w: float | None = None, img_h: float | None = None
) -> tuple[float, float, float, float]:
    """Serialize a box as a 4-tuple in the given format."""
    if fmt is BoxFormat.CORNER:
        return (b.x_min, b.y_min, b.x_max, b.y_max)
    if fmt is BoxFormat.TOP_LEFT_SIZE:
        return (b.x_min, b.y_min, b.x_max - b.x_min, b.y_max - b.y_min)
    if fmt is BoxFormat.CENTER_NORMALIZED:
        if img_w is None or img_h is None or img_w <= 0 or img_h <= 0:
            raise ValidationError("center-normalized boxes need positive image dimensions")
        return (
            (b.x_min + b.x_max) / 2.0 / img_w,
            (b.y_min + b.y_max) / 2.0 / img_h,
            (b.x_max - b.x_min) / img_w,
            (b.y_max - b.y_min) / img_h,
        )
    raise ValidationError(f"unknown box format {fmt!r}")
