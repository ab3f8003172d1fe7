"""Canonical in-memory dataset representation and its file formats.

Three file formats are understood:

* annotation files: one JSON object with ``images`` (id, file_name, width,
  height, optional region), ``annotations`` (id, image_id, category_id,
  bbox=[x, y, w, h], iscrowd, optional attributes) and ``categories``
  (id, name) arrays;
* per-image polygon/rectangle label files as written by common annotation
  tools (``shapes`` with label/points/shape_type, ``imageWidth``,
  ``imageHeight``);
* prediction files: one JSON array of
  ``{image_id, category_id, bbox=[x, y, w, h], score, optional prompt}``.

Datasets are treated as immutable after load. Loading is order-insensitive:
categories, images and instances are normalized to ascending-id order.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import IntegrityError, ParseError, ValidationError
from .geometry import BoundingBox, BoxFormat, area, box_from_values, box_to_values

logger = logging.getLogger(__name__)

__all__ = [
    "Category",
    "ImageRecord",
    "GroundTruthInstance",
    "Detection",
    "DetectionDataset",
    "CategoryStats",
    "DatasetStats",
    "load_coco",
    "load_labelme",
    "write_coco",
    "load_predictions",
    "compute_stats",
]


@dataclass(frozen=True)
class Category:
    id: int
    name: str

    def __post_init__(self):
        if not isinstance(self.id, int) or self.id <= 0:
            raise ValidationError(f"category id must be a positive integer, got {self.id!r}")
        if not self.name:
            raise ValidationError("category name must be non-empty")


@dataclass(frozen=True)
class ImageRecord:
    id: int
    file_name: str
    width: int
    height: int
    region: str | None = None

    def __post_init__(self):
        if not isinstance(self.id, int) or self.id <= 0:
            raise ValidationError(f"image id must be a positive integer, got {self.id!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(
                f"image {self.id}: dimensions must be positive, got {self.width}x{self.height}"
            )


@dataclass(frozen=True)
class GroundTruthInstance:
    """One labeled box. ``attributes`` is a free-form string map; the
    occlusion vocabulary ("leaf", "branch", "none") is a convention, not a
    schema."""

    id: int
    image_id: int
    category_id: int
    box: BoundingBox
    attributes: Mapping[str, str] = field(default_factory=dict)
    iscrowd: bool = False

    def __post_init__(self):
        if not isinstance(self.id, int) or self.id <= 0:
            raise ValidationError(f"instance id must be a positive integer, got {self.id!r}")


@dataclass(frozen=True)
class Detection:
    """A scored predicted box. ``prompt`` is only set for runs that score
    language-referred detections."""

    image_id: int
    category_id: int
    box: BoundingBox
    score: float
    prompt: str | None = None

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ValidationError(f"detection score must lie in [0, 1], got {self.score!r}")


@dataclass
class DetectionDataset:
    """Categories, images and ground-truth instances with referential
    integrity. Construction validates everything and normalizes list order
    to ascending ids."""

    categories: list[Category]
    images: list[ImageRecord]
    instances: list[GroundTruthInstance]

    _category_by_id: dict[int, Category] = field(init=False, repr=False, compare=False)
    _image_by_id: dict[int, ImageRecord] = field(init=False, repr=False, compare=False)
    _instances_by_image: dict[int, tuple[GroundTruthInstance, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.categories = sorted(self.categories, key=lambda c: c.id)
        self.images = sorted(self.images, key=lambda m: m.id)
        self.instances = sorted(self.instances, key=lambda a: a.id)

        self._category_by_id = {}
        names_seen: dict[str, str] = {}
        for cat in self.categories:
            if cat.id in self._category_by_id:
                raise ValidationError(f"duplicate category id {cat.id}")
            folded = cat.name.casefold()
            if folded in names_seen:
                raise ValidationError(
                    f"category names collide case-insensitively: "
                    f"{names_seen[folded]!r} vs {cat.name!r}"
                )
            names_seen[folded] = cat.name
            self._category_by_id[cat.id] = cat

        self._image_by_id = {}
        for img in self.images:
            if img.id in self._image_by_id:
                raise ValidationError(f"duplicate image id {img.id}")
            self._image_by_id[img.id] = img

        seen_instance_ids = set()
        grouped: dict[int, list[GroundTruthInstance]] = {}
        for inst in self.instances:
            if inst.id in seen_instance_ids:
                raise ValidationError(f"duplicate instance id {inst.id}")
            seen_instance_ids.add(inst.id)
            img = self._image_by_id.get(inst.image_id)
            if img is None:
                raise IntegrityError(f"instance {inst.id} references unknown image {inst.image_id}")
            if inst.category_id not in self._category_by_id:
                raise IntegrityError(
                    f"instance {inst.id} references unknown category {inst.category_id}"
                )
            b = inst.box
            if b.x_min < 0 or b.y_min < 0 or b.x_max > img.width or b.y_max > img.height:
                raise ValidationError(
                    f"instance {inst.id} box exceeds image {img.id} bounds "
                    f"({img.width}x{img.height}); clamp it at load time"
                )
            grouped.setdefault(inst.image_id, []).append(inst)
        self._instances_by_image = {k: tuple(v) for k, v in grouped.items()}

    def category(self, category_id: int) -> Category:
        try:
            return self._category_by_id[category_id]
        except KeyError:
            raise IntegrityError(f"unknown category {category_id}") from None

    def image(self, image_id: int) -> ImageRecord:
        try:
            return self._image_by_id[image_id]
        except KeyError:
            raise IntegrityError(f"unknown image {image_id}") from None

    def has_image(self, image_id: int) -> bool:
        return image_id in self._image_by_id

    def has_category(self, category_id: int) -> bool:
        return category_id in self._category_by_id

    def instances_for_image(self, image_id: int) -> tuple[GroundTruthInstance, ...]:
        return self._instances_by_image.get(image_id, ())


def _require(condition: bool, message: str, error=ValidationError):
    if not condition:
        raise error(message)


# Exact JSON value classes a field may hold, and how an error names them.
_INT = (int,)
_NUMBER = (int, float)
_TEXT = (str, type(None))
_FLAG = (int, bool)
_EXPECTED = {_INT: "an integer", _NUMBER: "a number", _TEXT: "a string", _FLAG: "0, 1 or a boolean"}
_NO_DEFAULT = object()


def _field(record, key, context, kinds=None, default=_NO_DEFAULT):
    """``record[key]``, type-checked in the same pass: a value whose exact
    class is not in ``kinds`` is rejected. Without ``kinds`` only a JSON
    boolean is, which would otherwise read as the number 0 or 1. With a
    ``default`` the field may be absent."""
    try:
        value = record[key]
    except KeyError:
        if default is _NO_DEFAULT:
            raise ParseError(f"{context}: missing field {key!r}") from None
        return default
    except TypeError:
        raise ParseError(f"{context}: missing field {key!r}") from None
    if kinds is None:
        if value.__class__ is bool:
            raise ValidationError(f"{context}: {key!r} must not be a boolean, got {value!r}")
    elif value.__class__ not in kinds:
        raise ValidationError(f"{context}: {key!r} must be {_EXPECTED[kinds]}, got {value!r}")
    return value


def _load_json(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", offset=exc.pos) from exc


def load_coco(path) -> tuple[DetectionDataset, int]:
    """Load an annotation file.

    Boxes are stored as top-left-size quadruples. Ground-truth boxes that
    stick out of their image are clamped to the image rectangle rather than
    rejected (field annotations routinely touch image borders); the number
    of clamped boxes is returned alongside the dataset and logged.

    Returns:
        (dataset, clamped_count)

    Raises:
        ParseError: malformed JSON (with byte offset) or missing arrays.
        IntegrityError: a dangling image/category reference, naming the id.
        ValidationError: negative dimensions, malformed boxes, a boolean
            where an id or a size belongs, a non-integer image or category
            reference, a non-string region, an ``iscrowd`` other than 0, 1
            or a boolean.
    """
    path = Path(path)
    raw = _load_json(path)
    _require(isinstance(raw, dict), f"{path}: expected a JSON object at top level", ParseError)
    for key in ("images", "annotations", "categories"):
        _require(isinstance(raw.get(key), list), f"{path}: missing or non-array {key!r}", ParseError)

    categories = [
        Category(id=_field(c, "id", f"{path} categories"), name=str(_field(c, "name", path)))
        for c in raw["categories"]
    ]
    images = [
        ImageRecord(
            id=_field(m, "id", f"{path} images"),
            file_name=str(_field(m, "file_name", f"{path} images")),
            width=_field(m, "width", f"{path} images", _INT),
            height=_field(m, "height", f"{path} images", _INT),
            region=_field(m, "region", f"{path} images", _TEXT, None),
        )
        for m in raw["images"]
    ]
    image_by_id = {m.id: m for m in images}
    category_ids = {c.id for c in categories}

    instances = []
    clamped = 0
    for a in raw["annotations"]:
        ann_id = _field(a, "id", f"{path} annotations")
        image_id = _field(a, "image_id", f"annotation {ann_id}", _INT)
        category_id = _field(a, "category_id", f"annotation {ann_id}", _INT)
        iscrowd = _field(a, "iscrowd", f"annotation {ann_id}", _FLAG, 0)
        _require(iscrowd in (0, 1), f"annotation {ann_id}: 'iscrowd' must be 0 or 1, got {iscrowd}")
        if image_id not in image_by_id:
            raise IntegrityError(f"annotation {ann_id} references unknown image {image_id}")
        if category_id not in category_ids:
            raise IntegrityError(
                f"annotation {ann_id} references unknown category {category_id}"
            )
        box = box_from_values(_field(a, "bbox", f"annotation {ann_id}"), BoxFormat.TOP_LEFT_SIZE)
        img = image_by_id[image_id]
        clipped = box.clamped(img.width, img.height)
        if clipped != box:
            clamped += 1
        attributes = a.get("attributes") or {}
        _require(isinstance(attributes, dict), f"annotation {ann_id}: attributes must be a map")
        instances.append(
            GroundTruthInstance(
                id=ann_id,
                image_id=image_id,
                category_id=category_id,
                box=clipped,
                attributes={str(k): str(v) for k, v in attributes.items()},
                iscrowd=bool(iscrowd),
            )
        )
    if clamped:
        logger.warning("%s: clamped %d out-of-image boxes", path, clamped)
    return DetectionDataset(categories, images, instances), clamped


def _canonical_label(label: str) -> str:
    return label.strip().casefold()


def load_labelme(
    directory, category_map: Mapping[str, Category]
) -> tuple[DetectionDataset, dict[str, int]]:
    """Merge a directory of per-image label files into one dataset.

    ``category_map`` maps label strings to categories. Its keys are
    canonicalized (whitespace-trimmed, case-folded) up front; a file label
    is then matched *exactly* against that canonical vocabulary, so any
    deviation in the raw label (stray whitespace, different casing)
    deliberately surfaces in the unmapped-labels report instead of being
    silently absorbed.

    Rectangles use their two corner points; polygons are reduced to the
    bounding box of their points. Image and instance ids are synthesized
    sequentially over files sorted by name.

    Returns:
        (dataset, unmapped) where ``unmapped`` maps each unmatched raw
        label to the number of shapes that carried it.
    """
    directory = Path(directory)
    canonical: dict[str, Category] = {}
    for key, cat in category_map.items():
        ckey = _canonical_label(key)
        if ckey in canonical and canonical[ckey] != cat:
            raise ValidationError(f"category map keys collide after canonicalization: {key!r}")
        canonical[ckey] = cat
    categories = sorted({c.id: c for c in canonical.values()}.values(), key=lambda c: c.id)

    images: list[ImageRecord] = []
    instances: list[GroundTruthInstance] = []
    unmapped: Counter[str] = Counter()
    next_instance_id = 1
    files = sorted(p for p in directory.iterdir() if p.suffix == ".json")
    for image_id, file_path in enumerate(files, start=1):
        raw = _load_json(file_path)
        _require(isinstance(raw, dict), f"{file_path}: expected a JSON object", ParseError)
        width = raw.get("imageWidth")
        height = raw.get("imageHeight")
        _require(
            isinstance(width, int) and isinstance(height, int),
            f"{file_path}: imageWidth/imageHeight must be integers",
        )
        file_name = raw.get("imagePath") or file_path.with_suffix(".jpg").name
        images.append(ImageRecord(id=image_id, file_name=file_name, width=width, height=height))
        for shape in raw.get("shapes", []):
            points = shape.get("points", [])
            if len(points) < 2:
                raise ValidationError(f"{file_path}: shape with fewer than 2 points")
            label = str(shape.get("label", ""))
            cat = canonical.get(label)
            if cat is None:
                unmapped[label] += 1
                continue
            xs = [float(p[0]) for p in points]
            ys = [float(p[1]) for p in points]
            box = BoundingBox(min(xs), min(ys), max(xs), max(ys)).clamped(width, height)
            instances.append(
                GroundTruthInstance(
                    id=next_instance_id, image_id=image_id, category_id=cat.id, box=box
                )
            )
            next_instance_id += 1
    if unmapped:
        logger.warning("%s: %d shapes with unmapped labels", directory, sum(unmapped.values()))
    return DetectionDataset(categories, images, instances), dict(unmapped)


def write_coco(ds: DetectionDataset, path) -> None:
    """Write the dataset back to the annotation format.

    Round-trip contract: ``load_coco`` on the written file reproduces a
    structurally equal dataset (for coordinates exactly representable in
    binary, which covers every real annotation source).
    """
    payload = {
        "images": [
            {
                "id": m.id,
                "file_name": m.file_name,
                "width": m.width,
                "height": m.height,
                **({"region": m.region} if m.region is not None else {}),
            }
            for m in ds.images
        ],
        "annotations": [
            {
                "id": a.id,
                "image_id": a.image_id,
                "category_id": a.category_id,
                "bbox": list(box_to_values(a.box, BoxFormat.TOP_LEFT_SIZE)),
                "iscrowd": 1 if a.iscrowd else 0,
                **({"attributes": dict(a.attributes)} if a.attributes else {}),
            }
            for a in ds.instances
        ],
        "categories": [{"id": c.id, "name": c.name} for c in ds.categories],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_predictions(path, ds: DetectionDataset) -> list[Detection]:
    """Load a prediction file and validate it against a dataset.

    Raises:
        IntegrityError: a record references an unknown image or category.
        ValidationError: a score outside [0, 1] or not a number, a
            malformed box, a non-integer image or category reference, or a
            non-string prompt.
    """
    path = Path(path)
    raw = _load_json(path)
    _require(isinstance(raw, list), f"{path}: expected a JSON array of detections", ParseError)
    detections = []
    for index, record in enumerate(raw):
        context = f"detection #{index}"
        image_id = _field(record, "image_id", context, _INT)
        category_id = _field(record, "category_id", context, _INT)
        if not ds.has_image(image_id):
            raise IntegrityError(f"{context} references unknown image {image_id}")
        if not ds.has_category(category_id):
            raise IntegrityError(f"{context} references unknown category {category_id}")
        score = _field(record, "score", context, _NUMBER)
        if not (0.0 <= score <= 1.0):
            raise ValidationError(f"{context}: score must lie in [0, 1], got {score!r}")
        detections.append(
            Detection(
                image_id=image_id,
                category_id=category_id,
                box=box_from_values(_field(record, "bbox", context), BoxFormat.TOP_LEFT_SIZE),
                score=float(score),
                prompt=_field(record, "prompt", context, _TEXT, None),
            )
        )
    return detections


@dataclass(frozen=True)
class CategoryStats:
    """One statistics row. Averages are exact ratios (display rounding is
    the renderer's job) and absent for empty categories."""

    name: str
    image_count: int
    bbox_count: int
    avg_boxes_per_image: float | None
    avg_instance_area: float | None
    region: str


@dataclass(frozen=True)
class DatasetStats:
    per_category: tuple[CategoryStats, ...]
    total: CategoryStats


def _region_label(regions) -> str:
    return " & ".join(sorted({r for r in regions if r}))


def compute_stats(ds: DetectionDataset) -> DatasetStats:
    """Per-category image/box counts, boxes-per-image and mean box area.

    A category's image count is the number of distinct images containing at
    least one of its instances; the total row counts every image in the
    dataset. Mean areas are taken over instances in id order.
    """
    rows = []
    for cat in ds.categories:
        cat_instances = [a for a in ds.instances if a.category_id == cat.id]
        image_ids = {a.image_id for a in cat_instances}
        n_img = len(image_ids)
        n_box = len(cat_instances)
        rows.append(
            CategoryStats(
                name=cat.name,
                image_count=n_img,
                bbox_count=n_box,
                avg_boxes_per_image=n_box / n_img if n_img else None,
                avg_instance_area=(
                    sum(area(a.box) for a in cat_instances) / n_box if n_box else None
                ),
                region=_region_label(ds.image(i).region for i in image_ids),
            )
        )
    n_img_total = len(ds.images)
    n_box_total = len(ds.instances)
    total = CategoryStats(
        name="Total",
        image_count=n_img_total,
        bbox_count=n_box_total,
        avg_boxes_per_image=n_box_total / n_img_total if n_img_total else None,
        avg_instance_area=(
            sum(area(a.box) for a in ds.instances) / n_box_total if n_box_total else None
        ),
        region=_region_label(m.region for m in ds.images),
    )
    return DatasetStats(per_category=tuple(rows), total=total)
