"""Canonical in-memory dataset representation and its file formats.

Three file formats are understood:

* annotation files: one JSON object with ``images`` (id, file_name, width,
  height, optional region), ``annotations`` (id, image_id, category_id,
  bbox=[x, y, w, h], iscrowd, optional attributes) and ``categories``
  (id, name) arrays;
* per-image polygon/rectangle label files as written by common annotation
  tools (``shapes`` with label/points, ``imageWidth``, ``imageHeight``,
  optional ``imagePath``);
* prediction files: one JSON array of
  ``{image_id, category_id, bbox=[x, y, w, h], score, optional prompt}``.

Every input file of the package, these and the rest, is read by
``read_text`` (UTF-8 only) and ``parse_json``; ``field`` and ``checked``
take values out by exact JSON class (a boolean is no integer, a number
comes back as a finite float). Bad text or a missing field is a
``ParseError``, a mistyped value a ``ValidationError``.

A dataset lays out its ground truth once, as read-only columns in
instance (id) order (``gt_image`` / ``gt_category`` positions, ``gt_boxes``
corners, ``gt_crowd`` flags, ``gt_attributes`` maps) and per-image row
ranges (``gt_rows``), which evaluation, the set loss, the splits and the
statistics read. Its ``instances`` are a read-only sequence; ``load_coco``
fills the columns straight from the parsed records
(``DetectionDataset.from_columns``), and builds a row's
``GroundTruthInstance`` only when that row is read.

Both loaders of scored files have one shape: one pass checks exact classes
and numpy the values; if a record fails, the scalar reader (which only
raises) replays the records for the first bad one: one set of rules and
messages. Dataset checks raise straight from the columns. A prediction file
is read once, by ``load_predictions``, into a ``PredictionTable`` of
columns (image and category positions, corner boxes, scores, prompts) that
evaluation and the set loss score from; it is the only form they take. The
table is also a read-only ``Sequence[Detection]`` of views; ``list(table)``
is the list of them.

Loaders return what they repaired or skipped (clamped boxes, unmapped
labels) and print nothing; the CLI reports it.

Datasets are treated as immutable after load. Loading is order-insensitive:
categories, images and instances are normalized to ascending-id order.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import json
import math
import operator
import re
import sys
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import IntegrityError, ParseError, ValidationError
from .geometry import BoundingBox, box_from_xywh, corner_array, corners_from_xywh, left_sum

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
    "PredictionTable",
    "load_predictions",
    "compute_stats",
]


@dataclass(frozen=True)
class Category:
    id: int
    name: str

    def __post_init__(self):
        if self.id.__class__ is not int or self.id <= 0:
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
        if self.id.__class__ is not int or self.id <= 0:
            raise ValidationError(f"image id must be a positive integer, got {self.id!r}")
        if not all(v.__class__ is int and v > 0 for v in (self.width, self.height)):
            raise ValidationError(
                f"image {self.id}: sizes must be positive integers, got {self.width}x{self.height}"
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
    attributes: Mapping[str, str] = dataclasses.field(default_factory=dict)
    iscrowd: bool = False

    def __post_init__(self):
        ids = (self.id, self.image_id, self.category_id)
        if not all(v.__class__ is int for v in ids):
            raise ValidationError(f"instance, image and category ids must be integers, got {ids}")
        if self.id <= 0:
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


class _Instances(Sequence):
    """A dataset's instances in id order, read-only; ``build(row)`` builds
    a row's ``GroundTruthInstance`` the first time it is read. Equal to the
    list of them."""

    def __init__(self, built: list, build):
        self._built, self._build = built, build

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, index):
        index = range(len(self))[index]
        if self._built[index] is None:
            self._built[index] = self._build(index)
        return self._built[index]

    def __eq__(self, other):
        if isinstance(other, (list, _Instances)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class DetectionDataset:
    """Categories, images and ground-truth instances with referential
    integrity. Construction validates everything and normalizes list order
    to ascending ids, and lays out the ground-truth columns and ranges
    (see the module docstring); ``instances`` becomes a read-only sequence."""

    categories: list[Category]
    images: list[ImageRecord]
    instances: Sequence[GroundTruthInstance]

    _category_pos: dict[int, int] = dataclasses.field(init=False, repr=False, compare=False)
    _image_pos: dict[int, int] = dataclasses.field(init=False, repr=False, compare=False)
    gt_image: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    gt_category: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    gt_boxes: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    gt_crowd: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    gt_attributes: tuple = dataclasses.field(init=False, repr=False, compare=False)
    gt_by_image: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    gt_offsets: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        built = list(self.instances)
        self._lay_out(*_instance_columns(built), built)

    @classmethod
    def from_columns(cls, categories, images, ids, image_ids, category_ids, boxes, crowd, attrs):
        """``(dataset, clamped_count)`` of instance rows given in any order
        as lists of int ids (instance ids positive), (N, 4) float64 corners,
        crowd flags and attribute maps (falsy for none). A box outside its
        image is clamped to it (``BoundingBox.clamped``); instances are
        built when first read."""
        ds = cls.__new__(cls)
        ds.categories, ds.images = categories, images
        return ds, ds._lay_out(ids, image_ids, category_ids, boxes, crowd, attrs)

    def _lay_out(self, ids, image_ids, category_ids, boxes, crowd, attrs, built=None) -> int:
        """Sort and index categories, images and instance rows, check the
        rows with numpy and set the columns; the first bad row in id order
        raises. Without ``built`` instances, boxes outside their image are
        clamped instead (the count is returned)."""
        self.categories = sorted(self.categories, key=lambda c: c.id)
        self.images = sorted(self.images, key=lambda m: m.id)
        self._category_pos = {}
        names_seen: dict[str, str] = {}
        for position, cat in enumerate(self.categories):
            if cat.id in self._category_pos:
                raise ValidationError(f"duplicate category id {cat.id}")
            folded = cat.name.casefold()
            if folded in names_seen:
                raise ValidationError(
                    f"category names collide case-insensitively: "
                    f"{names_seen[folded]!r} vs {cat.name!r}"
                )
            names_seen[folded] = cat.name
            self._category_pos[cat.id] = position

        self._image_pos = {}
        for position, img in enumerate(self.images):
            if img.id in self._image_pos:
                raise ValidationError(f"duplicate image id {img.id}")
            self._image_pos[img.id] = position

        rows = sorted(range(len(ids)), key=ids.__getitem__)
        n, order, clamped = len(rows), np.array(rows, dtype=np.intp), {}
        image = np.fromiter(map(self._image_pos.get, image_ids, repeat(-1)), np.int64, n)[order]
        category = np.fromiter(map(self._category_pos.get, category_ids, repeat(-1)), np.int64, n)
        category, boxes, crowd = category[order], boxes[order], np.asarray(crowd, bool)[order]
        ids = np.array(ids, dtype=object)[order]
        built = [None] * n if built is None else [built[k] for k in rows]
        attrs = tuple(MappingProxyType(attrs[k]) if attrs[k] else _NO_ATTRIBUTES for k in rows)
        # Image sizes as floats, plus an unbounded row for an unknown image
        # (-1), never clamped. A size past 2**53 rounds, so BoundingBox.clamped
        # decides each row with a corner at or past its float bound, exactly.
        top = sys.float_info.max
        limits = [(min(m.width, top), min(m.height, top)) for m in self.images]
        limits = np.array(limits + [(math.inf, math.inf)], np.float64)[image]
        outside = (boxes[:, :2] < 0).any(axis=1) | (boxes[:, 2:] >= limits).any(axis=1)
        outside &= image >= 0
        for k in np.flatnonzero(outside).tolist():
            img = self.images[image[k]]
            box = built[k].box if built[k] else BoundingBox(*boxes[k].tolist())
            inside = box.clamped(img.width, img.height)
            outside[k] = inside is not box
            if outside[k] and not built[k]:
                clamped[k], outside[k] = inside, False
        if clamped:
            boxes[list(clamped)] = corner_array(clamped.values())
        bad = outside | (image < 0) | (category < 0)
        bad[1:] |= ids[1:] == ids[:-1]
        if bad.any():
            k = int(bad.argmax())
            if k and ids[k] == ids[k - 1]:
                raise ValidationError(f"duplicate instance id {ids[k]}")
            unknown = f"instance {ids[k]} references unknown"
            if image[k] < 0:
                raise IntegrityError(f"{unknown} image {image_ids[rows[k]]}")
            if category[k] < 0:
                raise IntegrityError(f"{unknown} category {category_ids[rows[k]]}")
            img = self.images[image[k]]
            raise ValidationError(
                f"instance {ids[k]} box exceeds image {img.id} bounds "
                f"({img.width}x{img.height}); clamp it at load time"
            )

        # The builder holds no reference to the dataset, so that no cycle
        # keeps a dataset alive after its last use.
        images, categories = self.images, self.categories

        def build(k: int) -> GroundTruthInstance:
            box = clamped[k] if k in clamped else BoundingBox(*boxes[k].tolist())
            image_id, category_id = images[image[k]].id, categories[category[k]].id
            return GroundTruthInstance(
                ids[k], image_id, category_id, box, dict(attrs[k]), bool(crowd[k])
            )

        self.instances = _Instances(built, build)
        self.gt_image, self.gt_category = _read_only(image), _read_only(category)
        self.gt_boxes, self.gt_crowd = _read_only(boxes), _read_only(crowd)
        self.gt_attributes = attrs
        self.gt_by_image = _read_only(np.argsort(self.gt_image, kind="stable"))
        starts = np.searchsorted(self.gt_image[self.gt_by_image], np.arange(len(self.images) + 1))
        self.gt_offsets = _read_only(starts)
        return len(clamped)

    def category(self, category_id: int) -> Category:
        try:
            return self.categories[self._category_pos[category_id]]
        except KeyError:
            raise IntegrityError(f"unknown category {category_id}") from None

    def image_index(self, image_id: int) -> int:
        """The image's position in ``images`` (ascending-id order)."""
        try:
            return self._image_pos[image_id]
        except KeyError:
            raise IntegrityError(f"unknown image {image_id}") from None

    def has_image(self, image_id: int) -> bool:
        return image_id in self._image_pos

    def has_category(self, category_id: int) -> bool:
        return category_id in self._category_pos

    def instances_for_image(self, image_id: int) -> tuple[GroundTruthInstance, ...]:
        """The image's instances in id order; ``()`` for an unknown id."""
        if image_id not in self._image_pos:
            return ()
        return tuple(self.instances[k] for k in self.gt_rows(self._image_pos[image_id]).tolist())

    def gt_rows(self, position: int) -> np.ndarray:
        """The rows of the image at ``position`` in ``images``, in id order."""
        return self.gt_by_image[self.gt_offsets[position]:self.gt_offsets[position + 1]]


def _instance_columns(instances: list) -> tuple:
    """The ``DetectionDataset.from_columns`` columns of ``instances``."""
    return (
        [a.id for a in instances], [a.image_id for a in instances],
        [a.category_id for a in instances], corner_array(a.box for a in instances),
        [a.iscrowd for a in instances], [a.attributes for a in instances],
    )


# The attribute map of every row without attributes.
_NO_ATTRIBUTES = MappingProxyType({})


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# Value kinds: how an error names the kind, then the exact JSON value
# classes it admits.
INTEGER = ("an integer", int)
NUMBER = ("a finite number", int, float)
STRING = ("a string", str)
OPTIONAL_STRING = ("a string or null", str, type(None))
ARRAY = ("an array", list)
OBJECT = ("an object", dict)
BOOLEAN = ("true or false", bool)
FLAG = ("0, 1 or a boolean", int, bool)
_NO_DEFAULT = object()
_SURROGATE = re.compile("[\ud800-\udfff]")


def read_text(path) -> str:
    """The file's text; bytes that are not UTF-8 are a ``ParseError`` at
    the offset of the first bad byte."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text", offset=exc.start) from None


def parse_json(text: str, where):
    """One JSON value. Malformed text, an integer past the interpreter's
    digit limit and nesting past its recursion limit are ``ParseError``s;
    a syntax error's offset counts the UTF-8 bytes of ``text`` before it."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        offset = len(text[: exc.pos].encode("utf-8"))
        raise ParseError(f"{where}: {exc.msg}", offset=offset) from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{where}: {exc}") from None


def read_json(path):
    return parse_json(read_text(path), path)


def checked(value, kind, context, key=None):
    """``value`` if its exact class is one of ``kind``'s, else a
    ``ValidationError`` naming ``context`` (and ``key``). A ``NUMBER``
    comes back as a finite float; a ``FLAG`` must be 0 or 1; a string must
    hold no lone surrogate, which JSON can escape but no output encoding
    can write."""
    if value.__class__ in kind:
        if kind is NUMBER:
            try:
                number = float(value)
            except OverflowError:
                number = math.inf
            if math.isfinite(number):
                return number
        elif value.__class__ is str:
            if value.isascii() or not _SURROGATE.search(value):
                return value
            raise ValidationError(f"{_where(context, key)} holds a lone surrogate: {value!r:.80}")
        elif kind is not FLAG or value in (0, 1):
            return value
    raise ValidationError(f"{_where(context, key)} must be {kind[0]}, got {value!r:.80}")


def _where(context, key) -> str:
    return context if key is None else f"{context}: {key!r}"


def _admits(values, kind) -> bool:
    """Whether every one of ``values`` has an exact class of ``kind``'s:
    ``checked``'s class test, for a column."""
    return set(map(type, values)) <= set(kind[1:])


def field(record, key: str, context, kind=None, default=_NO_DEFAULT):
    """``record[key]`` of a JSON object, ``checked`` against ``kind`` (any
    value without one, for a caller that checks it itself). With a
    ``default`` the field may be absent."""
    if record.__class__ is not dict:
        raise ValidationError(f"{context}: expected an object, got {record!r:.80}")
    try:
        value = record[key]
    except KeyError:
        if default is _NO_DEFAULT:
            raise ParseError(f"{context}: missing field {key!r}") from None
        return default
    return value if kind is None else checked(value, kind, context, key)


def reject_unknown_keys(record: dict, keys, context) -> None:
    """A ``ValidationError`` naming ``context`` if ``record`` has a key
    outside ``keys``."""
    unknown = set(record) - set(keys)
    if unknown:
        raise ValidationError(f"{context} has unknown keys: {sorted(unknown)}")


def _collector_paused(load):
    """``load`` with the cyclic collector paused: a parsed JSON tree holds
    no cycle, and it is freed as ``load`` returns, before the collector
    resumes. A collector the caller disabled stays disabled."""

    @functools.wraps(load)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return load(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


_ANNOTATION_FIELDS = tuple(map(operator.itemgetter, ("id", "image_id", "category_id", "bbox")))


@_collector_paused
def load_coco(path) -> tuple[DetectionDataset, int]:
    """Load an annotation file.

    Boxes are stored as top-left-size quadruples. Ground-truth boxes that
    stick out of their image are clamped to the image rectangle rather than
    rejected (field annotations routinely touch image borders); the number
    of clamped boxes is returned alongside the dataset.

    One pass takes the annotation fields out by exact JSON class, then
    numpy checks and lays out the columns (``DetectionDataset.from_columns``,
    whose dataset checks raise); no instance is built until it is read. If
    a record fails, the scalar reader replays the records in file order and
    raises for the first bad one: one set of rules and one set of messages.

    Returns:
        (dataset, clamped_count)

    Raises:
        ParseError: malformed or non-UTF-8 text (with byte offset), a
            missing field.
        IntegrityError: a dangling image/category reference, naming the id.
        ValidationError: a value of the wrong JSON class (a boolean where
            an id or a size belongs, a non-string name, file name, region
            or attribute value), negative dimensions, malformed boxes, an
            ``iscrowd`` other than 0, 1 or a boolean.
    """
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
    records = field(raw, "annotations", path, ARRAY)
    loaded = _annotation_columns(categories, images, records)
    if loaded is None:
        _annotation_records(path, records)
    return loaded


def _annotation_columns(categories, images, records: list):
    """``(dataset, clamped)`` of the annotation ``records``, or None if a
    record is invalid, which the scalar ``_annotation_records`` rejects too."""
    try:
        ids, image, category, bbox = (list(map(get, records)) for get in _ANNOTATION_FIELDS)
        crowd = list(map(dict.get, records, repeat("iscrowd"), repeat(0)))
        # () stands for no attributes: JSON has no tuple, so a null fails the check.
        attributes = list(map(dict.get, records, repeat("attributes"), repeat(())))
        if not (
            _admits(chain(ids, image, category), INTEGER)
            and min(ids, default=1) > 0
            and _admits(crowd, FLAG)
            and set(crowd) <= {0, 1}
            and set(map(type, attributes)) <= {dict, tuple}
        ):
            return None
        for value in set(chain.from_iterable(a.values() for a in attributes if a)):
            checked(value, STRING, "attribute")
        boxes = corners_from_xywh(bbox)
    except (KeyError, TypeError, OverflowError, ValidationError):
        return None
    if boxes is None:
        return None
    return DetectionDataset.from_columns(
        categories, images, ids, image, category, boxes, crowd, attributes
    )


def _annotation_records(path, records: list) -> None:
    """The scalar reader of the annotation records, in file order; it
    raises for every record ``_annotation_columns`` rejects."""
    for a in records:
        ann_id = field(a, "id", f"{path} annotations", INTEGER)
        context = f"annotation {ann_id}"
        image_id = field(a, "image_id", context, INTEGER)
        category_id = field(a, "category_id", context, INTEGER)
        field(a, "iscrowd", context, FLAG, 0)
        box = _bbox(a, context)
        for key, value in field(a, "attributes", context, OBJECT, {}).items():
            checked(value, STRING, context, key)
        GroundTruthInstance(ann_id, image_id, category_id, box)  # rejects an id below 1


def _bbox(record, context) -> BoundingBox:
    """The box of ``record``'s ``bbox`` (``box_from_xywh``); a malformed
    one is a ``ValidationError`` naming ``context``."""
    values = field(record, "bbox", context)
    try:
        return box_from_xywh(values)
    except ValidationError as exc:
        raise ValidationError(f"{context}: {exc}") from None


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
    bounding box of their points. ``DetectionDataset.from_columns`` clamps
    a box outside its image and rejects two mapped categories sharing an
    id. Image and instance ids are numbered from 1 over files sorted by name.

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
    categories = sorted(set(canonical.values()), key=lambda c: c.id)

    images: list[ImageRecord] = []
    image_ids, category_ids, corners = [], [], []
    unmapped: Counter[str] = Counter()
    files = sorted(p for p in directory.iterdir() if p.suffix == ".json")
    for image_id, file_path in enumerate(files, start=1):
        raw = read_json(file_path)
        width = field(raw, "imageWidth", file_path, INTEGER)
        height = field(raw, "imageHeight", file_path, INTEGER)
        file_name = field(raw, "imagePath", file_path, OPTIONAL_STRING, None)
        file_name = file_name or file_path.with_suffix(".jpg").name
        images.append(ImageRecord(id=image_id, file_name=file_name, width=width, height=height))
        context = f"{file_path} shape"
        for shape in field(raw, "shapes", file_path, ARRAY, []):
            points = field(shape, "points", context, ARRAY, [])
            if len(points) < 2:
                raise ValidationError(f"{file_path}: shape with fewer than 2 points")
            xs, ys = [], []
            for point in points:
                if len(checked(point, ARRAY, context, "points")) != 2:
                    raise ValidationError(f"{context}: a point must be [x, y], got {point!r:.80}")
                xs.append(checked(point[0], NUMBER, context, "x"))
                ys.append(checked(point[1], NUMBER, context, "y"))
            label = field(shape, "label", context, STRING, "")
            cat = canonical.get(label)
            if cat is None:
                unmapped[label] += 1
                continue
            image_ids.append(image_id)
            category_ids.append(cat.id)
            corners.append((min(xs), min(ys), max(xs), max(ys)))
    n = len(corners)
    boxes = np.array(corners, np.float64).reshape(n, 4)
    ds, _ = DetectionDataset.from_columns(
        categories, images, list(range(1, n + 1)), image_ids, category_ids, boxes,
        [False] * n, [None] * n,
    )
    return ds, dict(unmapped)


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
                "bbox": [a.box.x_min, a.box.y_min, a.box.width, a.box.height],
                "iscrowd": 1 if a.iscrowd else 0,
                **({"attributes": dict(a.attributes)} if a.attributes else {}),
            }
            for a in ds.instances
        ],
        "categories": [{"id": c.id, "name": c.name} for c in ds.categories],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


class PredictionTable(Sequence):
    """Detections as columns, against one dataset ``ds``: ``image`` and
    ``category`` are int64 positions in ``ds.images`` / ``ds.categories``
    (ascending-id order, so position order is id order, for ids of any
    size); ``boxes`` holds (N, 4) float64 corners, ``score`` float64 scores
    and ``prompt`` a string or None per row. The arrays are read-only.

    As a ``Sequence[Detection]`` the table yields one ``Detection`` view
    per row, equal to the one the scalar reader builds; an int index gives
    that view."""

    def __init__(self, ds, image, category, boxes, score, prompt):
        self.ds = ds
        self.image, self.category, self.boxes, self.score = image, category, boxes, score
        for column in (image, category, boxes, score):
            column.flags.writeable = False
        self.prompt = tuple(prompt)

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, index: int) -> Detection:
        index = range(len(self))[operator.index(index)]
        return self._view(
            self.image[index], self.category[index], self.boxes[index].tolist(),
            float(self.score[index]), self.prompt[index],
        )

    def __iter__(self):
        columns = (self.image, self.category, self.boxes, self.score)
        return map(self._view, *(column.tolist() for column in columns), self.prompt)

    def _view(self, image, category, corners, score, prompt) -> Detection:
        return Detection(
            self.ds.images[image].id, self.ds.categories[category].id, BoundingBox(*corners),
            score, prompt,
        )


_RECORD_FIELDS = tuple(map(operator.itemgetter, ("image_id", "category_id", "bbox", "score")))


@_collector_paused
def load_predictions(path, ds: DetectionDataset) -> PredictionTable:
    """Load a prediction file and validate it against a dataset.

    One pass takes the fields out of every record by exact JSON class,
    then numpy checks the values. If any record fails, the scalar reader
    replays the records in file order and raises for the first bad one, so
    the error class and message name its ``detection #index``; the table
    is built from the columns only.

    Raises:
        ParseError: malformed or non-UTF-8 text, a missing field.
        IntegrityError: a record references an unknown image or category.
        ValidationError: a score outside [0, 1] or not a number, a
            malformed box, a non-integer image or category reference, or a
            non-string prompt.
    """
    path = Path(path)
    records = checked(read_json(path), ARRAY, path)
    table = _columns(records, ds)
    if table is None:
        for index, record in enumerate(records):
            _detection(index, record, ds)
    return table


def _columns(records: list, ds: DetectionDataset) -> PredictionTable | None:
    """The table of ``records``, or None if some record is invalid, which
    the scalar reader ``_detection`` then rejects too."""
    n = len(records)
    try:
        image, category, bbox, score = (list(map(get, records)) for get in _RECORD_FIELDS)
        prompt = tuple(map(dict.get, records, repeat("prompt")))
        for value in set(prompt):
            checked(value, OPTIONAL_STRING, "prompt")
        if not (_admits(chain(image, category), INTEGER) and _admits(score, NUMBER)):
            return None
        # An unknown id maps to None, which np.fromiter rejects with a TypeError.
        image = np.fromiter(map(ds._image_pos.get, image), np.int64, n)
        category = np.fromiter(map(ds._category_pos.get, category), np.int64, n)
        boxes = corners_from_xywh(bbox)
        score = np.fromiter(score, np.float64, n)
    except (KeyError, TypeError, OverflowError, ValidationError):
        return None
    if boxes is None or not ((score >= 0) & (score <= 1)).all():
        return None
    return PredictionTable(ds, image, category, boxes, score, prompt)


def _detection(index: int, record, ds: DetectionDataset) -> Detection:
    """The scalar reader of one prediction record; it raises for every
    record ``_columns`` rejects."""
    context = f"detection #{index}"
    image_id = field(record, "image_id", context, INTEGER)
    category_id = field(record, "category_id", context, INTEGER)
    if not ds.has_image(image_id):
        raise IntegrityError(f"{context} references unknown image {image_id}")
    if not ds.has_category(category_id):
        raise IntegrityError(f"{context} references unknown category {category_id}")
    return Detection(
        image_id=image_id,
        category_id=category_id,
        box=_bbox(record, context),
        score=field(record, "score", context, NUMBER),
        prompt=field(record, "prompt", context, OPTIONAL_STRING, None),
    )


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


def _stats_row(name: str, boxes: np.ndarray, images) -> CategoryStats:
    n_box, n_img = len(boxes), len(images)
    x0, y0, x1, y1 = boxes.T
    with np.errstate(over="ignore", invalid="ignore"):
        areas = ((x1 - x0) * (y1 - y0)).tolist()  # geometry.area, row by row
    mean = left_sum(areas) / n_box if n_box else None
    if mean is not None and not math.isfinite(mean):
        raise ValidationError(f"stats row {name!r}: the mean box area overflows a float")
    region = " & ".join(sorted({m.region for m in images if m.region}))
    return CategoryStats(name, n_img, n_box, n_box / n_img if n_img else None, mean, region)


def compute_stats(ds: DetectionDataset) -> DatasetStats:
    """Per-category image/box counts, boxes-per-image and mean box area.

    A category's image count is the number of distinct images containing at
    least one of its instances; the total row counts every image in the
    dataset. Mean areas are taken over instances in id order; one that
    overflows a float is a ``ValidationError``.
    """
    rows = []
    for position, cat in enumerate(ds.categories):
        members = np.flatnonzero(ds.gt_category == position)
        images = np.unique(ds.gt_image[members]).tolist()
        rows.append(_stats_row(cat.name, ds.gt_boxes[members], [ds.images[p] for p in images]))
    return DatasetStats(tuple(rows), _stats_row("Total", ds.gt_boxes, ds.images))
