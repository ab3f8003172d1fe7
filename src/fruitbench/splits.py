"""Deterministic experiment partitions: train/test, k-shot, cross-class.

Reproducibility is pinned down to the algorithm, not just the seed:

* randomness comes from the Philox-4x64-10 counter-based generator with
  key words ``(seed, category_id)`` and counter word 3 set to an operation
  domain (1 = train/test shuffle, 2 = shot sampling), so every category
  gets an independent, platform-stable stream per operation;
* shuffles are textbook Fisher-Yates over the raw 64-bit word stream with
  rejection sampling for unbiased bounded draws;
* images that contain several categories are assigned to the category with
  the most instances in that image, ties going to the lowest category id;
  images with no instances belong to no category and stay out of every
  split;
* train counts are exact floors of ``fraction * n`` with the fraction read
  at its shortest decimal representation (0.6 means 3/5, not the nearest
  binary double).

Note that k-shot samples are *not* nested: the 5-shot draw for a seed need
not contain the 1-shot draw for the same seed.

A manifest holds the spec, the sorted train and test image ids and a
SHA-256 digest of them; one table of the optional spec keys
(``_SPEC_FIELDS``) serves its writer, its digest and its reader.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .datamodel import (
    ARRAY, INTEGER, NUMBER, OBJECT, STRING, Category, DetectionDataset, checked, field, read_json,
)
from .errors import ManifestDigestError, ValidationError

__all__ = [
    "SplitSpec",
    "SplitResult",
    "majority_category",
    "split_train_test",
    "sample_k_shot",
    "split_cross_class",
    "write_manifest",
    "load_manifest",
]

KIND_TRAIN_TEST = "train-test"
KIND_K_SHOT = "k-shot"
KIND_CROSS_CLASS = "cross-class"
KIND_ZERO_SHOT = "zero-shot"

_SHUFFLE_DOMAIN = 1
_SHOT_DOMAIN = 2

_MAX_SEED = 2**64

# The spec fields each kind requires, in the order ``--kind`` lists them.
_REQUIRED = {
    KIND_TRAIN_TEST: ("train_fraction",),
    KIND_K_SHOT: ("train_fraction", "k"),
    KIND_CROSS_CLASS: ("train_fraction", "held_out_category"),
    KIND_ZERO_SHOT: ("train_fraction",),
}
KINDS = tuple(_REQUIRED)

# The optional spec fields, in manifest key order: the attribute, its
# manifest key and its JSON kind.
_SPEC_FIELDS = (
    ("train_fraction", "fraction", NUMBER),
    ("k", "k", INTEGER),
    ("held_out_category", "held_out", INTEGER),
)


@dataclass(frozen=True)
class SplitSpec:
    """Declarative description of one experiment partition.

    Exactly the fields required by ``kind`` may be set:

    ==============  ========================================
    train-test      train_fraction
    zero-shot       train_fraction (test portion only)
    k-shot          train_fraction, k
    cross-class     train_fraction, held_out_category
    ==============  ========================================
    """

    kind: str
    seed: int
    train_fraction: float | None = None
    k: int | None = None
    held_out_category: int | None = None

    def __post_init__(self):
        if self.seed.__class__ is not int or not (0 <= self.seed < _MAX_SEED):
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        required = _REQUIRED.get(self.kind)
        if required is None:
            raise ValidationError(f"unknown split kind {self.kind!r}")
        for name, _, _ in _SPEC_FIELDS:
            value = getattr(self, name)
            if name in required:
                if value is None:
                    raise ValidationError(f"{self.kind} split requires {name}")
            elif value is not None:
                raise ValidationError(f"{self.kind} split does not take {name}")
        if self.train_fraction is not None and not (0.0 < self.train_fraction < 1.0):
            raise ValidationError(
                f"train fraction must lie strictly between 0 and 1, got {self.train_fraction!r}"
            )
        if self.k is not None and (self.k.__class__ is not int or self.k < 0):
            raise ValidationError(f"k must be a non-negative integer, got {self.k!r}")


@dataclass(frozen=True)
class SplitResult:
    """A materialized partition: disjoint, sorted tuples of distinct image
    ids plus the spec that produced them and a content digest over all
    three."""

    train_image_ids: tuple[int, ...]
    test_image_ids: tuple[int, ...]
    spec: SplitSpec
    manifest_digest: str

    def __post_init__(self):
        for name in ("train_image_ids", "test_image_ids"):
            ids = getattr(self, name)
            if len(set(ids)) != len(ids):
                repeated = next(i for i, n in Counter(ids).items() if n > 1)
                raise ValidationError(f"{name} repeats image id {repeated}")
        if set(self.train_image_ids) & set(self.test_image_ids):
            raise ValidationError("train and test image sets overlap")


def _manifest_body(spec: SplitSpec, train, test) -> dict:
    """A manifest without its digest: the object the digest hashes."""
    keys = {"kind": spec.kind, "seed": spec.seed}
    for name, key, _ in _SPEC_FIELDS:
        if getattr(spec, name) is not None:
            keys[key] = getattr(spec, name)
    return {"spec": keys, "train_image_ids": list(train), "test_image_ids": list(test)}


def _digest(spec: SplitSpec, train: tuple[int, ...], test: tuple[int, ...]) -> str:
    body = json.dumps(_manifest_body(spec, train, test), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def _build_result(train, test, spec: SplitSpec) -> SplitResult:
    train = tuple(sorted(train))
    test = tuple(sorted(test))
    return SplitResult(train, test, spec, _digest(spec, train, test))


def _shuffle(items: list, seed: int, category_id: int, domain: int) -> None:
    """Fisher-Yates shuffle of ``items`` in place, drawing 64-bit words from
    the Philox-4x64 counter stream of ``(seed, category_id, domain)``."""
    counter = np.array([0, 0, 0, domain], dtype=np.uint64)
    key = np.array([seed, category_id], dtype=np.uint64)
    bitgen = np.random.Philox(counter=counter, key=key)
    for i in range(len(items) - 1, 0, -1):
        # Rejection sampling keeps the draw exactly uniform on [0, i].
        span = _MAX_SEED - (_MAX_SEED % (i + 1))
        while (word := int(bitgen.random_raw())) >= span:
            pass
        j = word % (i + 1)
        items[i], items[j] = items[j], items[i]


def _floor_fraction(fraction: float, n: int) -> int:
    return int(Fraction(str(fraction)) * n)


def majority_category(ds: DetectionDataset) -> dict[int, int]:
    """Assign each annotated image to one category for stratification:
    most instances wins, ties go to the lowest category id."""
    n = len(ds.categories)
    keys, counts = np.unique(ds.gt_image * n + ds.gt_category, return_counts=True)
    # By image, then largest count; the stable sort keeps ascending ids on ties.
    keys = keys[np.lexsort((-counts, keys // n))]
    first = np.diff(keys // n, prepend=-1) != 0
    return {
        ds.images[key // n].id: ds.categories[key % n].id for key in keys[first].tolist()
    }


def _images_by_category(ds: DetectionDataset) -> dict[int, list[int]]:
    grouped: dict[int, list[int]] = {}
    for image_id, category_id in majority_category(ds).items():
        grouped.setdefault(category_id, []).append(image_id)
    return {cid: sorted(ids) for cid, ids in grouped.items()}


def _partition(ds: DetectionDataset, fraction: float, seed: int):
    """Per-category (train, test) image-id lists, shared by every split kind
    so that cross-class test sets coincide with the plain train/test split."""
    grouped = _images_by_category(ds)
    if not grouped:
        raise ValidationError("empty dataset: no annotated images to split")
    parts = {}
    for category_id in sorted(grouped):
        order = list(grouped[category_id])
        _shuffle(order, seed, category_id, _SHUFFLE_DOMAIN)
        n_train = _floor_fraction(fraction, len(order))
        parts[category_id] = (order[:n_train], order[n_train:])
    return parts


def split_train_test(ds: DetectionDataset, fraction: float, seed: int) -> SplitResult:
    """Per-category stratified shuffle; the first ``floor(fraction * n)``
    images of each category go to train, the rest to test."""
    spec = SplitSpec(kind=KIND_TRAIN_TEST, seed=seed, train_fraction=float(fraction))
    parts = _partition(ds, spec.train_fraction, seed)
    train = [i for tr, _ in parts.values() for i in tr]
    test = [i for _, te in parts.values() for i in te]
    return _build_result(train, test, spec)


def sample_k_shot(
    ds: DetectionDataset, train_pool: SplitResult, k: int, seed: int
) -> SplitResult:
    """Draw exactly ``k`` train images per ``_partition`` category group,
    uniformly without replacement from its train-pool images; the test set
    is unchanged. ``k = 0`` yields the zero-shot split, an empty train set
    over the standard test portion, so that its numbers compare with every
    other row. Raises if a pool, even an empty one, is smaller than ``k``,
    naming the category and its pool size, or if the train pool holds an
    image no group owns.
    """
    fraction = train_pool.spec.train_fraction
    spec = SplitSpec(kind=KIND_K_SHOT, seed=seed, train_fraction=fraction, k=k)
    if k == 0:
        spec = SplitSpec(kind=KIND_ZERO_SHOT, seed=seed, train_fraction=fraction)
        return _build_result((), train_pool.test_image_ids, spec)
    pool_ids = set(train_pool.train_image_ids)
    grouped = _images_by_category(ds)
    if foreign := pool_ids.difference(*grouped.values()):
        raise ValidationError(f"train pool image {min(foreign)} is not an annotated image")
    train: list[int] = []
    for category_id in sorted(grouped):
        pool = [i for i in grouped[category_id] if i in pool_ids]
        if len(pool) < k:
            name = ds.category(category_id).name
            raise ValidationError(
                f"category {name!r} has only {len(pool)} train images, cannot draw k={k}"
            )
        _shuffle(pool, seed, category_id, _SHOT_DOMAIN)
        train.extend(pool[:k])
    return _build_result(train, train_pool.test_image_ids, spec)


def split_cross_class(
    ds: DetectionDataset, held_out: Category | int, fraction: float, seed: int
) -> SplitResult:
    """Train on every category except ``held_out``; test on the held-out
    category's *standard* test portion, so the numbers stay comparable with
    same-seed fine-tuning splits."""
    held_out_id = held_out.id if isinstance(held_out, Category) else held_out
    ds.category(held_out_id)
    if len(ds.categories) < 2:
        raise ValidationError("cross-class split needs at least 2 categories")
    spec = SplitSpec(
        kind=KIND_CROSS_CLASS, seed=seed, train_fraction=float(fraction),
        held_out_category=held_out_id,
    )
    parts = _partition(ds, spec.train_fraction, seed)
    train = [i for cid, (tr, _) in parts.items() if cid != held_out_id for i in tr]
    test = list(parts.get(held_out_id, ((), ()))[1])
    return _build_result(train, test, spec)


def write_manifest(result: SplitResult, path) -> None:
    payload = _manifest_body(result.spec, result.train_image_ids, result.test_image_ids)
    payload["digest"] = result.manifest_digest
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_manifest(path) -> SplitResult:
    """Read a manifest back, recomputing and verifying its digest."""
    path = Path(path)
    payload = read_json(path)
    raw = field(payload, "spec", f"{path}: not a split manifest", OBJECT)
    context = f"{path} spec"
    spec = SplitSpec(
        kind=field(raw, "kind", context, STRING),
        seed=field(raw, "seed", context, INTEGER),
        **{name: field(raw, key, context, kind, None) for name, key, kind in _SPEC_FIELDS},
    )
    train, test = (
        tuple(checked(i, INTEGER, path, key) for i in field(payload, key, path, ARRAY))
        for key in ("train_image_ids", "test_image_ids")
    )
    recorded = field(payload, "digest", path, STRING)
    recomputed = _digest(spec, train, test)
    if recomputed != recorded:
        raise ManifestDigestError(
            f"{path}: digest mismatch (recorded {recorded!r}, "
            f"recomputed {recomputed!r}); the manifest was edited or corrupted"
        )
    return SplitResult(train, test, spec, recomputed)
