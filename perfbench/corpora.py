"""Seeded synthetic corpora for the three benchmark workloads.

Each generator writes plain JSON files (annotations, predictions and the
op's side inputs) into a directory and returns their paths; the library
only ever sees those files. The same seed gives byte-identical files.
Sizes that drive the amount of work (images, ground truth per image,
detections per image) are fixed multisets that the seed only permutes, so
every seed asks the engine for the same amount of work and only the
geometry, scores and labels change.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

FRUITS = ["apple", "orange", "lemon", "grapefruit", "tangerine"]
OCCLUSION = ["none", "partial", "heavy"]
IMG_W, IMG_H = 640, 480

# rec-dense prompts: every detection is repeated under each of them.
REC_FILTERS = {
    "any fruit": {"any": True},
    "unoccluded fruit": {"attribute": "occlusion", "equals": "none"},
    "occluded fruit": {"attribute": "occlusion", "in": ["partial", "heavy"]},
}


@dataclass(frozen=True)
class Scale:
    """Corpus sizes of one workload. ``full`` is what the benchmark
    measures; ``tiny`` is what the self-test runs."""

    images: int
    gt_per_image: tuple[int, int]  # inclusive range, spread over images
    dets_per_image: tuple[int, int]
    shards: int = 1  # ops cycle through this many disjoint image sets


SCALES = {
    "grid-sparse": {"full": Scale(600, (5, 15), (20, 30)), "tiny": Scale(100, (5, 15), (20, 30))},
    "rec-dense": {"full": Scale(24, (40, 80), (150, 150)), "tiny": Scale(6, (40, 80), (150, 150))},
    "loss-detr": {
        "full": Scale(64, (1, 10), (100, 100), shards=32),
        "tiny": Scale(4, (1, 10), (100, 100), shards=2),
    },
}

# grid-sparse "models": (name, recall, jitter as a share of box size).
SPARSE_MODELS = (("strong", 0.9, 0.05), ("medium", 0.7, 0.12), ("weak", 0.5, 0.25))


def _dump(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path


def _spread(rng: random.Random, low: int, high: int, n: int) -> list[int]:
    """``n`` values spread evenly over low..high, shuffled: the multiset
    (and so the total) depends on ``n`` only, never on the seed."""
    values = [low + i * (high - low + 1) // n for i in range(n)]
    rng.shuffle(values)
    return values


def _random_box(rng: random.Random, min_side=16, max_side=96) -> list[float]:
    w = rng.randint(min_side, max_side)
    h = rng.randint(min_side, max_side)
    return [float(rng.randint(0, IMG_W - w)), float(rng.randint(0, IMG_H - h)), float(w), float(h)]


def _jittered(rng: random.Random, bbox, jitter: float) -> list[float]:
    x, y, w, h = bbox
    nx = x + rng.gauss(0.0, jitter * w)
    ny = y + rng.gauss(0.0, jitter * h)
    nw = max(2.0, w * (1.0 + rng.gauss(0.0, jitter)))
    nh = max(2.0, h * (1.0 + rng.gauss(0.0, jitter)))
    nx = min(max(nx, 0.0), IMG_W - nw)
    ny = min(max(ny, 0.0), IMG_H - nh)
    return [round(nx, 2), round(ny, 2), round(nw, 2), round(nh, 2)]


def _images(n: int) -> list[dict]:
    return [
        {"id": i, "file_name": f"img{i:05d}.jpg", "width": IMG_W, "height": IMG_H}
        for i in range(1, n + 1)
    ]


def _categories(n: int) -> list[dict]:
    return [{"id": i + 1, "name": name} for i, name in enumerate(FRUITS[:n])]


def grid_sparse(directory: Path, seed: int, scale: Scale) -> dict[str, Path]:
    """Many small image x category cells: at most two categories per image,
    about 2% crowd ground truth, and three prediction files at different
    recall and noise levels. Each image's main category holds a strict
    majority of its boxes and the main categories are a fixed multiset, so
    every split of the corpus has the same number of test images."""
    rng = random.Random(f"grid-sparse/{seed}")
    images = _images(scale.images)
    gt_counts = _spread(rng, *scale.gt_per_image, scale.images)
    det_counts = _spread(rng, *scale.dets_per_image, scale.images)
    main_cats = _spread(rng, 1, len(FRUITS), scale.images)
    n_cats = _spread(rng, 1, 2, scale.images)
    annotations = []
    image_cats = {}
    for img, n_gt, main, n_cat in zip(images, gt_counts, main_cats, n_cats):
        labels = [main] * n_gt
        cats = [main]
        if n_cat == 2:
            other = rng.choice([c for c in range(1, len(FRUITS) + 1) if c != main])
            cats.append(other)
            for k in range(rng.randint(1, (n_gt - 1) // 2)):
                labels[k] = other
            rng.shuffle(labels)
        image_cats[img["id"]] = cats
        for category_id in labels:
            annotations.append(
                {
                    "id": len(annotations) + 1,
                    "image_id": img["id"],
                    "category_id": category_id,
                    "bbox": _random_box(rng),
                    "iscrowd": 1 if rng.random() < 0.02 else 0,
                }
            )
    paths = {
        "annotations": _dump(
            directory / "annotations.json",
            {"images": images, "annotations": annotations, "categories": _categories(len(FRUITS))},
        )
    }
    by_image: dict[int, list[dict]] = {}
    for ann in annotations:
        by_image.setdefault(ann["image_id"], []).append(ann)
    for name, recall, jitter in SPARSE_MODELS:
        preds = []
        for img, n_dets in zip(images, det_counts):
            image_id = img["id"]
            kept = [a for a in by_image.get(image_id, []) if rng.random() < recall][:n_dets]
            for ann in kept:
                preds.append(
                    {
                        "image_id": image_id,
                        "category_id": ann["category_id"],
                        "bbox": _jittered(rng, ann["bbox"], jitter),
                        "score": round(rng.uniform(0.3, 1.0), 3),
                    }
                )
            for _ in range(n_dets - len(kept)):
                if rng.random() < 0.8:
                    category_id = rng.choice(image_cats[image_id])
                else:
                    category_id = rng.randint(1, len(FRUITS))
                preds.append(
                    {
                        "image_id": image_id,
                        "category_id": category_id,
                        "bbox": _random_box(rng),
                        "score": round(rng.uniform(0.0, 0.7), 3),
                    }
                )
        paths[f"predictions_{name}"] = _dump(directory / f"predictions_{name}.json", preds)
    return paths


def rec_dense(directory: Path, seed: int, scale: Scale) -> dict[str, Path]:
    """Few large cells: one category per image, 40-80 ground truth with an
    occlusion attribute, and a fixed number of detections per image (above
    the max_dets cap) repeated under every prompt in ``REC_FILTERS``."""
    rng = random.Random(f"rec-dense/{seed}")
    images = _images(scale.images)
    gt_counts = _spread(rng, *scale.gt_per_image, scale.images)
    image_cat = _spread(rng, 1, len(FRUITS), scale.images)
    annotations = []
    preds = []
    n_dets = scale.dets_per_image[0]
    for img, n_gt, category_id in zip(images, gt_counts, image_cat):
        gts = []
        for _ in range(n_gt):
            gts.append(
                {
                    "id": len(annotations) + 1,
                    "image_id": img["id"],
                    "category_id": category_id,
                    "bbox": _random_box(rng, 12, 64),
                    "iscrowd": 0,
                    "attributes": {"occlusion": rng.choice(OCCLUSION)},
                }
            )
            annotations.append(gts[-1])
        boxes = []
        for ann in gts:
            if rng.random() < 0.85:
                boxes.append((_jittered(rng, ann["bbox"], 0.08), round(rng.uniform(0.4, 1.0), 3)))
        while len(boxes) < n_dets:
            boxes.append((_random_box(rng, 12, 64), round(rng.uniform(0.0, 0.8), 3)))
        for prompt in REC_FILTERS:
            for bbox, score in boxes:
                preds.append(
                    {
                        "image_id": img["id"],
                        "category_id": category_id,
                        "bbox": bbox,
                        "score": score,
                        "prompt": prompt,
                    }
                )
    return {
        "annotations": _dump(
            directory / "annotations.json",
            {"images": images, "annotations": annotations, "categories": _categories(len(FRUITS))},
        ),
        "predictions": _dump(directory / "predictions.json", preds),
        "filters": _dump(directory / "filters.json", REC_FILTERS),
    }


def loss_detr(directory: Path, seed: int, scale: Scale) -> dict[str, Path]:
    """DETR-shaped set matching: a fixed query count per image against
    1-10 ground-truth boxes; a few queries per box sit near it, the rest
    are spread over the image. The images are written as ``scale.shards``
    pairs of annotation and prediction files, one per op."""
    rng = random.Random(f"loss-detr/{seed}")
    images = _images(scale.images)
    gt_counts = _spread(rng, *scale.gt_per_image, scale.images)
    n_queries = scale.dets_per_image[0]
    annotations = []
    preds = []
    for img, n_gt in zip(images, gt_counts):
        gts = []
        for _ in range(n_gt):
            gts.append(
                {
                    "id": len(annotations) + 1,
                    "image_id": img["id"],
                    "category_id": rng.randint(1, len(FRUITS)),
                    "bbox": _random_box(rng, 24, 160),
                    "iscrowd": 0,
                }
            )
            annotations.append(gts[-1])
        near_gt = set(rng.sample(range(n_queries), min(3 * n_gt, n_queries)))
        for q in range(n_queries):
            if q in near_gt:
                ann = rng.choice(gts)
                bbox = _jittered(rng, ann["bbox"], 0.1)
                category_id = ann["category_id"]
                if rng.random() < 0.2:
                    category_id = rng.randint(1, len(FRUITS))
            else:
                bbox = _random_box(rng, 24, 160)
                category_id = rng.randint(1, len(FRUITS))
            preds.append(
                {
                    "image_id": img["id"],
                    "category_id": category_id,
                    "bbox": bbox,
                    "score": round(rng.uniform(0.01, 0.99), 4),
                }
            )
    paths = {}
    per_shard = scale.images // scale.shards
    for k in range(scale.shards):
        ids = {m["id"] for m in images[k * per_shard:(k + 1) * per_shard]}
        paths[f"annotations_{k}"] = _dump(
            directory / f"annotations_{k}.json",
            {
                "images": [m for m in images if m["id"] in ids],
                "annotations": [a for a in annotations if a["image_id"] in ids],
                "categories": _categories(len(FRUITS)),
            },
        )
        paths[f"predictions_{k}"] = _dump(
            directory / f"predictions_{k}.json", [p for p in preds if p["image_id"] in ids]
        )
    return paths
