"""Seeded random builders for small evaluation problems."""

import random

import numpy as np

from fruitbench.datamodel import (
    Category,
    Detection,
    DetectionDataset,
    GroundTruthInstance,
    ImageRecord,
    PredictionTable,
)
from fruitbench.geometry import BoundingBox, corner_array

IMG_SIZE = 32


def random_box(rng: random.Random) -> BoundingBox:
    x0 = rng.randint(0, IMG_SIZE - 2)
    y0 = rng.randint(0, IMG_SIZE - 2)
    x1 = rng.randint(x0 + 1, IMG_SIZE)
    y1 = rng.randint(y0 + 1, IMG_SIZE)
    return BoundingBox(float(x0), float(y0), float(x1), float(y1))


def scaled(box: BoundingBox, s: float) -> BoundingBox:
    """``box`` with every coordinate multiplied by ``s``."""
    return BoundingBox(box.x_min * s, box.y_min * s, box.x_max * s, box.y_max * s)


def random_eval_instance(rng: random.Random, max_images=5, max_gts=8, max_dets=8):
    """A small dataset plus detections with dense IoU structure: boxes on a
    coarse integer grid overlap often, scores come from a small grid so
    ties are frequent, and some ground truth is crowd-flagged."""
    n_images = rng.randint(1, max_images)
    n_cats = rng.randint(1, 3)
    categories = [Category(c + 1, f"cat{c + 1}") for c in range(n_cats)]
    images = [ImageRecord(i + 1, f"img{i + 1}.jpg", IMG_SIZE, IMG_SIZE) for i in range(n_images)]
    instances = []
    for k in range(rng.randint(1, max_gts)):
        instances.append(
            GroundTruthInstance(
                id=k + 1,
                image_id=rng.randint(1, n_images),
                category_id=rng.randint(1, n_cats),
                box=random_box(rng),
                iscrowd=rng.random() < 0.12,
            )
        )
    ds = DetectionDataset(categories, images, instances)
    detections = []
    for _ in range(rng.randint(0, max_dets)):
        if instances and rng.random() < 0.6:
            # Perturb a ground-truth box so thresholds bite at varied IoUs.
            target = rng.choice(instances)
            dx = rng.randint(-3, 3)
            dy = rng.randint(-3, 3)
            x0 = min(max(0.0, target.box.x_min + dx), IMG_SIZE - 1.0)
            y0 = min(max(0.0, target.box.y_min + dy), IMG_SIZE - 1.0)
            x1 = min(float(IMG_SIZE), max(x0 + 1.0, target.box.x_max + dx))
            y1 = min(float(IMG_SIZE), max(y0 + 1.0, target.box.y_max + dy))
            box = BoundingBox(x0, y0, x1, y1)
            image_id = target.image_id
            category_id = target.category_id if rng.random() < 0.8 else rng.randint(1, n_cats)
        else:
            box = random_box(rng)
            image_id = rng.randint(1, n_images)
            category_id = rng.randint(1, n_cats)
        detections.append(
            Detection(
                image_id=image_id,
                category_id=category_id,
                box=box,
                score=rng.randint(1, 9) / 10,  # coarse grid: score ties are common
            )
        )
    return ds, detections


def table_of(ds: DetectionDataset, dets) -> PredictionTable:
    """The ``PredictionTable`` of ``Detection``s whose image and category
    ids ``ds`` holds, one row per detection in order: what
    ``load_predictions`` reads from a file of them."""
    category = {c.id: k for k, c in enumerate(ds.categories)}
    return PredictionTable(
        ds,
        np.array([ds.image_index(d.image_id) for d in dets], dtype=np.int64),
        np.array([category[d.category_id] for d in dets], dtype=np.int64),
        corner_array(d.box for d in dets),
        np.array([d.score for d in dets], dtype=np.float64),
        [d.prompt for d in dets],
    )
