#!/usr/bin/env python3
"""Regenerate the checked-in test fixtures.

Everything is seeded, so reruns are byte-identical. The expected statistics
for the frozen stats corpus are counted here with plain arithmetic,
independently of the library's stats code, and written next to the corpus.

Usage: python3 scripts/generate_fixtures.py [--data-dir tests/data]
"""

import argparse
import json
import random
from pathlib import Path

FRUITS = ["apple", "orange", "lemon", "grapefruit", "tangerine"]


def dump(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def make_stats_corpus(data_dir: Path) -> None:
    """Small frozen corpus plus its independently counted statistics."""
    rng = random.Random(1001)
    categories = [{"id": i + 1, "name": name} for i, name in enumerate(FRUITS[:3])]
    regions = {1: "North", 2: "South", 3: "South"}
    images = []
    annotations = []
    ann_id = 1
    plan = [
        # (image_id, category_id, boxes per image)
        (1, 1, 4), (2, 1, 2), (3, 2, 5), (4, 2, 1), (5, 3, 3),
        (6, 3, 6), (7, 3, 2),
    ]
    for image_id, _, _ in plan:
        images.append(
            {
                "id": image_id,
                "file_name": f"img{image_id:03d}.jpg",
                "width": 320,
                "height": 240,
                "region": regions[((image_id - 1) % 3) + 1],
            }
        )
    # image 2 also carries one orange box: multi-category image.
    extra = [(2, 2, 1)]
    for image_id, category_id, count in plan + extra:
        for _ in range(count):
            w = rng.randint(8, 40)
            h = rng.randint(8, 40)
            x = rng.randint(0, 320 - w)
            y = rng.randint(0, 240 - h)
            annotations.append(
                {
                    "id": ann_id,
                    "image_id": image_id,
                    "category_id": category_id,
                    "bbox": [x, y, w, h],
                    "iscrowd": 0,
                }
            )
            ann_id += 1
    corpus = {"images": images, "annotations": annotations, "categories": categories}
    dump(data_dir / "fixture_stats" / "annotations.json", corpus)

    # Independent counting for the frozen expectations.
    expected = {"categories": [], "total": {}}
    region_of = {m["id"]: m["region"] for m in images}
    for cat in categories:
        cat_anns = [a for a in annotations if a["category_id"] == cat["id"]]
        img_ids = sorted({a["image_id"] for a in cat_anns})
        areas = [a["bbox"][2] * a["bbox"][3] for a in cat_anns]
        expected["categories"].append(
            {
                "name": cat["name"],
                "images": len(img_ids),
                "bboxes": len(cat_anns),
                "avg_bboxes_per_image": len(cat_anns) / len(img_ids),
                "avg_size_per_instance": sum(areas) / len(cat_anns),
                "region": " & ".join(sorted({region_of[i] for i in img_ids})),
            }
        )
    all_areas = [a["bbox"][2] * a["bbox"][3] for a in annotations]
    expected["total"] = {
        "name": "Total",
        "images": len(images),
        "bboxes": len(annotations),
        "avg_bboxes_per_image": len(annotations) / len(images),
        "avg_size_per_instance": sum(all_areas) / len(annotations),
        "region": " & ".join(sorted({m["region"] for m in images})),
    }
    dump(data_dir / "fixture_stats" / "expected_stats.json", expected)


def make_synthetic30(data_dir: Path) -> None:
    """30-image 5-class corpus with perfect / noisy / empty predictions."""
    rng = random.Random(3030)
    categories = [{"id": i + 1, "name": name} for i, name in enumerate(FRUITS)]
    images = []
    annotations = []
    ann_id = 1
    image_id = 0
    for cat in categories:
        for _ in range(6):
            image_id += 1
            images.append(
                {
                    "id": image_id,
                    "file_name": f"img{image_id:03d}.jpg",
                    "width": 640,
                    "height": 480,
                }
            )
            for _ in range(rng.randint(5, 9)):
                w = rng.randint(20, 80)
                h = rng.randint(20, 80)
                x = rng.randint(0, 640 - w)
                y = rng.randint(0, 480 - h)
                annotations.append(
                    {
                        "id": ann_id,
                        "image_id": image_id,
                        "category_id": cat["id"],
                        "bbox": [x, y, w, h],
                        "iscrowd": 0,
                    }
                )
                ann_id += 1
    corpus = {"images": images, "annotations": annotations, "categories": categories}
    dump(data_dir / "synthetic30" / "annotations.json", corpus)

    perfect = [
        {
            "image_id": a["image_id"],
            "category_id": a["category_id"],
            "bbox": a["bbox"],
            "score": 1.0,
        }
        for a in annotations
    ]
    dump(data_dir / "synthetic30" / "predictions_perfect.json", perfect)
    dump(data_dir / "synthetic30" / "predictions_empty.json", [])

    noisy = []
    for a in annotations:
        if rng.random() < 0.25:
            continue  # missed instance: keeps recall strictly below 1
        x, y, w, h = a["bbox"]
        # Jitter keeps most boxes above IoU 0.5 but rarely above 0.9.
        dx = rng.randint(-w // 6, w // 6)
        dy = rng.randint(-h // 6, h // 6)
        dw = rng.randint(-w // 8, w // 8)
        dh = rng.randint(-h // 8, h // 8)
        nx = max(0, min(639, x + dx))
        ny = max(0, min(479, y + dy))
        nw = max(4, w + dw)
        nh = max(4, h + dh)
        nw = min(nw, 640 - nx)
        nh = min(nh, 480 - ny)
        noisy.append(
            {
                "image_id": a["image_id"],
                "category_id": a["category_id"],
                "bbox": [nx, ny, nw, nh],
                "score": round(rng.uniform(0.5, 0.95), 3),
            }
        )
    for _ in range(len(annotations) // 8):
        image = rng.choice(images)
        cat = rng.choice(categories)
        w = rng.randint(20, 60)
        h = rng.randint(20, 60)
        noisy.append(
            {
                "image_id": image["id"],
                "category_id": cat["id"],
                "bbox": [rng.randint(0, 640 - w), rng.randint(0, 480 - h), w, h],
                "score": round(rng.uniform(0.05, 0.6), 3),
            }
        )
    dump(data_dir / "synthetic30" / "predictions_noisy.json", noisy)


def make_timing_log(data_dir: Path) -> None:
    lines = []
    for model, base in (("detector-fast", 45.7), ("foundation-tiny", 181.8)):
        for k in range(24):
            wobble = (0.2, -0.2, 0.4, -0.4)[k % 4]
            lines.append(
                json.dumps(
                    {"model": model, "image_id": k + 1, "latency_ms": round(base + wobble, 2)}
                )
            )
    path = data_dir / "timing.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def verify(data_dir: Path) -> None:
    """Read every written file back through the library's loaders, and
    check the strict-betweenness contract of the noisy predictions on the
    seed-77 split so the bundled files support the end-to-end table test."""
    from fruitbench.datamodel import load_coco, load_predictions
    from fruitbench.evaluation import evaluate
    from fruitbench.reporting import load_timing_log
    from fruitbench.splits import split_train_test

    load_coco(data_dir / "fixture_stats" / "annotations.json")
    timings = load_timing_log(data_dir / "timing.jsonl")
    assert [r.model for r in timings] == ["detector-fast", "foundation-tiny"], timings
    ds, _ = load_coco(data_dir / "synthetic30" / "annotations.json")
    split = split_train_test(ds, 0.6, seed=77)
    for name, lo, hi in (("perfect", 1.0, 1.0), ("noisy", None, None), ("empty", 0.0, 0.0)):
        dets = load_predictions(data_dir / "synthetic30" / f"predictions_{name}.json", ds)
        report = evaluate(ds, split, dets)
        for row in report.per_category:
            values = (row.map, row.ap50, row.mar)
            if lo is not None:
                assert all(v == lo for v in values), (name, row.name, values)
            else:
                assert all(0.0 < v < 1.0 for v in values), (name, row.name, values)
    print("verified synthetic30 prediction contracts")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--data-dir", default=Path(__file__).resolve().parent.parent / "tests" / "data"
    )
    args = parser.parse_args()
    data_dir = Path(args.data_dir)
    make_stats_corpus(data_dir)
    make_synthetic30(data_dir)
    make_timing_log(data_dir)
    verify(data_dir)


if __name__ == "__main__":
    main()
