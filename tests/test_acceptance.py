"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (run with ``-s`` or ``-v``
to see them); a failing criterion fails its test. Tolerances are pinned
here and nowhere else.
"""

import json
import math
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from fruitbench.assignment import CostMatrix, hungarian, set_loss
from fruitbench.cli import main
from fruitbench.datamodel import (
    Category,
    DetectionDataset,
    GroundTruthInstance,
    ImageRecord,
    compute_stats,
    load_coco,
)
from fruitbench.evaluation import (
    DEFAULT_IOU_THRESHOLDS,
    average_precision,
    evaluate,
    match_detections,
)
from fruitbench.geometry import BoundingBox, area, giou, iou
from fruitbench.reporting import load_timing_log, summarize_timing
from fruitbench.splits import (
    majority_category,
    sample_k_shot,
    split_cross_class,
    split_train_test,
)

from .generators import random_eval_instance, scaled, table_of
from .oracles import (
    TokenLogits,
    brute_force_assignment_cost,
    loss_arrays,
    naive_evaluate,
    raster_giou,
    raster_iou,
)
from .test_evaluation import det, gt

DATA = Path(__file__).parent / "data"
SYN30 = DATA / "synthetic30"

# Published statistics of the public multi-fruit corpus, used only when the
# corpus itself is available locally (see FRUITBENCH_METAFRUIT below).
PUBLISHED_STATS = {
    "apple": (812, 62040, 76, 1193),
    "orange": (926, 45834, 49, 1178),
    "lemon": (958, 42238, 44, 823),
    "grapefruit": (490, 12118, 25, 2232),
    "tangerine": (1062, 85785, 81, 1068),
}
PUBLISHED_TOTAL = (4248, 248015, 58, 1133)


def _pass(name: str) -> None:
    print(f"[ACCEPTANCE] {name}: PASS", flush=True)


def make_class_corpus(sizes: dict[str, int]) -> DetectionDataset:
    categories = [Category(i + 1, name) for i, name in enumerate(sizes)]
    images = []
    instances = []
    image_id = 0
    for cat in categories:
        for _ in range(sizes[cat.name]):
            image_id += 1
            images.append(ImageRecord(image_id, f"img{image_id}.jpg", 64, 64))
            instances.append(
                GroundTruthInstance(image_id, image_id, cat.id, BoundingBox(0, 0, 8, 8))
            )
    return DetectionDataset(categories, images, instances)


class TestCriterion1TableReproduction:
    def test_frozen_fixture_reproduces_precomputed_stats(self):
        started = time.monotonic()
        ds, clamped = load_coco(DATA / "fixture_stats" / "annotations.json")
        stats = compute_stats(ds)
        expected = json.loads(
            (DATA / "fixture_stats" / "expected_stats.json").read_text()
        )
        assert clamped == 0
        for row, want in zip(stats.per_category, expected["categories"]):
            assert row.name == want["name"]
            assert row.image_count == want["images"]
            assert row.bbox_count == want["bboxes"]
            assert row.avg_boxes_per_image == want["avg_bboxes_per_image"]
            assert row.avg_instance_area == want["avg_size_per_instance"]
            assert row.region == want["region"]
        total = expected["total"]
        assert stats.total.image_count == total["images"]
        assert stats.total.bbox_count == total["bboxes"]
        assert stats.total.avg_boxes_per_image == total["avg_bboxes_per_image"]
        assert stats.total.avg_instance_area == total["avg_size_per_instance"]
        elapsed = time.monotonic() - started
        assert elapsed < 30.0
        _pass(f"criterion 1 (frozen fixture stats, {elapsed:.2f}s)")

    def test_published_corpus_when_available(self):
        path = os.environ.get("FRUITBENCH_METAFRUIT")
        if not path:
            pytest.skip("set FRUITBENCH_METAFRUIT to the public corpus annotations")
        started = time.monotonic()
        ds, _ = load_coco(path)
        stats = compute_stats(ds)
        mismatches = []
        for row in stats.per_category:
            want = PUBLISHED_STATS.get(row.name.casefold())
            if want is None:
                continue
            got = (
                row.image_count,
                row.bbox_count,
                round(row.avg_boxes_per_image),
                round(row.avg_instance_area),
            )
            if got != want:
                mismatches.append((row.name, got, want))
        got_total = (
            stats.total.image_count,
            stats.total.bbox_count,
            round(stats.total.avg_boxes_per_image),
            round(stats.total.avg_instance_area),
        )
        if got_total != PUBLISHED_TOTAL:
            mismatches.append(("Total", got_total, PUBLISHED_TOTAL))
        elapsed = time.monotonic() - started
        assert elapsed < 30.0
        for name, got, want in mismatches:
            print(f"[ACCEPTANCE] published-corpus discrepancy: {name} {got} != {want}")
        _pass(f"criterion 1 (public corpus, {len(mismatches)} discrepancies, {elapsed:.2f}s)")


class TestCriterion2OracleEquivalence:
    def test_thousand_random_instances_bit_for_bit(self):
        started = time.monotonic()
        rng = random.Random(24601)
        for trial in range(1000):
            ds, dets = random_eval_instance(rng, max_images=5, max_gts=8, max_dets=8)
            split = split_train_test(ds, 0.5, seed=trial)
            report = evaluate(ds, split, table_of(ds, dets))
            oracle = naive_evaluate(ds, split, dets, DEFAULT_IOU_THRESHOLDS, 100)
            for row in report.per_category:
                want = oracle["per_category"][row.category_id]
                assert list(row.per_threshold_ap) == want["per_threshold_ap"], trial
                assert list(row.per_threshold_ar) == want["per_threshold_ar"], trial
                assert row.map == want["mAP"], trial
                assert row.ap50 == want["AP50"], trial
                assert row.mar == want["mAR"], trial
                assert row.num_gt == want["num_gt"], trial
            assert report.mean_ap == oracle["aggregate"]["mAP"], trial
            assert report.mean_ap50 == oracle["aggregate"]["AP50"], trial
            assert report.mean_ar == oracle["aggregate"]["mAR"], trial
        elapsed = time.monotonic() - started
        assert elapsed < 60.0
        _pass(f"criterion 2 (1000 instances vs naive oracle, {elapsed:.2f}s)")


class TestCriterion3ApWorkedExamples:
    def test_two_detection_case(self):
        gts = [gt(1, 1, 1, BoundingBox(0, 0, 10, 10)), gt(2, 1, 1, BoundingBox(40, 40, 60, 60))]
        rows = match_detections(
            [
                det(1, 1, BoundingBox(0, 0, 10, 10), 0.9),
                det(1, 1, BoundingBox(80, 80, 90, 90), 0.8),
            ],
            gts,
            0.5,
        )
        ap = average_precision(rows, total_gt=2)
        assert abs(ap - 51 / 101) <= 1e-12
        _pass("criterion 3 (51/101 two-detection case)")

    def test_reversed_order_case(self):
        gts = [gt(1, 1, 1, BoundingBox(0, 0, 10, 10))]
        rows = match_detections(
            [
                det(1, 1, BoundingBox(80, 80, 90, 90), 0.9),
                det(1, 1, BoundingBox(0, 0, 10, 10), 0.8),
            ],
            gts,
            0.5,
        )
        ap = average_precision(rows, total_gt=1)
        assert abs(ap - 0.5) <= 1e-12
        _pass("criterion 3 (0.5 reversed-order case)")


class TestCriterion4HungarianOptimality:
    def test_ten_thousand_matrices(self):
        started = time.monotonic()
        rng = random.Random(1729)
        for trial in range(10_000):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            matrix = np.array(
                [[float(rng.randint(-9, 20)) for _ in range(cols)] for _ in range(rows)]
            )
            result = hungarian(CostMatrix(matrix))
            assert len(result.pairs) == min(rows, cols), trial
            # Integer-valued costs: float sums are exact, compare exactly.
            assert result.total_cost == brute_force_assignment_cost(matrix), trial
        elapsed = time.monotonic() - started
        assert elapsed < 30.0
        _pass(f"criterion 4 (10,000 matrices vs brute force, {elapsed:.2f}s)")


class TestCriterion5GeometryOracle:
    def test_ten_thousand_box_pairs(self):
        started = time.monotonic()
        rng = random.Random(42)

        def random_int_box():
            x0, x1 = sorted(rng.sample(range(0, 25), 2))
            y0, y1 = sorted(rng.sample(range(0, 25), 2))
            if rng.random() < 0.05:
                x1 = x0  # occasional degenerate boxes
            return BoundingBox(float(x0), float(y0), float(x1), float(y1))

        for trial in range(10_000):
            a = random_int_box()
            b = random_int_box()
            v = iou(a, b)
            assert abs(v - raster_iou(a, b)) <= 1e-9, trial
            assert 0.0 <= v <= 1.0
            assert v == iou(b, a)
            if area(a) > 0 or area(b) > 0:
                g = giou(a, b)
                assert abs(g - raster_giou(a, b)) <= 1e-9, trial
                assert -1.0 < g <= 1.0
                assert g <= v + 1e-12
                assert g == giou(b, a)
                for s in (0.5, 3.0, 7.25):
                    assert giou(scaled(a, s), scaled(b, s)) == pytest.approx(
                        g, rel=1e-12, abs=1e-12
                    )
            for s in (0.5, 3.0, 7.25):
                assert iou(scaled(a, s), scaled(b, s)) == pytest.approx(
                    v, rel=1e-12, abs=1e-12
                )
        elapsed = time.monotonic() - started
        assert elapsed < 30.0
        _pass(f"criterion 5 (10,000 box pairs vs rasterization, {elapsed:.2f}s)")


class TestCriterion6LossComposition:
    def test_perfect_fixture_total_below_tolerance(self):
        boxes = [BoundingBox(10, 10, 30, 30), BoundingBox(50, 50, 70, 80), BoundingBox(0, 0, 5, 5)]
        preds = [
            (b, TokenLogits(tuple(30.0 if t == i else -30.0 for t in range(3))))
            for i, b in enumerate(boxes)
        ]
        gts = [GroundTruthInstance(i + 1, 1, 1, b) for i, b in enumerate(boxes)]
        masks = [[t == i for t in range(3)] for i in range(3)]
        out = set_loss(*loss_arrays(preds, gts, masks), 100, 100)
        assert out.total < 1e-6
        _pass("criterion 6 (saturated-logit fixture)")

    def test_uninformative_logits_cost_ln2_per_token(self):
        b = BoundingBox(10, 10, 30, 30)
        for n_tokens in (1, 3, 7):
            preds = [(b, TokenLogits((0.0,) * n_tokens))]
            gts = [GroundTruthInstance(1, 1, 1, b)]
            masks = [[True] + [False] * (n_tokens - 1)]
            out = set_loss(*loss_arrays(preds, gts, masks), 100, 100)
            assert abs(out.contrastive - math.log(2.0)) <= 1e-9
        _pass("criterion 6 (ln 2 uninformative-logit fixture)")


class TestCriterion7SplitProtocol:
    SIZES = {"apple": 25, "orange": 22, "lemon": 19, "grapefruit": 18, "tangerine": 16}

    def test_exact_floors_on_100_image_corpus(self):
        ds = make_class_corpus(self.SIZES)
        assert len(ds.images) == 100
        result = split_train_test(ds, 0.6, seed=11)
        assignment = majority_category(ds)
        for cat in ds.categories:
            n = self.SIZES[cat.name]
            got = sum(1 for i in result.train_image_ids if assignment[i] == cat.id)
            assert got == (6 * n) // 10  # floor(0.6 * n) with the decimal fraction
        _pass("criterion 7 (exact per-class floors)")

    def test_same_seed_same_digest(self):
        ds = make_class_corpus(self.SIZES)
        digests = {split_train_test(ds, 0.6, seed=99).manifest_digest for _ in range(5)}
        assert len(digests) == 1
        pool = split_train_test(ds, 0.6, seed=99)
        shot_digests = {
            sample_k_shot(ds, pool, 5, seed=99).manifest_digest for _ in range(5)
        }
        assert len(shot_digests) == 1
        _pass("criterion 7 (same-seed digests identical)")

    def test_k_shot_counts(self):
        ds = make_class_corpus({name: 40 for name in self.SIZES})
        pool = split_train_test(ds, 0.6, seed=5)  # 24 train images per class
        assignment = majority_category(ds)
        for k in (1, 5, 10, 20):
            result = sample_k_shot(ds, pool, k, seed=5)
            for cat in ds.categories:
                got = sum(1 for i in result.train_image_ids if assignment[i] == cat.id)
                assert got == k, (k, cat.name)
        _pass("criterion 7 (k-shot draws exactly k per class)")

    def test_cross_class_exclusion_over_100_seeds(self):
        ds = make_class_corpus(self.SIZES)
        assignment = majority_category(ds)
        held = ds.categories[2]
        for seed in range(100):
            result = split_cross_class(ds, held, 0.6, seed)
            assert all(assignment[i] != held.id for i in result.train_image_ids), seed
            assert all(assignment[i] == held.id for i in result.test_image_ids), seed
        _pass("criterion 7 (cross-class exclusion, 100/100 seeds)")


class TestCriterion8TimingConsistency:
    def test_fps_latency_rows(self):
        records = load_timing_log(DATA / "timing.jsonl")
        text = summarize_timing(records, "markdown")
        rows = {
            cells[1]: (cells[2], cells[3])
            for cells in (line.split("|") for line in text.strip().splitlines()[2:])
        }
        rows = {k.strip(): (v[0].strip(), v[1].strip()) for k, v in rows.items()}
        assert rows["detector-fast"] == ("21.9", "45.7")
        assert rows["foundation-tiny"] == ("5.5", "181.8")
        _pass("criterion 8 (FPS/latency rows)")


class TestCriterion9EndToEndTableShape:
    def test_grid_over_bundled_corpus(self, tmp_path, capsys):
        manifest = tmp_path / "split.json"
        code = main(
            [
                "split",
                "--annotations", str(SYN30 / "annotations.json"),
                "--kind", "train-test",
                "--fraction", "0.6",
                "--seed", "77",
                "--out", str(manifest),
            ]
        )
        assert code == 0
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(
            json.dumps(
                {
                    "format": "markdown",
                    "rows": [
                        {
                            "label": label,
                            "manifest": str(manifest),
                            "predictions": str(SYN30 / f"predictions_{label}.json"),
                        }
                        for label in ("perfect", "noisy", "empty")
                    ],
                }
            )
        )
        out_path = tmp_path / "table.md"
        code = main(
            [
                "report",
                "--annotations", str(SYN30 / "annotations.json"),
                "--grid", str(grid_path),
                "--out", str(out_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        table = [[c.strip() for c in line.strip("|").split("|")] for line in lines]
        header, body = table[0], table[2:]
        assert header[0] == "Setting"
        assert len(header) == 1 + 5 * 3  # five categories x (mAP, AP50, mAR)
        by_label = {row[0]: row[1:] for row in body}
        assert all(cell == "100.0" for cell in by_label["perfect"])
        assert all(cell == "0.0" for cell in by_label["empty"])
        for cell in by_label["noisy"]:
            value = float(cell)
            assert 0.0 < value < 100.0
        _pass("criterion 9 (end-to-end table shape)")
