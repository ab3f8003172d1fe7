import builtins
import json
import random
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fruitbench.datamodel import (
    Category,
    Detection,
    DetectionDataset,
    GroundTruthInstance,
    ImageRecord,
    PredictionTable,
    load_coco,
    load_predictions,
)
from fruitbench import evaluation
from fruitbench.errors import IntegrityError, ValidationError
from fruitbench.evaluation import (
    DEFAULT_IOU_THRESHOLDS,
    _BLOCK,
    _match,
    EvalConfig,
    average_precision,
    attribute_predicate,
    evaluate,
    evaluate_rec,
    match_detections,
    report_to_dict,
)
from fruitbench.geometry import BoundingBox, iou, paired_iou
from fruitbench.splits import SplitResult, SplitSpec, split_train_test

from .generators import random_eval_instance, table_of
from .oracles import _naive_ap, compensated_sum, naive_evaluate


def det(image_id, category_id, box, score, prompt=None):
    return Detection(image_id, category_id, box, score, prompt)


def gt(instance_id, image_id, category_id, box, iscrowd=False, attributes=None):
    return GroundTruthInstance(
        instance_id, image_id, category_id, box, attributes or {}, iscrowd
    )


B = BoundingBox


def single_image_dataset(gts, n_cats=1, size=100):
    categories = [Category(c + 1, f"cat{c + 1}") for c in range(n_cats)]
    images = [ImageRecord(1, "a.jpg", size, size)]
    return DetectionDataset(categories, images, list(gts))


def corners(boxes):
    return np.array([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes], dtype=np.float64)


class TestIouMatrix:
    SPECIAL = [
        B(0, 0, 10, 10),
        B(10, 0, 20, 10),  # touches the first along an edge
        B(10, 10, 20, 20),  # touches it at a corner
        B(2, 2, 8, 8),  # nested in it
        B(0, 0, 10, 10),  # identical to it
        B(5, 0, 5, 10),  # zero width
        B(0, 5, 10, 5),  # zero height
        B(3, 3, 3, 3),  # a point
        B(3, 3, 3, 3),  # the same point: empty union
        B(0.1, 0.2, 0.30000000000000004, 0.7),
        B(-1e6, -1e6, 1e6, 1e6),
        B(1e-300, 1e-300, 3e-300, 2e-300),
    ]

    def assert_bitwise_equal(self, a, b):
        got = paired_iou(corners(a).T[:, :, None], corners(b).T)
        assert got.shape == (len(a), len(b))
        for i, box_a in enumerate(a):
            for j, box_b in enumerate(b):
                assert float(got[i, j]).hex() == iou(box_a, box_b).hex(), (box_a, box_b)

    def test_special_boxes_match_scalar_iou(self):
        self.assert_bitwise_equal(self.SPECIAL, self.SPECIAL)

    def test_random_boxes_match_scalar_iou(self):
        rng = random.Random(5)
        for scale in (1.0, 37.3, 1e-3, 4096.0):
            boxes = []
            for _ in range(60):
                x0, x1 = sorted(rng.uniform(0, scale) for _ in range(2))
                y0, y1 = sorted(rng.uniform(0, scale) for _ in range(2))
                boxes.append(B(x0, y0, x1, y1))
            self.assert_bitwise_equal(boxes, boxes[:40] + self.SPECIAL)


class TestMatchDetections:
    def test_perfect_iou_is_tp(self):
        g = [gt(1, 1, 1, B(0, 0, 10, 10))]
        d = [det(1, 1, B(0, 0, 10, 10), 0.9)]
        rows = match_detections(d, g, 0.5)
        assert rows[0].is_tp and rows[0].gt_instance_id == 1

    def test_greedy_by_score_takes_best_gt(self):
        g = [gt(1, 1, 1, B(0, 0, 20, 20))]
        d = [
            det(1, 1, B(0, 0, 19, 20), 0.8),   # IoU 0.95
            det(1, 1, B(0, 0, 18, 20), 0.9),   # IoU 0.9
        ]
        rows = match_detections(d, g, 0.5)
        # score 0.9 goes first and takes the only gt; 0.8 becomes FP
        assert [r.detection.score for r in rows] == [0.9, 0.8]
        assert rows[0].is_tp and not rows[1].is_tp

    def test_threshold_boundary_is_inclusive(self):
        g = [gt(1, 1, 1, B(0, 0, 20, 20))]
        d = [det(1, 1, B(0, 0, 20, 9), 0.9)]  # IoU 0.45
        assert not match_detections(d, g, 0.5)[0].is_tp
        assert match_detections(d, g, 0.4)[0].is_tp
        assert match_detections(d, g, 0.45)[0].is_tp

    def test_gt_matched_at_most_once(self):
        g = [gt(1, 1, 1, B(0, 0, 10, 10))]
        d = [det(1, 1, B(0, 0, 10, 10), 0.9), det(1, 1, B(0, 0, 10, 10), 0.8)]
        rows = match_detections(d, g, 0.5)
        assert [r.is_tp for r in rows] == [True, False]

    def test_crowd_matches_are_ignored_rows(self):
        g = [gt(1, 1, 1, B(0, 0, 30, 30), iscrowd=True)]
        d = [det(1, 1, B(0, 0, 30, 30), 0.9), det(1, 1, B(0, 0, 28, 30), 0.8)]
        rows = match_detections(d, g, 0.5)
        assert all(r.ignored and not r.is_tp for r in rows)

    def test_non_crowd_preferred_over_crowd(self):
        g = [
            gt(1, 1, 1, B(0, 0, 30, 30), iscrowd=True),
            gt(2, 1, 1, B(2, 2, 28, 28)),
        ]
        d = [det(1, 1, B(2, 2, 28, 28), 0.9)]
        rows = match_detections(d, g, 0.5)
        assert rows[0].is_tp and rows[0].gt_instance_id == 2

    @pytest.mark.parametrize("threshold", [0.0, 1.5, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        g = [gt(1, 1, 1, B(0, 0, 10, 10))]
        d = [det(1, 1, B(0, 0, 10, 10), 0.9)]
        with pytest.raises(ValidationError, match=r"^IoU thresholds must lie in \(0, 1\], got "):
            match_detections(d, g, threshold)


@st.composite
def jittered_cells(draw):
    """A dataset whose cells hold several detections jittered around few
    ground-truth boxes on an integer grid, so IoUs and scores tie often,
    plus crowd regions overlapping them; and its detections."""
    n_images, n_cats = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    small = st.integers(-2, 2)
    instances, dets = [], []
    for image in range(1, n_images + 1):
        anchors = draw(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20),
                                          st.integers(2, 8), st.integers(2, 8)),
                                min_size=1, max_size=3))
        for x, y, w, h in anchors:
            category = draw(st.integers(1, n_cats))
            for _ in range(draw(st.integers(0, 3))):
                dx, dy = draw(small), draw(small)
                box = B(x + dx + 2, y + dy + 2, x + dx + w + 2, y + dy + h + 2)
                instances.append(gt(len(instances) + 1, image, category, box))
            for grow in draw(st.lists(st.integers(0, 2), max_size=2)):  # crowd regions
                box = B(x + 2 - grow, y + 2 - grow, x + w + 2 + grow, y + h + 2 + grow)
                instances.append(gt(len(instances) + 1, image, category, box, iscrowd=True))
            for _ in range(draw(st.integers(0, 5))):
                dx, dy, dw = draw(small), draw(small), draw(st.integers(0, 1))
                box = B(x + dx + 2, y + dy + 2, x + dx + w + dw + 2, y + dy + h + 2)
                dets.append(det(image, category, box, draw(st.sampled_from([0.3, 0.5, 0.9]))))
    categories = [Category(c, f"cat{c}") for c in range(1, n_cats + 1)]
    images = [ImageRecord(i, f"{i}.jpg", 40, 40) for i in range(1, n_images + 1)]
    return DetectionDataset(categories, images, instances), dets


class TestArrayMatcher:
    """The matcher of every cell at every threshold at once: rows without
    a contested column in one pass, contested ones stepped, columns built
    in bounded blocks."""

    @settings(max_examples=300, deadline=None)
    @given(case=jittered_cells())
    def test_agrees_with_the_naive_oracle(self, case):
        ds, dets = case
        test_ids = tuple(m.id for m in ds.images)
        split = SplitResult((), test_ids, SplitSpec("train-test", 1, 0.5), "")
        thresholds = (0.1, 0.5, 0.95)
        report = evaluate(ds, split, table_of(ds, dets), EvalConfig(thresholds, max_dets=3))
        expected = naive_evaluate(ds, split, dets, thresholds, 3)
        assert oracle_fields(report) == expected

    def test_contested_column_goes_to_the_higher_score(self):
        a = corners([B(0, 0, 10, 10), B(1, 0, 11, 10), B(20, 0, 30, 10)]).T
        b = corners([B(0, 0, 10, 10), B(2, 0, 12, 10), B(20, 0, 30, 10)]).T
        cells = np.array([[0], [3], [0], [3]])
        hit = _match(a, b, np.zeros(3, dtype=bool), cells, (0.5, 0.7, 0.9))
        # Row 1 ties on IoU 9/11 between columns 0 and 1; row 0 took column 0.
        assert hit.tolist() == [[0, 1, 2], [0, 1, 2], [0, -1, 2]]

    def test_rows_spanning_blocks_agree_with_the_oracle(self):
        """A cell of boxes stacked along y, in shuffled id order: every one
        overlaps every detection along x, so a row's columns fill several
        blocks, and the boxes near a detection lie in different ones."""
        rng = random.Random(5)
        n_gt = 2 * _BLOCK + 50
        place = rng.sample(range(n_gt), n_gt)
        instances = [
            gt(k + 1, 1, 1, B(0, 2 * place[k], 10, 2 * place[k] + 10), iscrowd=k % 7 == 3)
            for k in range(n_gt)
        ]
        dets = []
        for _ in range(12):
            y = 2 * rng.randrange(n_gt) + rng.randint(-2, 2)
            dets.append(det(1, 1, B(rng.randint(0, 1), y, 10, y + 10), rng.randint(1, 4) / 4))
        image = ImageRecord(1, "a.jpg", 20, 2 * n_gt + 20)
        ds = DetectionDataset([Category(1, "pear")], [image], instances)
        split = SplitResult((), (1,), SplitSpec("train-test", 1, 0.5), "")
        thresholds = (0.3, 0.5, 0.7)
        report = evaluate(ds, split, table_of(ds, dets), EvalConfig(thresholds))
        assert oracle_fields(report) == naive_evaluate(ds, split, dets, thresholds, 100)

    def test_a_row_cut_block_by_block_tries_non_crowd_columns_first(self):
        """Every pair of this cell is a candidate, and each row's candidates
        are cut block by block: crowd copies of the box fill a row's first
        block, non-crowd ones the next two."""
        n_gt = 2 * _BLOCK + 50
        instances = [gt(k + 1, 1, 1, B(0, 0, 10, 10), iscrowd=k < _BLOCK) for k in range(n_gt)]
        ds = DetectionDataset([Category(1, "pear")], [ImageRecord(1, "a.jpg", 20, 20)], instances)
        dets = [det(1, 1, B(0, 0, 10, 10), 0.5) for _ in range(5)]
        split = SplitResult((), (1,), SplitSpec("train-test", 1, 0.5), "")
        report = evaluate(ds, split, table_of(ds, dets))
        assert report.per_category[0].per_threshold_ar == (5 / (n_gt - _BLOCK),) * 10

    @staticmethod
    def identical_cell(n_gt: int):
        """One image, one category: 100 identical detections on ``n_gt``
        identical ground-truth boxes."""
        categories, images = [Category(1, "apple")], [ImageRecord(1, "a.jpg", 100, 100)]
        boxes = np.tile([10.0, 10.0, 30.0, 30.0], (n_gt, 1))
        ds, _ = DetectionDataset.from_columns(
            categories, images, list(range(1, n_gt + 1)), [1] * n_gt, [1] * n_gt, boxes,
            [False] * n_gt, [None] * n_gt,
        )
        rows = np.zeros(100, dtype=np.int64)
        scores = np.full(100, 0.5)
        table = PredictionTable(ds, rows, rows, boxes[:100].copy(), scores, [None] * 100)
        return ds, table

    def test_memory_is_bounded_on_a_degenerate_cell(self):
        """Every pair of a 100 x 100k cell reaches every threshold; the
        matcher keeps at most a row's rank + 1 columns and builds the IoU in
        blocks, so its peak stays far below the 8 MB of one (D, G) array."""
        results = []
        for n_gt in (1_000, 100_000):
            ds, table = self.identical_cell(n_gt)
            split = SplitResult((), (1,), SplitSpec("train-test", 1, 0.5), "")
            tracemalloc.start()
            try:
                report = evaluate(ds, split, table)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 24 * 2**20
            assert report.per_category[0].per_threshold_ar == (100 / n_gt,) * 10
            a, b = ds.gt_boxes[:100].T, np.ascontiguousarray(ds.gt_boxes.T)
            cells = np.array([[0], [100], [0], [n_gt]])
            results.append(_match(a, b, ds.gt_crowd, cells, DEFAULT_IOU_THRESHOLDS))
        assert (results[0] == results[1]).all()
        assert (results[0] == np.arange(100)).all()


class TestEvalConfig:
    def test_thresholds_strictly_ascending(self):
        assert EvalConfig((0.5, 0.9)).iou_thresholds == (0.5, 0.9)
        with pytest.raises(ValidationError, match=r"^IoU threshold 0\.5 is listed twice$"):
            EvalConfig((0.5, 0.5, 0.9))
        with pytest.raises(ValidationError, match="^IoU thresholds must be ascending$"):
            EvalConfig((0.9, 0.5, 0.5))

    @pytest.mark.parametrize("thresholds", [(), (0.0,), (1.5,), (0.5, float("nan"))])
    def test_empty_or_out_of_range_thresholds_rejected(self, thresholds):
        with pytest.raises(ValidationError, match="IoU threshold"):
            EvalConfig(thresholds)


class TestAveragePrecision:
    def test_single_tp(self):
        g = [gt(1, 1, 1, B(0, 0, 10, 10))]
        rows = match_detections([det(1, 1, B(0, 0, 10, 10), 0.9)], g, 0.5)
        ap = average_precision(rows, total_gt=1)
        assert ap == pytest.approx(1.0, abs=1e-12)

    def test_two_gt_one_tp_one_fp(self):
        g = [gt(1, 1, 1, B(0, 0, 10, 10)), gt(2, 1, 1, B(40, 40, 60, 60))]
        rows = match_detections(
            [
                det(1, 1, B(0, 0, 10, 10), 0.9),
                det(1, 1, B(80, 80, 90, 90), 0.8),
            ],
            g,
            0.5,
        )
        ap = average_precision(rows, total_gt=2)
        assert ap == pytest.approx(51 / 101, abs=1e-12)

    def test_fp_before_tp(self):
        g = [gt(1, 1, 1, B(0, 0, 10, 10))]
        rows = match_detections(
            [
                det(1, 1, B(80, 80, 90, 90), 0.9),
                det(1, 1, B(0, 0, 10, 10), 0.8),
            ],
            g,
            0.5,
        )
        ap = average_precision(rows, total_gt=1)
        assert ap == pytest.approx(0.5, abs=1e-12)

    def test_no_gt_no_dets_absent(self):
        assert average_precision([], total_gt=0) is None

    def test_no_gt_with_dets_zero(self):
        rows = match_detections([det(1, 1, B(0, 0, 5, 5), 0.5)], [], 0.5)
        ap = average_precision(rows, total_gt=0)
        assert ap == 0.0

    def test_envelope_matches_the_naive_sweep(self):
        """The right envelope, sampled at the 101 recall levels, is the
        naive sweep's bit for bit, tied scores included."""
        rng = random.Random(3)
        for _ in range(30):
            g = [gt(k + 1, 1, 1, B(4 * k, 0, 4 * k + 3, 3)) for k in range(rng.randint(1, 5))]
            dets = []
            for _ in range(rng.randint(1, 6)):
                x0 = 4 * rng.randint(0, 4)
                dets.append(det(1, 1, B(x0, 0, x0 + 3, 3), rng.randint(1, 9) / 10))
            rows = match_detections(dets, g, 0.5)
            flags = ["crowd" if r.ignored else "tp" if r.is_tp else "fp" for r in rows]
            sweep = [(flag, r.detection.score) for flag, r in zip(flags, rows)]
            assert average_precision(rows, total_gt=len(g)) == _naive_ap(sweep, len(g))


def perfect_detections(ds, image_ids=None):
    ids = set(image_ids) if image_ids is not None else {m.id for m in ds.images}
    return [
        det(a.image_id, a.category_id, a.box, 1.0)
        for a in ds.instances
        if a.image_id in ids and not a.iscrowd
    ]


class TestEvaluate:
    def make_corpus(self, n_per_cat=4):
        categories = [Category(1, "apple"), Category(2, "orange")]
        images = []
        instances = []
        next_inst = 1
        for i in range(2 * n_per_cat):
            images.append(ImageRecord(i + 1, f"img{i}.jpg", 100, 100))
            cat = 1 if i < n_per_cat else 2
            for k in range(2):
                instances.append(
                    gt(next_inst, i + 1, cat, B(10 * k, 10 * k, 10 * k + 8, 10 * k + 8))
                )
                next_inst += 1
        return DetectionDataset(categories, images, instances)

    def test_perfect_detector(self):
        ds = self.make_corpus()
        split = split_train_test(ds, 0.5, seed=1)
        report = evaluate(ds, split, table_of(ds, perfect_detections(ds)))
        assert report.mean_ap == pytest.approx(1.0, abs=1e-12)
        assert report.mean_ap50 == pytest.approx(1.0, abs=1e-12)
        assert report.mean_ar == pytest.approx(1.0, abs=1e-12)

    def test_no_detections(self):
        ds = self.make_corpus()
        split = split_train_test(ds, 0.5, seed=1)
        report = evaluate(ds, split, table_of(ds, []))
        for row in report.per_category:
            assert row.map == 0.0 and row.ap50 == 0.0 and row.mar == 0.0

    def test_empty_test_split_rejected(self):
        ds = self.make_corpus()
        split = split_train_test(ds, 0.5, seed=1)
        broken = type(split)(
            train_image_ids=split.train_image_ids,
            test_image_ids=(),
            spec=split.spec,
            manifest_digest="x",
        )
        with pytest.raises(ValidationError, match="empty test split"):
            evaluate(ds, broken, table_of(ds, []))

    def test_out_of_split_detections_counted(self):
        ds = self.make_corpus()
        split = split_train_test(ds, 0.5, seed=1)
        dets = table_of(ds, perfect_detections(ds))  # includes train images
        report = evaluate(ds, split, dets)
        assert report.num_detections_ignored == len(dets) - report.num_detections_used
        assert report.num_detections_ignored > 0

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(20250811)
        for _ in range(60):
            ds, dets = random_eval_instance(rng)
            split = split_train_test(ds, 0.5, seed=7)
            config = EvalConfig()
            report = evaluate(ds, split, table_of(ds, dets), config)
            oracle = naive_evaluate(
                ds, split, dets, DEFAULT_IOU_THRESHOLDS, config.max_dets
            )
            for row in report.per_category:
                expected = oracle["per_category"][row.category_id]
                assert list(row.per_threshold_ap) == expected["per_threshold_ap"]
                assert list(row.per_threshold_ar) == expected["per_threshold_ar"]
                assert row.map == expected["mAP"]
                assert row.ap50 == expected["AP50"]
                assert row.mar == expected["mAR"]
            assert report.mean_ap == oracle["aggregate"]["mAP"]
            assert report.mean_ap50 == oracle["aggregate"]["AP50"]
            assert report.mean_ar == oracle["aggregate"]["mAR"]

    def test_dense_cells_match_scalar_oracle(self):
        """Cells of the dense-orchard size (100 kept detections x 80 ground
        truth) with IoU ties, a coarse score grid (score ties) and crowd
        regions, scored against the scalar composition ``iou`` -> greedy
        loop -> naive sweep, bit for bit."""
        rng = random.Random(42)
        size = 64
        categories = [Category(1, "apple"), Category(2, "pear")]
        images = [ImageRecord(i, f"img{i}.jpg", size, size) for i in (1, 2)]

        def grid_box(lo, hi, margin=0):
            w, h = rng.randint(lo, hi), rng.randint(lo, hi)
            x, y = rng.randint(margin, size - w - margin), rng.randint(margin, size - h - margin)
            return B(x, y, x + w, y + h)

        def shifted(box, dx):
            return B(box.x_min + dx, box.y_min, box.x_max + dx, box.y_max)

        instances = []
        detections = []
        for image in images:
            for cat in categories:

                def add_gt(box, iscrowd=False):
                    instances.append(gt(len(instances) + 1, image.id, cat.id, box, iscrowd=iscrowd))

                def add_det(box):
                    detections.append(det(image.id, cat.id, box, rng.randint(1, 9) / 10))

                # Twins: two ground-truth boxes shifted left and right of a
                # detection tie on IoU, and which one it takes decides
                # whether a second detection next to the left twin matches.
                for _ in range(20):
                    centre, s = grid_box(6, 16, margin=4), rng.randint(1, 3)
                    add_gt(shifted(centre, -s))
                    add_gt(shifted(centre, s))
                    add_det(centre)
                    add_det(shifted(centre, -s - 1))
                # Repeated boxes, some of them crowd regions.
                shapes = [grid_box(4, 20) for _ in range(25)]
                others = [rng.choice(shapes) for _ in range(40)]
                for box in others:
                    add_gt(box, iscrowd=rng.random() < 0.15)
                for _ in range(80):  # 120 in all, so the max_dets cap applies
                    if rng.random() < 0.7:
                        base = rng.choice(others)
                        dx, dy = rng.randint(-2, 2), rng.randint(-2, 2)
                        add_det(B(
                            max(base.x_min + dx, 0), max(base.y_min + dy, 0),
                            max(base.x_max + dx, 0), max(base.y_max + dy, 0),
                        ))
                    else:
                        add_det(grid_box(0, 24))
        ds = DetectionDataset(categories, images, instances)
        split = type(split_train_test(ds, 0.5, seed=1))(
            train_image_ids=(),
            test_image_ids=(1, 2),
            spec=split_train_test(ds, 0.5, seed=1).spec,
            manifest_digest="dense",
        )
        cell_dets = sorted(
            [d for d in detections if (d.image_id, d.category_id) == (1, 1)], key=lambda d: -d.score
        )[:100]
        cell_gts = [g for g in ds.instances_for_image(1) if g.category_id == 1]
        # The data must exercise what it is meant to: IoU ties between
        # non-crowd ground truth and matches on crowd regions.
        tied = 0
        for d in cell_dets:
            values = [iou(d.box, g.box) for g in cell_gts if not g.iscrowd]
            tied += values.count(max(values)) > 1 and max(values) >= 0.5
        assert tied >= 10
        assert any(r.ignored for r in match_detections(cell_dets, cell_gts, 0.5))

        report = evaluate(ds, split, table_of(ds, detections))
        oracle = naive_evaluate(ds, split, detections, DEFAULT_IOU_THRESHOLDS, 100)
        for row in report.per_category:
            expected = oracle["per_category"][row.category_id]
            assert row.num_detections == 200
            assert row.num_gt == expected["num_gt"]
            assert list(row.per_threshold_ap) == expected["per_threshold_ap"]
            assert list(row.per_threshold_ar) == expected["per_threshold_ar"]
            assert (row.map, row.ap50, row.mar) == (
                expected["mAP"], expected["AP50"], expected["mAR"]
            )
        assert (report.mean_ap, report.mean_ap50, report.mean_ar) == (
            oracle["aggregate"]["mAP"], oracle["aggregate"]["AP50"], oracle["aggregate"]["mAR"]
        )

    def test_max_dets_cap_matches_oracle(self):
        rng = random.Random(4)
        for _ in range(20):
            ds, dets = random_eval_instance(rng)
            split = split_train_test(ds, 0.5, seed=2)
            config = EvalConfig(max_dets=1)
            report = evaluate(ds, split, table_of(ds, dets), config)
            oracle = naive_evaluate(ds, split, dets, DEFAULT_IOU_THRESHOLDS, 1)
            for row in report.per_category:
                expected = oracle["per_category"][row.category_id]
                assert list(row.per_threshold_ap) == expected["per_threshold_ap"]
                assert row.mar == expected["mAR"]

    def test_threshold_monotonicity(self):
        rng = random.Random(17)
        for _ in range(40):
            ds, dets = random_eval_instance(rng, max_images=3, max_gts=6, max_dets=6)
            split = split_train_test(ds, 0.5, seed=5)
            report = evaluate(ds, split, table_of(ds, dets))
            for row in report.per_category:
                aps = [v for v in row.per_threshold_ap if v is not None]
                for k in range(len(aps) - 1):
                    assert aps[k] >= aps[k + 1] - 1e-12

    def test_score_scale_invariance(self):
        rng = random.Random(23)
        ds, dets = random_eval_instance(rng, max_dets=8)
        split = split_train_test(ds, 0.5, seed=5)
        base = evaluate(ds, split, table_of(ds, dets))
        squashed = [
            Detection(d.image_id, d.category_id, d.box, d.score**3, d.prompt) for d in dets
        ]
        transformed = evaluate(ds, split, table_of(ds, squashed))
        for a, b in zip(base.per_category, transformed.per_category):
            assert a.per_threshold_ap == b.per_threshold_ap
            assert a.per_threshold_ar == b.per_threshold_ar

    def test_lowest_scored_far_fp_never_raises_ap(self):
        rng = random.Random(31)
        for _ in range(20):
            ds, dets = random_eval_instance(rng, max_dets=6)
            split = split_train_test(ds, 0.5, seed=5)
            test_ids = list(split.test_image_ids)
            base = evaluate(ds, split, table_of(ds, dets))
            junk = Detection(test_ids[0], 1, B(0.25, 0.25, 0.75, 0.75), 0.05)
            spiked = evaluate(ds, split, table_of(ds, dets + [junk]))
            for a, b in zip(base.per_category, spiked.per_category):
                if a.map is not None and b.map is not None:
                    assert b.map <= a.map + 1e-12

    def test_ap50_bounds_map(self):
        rng = random.Random(37)
        for _ in range(20):
            ds, dets = random_eval_instance(rng)
            split = split_train_test(ds, 0.5, seed=5)
            report = evaluate(ds, split, table_of(ds, dets))
            for row in report.per_category:
                if row.map is not None and row.ap50 is not None:
                    assert row.ap50 >= row.map - 1e-12

    def test_report_dict_shape(self):
        ds = self.make_corpus()
        split = split_train_test(ds, 0.5, seed=1)
        payload = report_to_dict(evaluate(ds, split, table_of(ds, perfect_detections(ds))))
        assert set(payload["aggregate"]) == {"mAP", "AP50", "mAR"}
        assert payload["split_digest"] == split.manifest_digest
        assert "apple" in payload["per_category"]
        assert len(payload["per_category"]["apple"]["per_threshold_AP"]) == 10


class TestEvaluateRec:
    def make_rec_corpus(self):
        categories = [Category(1, "apple")]
        images = [ImageRecord(1, "a.jpg", 100, 100), ImageRecord(2, "b.jpg", 100, 100)]
        instances = [
            gt(1, 1, 1, B(0, 0, 10, 10), attributes={"occlusion": "none"}),
            gt(2, 1, 1, B(20, 20, 30, 30), attributes={"occlusion": "branch"}),
            gt(3, 2, 1, B(0, 0, 10, 10), attributes={"occlusion": "leaf"}),
            gt(4, 2, 1, B(40, 40, 50, 50), attributes={"occlusion": "none"}),
        ]
        return DetectionDataset(categories, images, instances)

    def split_all_test(self, ds):
        return type(split_train_test(ds, 0.5, seed=1))(
            train_image_ids=(),
            test_image_ids=tuple(m.id for m in ds.images),
            spec=split_train_test(ds, 0.5, seed=1).spec,
            manifest_digest="test-all",
        )

    def test_identity_filter_matches_plain_evaluate(self):
        ds = self.make_rec_corpus()
        split = self.split_all_test(ds)
        dets = [
            det(a.image_id, a.category_id, a.box, 1.0, prompt="apple") for a in ds.instances
        ]
        reports = evaluate_rec(ds, split, table_of(ds, dets), {"apple": lambda attrs: True})
        plain = evaluate(ds, split, table_of(ds, [
            det(a.image_id, a.category_id, a.box, 1.0) for a in ds.instances
        ]))
        assert reports[0].prompt == "apple"
        assert reports[0].per_category == plain.per_category

    def test_branch_occluded_detection_becomes_fp(self):
        ds = self.make_rec_corpus()
        split = self.split_all_test(ds)
        prompt = "apple without occlusion by branch"
        predicate = attribute_predicate({"attribute": "occlusion", "not_in": ["branch"]})
        dets = [
            det(a.image_id, a.category_id, a.box, 0.9, prompt=prompt) for a in ds.instances
        ]  # includes a box on the branch-occluded instance
        (report,) = evaluate_rec(ds, split, table_of(ds, dets), {prompt: predicate})
        row = report.per_category[0]
        assert row.num_gt == 3  # branch instance filtered out
        assert row.ap50 < 1.0  # the branch-box detection scores as FP

    def test_unknown_prompt_rejected(self):
        ds = self.make_rec_corpus()
        split = self.split_all_test(ds)
        dets = [det(1, 1, B(0, 0, 10, 10), 0.9, prompt="mystery")]
        with pytest.raises(ValidationError, match="mystery"):
            evaluate_rec(ds, split, table_of(ds, dets), {"apple": lambda attrs: True})

    def test_empty_filtered_gt_absent_metrics(self):
        ds = self.make_rec_corpus()
        split = self.split_all_test(ds)
        predicate = attribute_predicate({"attribute": "occlusion", "equals": "wire"})
        (report,) = evaluate_rec(ds, split, table_of(ds, []), {"apple on a wire": predicate})
        assert report.per_category[0].map is None
        assert report.mean_ap is None


def write_predictions(path, dets):
    records = [
        {
            "image_id": d.image_id,
            "category_id": d.category_id,
            "bbox": [d.box.x_min, d.box.y_min, d.box.width, d.box.height],
            "score": d.score,
            **({} if d.prompt is None else {"prompt": d.prompt}),
        }
        for d in dets
    ]
    path.write_text(json.dumps(records))
    return path


def oracle_fields(report):
    """A report in the shape of ``naive_evaluate``'s result."""
    return {
        "per_category": {
            row.category_id: {
                "per_threshold_ap": list(row.per_threshold_ap),
                "per_threshold_ar": list(row.per_threshold_ar),
                "mAP": row.map,
                "AP50": row.ap50,
                "mAR": row.mar,
                "num_gt": row.num_gt,
            }
            for row in report.per_category
        },
        "aggregate": {"mAP": report.mean_ap, "AP50": report.mean_ap50, "mAR": report.mean_ar},
    }


class TestPredictionTable:
    """Scoring a ``PredictionTable`` read from a file against scoring the
    table of its ``Detection`` views, the naive oracle, and metamorphic
    variants."""

    def instances(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            ds, dets = random_eval_instance(rng, max_images=6, max_gts=10, max_dets=14)
            yield rng, ds, dets, split_train_test(ds, 0.5, seed=rng.randrange(2**32))

    def test_table_and_list_agree_with_the_oracle(self, tmp_path):
        for _, ds, dets, split in self.instances(31, 80):
            table = load_predictions(write_predictions(tmp_path / "p.json", dets), ds)
            for max_dets in (100, 2):
                config = EvalConfig(max_dets=max_dets)
                report = evaluate(ds, split, table, config)
                assert report == evaluate(ds, split, table_of(ds, list(table)), config)
                assert oracle_fields(report) == naive_evaluate(
                    ds, split, list(table), DEFAULT_IOU_THRESHOLDS, max_dets
                )

    def test_rec_table_and_list_agree_with_the_oracle(self, tmp_path):
        """Every prompt, including one no detection carries and one whose
        filter accepts no ground truth, is scored as the oracle scores its
        detections against its filtered ground truth."""
        filters = {
            "any": attribute_predicate({"any": True}),
            "even": lambda attrs: attrs.get("parity") == "even",
            "occluded": attribute_predicate({"attribute": "occlusion", "in": ["leaf", "branch"]}),
            "nothing": lambda attrs: False,
            "unused": attribute_predicate({"any": True}),
        }
        configs = (EvalConfig(), EvalConfig(iou_thresholds=(0.1, 0.5, 0.95), max_dets=2))
        for rng, ds, dets, split in self.instances(32, 40):
            ds = DetectionDataset(ds.categories, ds.images, [
                replace(g, attributes={
                    "parity": ("even", "odd")[g.id % 2],
                    **({} if rng.random() < 0.3 else {
                        "occlusion": rng.choice(["leaf", "branch", "none"])
                    }),
                })
                for g in ds.instances
            ])
            prompts = ["any", "even", "nothing", "occluded"]
            dets = [replace(d, prompt=rng.choice(prompts)) for d in dets]
            table = load_predictions(write_predictions(tmp_path / "p.json", dets), ds)
            for config in configs:
                reports = evaluate_rec(ds, split, table, filters, config)
                assert [r.prompt for r in reports] == sorted(filters)
                assert reports == evaluate_rec(ds, split, table_of(ds, list(table)), filters, config)
                for report in reports:
                    keep = filters[report.prompt]
                    filtered = DetectionDataset(
                        list(ds.categories), list(ds.images),
                        [g for g in ds.instances if keep(g.attributes)],
                    )
                    prompt_dets = [d for d in table if d.prompt == report.prompt]
                    assert oracle_fields(report) == naive_evaluate(
                        filtered, split, prompt_dets, config.iou_thresholds, config.max_dets
                    )
                    in_test = [d for d in prompt_dets if d.image_id in split.test_image_ids]
                    assert report.num_detections_used == len(in_test)
                    assert report.num_detections_ignored == len(prompt_dets) - len(in_test)

    def test_rec_matches_every_prompt_in_one_call(self, tmp_path, monkeypatch):
        """``evaluate_rec`` matches the cells of all its prompts in one
        ``_match`` call."""
        calls = []

        def counted(*args):
            calls.append(args)
            return _match(*args)

        monkeypatch.setattr(evaluation, "_match", counted)
        ds = TestEvaluate().make_corpus()
        split = split_train_test(ds, 0.5, seed=1)
        prompts = ("a", "b", "c")
        dets = [replace(d, prompt=prompts[k % 3]) for k, d in enumerate(perfect_detections(ds))]
        table = load_predictions(write_predictions(tmp_path / "p.json", dets), ds)
        reports = evaluate_rec(ds, split, table, dict.fromkeys(prompts, lambda attrs: True))
        assert [r.prompt for r in reports] == list(prompts) and len(calls) == 1

    def test_rec_rejects_the_first_bad_prompt_in_input_order(self, tmp_path):
        ds = single_image_dataset([gt(1, 1, 1, B(0, 0, 10, 10))])
        split = TestEvaluateRec().split_all_test(ds)
        dets = [det(1, 1, B(0, 0, 5, 5), 0.5, prompt) for prompt in ("a", "zz", None, "yy")]
        table = load_predictions(write_predictions(tmp_path / "p.json", dets), ds)
        with pytest.raises(ValidationError, match="^unknown prompt 'zz': no filter provided$"):
            evaluate_rec(ds, split, table, {"a": lambda attrs: True})
        with pytest.raises(ValidationError, match="requires a prompt on every detection"):
            evaluate_rec(ds, split, table, {"a": lambda attrs: True, "zz": lambda attrs: True})

    def test_ids_the_dataset_lacks_are_load_errors(self, tmp_path):
        """A detection of an unknown image or category is an error at load,
        outside the split as well as inside it; the first one in the file
        is named."""
        ds = TestEvaluate().make_corpus()
        split = split_train_test(ds, 0.5, seed=1)
        inside, outside = split.test_image_ids[0], split.train_image_ids[0]
        dets = perfect_detections(ds)
        for stray, message in (
            ([det(2**70, 1, B(0, 0, 5, 5), 0.5)], f"unknown image {2**70}"),
            ([det(outside, 2**70, B(0, 0, 5, 5), 0.5)], f"unknown category {2**70}"),
            ([det(inside, 9, B(0, 0, 5, 5), 0.5), det(inside, 7, B(0, 0, 5, 5), 0.5)],
             "unknown category 9"),
        ):
            path = write_predictions(tmp_path / "p.json", dets + stray)
            with pytest.raises(IntegrityError) as raised:
                load_predictions(path, ds)
            assert str(raised.value) == f"detection #{len(dets)} references {message}"

    def test_only_a_table_of_the_dataset_is_scored(self, tmp_path):
        """``evaluate`` and ``evaluate_rec`` take the ``PredictionTable``
        read against the dataset they score, and nothing else."""
        ds = TestEvaluate().make_corpus()
        twin = TestEvaluate().make_corpus()
        split = split_train_test(ds, 0.5, seed=1)
        dets = [replace(d, prompt="apple") for d in perfect_detections(ds)]
        path = write_predictions(tmp_path / "p.json", dets)
        filters = {"apple": attribute_predicate({"any": True})}
        for other in (dets, list(load_predictions(path, ds)), load_predictions(path, twin), ()):
            with pytest.raises(ValidationError, match="^detections must be a PredictionTable"):
                evaluate(ds, split, other)
            with pytest.raises(ValidationError, match="^detections must be a PredictionTable"):
                evaluate_rec(ds, split, other, filters)
        table = load_predictions(path, ds)
        assert evaluate(ds, split, table) == evaluate(twin, split, load_predictions(path, twin))
        assert len(evaluate_rec(ds, split, table, filters)) == 1

    def test_permuting_records_leaves_the_report(self, tmp_path):
        """Records whose scores are distinct within each image/category
        cell score the same in any order."""
        for rng, ds, dets, split in self.instances(33, 80):
            cells = {}
            for d in dets:
                cells.setdefault((d.image_id, d.category_id), []).append(d)
            dets = [
                replace(d, score=score / 100)
                for cell in cells.values()
                for d, score in zip(cell, rng.sample(range(1, 100), len(cell)))
            ]
            shuffled = rng.sample(dets, len(dets))
            reports = [
                report_to_dict(evaluate(ds, split, load_predictions(write_predictions(
                    tmp_path / "p.json", order), ds)))
                for order in (dets, shuffled)
            ]
            assert reports[0] == reports[1]

    def test_out_of_split_detections_change_only_the_ignored_count(self, tmp_path):
        checked = 0
        for rng, ds, dets, split in self.instances(34, 80):
            outside = sorted({m.id for m in ds.images} - set(split.test_image_ids))
            if not outside:
                continue
            extra = [
                det(rng.choice(outside), rng.choice(ds.categories).id, B(0, 0, 8, 8), rng.random())
                for _ in range(rng.randint(1, 5))
            ]
            base, more = (
                report_to_dict(evaluate(ds, split, load_predictions(write_predictions(
                    tmp_path / "p.json", dets_), ds)))
                for dets_ in (dets, dets + extra)
            )
            assert more["counts"].pop("detections_ignored") == (
                base["counts"].pop("detections_ignored") + len(extra)
            )
            assert more == base
            checked += 1
        assert checked > 20


class TestAttributePredicate:
    def test_forms(self):
        inst, bare = single_image_dataset([
            gt(1, 1, 1, B(0, 0, 5, 5), attributes={"occlusion": "leaf"}), gt(2, 1, 1, B(0, 0, 5, 5)),
        ]).gt_attributes
        assert attribute_predicate({"any": True})(inst)
        assert attribute_predicate({"attribute": "occlusion", "equals": "leaf"})(inst)
        assert not attribute_predicate({"attribute": "occlusion", "equals": "leaf"})(bare)
        assert attribute_predicate({"attribute": "occlusion", "not_equals": "branch"})(inst)
        assert attribute_predicate({"attribute": "occlusion", "in": ["leaf", "none"]})(inst)
        assert attribute_predicate({"attribute": "occlusion", "not_in": ["branch"]})(inst)
        assert attribute_predicate({"attribute": "occlusion", "not_in": ["branch"]})(bare)

    def test_bad_specs(self):
        with pytest.raises(ValidationError):
            attribute_predicate({})
        with pytest.raises(ValidationError):
            attribute_predicate({"attribute": "x"})
        with pytest.raises(ValidationError):
            attribute_predicate({"attribute": "x", "equals": "a", "in": ["b"]})

    def test_unknown_key_rejected(self):
        """A key nothing reads would be ignored: ``negate`` here would
        leave the plain ``equals`` test."""
        spec = {"attribute": "occlusion", "equals": "leaf", "negate": True}
        with pytest.raises(ValidationError) as raised:
            attribute_predicate(spec)
        assert str(raised.value) == (
            "predicate {'attribute': 'occlusion', 'equals': 'leaf', 'negate': True}"
            " has unknown keys: ['negate']"
        )

    @pytest.mark.parametrize(
        "spec", [
            5,
            ["attribute", "occlusion"],
            {"attribute": "occlusion", "in": 5},
            {"attribute": "occlusion", "in": "leaf"},
            {"attribute": "occlusion", "not_in": ["leaf", 1]},
            {"attribute": "occlusion", "equals": 5},
            {"attribute": ["occlusion"], "equals": "leaf"},
        ],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValidationError):
            attribute_predicate(spec)


@pytest.fixture(scope="module")
def benchmark_corpora(tmp_path_factory):
    """The benchmark's full-scale grid-sparse and rec-dense corpora, with
    every prediction coordinate rounded to a quarter pixel so that adding
    an integer offset below 2**20 is exact in float64, and their reports."""
    from perfbench import corpora

    out = {}
    for name, make in (("grid-sparse", corpora.grid_sparse), ("rec-dense", corpora.rec_dense)):
        directory = tmp_path_factory.mktemp(name)
        paths = make(directory, 3, corpora.SCALES[name]["full"])
        predictions = paths.get("predictions") or paths["predictions_strong"]
        records = json.loads(predictions.read_text())
        for r in records:
            r["bbox"] = [round(v * 4) / 4 for v in r["bbox"]]
        annotations = json.loads(paths["annotations"].read_text())
        filters = json.loads(paths["filters"].read_text()) if "filters" in paths else None
        corpus = (annotations, records, filters, directory)
        out[name] = corpus + (score_corpus(annotations, [records], filters, directory),)
    return out


def score_corpus(annotations, prediction_files, filters, directory):
    """``report_to_dict`` of every report for the annotation document and
    the prediction record lists, each read from its own file; the
    detections are scored as the concatenation of the files in order."""
    (directory / "annotations.json").write_text(json.dumps(annotations))
    ds, _ = load_coco(directory / "annotations.json")
    dets = []
    for k, records in enumerate(prediction_files):
        (directory / f"predictions{k}.json").write_text(json.dumps(records))
        dets += list(load_predictions(directory / f"predictions{k}.json", ds))
    dets = table_of(ds, dets)
    split = split_train_test(ds, 0.5, seed=3)
    if filters is None:
        return [report_to_dict(evaluate(ds, split, dets))]
    predicates = {prompt: attribute_predicate(spec) for prompt, spec in filters.items()}
    return [report_to_dict(r) for r in evaluate_rec(ds, split, dets, predicates)]


class TestLeftToRightTotals:
    def test_evaluate_matches_the_oracle_under_a_compensated_sum(self, monkeypatch):
        """The oracle adds its totals left to right. With the builtin ``sum``
        of Python 3.12 and later in place, ``evaluate`` still equals it bit
        for bit, on a corpus where that ``sum`` rounds some of the AP totals
        the reports average differently."""
        data = Path(__file__).parent / "data" / "synthetic30"
        ds, _ = load_coco(data / "annotations.json")
        table = load_predictions(data / "predictions_noisy.json", ds)
        split = split_train_test(ds, 0.5, seed=11)
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        report = evaluate(ds, split, table)
        assert oracle_fields(report) == naive_evaluate(
            ds, split, list(table), DEFAULT_IOU_THRESHOLDS, 100
        )
        totals = [row.per_threshold_ap for row in report.per_category if row.map is not None]
        totals.append([row.map for row in report.per_category if row.num_gt])
        assert any(compensated_sum(values) != left_to_right(values) for values in totals)


def left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


@pytest.mark.parametrize("corpus", ["grid-sparse", "rec-dense"])
class TestMetamorphicCorpora:
    """Rewrites of the benchmark corpora that must not change any report."""

    def test_one_category_in_a_second_file(self, benchmark_corpora, corpus):
        annotations, records, filters, directory, plain = benchmark_corpora[corpus]
        moved = [r for r in records if r["category_id"] == 2]
        rest = [r for r in records if r["category_id"] != 2]
        assert moved and rest
        assert score_corpus(annotations, [rest, moved], filters, directory) == plain

    def test_translating_boxes_and_growing_images(self, benchmark_corpora, corpus):
        annotations, records, filters, directory, plain = benchmark_corpora[corpus]
        offset = 1037
        annotations, records = json.loads(json.dumps([annotations, records]))
        for image in annotations["images"]:
            image["width"] += offset
            image["height"] += offset
        for item in annotations["annotations"] + records:
            x, y, w, h = item["bbox"]
            item["bbox"] = [x + offset, y + offset, w, h]
        assert score_corpus(annotations, [records], filters, directory) == plain
