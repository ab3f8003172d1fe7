import builtins
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fruitbench.cli import main

from .oracles import compensated_sum

REPO = Path(__file__).parent.parent
DATA = REPO / "tests" / "data"
SYN30 = DATA / "synthetic30"


def run(capsys, *argv):
    capsys.readouterr()  # drop output of any fixture setup
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_markdown_table(self, capsys):
        code, out, _ = run(
            capsys, "stats", "--annotations", str(DATA / "fixture_stats" / "annotations.json")
        )
        assert code == 0
        assert out.startswith("| Category |")
        assert "Total" in out

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "stats.csv"
        code, _, _ = run(
            capsys,
            "stats",
            "--annotations", str(DATA / "fixture_stats" / "annotations.json"),
            "--format", "csv",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().startswith("Category,")

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "stats", "--annotations", "nope.json")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("bbox", [None, "abcd", [0, 0, 1], [True, 0, 1, 1]])
    def test_malformed_bbox_exits_1(self, capsys, tmp_path, bbox):
        payload = json.loads((DATA / "fixture_stats" / "annotations.json").read_text())
        payload["annotations"][0]["bbox"] = bbox
        path = tmp_path / "annotations.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "stats", "--annotations", str(path))
        assert code == 1
        assert err.startswith("error: ") and "box" in err

    @pytest.mark.parametrize(
        "section, field, value", [
            ("annotations", "image_id", [1]),
            ("annotations", "category_id", {}),
            ("annotations", "iscrowd", "0"),
            ("images", "region", 5),
            ("categories", "name", "\ud800"),  # a lone surrogate no output can write
        ],
    )
    def test_mistyped_field_exits_1(self, capsys, tmp_path, section, field, value):
        payload = json.loads((DATA / "fixture_stats" / "annotations.json").read_text())
        payload[section][0][field] = value
        path = tmp_path / "annotations.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "stats", "--annotations", str(path))
        assert code == 1
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("output_format", ["markdown", "csv", "json"])
    def test_overflowing_mean_area_exits_1(self, capsys, tmp_path, output_format):
        """A mean box area past the float range is an error, neither a
        traceback nor an ``Infinity`` that no JSON reader accepts."""
        path = tmp_path / "annotations.json"
        path.write_text(json.dumps({
            "images": [{"id": 1, "file_name": "a.jpg", "width": 10**200, "height": 10**200}],
            "annotations": [
                {"id": 1, "image_id": 1, "category_id": 1, "bbox": [0, 0, 1e200, 1e200]}
            ],
            "categories": [{"id": 1, "name": "apple"}],
        }))
        code, out, err = run(capsys, "stats", "--annotations", str(path), "--format", output_format)
        assert (code, out) == (1, "")
        assert err == "error: stats row 'apple': the mean box area overflows a float\n"

    @pytest.mark.parametrize("command", ["stats", "write-coco"])
    def test_clamp_reported_once(self, tmp_path, command):
        payload = json.loads((DATA / "fixture_stats" / "annotations.json").read_text())
        image = payload["images"][0]
        payload["annotations"][0].update(
            image_id=image["id"], bbox=[image["width"] - 5, 0, 20, 10]
        )
        path = tmp_path / "annotations.json"
        path.write_text(json.dumps(payload))
        argv = [command, "--annotations", str(path), "--out", str(tmp_path / "out")]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "fruitbench.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("clamped 1 out-of-image boxes") == 1, proc.stderr


class TestSplit:
    def test_same_seed_same_digest(self, capsys, tmp_path):
        digests = []
        for name in ("a.json", "b.json"):
            code, out, _ = run(
                capsys,
                "split",
                "--annotations", str(SYN30 / "annotations.json"),
                "--kind", "k-shot",
                "--k", "2",
                "--fraction", "0.6",
                "--seed", "7",
                "--out", str(tmp_path / name),
            )
            assert code == 0
            digests.append(out.strip())
        assert digests[0] == digests[1]
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_cross_class_by_name(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "split",
            "--annotations", str(SYN30 / "annotations.json"),
            "--kind", "cross-class",
            "--held-out", "lemon",
            "--fraction", "0.6",
            "--seed", "3",
            "--out", str(tmp_path / "cc.json"),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "cc.json").read_text())
        assert manifest["spec"]["held_out"] == 3

    def test_unknown_category_exits_1(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "split",
            "--annotations", str(SYN30 / "annotations.json"),
            "--kind", "cross-class",
            "--held-out", "banana",
            "--fraction", "0.6",
            "--seed", "3",
            "--out", str(tmp_path / "cc.json"),
        )
        assert code == 1
        assert "banana" in err

    def test_k_shot_category_without_train_images_exits_1(self, capsys, tmp_path):
        """Apple's one image goes to test at fraction 0.6, so no apple
        image can be drawn for k = 1."""
        annotations = tmp_path / "annotations.json"
        annotations.write_text(json.dumps({
            "images": [
                {"id": i, "file_name": f"{i}.jpg", "width": 64, "height": 64} for i in range(1, 7)
            ],
            "categories": [{"id": 1, "name": "apple"}, {"id": 2, "name": "pear"}],
            "annotations": [
                {"id": i, "image_id": i, "category_id": 1 if i == 1 else 2, "bbox": [0, 0, 8, 8]}
                for i in range(1, 7)
            ],
        }))
        out_path = tmp_path / "k.json"
        code, out, err = run(
            capsys, "split", "--annotations", str(annotations), "--kind", "k-shot", "--k", "1",
            "--fraction", "0.6", "--seed", "1", "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err == "error: category 'apple' has only 0 train images, cannot draw k=1\n"
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "flags, message", [
            (["train-test", "--k", "5"], "train-test split does not take k"),
            (["zero-shot", "--k", "3"], "zero-shot split does not take k"),
            (["k-shot", "--k", "1", "--held-out", "apple"],
             "k-shot split does not take held_out_category"),
            (["train-test", "--held-out", "nosuch"],
             "train-test split does not take held_out_category"),
            (["cross-class", "--held-out", "nosuch"], "unknown category 'nosuch'"),
            (["cross-class", "--held-out", "apple", "--k", "2"],
             "cross-class split does not take k"),
            (["k-shot"], "k-shot split requires k"),
            (["cross-class"], "cross-class split requires held_out_category"),
        ],
    )
    def test_flags_the_kind_does_not_take_exit_1(self, capsys, tmp_path, flags, message):
        """A flag the kind takes no field for is an error, not ignored."""
        out_path = tmp_path / "split.json"
        code, out, err = run(
            capsys, "split", "--annotations", str(SYN30 / "annotations.json"), "--kind", *flags,
            "--seed", "1", "--out", str(out_path),
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "flags, digest", [
            (["train-test"], "6082b3889bd50ece62e3ff78a55055497ec85842dadcc5a15ebbc6a205aadf18"),
            (["zero-shot"], "19d851eb7a8e792494736e0c7eb5f5e50edd04e57d4981ca424a4114cbacd0ca"),
            (["k-shot", "--k", "1"],
             "054bb51fff9f4fb4bc69aaf69f10510bfc3551229c6724bee2d1d23da31714d2"),
            (["cross-class", "--held-out", "apple"],
             "7fcac84dd37713bfa159a5589469ac74353fa84e915316cd417604fd058ddd14"),
        ],
        ids=["train-test", "zero-shot", "k-shot", "cross-class"],
    )
    def test_category_id_past_64_bits_exits_1(self, capsys, tmp_path, flags, digest):
        """A category's split stream is keyed by the seed and its id as two
        64-bit words: the largest such id keeps its stream, one more is an
        error that names it."""
        out_path = tmp_path / "split.json"
        results = []
        for pear in (2**64 - 1, 2**64):
            annotations = tmp_path / "annotations.json"
            annotations.write_text(json.dumps({
                "images": [
                    {"id": i, "file_name": f"{i}.jpg", "width": 64, "height": 64}
                    for i in range(1, 7)
                ],
                "categories": [{"id": 1, "name": "apple"}, {"id": pear, "name": "pear"}],
                "annotations": [
                    {"id": i, "image_id": i, "category_id": 1 if i <= 3 else pear,
                     "bbox": [0, 0, 8, 8]}
                    for i in range(1, 7)
                ],
            }))
            out_path.unlink(missing_ok=True)
            results.append(run(
                capsys, "split", "--annotations", str(annotations), "--kind", *flags,
                "--fraction", "0.5", "--seed", "1", "--out", str(out_path),
            ))
        assert results[0] == (0, digest + "\n", "")
        message = "category id 18446744073709551616 must fit the split stream's 64-bit Philox key"
        assert results[1] == (1, "", f"error: {message}\n")
        assert not out_path.exists()


@pytest.fixture
def split_manifest(tmp_path_factory):
    path = tmp_path_factory.mktemp("split") / "split.json"
    code = main(
        [
            "split",
            "--annotations", str(SYN30 / "annotations.json"),
            "--kind", "train-test",
            "--fraction", "0.6",
            "--seed", "77",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestEvaluate:
    def test_perfect_json_report(self, capsys, split_manifest):
        code, out, _ = run(
            capsys,
            "evaluate",
            "--annotations", str(SYN30 / "annotations.json"),
            "--predictions", str(SYN30 / "predictions_perfect.json"),
            "--split", str(split_manifest),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["aggregate"]["mAP"] == 1.0
        assert payload["aggregate"]["AP50"] == 1.0
        assert payload["aggregate"]["mAR"] == 1.0

    def test_markdown_summary(self, capsys, split_manifest):
        code, out, _ = run(
            capsys,
            "evaluate",
            "--annotations", str(SYN30 / "annotations.json"),
            "--predictions", str(SYN30 / "predictions_empty.json"),
            "--split", str(split_manifest),
            "--format", "markdown",
        )
        assert code == 0
        assert "| Category |" in out
        assert "0.0" in out

    def test_dangling_prediction_exits_1(self, capsys, split_manifest, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                [{"image_id": 999, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5}]
            )
        )
        code, _, err = run(
            capsys,
            "evaluate",
            "--annotations", str(SYN30 / "annotations.json"),
            "--predictions", str(bad),
            "--split", str(split_manifest),
        )
        assert code == 1
        assert "999" in err

    def test_repeated_test_image_id_exits_1(self, capsys, tmp_path):
        """A manifest that lists a test image twice, with its digest
        recomputed, is rejected rather than double-counting the image."""
        manifest = tmp_path / "split.json"
        assert main([
            "split", "--annotations", str(SYN30 / "annotations.json"), "--kind", "train-test",
            "--fraction", "0.6", "--seed", "1", "--out", str(manifest),
        ]) == 0
        payload = json.loads(manifest.read_text())
        repeated = payload["test_image_ids"][0]
        payload["test_image_ids"].append(repeated)
        body = {key: payload[key] for key in ("spec", "train_image_ids", "test_image_ids")}
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        payload["digest"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        manifest.write_text(json.dumps(payload))
        code, out, err = run(
            capsys,
            "evaluate",
            "--annotations", str(SYN30 / "annotations.json"),
            "--predictions", str(SYN30 / "predictions_perfect.json"),
            "--split", str(manifest),
        )
        assert (code, out) == (1, "")
        assert err == f"error: test_image_ids repeats image id {repeated}\n"

    @pytest.mark.parametrize("thresholds, message", [
        ("0.5,0.5,0.9", "IoU threshold 0.5 is listed twice"),
        ("0.5,0.9,0.9", "IoU threshold 0.9 is listed twice"),
        ("0.9,0.5,0.5", "IoU thresholds must be ascending"),
    ])
    def test_repeated_or_descending_thresholds_exit_1(
        self, capsys, split_manifest, thresholds, message
    ):
        """A repeated threshold would count its AP twice in mAP."""
        code, out, err = run(
            capsys,
            "evaluate",
            "--annotations", str(SYN30 / "annotations.json"),
            "--predictions", str(SYN30 / "predictions_noisy.json"),
            "--split", str(split_manifest),
            "--thresholds", thresholds,
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_json_errors_flag(self, capsys, split_manifest, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                [{"image_id": 999, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5}]
            )
        )
        code, _, err = run(
            capsys,
            "--json-errors",
            "evaluate",
            "--annotations", str(SYN30 / "annotations.json"),
            "--predictions", str(bad),
            "--split", str(split_manifest),
        )
        assert code == 1
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "IntegrityError"
        assert "999" in payload["message"]

    @pytest.mark.parametrize("json_errors", [False, True])
    def test_out_of_memory_exits_1(self, capsys, monkeypatch, split_manifest, json_errors):
        from fruitbench import evaluation

        def exhausted(*args, **kwargs):
            raise MemoryError("x")

        monkeypatch.setattr(evaluation, "evaluate", exhausted)
        code, out, err = run(
            capsys, *(["--json-errors"] if json_errors else []), "evaluate",
            "--annotations", str(SYN30 / "annotations.json"),
            "--predictions", str(SYN30 / "predictions_noisy.json"),
            "--split", str(split_manifest),
        )
        assert (code, out) == (1, "")
        if json_errors:
            assert json.loads(err) == {
                "error": "MemoryError", "message": "ran out of memory", "exit_code": 1
            }
        else:
            assert err == "error: ran out of memory\n"

    @pytest.mark.parametrize("bbox", [None, "abcd", [0, 0, 1], [True, 0, 1, 1]])
    def test_malformed_prediction_bbox_exits_1(self, capsys, split_manifest, tmp_path, bbox):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"image_id": 1, "category_id": 1, "bbox": bbox, "score": 0.5}]))
        code, _, err = run(
            capsys,
            "evaluate",
            "--annotations", str(SYN30 / "annotations.json"),
            "--predictions", str(bad),
            "--split", str(split_manifest),
        )
        assert code == 1
        assert err.startswith("error: ") and "box" in err

    @pytest.mark.parametrize("field, value", [("image_id", [1]), ("category_id", {})])
    def test_mistyped_prediction_exits_1(self, capsys, split_manifest, tmp_path, field, value):
        record = {"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5], "score": 0.5}
        record[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([record]))
        code, _, err = run(
            capsys,
            "evaluate",
            "--annotations", str(SYN30 / "annotations.json"),
            "--predictions", str(bad),
            "--split", str(split_manifest),
        )
        assert code == 1
        assert err.startswith("error: ") and field in err


class TestLoss:
    def test_perfect_predictions_near_zero(self, capsys, split_manifest):
        code, out, _ = run(
            capsys,
            "loss",
            "--annotations", str(SYN30 / "annotations.json"),
            "--predictions", str(SYN30 / "predictions_perfect.json"),
            "--split", str(split_manifest),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["aggregate"]["total"] < 1e-4
        assert len(payload["per_image"]) == 15  # 6 - floor(0.6 * 6) = 3 test images per class

    def test_weights_scale_total(self, capsys, split_manifest):
        totals = []
        for weights in ("1,1,1", "2,2,2"):
            code, out, _ = run(
                capsys,
                "loss",
                "--annotations", str(SYN30 / "annotations.json"),
                "--predictions", str(SYN30 / "predictions_noisy.json"),
                "--split", str(split_manifest),
                "--weights", weights,
            )
            assert code == 0
            totals.append(json.loads(out)["aggregate"]["total"])
        assert totals[1] == pytest.approx(2 * totals[0], rel=1e-9)

    @pytest.mark.parametrize("predictions, weights, message", [
        pytest.param(
            predictions, weights, f"loss weight {name} must be finite and non-negative",
            id=f"{predictions}-{weights}",
        )
        for predictions in ("predictions_empty.json", "predictions_noisy.json")
        for weights, name in (("nan,1,1", "l1"), ("1,inf,1", "giou"))
    ] + [
        # Finite weights whose costs overflow: no numpy warning comes first.
        pytest.param(
            "predictions_noisy.json", "1e308,1e308,1", "cost matrix entries must be finite",
            id="predictions_noisy.json-1e308,1e308,1",
        ),
        # Finite costs whose dual sums in the solver overflow.
        pytest.param(
            "predictions_noisy.json", "0,8e307,0",
            "cost matrix entries are too large: the solver's sums overflow a float",
            id="predictions_noisy.json-0,8e307,0",
        ),
        # Finite per-image totals whose sum over images overflows.
        pytest.param(
            "predictions_noisy.json", "0,4e307,0",
            "loss aggregate 'total': the sum over images overflows a float",
            id="predictions_noisy.json-0,4e307,0",
        ),
    ])
    def test_non_finite_weights_exit_1(self, capsys, split_manifest, predictions, weights, message):
        code, out, err = run(
            capsys,
            "loss",
            "--annotations", str(SYN30 / "annotations.json"),
            "--predictions", str(SYN30 / predictions),
            "--split", str(split_manifest),
            "--weights", weights,
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")


    def test_inputs_are_the_per_image_rows_and_one_hot_masks(
        self, capsys, monkeypatch, golden_inputs
    ):
        """Each image's arrays are the old per-instance inputs: its
        ground-truth rows of ``ds.gt_boxes`` (instances in id order), a
        one-hot category mask each, its detections' corners in input order
        and per detection the log-odds of its clamped score on its own
        category token over a saturated negative logit."""
        from fruitbench import cli, datamodel

        calls = []
        set_loss = cli.set_loss

        def recording(predictions, logits, ground_truth, masks, *args, **kwargs):
            calls.append((predictions, logits, ground_truth, masks))
            return set_loss(predictions, logits, ground_truth, masks, *args, **kwargs)

        monkeypatch.setattr(cli, "set_loss", recording)
        paths = golden_inputs["golden"]
        code, _, err = run(
            capsys, "loss", "--annotations", str(paths["annotations"]),
            "--predictions", str(paths["predictions"]),
        )
        assert code == 0, err
        ds, _ = datamodel.load_coco(paths["annotations"])
        records = json.loads(paths["predictions"].read_text())
        assert len(calls) == len(ds.images)
        for k, (image, call) in enumerate(zip(ds.images, calls)):
            predictions, logits, ground_truth, masks = call
            assert ground_truth.tobytes() == ds.gt_boxes[ds.gt_rows(k)].tobytes()
            expected = [a for a in ds.instances if a.image_id == image.id]
            assert ground_truth.tolist() == [
                [a.box.x_min, a.box.y_min, a.box.x_max, a.box.y_max] for a in expected
            ]
            assert masks.tolist() == [
                [c.id == a.category_id for c in ds.categories] for a in expected
            ]
            boxes, rows = [], []
            for r in (r for r in records if r["image_id"] == image.id):
                x, y, w, h = r["bbox"]
                boxes.append([x, y, x + w, y + h])
                row = [cli._NEGATIVE_LOGIT] * len(ds.categories)
                p = min(max(r["score"], cli._SCORE_EPS), 1.0 - cli._SCORE_EPS)
                row[[c.id for c in ds.categories].index(r["category_id"])] = math.log(p / (1 - p))
                rows.append(row)
            assert predictions.tolist() == boxes
            assert logits.tolist() == rows
            assert logits.shape == (len(rows), len(ds.categories))

    @pytest.mark.parametrize("case, digest", [
        ("image-without-ground-truth",
         "143e3b54e4775a2df5f9fa94a7144c1b8bedf306e11d3f32a20b9fe4e041c8b8"),
        ("no-categories", "9aa35e255384135dde4b963f1c8edc2bffb3c5a2591e5a71ac9210bc1022ed5e"),
    ])
    def test_empty_sides_keep_their_output(self, capsys, tmp_path, case, digest):
        """An image without ground truth (scored against its detections'
        all-negative masks), an image with neither, and a file without
        categories (no token at all) score as before, byte for byte."""
        image = {"file_name": "a.jpg", "width": 64, "height": 48}
        if case == "no-categories":
            coco = {"images": [{"id": 1, **image}], "annotations": [], "categories": []}
            records = []
        else:
            coco = {
                "images": [{"id": k, **image} for k in (1, 2, 3)],
                "annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": [4, 4, 10, 10]}],
                "categories": [{"id": 1, "name": "apple"}, {"id": 2, "name": "pear"}],
            }
            records = [
                {"image_id": 1, "category_id": 1, "bbox": [5, 5, 10, 10], "score": 0.9},
                {"image_id": 2, "category_id": 2, "bbox": [1, 2, 3, 4], "score": 0.25},
                {"image_id": 2, "category_id": 1, "bbox": [1, 2, 0, 4], "score": 1.0},
            ]
        (tmp_path / "annotations.json").write_text(json.dumps(coco))
        (tmp_path / "predictions.json").write_text(json.dumps(records))
        code, out, err = run(
            capsys, "loss", "--annotations", str(tmp_path / "annotations.json"),
            "--predictions", str(tmp_path / "predictions.json"),
        )
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_memory_is_linear_in_the_category_count(self, capsys, tmp_path):
        """Masks and logits are built per image from category positions:
        10,000 categories cost kilobytes per row, where a (V, V) identity
        alone would take 95 MB."""
        n = 10_000
        coco = {
            "images": [{"id": 1, "file_name": "a.jpg", "width": 64, "height": 48}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": n, "bbox": [4, 4, 10, 10]}],
            "categories": [{"id": k, "name": f"c{k}"} for k in range(1, n + 1)],
        }
        records = [{"image_id": 1, "category_id": n, "bbox": [5, 5, 10, 10], "score": 0.9}]
        (tmp_path / "annotations.json").write_text(json.dumps(coco))
        (tmp_path / "predictions.json").write_text(json.dumps(records))
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "loss", "--annotations", str(tmp_path / "annotations.json"),
                "--predictions", str(tmp_path / "predictions.json"),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert json.loads(out)["per_image"][0]["no_matches"] is False
        assert peak < 24 * 2**20

    def test_image_size_past_the_float_range_exits_1(self, capsys, tmp_path):
        """``loss`` rejects an image size no float holds; ``stats`` and
        ``evaluate``, which never divide by it, still score the file."""
        annotations = minimal_coco_file(tmp_path, width=10**400)
        predictions = tmp_path / "predictions.json"
        predictions.write_text(json.dumps(
            [{"image_id": 1, "category_id": 1, "bbox": [10, 10, 20, 20], "score": 0.9}]
        ))
        scored = ["--annotations", str(annotations), "--predictions", str(predictions)]
        code, out, err = run(capsys, "loss", *scored)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "must be positive and fit a float" in err
        manifest = tmp_path / "split.json"
        code, _, err = run(
            capsys, "split", "--annotations", str(annotations), "--kind", "train-test",
            "--fraction", "0.5", "--seed", "1", "--out", str(manifest),
        )
        assert code == 0, err
        code, out, err = run(capsys, "evaluate", *scored, "--split", str(manifest))
        assert code == 0, err
        assert json.loads(out)["aggregate"]["mAP"] == 1.0
        code, out, err = run(capsys, "stats", "--annotations", str(annotations))
        assert code == 0 and "apple" in out, err


def minimal_coco_file(tmp_path, width=100, height=80) -> Path:
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps({
        "images": [{"id": 1, "file_name": "a.jpg", "width": width, "height": height}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [10, 10, 20, 20], "iscrowd": 0}
        ],
        "categories": [{"id": 1, "name": "apple"}],
    }))
    return path


class TestRecEval:
    def test_prompt_reports(self, capsys, tmp_path, split_manifest):
        filters = tmp_path / "filters.json"
        filters.write_text(json.dumps({"apple": {"any": True}}))
        preds = tmp_path / "preds.json"
        records = json.loads((SYN30 / "predictions_perfect.json").read_text())
        for r in records:
            r["prompt"] = "apple"
        preds.write_text(json.dumps(records))
        code, out, _ = run(
            capsys,
            "rec-eval",
            "--annotations", str(SYN30 / "annotations.json"),
            "--predictions", str(preds),
            "--split", str(split_manifest),
            "--filters", str(filters),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["prompt"] == "apple"
        assert payload[0]["aggregate"]["mAP"] == 1.0

    @pytest.mark.parametrize(
        "prompt, spec", [
            ([1], {"any": True}),
            ("apple", 5),
            ("apple", {"attribute": "occlusion", "in": 5}),
        ],
    )
    def test_malformed_prompt_or_filter_exits_1(
        self, capsys, tmp_path, split_manifest, prompt, spec
    ):
        filters = tmp_path / "filters.json"
        filters.write_text(json.dumps({"apple": spec}))
        preds = tmp_path / "preds.json"
        records = json.loads((SYN30 / "predictions_perfect.json").read_text())
        preds.write_text(json.dumps([{**r, "prompt": prompt} for r in records]))
        code, _, err = run(
            capsys,
            "rec-eval",
            "--annotations", str(SYN30 / "annotations.json"),
            "--predictions", str(preds),
            "--split", str(split_manifest),
            "--filters", str(filters),
        )
        assert code == 1
        assert err.startswith("error: ")

    def test_lone_surrogate_prompt_exits_1(self, capsys, tmp_path, split_manifest):
        """A prompt is an object key, which the markdown report writes out."""
        filters = tmp_path / "filters.json"
        filters.write_text(json.dumps({"apple": {"any": True}, "\ud800": {"any": True}}))
        preds = tmp_path / "preds.json"
        records = json.loads((SYN30 / "predictions_perfect.json").read_text())
        preds.write_text(json.dumps([{**r, "prompt": "apple"} for r in records]))
        code, _, err = run(
            capsys,
            "rec-eval",
            "--annotations", str(SYN30 / "annotations.json"),
            "--predictions", str(preds),
            "--split", str(split_manifest),
            "--filters", str(filters),
            "--format", "markdown",
        )
        assert code == 1
        assert err.startswith("error: ") and "lone surrogate" in err


class TestReport:
    def test_grid(self, capsys, tmp_path, split_manifest):
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps(
                {
                    "format": "markdown",
                    "rows": [
                        {
                            "label": "perfect",
                            "manifest": str(split_manifest),
                            "predictions": str(SYN30 / "predictions_perfect.json"),
                        },
                        {
                            "label": "empty",
                            "manifest": str(split_manifest),
                            "predictions": str(SYN30 / "predictions_empty.json"),
                        },
                    ],
                }
            )
        )
        code, out, _ = run(
            capsys, "report",
            "--annotations", str(SYN30 / "annotations.json"),
            "--grid", str(grid),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("| Setting |")
        assert "100.0" in lines[2] and "perfect" in lines[2]

    def test_malformed_grid_json_exits_1(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text("{not json")
        code, _, err = run(
            capsys, "report",
            "--annotations", str(SYN30 / "annotations.json"),
            "--grid", str(grid),
        )
        assert code == 1
        assert "grid" in err

    def test_grid_rows_missing_keys_exit_1(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"rows": [{"label": "x"}]}))
        code, _, err = run(
            capsys, "report",
            "--annotations", str(SYN30 / "annotations.json"),
            "--grid", str(grid),
        )
        assert code == 1
        assert "manifest" in err

    def test_unknown_grid_key_exits_1(self, capsys, tmp_path, split_manifest):
        """A misspelt ``metrics`` would otherwise render every metric."""
        grid = tmp_path / "grid.json"
        row = {
            "label": "x", "manifest": str(split_manifest),
            "predictions": str(SYN30 / "predictions_perfect.json"),
        }
        grid.write_text(json.dumps({"rows": [row], "metric": ["AP50"]}))
        code, out, err = run(
            capsys, "report", "--annotations", str(SYN30 / "annotations.json"), "--grid", str(grid)
        )
        assert (code, out, err) == (1, "", f"error: --grid {grid} has unknown keys: ['metric']\n")

    def test_unknown_grid_row_key_exits_1(self, capsys, tmp_path, split_manifest):
        grid = tmp_path / "grid.json"
        row = {
            "label": "x", "manifest": str(split_manifest),
            "predictions": str(SYN30 / "predictions_perfect.json"), "prompt": "apple",
        }
        grid.write_text(json.dumps({"rows": [row]}))
        code, out, err = run(
            capsys, "report", "--annotations", str(SYN30 / "annotations.json"), "--grid", str(grid)
        )
        assert (code, out) == (1, "")
        assert err == f"error: --grid {grid} row has unknown keys: ['prompt']\n"

    def test_missing_grid_file_exits_1(self, capsys, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(
            json.dumps(
                {"rows": [{"label": "x", "manifest": "gone.json", "predictions": "gone2.json"}]}
            )
        )
        code, _, err = run(
            capsys, "report",
            "--annotations", str(SYN30 / "annotations.json"),
            "--grid", str(grid),
        )
        assert code == 1
        assert "gone.json" in err

    def test_files_are_checked_before_any_manifest_is_read(self, capsys, tmp_path):
        """The first row's manifest is unreadable, yet the second row's
        missing prediction file is the error."""
        (tmp_path / "broken.json").write_text("{")
        (tmp_path / "preds.json").write_text("[]")
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"rows": [
            {"label": "a", "manifest": "broken.json", "predictions": "preds.json"},
            {"label": "b", "manifest": "broken.json", "predictions": "gone.json"},
        ]}))
        code, out, err = run(
            capsys, "report", "--annotations", str(tmp_path / "absent.json"), "--grid", str(grid)
        )
        assert (code, out, err) == (1, "", "error: grid row 'b': missing file gone.json\n")

    def test_format_comes_from_the_grid_file_only(self, capsys, tmp_path, split_manifest):
        """``report`` takes no ``--format`` flag, nor a config key for one."""
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"format": "csv", "rows": [{
            "label": "x", "manifest": str(split_manifest),
            "predictions": str(SYN30 / "predictions_perfect.json"),
        }]}))
        argv = ["report", "--annotations", str(SYN30 / "annotations.json"), "--grid", str(grid)]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("Setting,")
        code, out, err = run(capsys, *argv, "--format", "markdown")
        assert (code, out, err) == (1, "", "error: unrecognized arguments: --format markdown\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"report": {"format": "markdown"}}))
        code, out, err = run(capsys, "--config", str(config), *argv)
        assert (code, out) == (1, "")
        assert err == "error: config section 'report' has unknown keys: ['format']\n"


class TestBench:
    def test_markdown(self, capsys):
        code, out, _ = run(capsys, "bench", "--timings", str(DATA / "timing.jsonl"))
        assert code == 0
        assert "21.9" in out and "45.7" in out
        assert "5.5" in out and "181.8" in out

    @pytest.mark.parametrize("output_format", ["markdown", "csv", "json"])
    @pytest.mark.parametrize("latencies", [[1e308, 1e308], [5e-324]], ids=["mean", "fps"])
    def test_overflowing_mean_latency_exits_1(self, capsys, tmp_path, output_format, latencies):
        """A mean latency or FPS past the float range is an error, not an
        ``inf`` cell or an ``Infinity`` that no JSON reader accepts."""
        log = tmp_path / "timing.jsonl"
        log.write_text("".join(
            json.dumps({"model": "m", "image_id": k, "latency_ms": v}) + "\n"
            for k, v in enumerate(latencies)
        ))
        code, out, err = run(capsys, "bench", "--timings", str(log), "--format", output_format)
        assert (code, out) == (1, "")
        assert err == "error: model 'm': mean latency or FPS overflows a float\n"


@pytest.fixture
def awkward_names(tmp_path):
    """A corpus whose category names, regions, prompt, grid label and model
    hold markdown's cell separator, a backslash or line breaks; every
    detection is perfect, so every metric reads 100.0."""
    images = [
        {"id": 1, "file_name": "1.jpg", "width": 100, "height": 100, "region": "north|south\\x"},
        {"id": 2, "file_name": "2.jpg", "width": 100, "height": 100, "region": "a\r\nb"},
    ]
    annotations = [
        {"id": k, "image_id": k, "category_id": k, "bbox": [10, 10, 20, 20]} for k in (1, 2)
    ]
    paths = {name: tmp_path / name for name in (
        "annotations.json", "predictions.json", "filters.json", "split.json", "grid.json",
        "timing.jsonl",
    )}
    paths["annotations.json"].write_text(json.dumps({
        "images": images, "annotations": annotations,
        "categories": [{"id": 1, "name": "apple|pear"}, {"id": 2, "name": "line\nbreak"}],
    }))
    paths["predictions.json"].write_text(json.dumps([
        {"image_id": k, "category_id": k, "bbox": [10, 10, 20, 20], "score": 0.9,
         "prompt": "two\nlines|x"}
        for k in (1, 2)
    ]))
    paths["filters.json"].write_text(json.dumps({"two\nlines|x": {"any": True}}))
    paths["grid.json"].write_text(json.dumps({"rows": [
        {"label": "k|shot\r\n1", "manifest": "split.json", "predictions": "predictions.json"},
    ]}))
    paths["timing.jsonl"].write_text(
        json.dumps({"model": "m|1\n2", "image_id": 1, "latency_ms": 10}) + "\n"
    )
    assert main([
        "split", "--annotations", str(paths["annotations.json"]), "--kind", "train-test",
        "--fraction", "0.5", "--seed", "1", "--out", str(paths["split.json"]),
    ]) == 0
    return {name: str(path) for name, path in paths.items()}


EVALUATION_TABLE = (
    "| Category | mAP | AP50 | mAR |\n"
    "| --- | --- | --- | --- |\n"
    "| apple\\|pear | 100.0 | 100.0 | 100.0 |\n"
    "| line<br>break | 100.0 | 100.0 | 100.0 |\n"
    "| (mean) | 100.0 | 100.0 | 100.0 |\n"
)


class TestMarkdownEscaping:
    """In a markdown cell a backslash or pipe is escaped and a line break is
    ``<br>``, so a name neither adds cells to its row nor splits it; a
    heading turns line breaks into ``<br>``. CSV and JSON keep names as
    they are."""

    def test_stats_names_and_regions(self, capsys, awkward_names):
        argv = ["stats", "--annotations", awkward_names["annotations.json"]]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (
            "| Category | # imgs | # bboxes | avg bboxes/image | avg size/instance | Region |\n"
            "| --- | --- | --- | --- | --- | --- |\n"
            "| apple\\|pear | 1 | 1 | 1 | 400 | north\\|south\\\\x |\n"
            "| line<br>break | 1 | 1 | 1 | 400 | a<br>b |\n"
            "| Total | 2 | 2 | 1 | 400 | a<br>b & north\\|south\\\\x |\n"
        )
        _, out, _ = run(capsys, *argv, "--format", "csv")
        assert [row[0] for row in csv.reader(io.StringIO(out, newline=""))][1:3] == [
            "apple|pear", "line\nbreak",
        ]
        _, out, _ = run(capsys, *argv, "--format", "json")
        assert [c["region"] for c in json.loads(out)["categories"]] == ["north|south\\x", "a\r\nb"]

    def test_evaluate_and_rec_eval(self, capsys, awkward_names):
        argv = [
            "--annotations", awkward_names["annotations.json"],
            "--predictions", awkward_names["predictions.json"],
            "--split", awkward_names["split.json"], "--format", "markdown",
        ]
        assert run(capsys, "evaluate", *argv) == (0, EVALUATION_TABLE, "")
        code, out, err = run(
            capsys, "rec-eval", *argv, "--filters", awkward_names["filters.json"]
        )
        assert (code, out, err) == (0, "## two<br>lines|x\n\n" + EVALUATION_TABLE, "")

    def test_report_labels_and_categories(self, capsys, awkward_names):
        code, out, err = run(
            capsys, "report", "--annotations", awkward_names["annotations.json"],
            "--grid", awkward_names["grid.json"],
        )
        assert (code, err) == (0, "")
        assert out == (
            "| Setting | apple\\|pear mAP | apple\\|pear AP50 | apple\\|pear mAR"
            " | line<br>break mAP | line<br>break AP50 | line<br>break mAR |\n"
            "| --- | --- | --- | --- | --- | --- | --- |\n"
            "| k\\|shot<br>1 | 100.0 | 100.0 | 100.0 | 100.0 | 100.0 | 100.0 |\n"
        )

    def test_bench_models(self, capsys, awkward_names):
        code, out, err = run(capsys, "bench", "--timings", awkward_names["timing.jsonl"])
        assert (code, err) == (0, "")
        assert out == (
            "| Model | FPS (imgs/s) | Inference time per image (ms) |\n"
            "| --- | --- | --- |\n"
            "| m\\|1<br>2 | 100.0 | 10.0 |\n"
        )


class TestIngestLabelme:
    def test_roundtrip(self, capsys, tmp_path):
        src = tmp_path / "labels"
        src.mkdir()
        (src / "img1.json").write_text(
            json.dumps(
                {
                    "imagePath": "img1.jpg",
                    "imageWidth": 100,
                    "imageHeight": 80,
                    "shapes": [
                        {
                            "label": "apple",
                            "points": [[10, 10], [30, 30]],
                            "shape_type": "rectangle",
                        },
                        {"label": "Apple ", "points": [[0, 0], [5, 5]], "shape_type": "rectangle"},
                    ],
                }
            )
        )
        cats = tmp_path / "cats.json"
        cats.write_text(json.dumps([{"id": 1, "name": "apple"}]))
        out_path = tmp_path / "out.json"
        code, _, err = run(
            capsys,
            "ingest-labelme",
            "--dir", str(src),
            "--categories", str(cats),
            "--out", str(out_path),
        )
        assert code == 0
        assert "unmapped label 'Apple '" in err
        payload = json.loads(out_path.read_text())
        assert len(payload["annotations"]) == 1

    def test_duplicate_category_name_exits_1(self, capsys, tmp_path):
        src, cats = unmapped_labels(tmp_path)
        cats.write_text(json.dumps([{"id": 1, "name": "apple"}, {"id": 2, "name": "apple"}]))
        out_path = tmp_path / "out.json"
        code, _, err = run(
            capsys, "ingest-labelme", "--dir", str(src), "--categories", str(cats),
            "--out", str(out_path),
        )
        assert code == 1
        assert err.startswith("error: ") and "duplicate category name 'apple'" in err
        assert not out_path.exists()

    def test_duplicate_category_id_exits_1(self, capsys, tmp_path):
        src, cats = unmapped_labels(tmp_path)
        cats.write_text(json.dumps([{"id": 1, "name": "apple"}, {"id": 1, "name": "pear"}]))
        out_path = tmp_path / "out.json"
        code, _, err = run(
            capsys, "ingest-labelme", "--dir", str(src), "--categories", str(cats),
            "--out", str(out_path),
        )
        assert code == 1
        assert err == "error: duplicate category id 1\n"
        assert not out_path.exists()

    def test_fail_on_unmapped(self, capsys, tmp_path):
        src, cats = unmapped_labels(tmp_path)
        code, _, _ = run(
            capsys,
            "ingest-labelme",
            "--dir", str(src),
            "--categories", str(cats),
            "--out", str(tmp_path / "out.json"),
            "--fail-on-unmapped",
        )
        assert code == 1
        assert not (tmp_path / "out.json").exists()

    def test_clamped_shapes_golden_bytes(self, capsys, tmp_path, monkeypatch):
        """Shapes past every image side are clamped to the image, a corner
        clamped to an image side keeps the int size (``640``, not
        ``640.0``), ``-0.0`` corners stay as they are, and the written file
        and the stderr lines stay byte for byte what they were."""
        clamped_labels(tmp_path)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            capsys, "ingest-labelme", "--dir", "labels", "--categories", "cats.json",
            "--out", "out.json",
        )
        assert (code, out) == (0, "")
        assert err.splitlines() == [
            "labels: 3 shapes with unmapped labels",
            "unmapped label 'Apple ': 1 shapes",
            "unmapped label 'banana': 2 shapes",
            "wrote out.json: 6 images, 12 instances",
        ]
        written = (tmp_path / "out.json").read_bytes()
        assert b'"bbox": [\n        640,\n        0.0,\n        0,\n        2.0\n      ]' in written
        assert hashlib.sha256(written).hexdigest() == (
            "e0c0ee343d0fb1e6815f56bedfc4abc20577104118159e97bd0087f9ceecae7f"
        )


def clamped_labels(tmp_path):
    """A label directory of six files whose mapped shapes lie past every
    side of their image, and its category file. It holds ``-0.0``
    corners, polygons, unmapped and whitespace-padded labels, a file
    without ``imagePath`` and an image 2**53 + 5 wide, whose clamped
    corner is the int width."""
    src = tmp_path / "labels"
    src.mkdir()
    rect = "rectangle"
    files = {
        "a_left_top.json": (640, 480, "a.jpg", [
            ("apple", [[-12.5, -3], [20, 30]], rect),
            ("apple", [[-0.0, -0.0], [5, 5.25]], rect),
            ("pear", [[-40, -40], [-10, -10]], rect),
            ("apple", [[-30, 10], [10, -20], [25, 40]], "polygon"),
        ]),
        "b_right_bottom.json": (640, 480, "b.jpg", [
            ("apple", [[650, 0], [700, 2]], rect),
            ("pear", [[600, 470], [660, 500]], rect),
            ("Apple ", [[1, 1], [2, 2]], rect),
            ("apple", [[630.5, 100], [700, 479.75], [635, 520]], "polygon"),
        ]),
        "c_every_side.json": (3, 2, None, [
            ("pear", [[-1e6, -1e6], [1e6, 1e6]], rect),
            ("apple", [[-0.0, 1], [3, -0.0]], rect),
        ]),
        "d_wide.json": (2**53 + 5, 7, "d.jpg", [
            ("apple", [[2**53, 1], [2**53 + 20, 9]], rect),
            ("pear", [[2**53 + 8, -1], [2**54, 3]], rect),
            ("apple", [[1, 1], [2**53 + 4, 6]], rect),
        ]),
        "e_unmapped_only.json": (10, 10, "e.jpg", [
            ("banana", [[0, 0], [1, 1]], rect),
            ("banana", [[2, 2], [3, 3]], rect),
        ]),
        "f_empty.json": (1, 1, "f.jpg", []),
    }
    for name, (width, height, image_path, shapes) in files.items():
        payload = {"imageWidth": width, "imageHeight": height}
        if image_path is not None:
            payload["imagePath"] = image_path
        payload["shapes"] = [
            {"label": label, "points": points, "shape_type": kind}
            for label, points, kind in shapes
        ]
        (src / name).write_text(json.dumps(payload))
    cats = tmp_path / "cats.json"
    cats.write_text(json.dumps([{"id": 1, "name": "apple"}, {"id": 2, "name": "pear"}]))
    return src, cats


def unmapped_labels(tmp_path):
    """A label directory whose one shape is a label missing from the
    category file, and that category file."""
    src = tmp_path / "labels"
    src.mkdir()
    (src / "img1.json").write_text(
        json.dumps(
            {
                "imageWidth": 100,
                "imageHeight": 80,
                "shapes": [
                    {"label": "pear", "points": [[0, 0], [5, 5]], "shape_type": "rectangle"}
                ],
            }
        )
    )
    cats = tmp_path / "cats.json"
    cats.write_text(json.dumps([{"id": 1, "name": "apple"}]))
    return src, cats


class TestWriteCoco:
    def test_normalizes(self, capsys, tmp_path):
        out_path = tmp_path / "normalized.json"
        code, _, _ = run(
            capsys,
            "write-coco",
            "--annotations", str(DATA / "fixture_stats" / "annotations.json"),
            "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"images", "annotations", "categories"}


class TestUsageAndConfig:
    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run(capsys, "stats", "--annotations", "x.json", "--bogus")
        assert code == 1
        assert "bogus" in err

    def test_unknown_subcommand_exits_1(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_config_file_defaults_and_flag_override(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {"stats": {"annotations": str(DATA / "fixture_stats" / "annotations.json"),
                           "format": "csv"}}
            )
        )
        code, out, _ = run(capsys, "--config", str(config), "stats")
        assert code == 0
        assert out.startswith("Category,")  # csv from config
        code, out, _ = run(
            capsys, "--config", str(config), "stats", "--format", "markdown"
        )
        assert code == 0
        assert out.startswith("| Category |")  # flag wins

    @pytest.mark.parametrize("content", [None, {"stats": {"bogus_key": 1}}], ids=["missing", "bad"])
    def test_config_after_subcommand_not_read(self, capsys, tmp_path, content):
        """``--config`` after the subcommand is an unknown option of that
        subcommand: the file is neither opened nor checked."""
        config = tmp_path / "config.json"
        if content is not None:
            config.write_text(json.dumps(content))
        code, out, err = run(
            capsys, "stats", "--annotations", str(DATA / "fixture_stats" / "annotations.json"),
            "--config", str(config),
        )
        assert (code, out) == (1, "")
        assert err == f"error: unrecognized arguments: --config {config}\n"

    def test_config_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"stats": {"bogus_key": 1}}))
        code, _, err = run(capsys, "--config", str(config), "stats", "--annotations", "x")
        assert code == 1
        assert err == "error: config section 'stats' has unknown keys: ['bogus_key']\n"

    @pytest.mark.parametrize(
        "argv, message", [
            (["split", "--kind", "k-shot", "--seed", "1"], "k-shot split requires k"),
            (["split", "--kind", "train-test", "--fraction", "1.5", "--seed", "1"],
             "train fraction must lie strictly between 0 and 1, got 1.5"),
            (["split", "--kind", "k-shot", "--k", "-1", "--seed", "1"],
             "k must be a non-negative integer, got -1"),
            (["split", "--kind", "train-test", "--seed", "18446744073709551616"],
             "seed must be a 64-bit unsigned integer, got 18446744073709551616"),
            (["evaluate", "--thresholds", "0.5,0.5"], "IoU threshold 0.5 is listed twice"),
            (["rec-eval", "--thresholds", "0.7,0.5"], "IoU thresholds must be ascending"),
            (["report", "--max-dets", "0"], "max_dets must be >= 1, got 0"),
            (["rec-eval"], "predicate {'attribute': 'x'}: needs exactly one operator"),
        ],
    )
    def test_flag_rules_fire_before_any_read(self, capsys, tmp_path, argv, message):
        """A flag the library types reject, or a filters file, fails before
        the missing annotation, prediction, manifest or grid file is read."""
        missing = tmp_path / "missing"
        filters = tmp_path / "filters.json"
        filters.write_text(json.dumps({"p": {"attribute": "x"}}))
        data_flags = {
            "split": ["--out", str(tmp_path / "split.json")],
            "evaluate": ["--predictions", str(missing / "p.json"), "--split", str(missing / "s.json")],
            "rec-eval": [
                "--predictions", str(missing / "p.json"), "--split", str(missing / "s.json"),
                "--filters", str(filters),
            ],
            "report": ["--grid", str(missing / "grid.json")],
        }[argv[0]]
        code, out, err = run(
            capsys, *argv, "--annotations", str(missing / "annotations.json"), *data_flags
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not (tmp_path / "split.json").exists()

    @pytest.mark.parametrize("command", [
        None, "ingest-labelme", "write-coco", "stats", "split", "evaluate", "loss", "rec-eval",
        "report", "bench",
    ])
    def test_help_renders(self, capsys, command):
        argv = ["--help"] if command is None else [command, "--help"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: fruitbench")
        if command == "split":
            assert "--kind {train-test,k-shot,cross-class,zero-shot}" in out

    def test_config_split_section_checked_like_flags(self, capsys, tmp_path):
        """A ``k`` in the section fails a train-test run as ``--k`` does."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"split": {"k": 2}}))
        out_path = tmp_path / "split.json"
        code, out, err = run(
            capsys, "--config", str(config), "split", "--kind", "train-test",
            "--annotations", str(SYN30 / "annotations.json"), "--seed", "1", "--out", str(out_path),
        )
        assert (code, out, err) == (1, "", "error: train-test split does not take k\n")
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "command, section, named", [
            ("evaluate", {"max_dets": [1]}, "max-dets"),
            ("evaluate", {"thresholds": 5}, "thresholds"),
            ("split", {"seed": True}, "seed"),
            ("evaluate", {"threads": 4}, "threads"),
        ],
    )
    def test_config_values_checked_like_flags(
        self, capsys, tmp_path, split_manifest, command, section, named
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({command: section}))
        rest = {
            "evaluate": [
                "--predictions", str(SYN30 / "predictions_noisy.json"),
                "--split", str(split_manifest),
            ],
            "split": ["--kind", "train-test", "--out", str(tmp_path / "split.json")],
        }[command]
        code, _, err = run(
            capsys, "--config", str(config), command,
            "--annotations", str(SYN30 / "annotations.json"), *rest,
        )
        assert code == 1
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("path", ["a\x00b", "\ud800"])
    def test_config_path_the_os_cannot_take_exits_1(self, capsys, tmp_path, path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"stats": {"annotations": path}}))
        code, _, err = run(capsys, "--config", str(config), "stats")
        assert code == 1
        assert err.startswith("error: ") and "NUL or a lone surrogate" in err

    @pytest.mark.parametrize(
        "value, code, message", [
            (True, 1, "unmapped labels"),
            (False, 0, "wrote"),
            (None, 0, "wrote"),
            ("yes", 1, "fail_on_unmapped"),
        ],
    )
    def test_config_on_off_flag(self, capsys, tmp_path, value, code, message):
        src, cats = unmapped_labels(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ingest-labelme": {"fail_on_unmapped": value}}))
        result, _, err = run(
            capsys, "--config", str(config), "ingest-labelme",
            "--dir", str(src), "--categories", str(cats), "--out", str(tmp_path / "out.json"),
        )
        assert result == code
        assert message in err


# Arbitrary JSON values for the input fuzz: scalars (NaN and infinities
# included, which Python's JSON reader accepts) nested in short lists/maps.
# Strings draw from every code point, with U+0000 and lone surrogates (which
# JSON can escape but no file name or output encoding can hold) as often as
# all the rest.
TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from("\x00\ud800\udfff"), max_size=4
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=5,
)
VALID_RECORDS = {
    "images": {"id": 1, "file_name": "a.jpg", "width": 64, "height": 64, "region": "North"},
    "annotations": {
        "id": 1, "image_id": 1, "category_id": 1, "bbox": [8, 8, 16, 16], "iscrowd": 0,
        "attributes": {"occlusion": "leaf"},
    },
    "categories": {"id": 1, "name": "apple"},
    "predictions": {
        "image_id": 1, "category_id": 1, "bbox": [8, 8, 16, 16], "score": 0.5, "prompt": "apple",
    },
}
FILTER_OPS = ("equals", "not_equals", "in", "not_in")
FUZZ_TARGETS = [(kind, key) for kind, record in VALID_RECORDS.items() for key in record] + [
    ("filters", key) for key in (None, "any", "attribute", *FILTER_OPS)
]


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    """Two one-box images (so a 0.5 split has a test image) and a split."""
    directory = tmp_path_factory.mktemp("fuzz")
    second = {**VALID_RECORDS["annotations"], "id": 2, "image_id": 2}
    corpus = {
        "images": [VALID_RECORDS["images"], {**VALID_RECORDS["images"], "id": 2}],
        "annotations": [VALID_RECORDS["annotations"], second],
        "categories": [VALID_RECORDS["categories"]],
    }
    (directory / "annotations.json").write_text(json.dumps(corpus))
    assert main([
        "split", "--annotations", str(directory / "annotations.json"), "--kind", "train-test",
        "--fraction", "0.5", "--seed", "1", "--out", str(directory / "split.json"),
    ]) == 0
    return directory, corpus


class TestAnyJsonInput:
    @settings(max_examples=400, deadline=None)
    @given(target=st.sampled_from(FUZZ_TARGETS), value=JSON_VALUES)
    def test_result_or_exit_1(self, fuzz_corpus, target, value):
        """Any JSON value in any field of an annotation, prediction or
        filter record ends as a result or an ``error:`` exit 1, never as a
        traceback."""
        directory, corpus = fuzz_corpus
        kind, key = target
        annotations = directory / "annotations.json"
        predictions = [VALID_RECORDS["predictions"]]
        spec = {"any": True}
        if kind == "predictions":
            predictions = [{**VALID_RECORDS["predictions"], key: value}]
        elif kind == "filters":
            spec = {
                None: value,
                "any": {"any": value},
                "attribute": {"attribute": value, "equals": "leaf"},
            }.get(key, {"attribute": "occlusion", key: value})
        else:
            fuzzed = json.loads(json.dumps(corpus))
            fuzzed[kind][0][key] = value
            annotations = directory / "fuzzed_annotations.json"
            annotations.write_text(json.dumps(fuzzed))
            argv = ["stats", "--annotations", str(annotations), "--out", str(directory / "out")]
            assert main(argv) in (0, 1)
        (directory / "predictions.json").write_text(json.dumps(predictions))
        (directory / "filters.json").write_text(json.dumps({"apple": spec}))
        argv = [
            "rec-eval", "--annotations", str(annotations),
            "--predictions", str(directory / "predictions.json"),
            "--split", str(directory / "split.json"),
            "--filters", str(directory / "filters.json"),
            "--out", str(directory / "out"),
        ]
        assert main(argv) in (0, 1)


# One small valid input file of every kind the CLI reads, each read by
# the command in ``file_argv``; the fuzz and the pinned cases below swap one
# of them for an edited copy.
VALID_FILES = {
    "annotations": {
        "images": [VALID_RECORDS["images"], {**VALID_RECORDS["images"], "id": 2}],
        "annotations": [
            VALID_RECORDS["annotations"], {**VALID_RECORDS["annotations"], "id": 2, "image_id": 2},
        ],
        "categories": [VALID_RECORDS["categories"]],
    },
    "predictions": [VALID_RECORDS["predictions"]],
    "filters": {"apple": {"any": True}},
    "label": {
        "imagePath": "img1.jpg", "imageWidth": 64, "imageHeight": 64,
        "shapes": [{"label": "apple", "points": [[8, 8], [24, 24]], "shape_type": "rectangle"}],
    },
    "categories": [{"id": 1, "name": "apple"}],
    "grid": {"format": "markdown", "metrics": ["mAP"], "rows": [{"label": "a"}]},
    "timings": {"model": "m", "image_id": 1, "latency_ms": 12.5},
    "config": {"stats": {"format": "csv"}},
}  # the manifest, and the grid row's files, are filled in by ``file_corpus``
FILE_TARGETS = [
    ("label", path) for path in [
        (), ("imageWidth",), ("imageHeight",), ("imagePath",), ("shapes",), ("shapes", 0),
        ("shapes", 0, "label"), ("shapes", 0, "points"), ("shapes", 0, "points", 0),
        ("shapes", 0, "points", 0, 0), ("shapes", 0, "points", 0, 1),
    ]
] + [("categories", path) for path in [(), (0,), (0, "id"), (0, "name")]] + [
    ("grid", path) for path in [
        (), ("rows",), ("rows", 0), ("rows", 0, "label"), ("rows", 0, "manifest"),
        ("rows", 0, "predictions"), ("metrics",), ("format",),
    ]
] + [
    ("manifest", path) for path in [
        (), ("spec",), ("spec", "kind"), ("spec", "seed"), ("spec", "fraction"), ("spec", "k"),
        ("spec", "held_out"), ("train_image_ids",), ("test_image_ids",), ("test_image_ids", 0),
        ("digest",),
    ]
] + [("timings", path) for path in [(), ("model",), ("latency_ms",)]] + [
    ("filters", ()), ("filters", ("apple", "any")), ("config", ()), ("config", ("stats", "format")),
]


def manifest_digest(manifest) -> str:
    """The digest a manifest records, computed independently of the
    library: SHA-256 of the compact, key-sorted JSON of everything else."""
    body = {key: manifest[key] for key in ("spec", "train_image_ids", "test_image_ids")}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def with_value(document, path, value):
    """A copy of ``document`` with the value at ``path`` (keys and indices)
    replaced by ``value``; the empty path replaces the whole document. An
    edited manifest gets its digest recomputed unless the edit is the
    digest, so that the edit itself is what the reader sees."""
    if not path:
        return value
    edited = json.loads(json.dumps(document))
    target = edited
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    if "digest" in edited and path[0] != "digest":
        edited["digest"] = manifest_digest(edited)
    return edited


@pytest.fixture(scope="module")
def file_corpus(tmp_path_factory):
    """The valid files, plus the ``split`` command's manifest of them: a
    zero-shot split, so the train list is empty and the test list holds
    one image. The grid row names the manifest and predictions by absolute
    path, so an edited grid elsewhere still finds them."""
    directory = tmp_path_factory.mktemp("files")
    files = json.loads(json.dumps(VALID_FILES))
    files["grid"]["rows"][0].update(
        manifest=str(directory / "manifest"), predictions=str(directory / "predictions")
    )
    for kind, document in files.items():
        write_kind(directory, kind, encode_kind(kind, document))
    assert main([
        "split", "--annotations", str(directory / "annotations"), "--kind", "zero-shot",
        "--fraction", "0.5", "--seed", "1", "--out", str(directory / "manifest"),
    ]) == 0
    files["manifest"] = json.loads((directory / "manifest").read_text())
    return directory, files


def encode_kind(kind: str, document) -> bytes:
    return (json.dumps(document) + ("\n" if kind == "timings" else "")).encode("utf-8")


def write_kind(directory: Path, kind: str, data: bytes) -> Path:
    """Write one input file; a label file goes in a directory of its own."""
    path = directory / kind / "img1.json" if kind == "label" else directory / kind
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data)
    return path


def file_argv(directory: Path, kind: str, path: Path) -> list[str]:
    """The command that reads the input of ``kind`` from ``path`` and every
    other input from the valid files."""
    files = {k: str(directory / k) for k in [*VALID_FILES, "manifest"]}
    files[kind] = str(path.parent if kind == "label" else path)
    out = ["--out", str(directory / "out")]
    labels = ["ingest-labelme", "--dir", files["label"], "--categories", files["categories"]]
    scored = [
        "--annotations", files["annotations"], "--predictions", files["predictions"],
        "--split", files["manifest"],
    ]
    return {
        "annotations": ["stats", "--annotations", files["annotations"]],
        "predictions": ["evaluate", *scored],
        "manifest": ["evaluate", *scored],
        "filters": ["rec-eval", *scored, "--filters", files["filters"]],
        "label": labels,
        "categories": labels,
        "grid": ["report", "--annotations", files["annotations"], "--grid", files["grid"]],
        "timings": ["bench", "--timings", files["timings"]],
        "config": ["--config", files["config"], "stats", "--annotations", files["annotations"]],
    }[kind] + out


def run_edited(directory: Path, kind: str, data: bytes) -> int:
    edited = directory / "edited"
    edited.mkdir(exist_ok=True)
    return main(file_argv(directory, kind, write_kind(edited, kind, data)))


class TestAnyJsonInEveryFile:
    @settings(max_examples=400, deadline=None)
    @given(target=st.sampled_from(FILE_TARGETS), value=JSON_VALUES)
    def test_result_or_exit_1(self, file_corpus, target, value):
        """Any JSON value in any field of a label file, a category map, a
        grid config, a manifest, a timing-log line, a REC filter's ``any``
        key or a config file ends as a result or an ``error:`` exit 1."""
        directory, files = file_corpus
        kind, path = target
        document = with_value(files[kind], path, value)
        assert run_edited(directory, kind, encode_kind(kind, document)) in (0, 1)

    @pytest.mark.parametrize("kind", [*VALID_FILES, "manifest"])
    def test_valid_files_give_results(self, capsys, file_corpus, kind):
        directory, files = file_corpus
        capsys.readouterr()
        assert run_edited(directory, kind, encode_kind(kind, files[kind])) == 0, capsys.readouterr()

    @pytest.mark.parametrize("kind", [*VALID_FILES, "manifest"])
    def test_non_utf8_file_exits_1(self, capsys, file_corpus, kind):
        directory, files = file_corpus
        capsys.readouterr()
        data = encode_kind(kind, files[kind])
        assert run_edited(directory, kind, data[:1] + b"\xff" + data[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "byte offset 1" in err

    @pytest.mark.parametrize(
        "kind, path", [
            ("annotations", ("images", 0, "width")),
            ("annotations", ("annotations", 0, "bbox", 2)),
            ("predictions", (0, "score")),
            ("predictions", (0, "image_id")),
            ("filters", ("apple",)),
            ("label", ("imageWidth",)),
            ("label", ("shapes", 0, "points", 0, 0)),
            ("categories", (0, "id")),
            ("grid", ("metrics", 0)),
            ("manifest", ("spec", "seed")),
            ("manifest", ("spec", "fraction")),
            ("manifest", ("test_image_ids", 0)),
            ("timings", ("latency_ms",)),
            ("config", ("stats", "format")),
        ],
    )
    def test_401_digit_integer(self, capsys, file_corpus, kind, path):
        directory, files = file_corpus
        capsys.readouterr()
        document = with_value(files[kind], path, 10**400)
        code = run_edited(directory, kind, encode_kind(kind, document))
        assert code == 0 or (code == 1 and capsys.readouterr().err.startswith("error: "))


# Inputs that ended as a raw traceback or were silently misread before
# every input file went through one typed reader; each now ends as an
# ``error:`` with exit code 1.
NAN, INF = float("nan"), float("inf")
PINNED_EDITS = [
    ("grid", (), []),
    ("grid", ("metrics",), 5),
    ("grid", ("rows", 0, "label"), 1),
    ("label", ("shapes",), [5]),
    ("label", ("shapes", 0, "points"), 5),
    ("label", ("shapes", 0, "points", 0), [0, "a"]),
    ("label", ("shapes", 0, "points", 0), [1]),
    ("label", ("shapes", 0, "points", 0, 0), 10**400),
    ("label", ("imageWidth",), True),
    ("label", ("imagePath",), 5),
    ("categories", (0, "name"), 5),
    ("categories", (0, "id"), True),
    ("manifest", ("test_image_ids",), [[1]]),
    ("manifest", ("test_image_ids",), [True]),
    ("manifest", ("test_image_ids",), [1.0]),
    ("manifest", ("spec", "seed"), True),
    ("timings", ("latency_ms",), NAN),
    ("timings", ("latency_ms",), INF),
    ("timings", ("latency_ms",), True),
    ("timings", ("latency_ms",), "12"),
    ("timings", ("latency_ms",), 10**400),
    ("filters", ("apple", "any"), "no"),
    ("filters", ("apple",), {"any": True, "attribute": "occlusion", "equals": "leaf"}),
]
PINNED_TEXTS = [
    ("annotations", b"\xff"),
    ("timings", b"\xff"),
    ("annotations", b"1" * 5000),
    ("timings", b"[" * 100_000),
]


def edit_id(kind, path, value) -> str:
    return f"{kind}:{'/'.join(map(str, path))}={json.dumps(value)[:12]}"


class TestInputContract:
    @pytest.mark.parametrize(
        "kind, path, value", PINNED_EDITS, ids=[edit_id(*case) for case in PINNED_EDITS]
    )
    def test_edit_exits_1(self, capsys, file_corpus, kind, path, value):
        directory, files = file_corpus
        capsys.readouterr()
        document = with_value(files[kind], path, value)
        assert run_edited(directory, kind, encode_kind(kind, document)) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "kind, data", PINNED_TEXTS, ids=[f"{k}:{d[:8]!r}" for k, d in PINNED_TEXTS]
    )
    def test_text_exits_1(self, capsys, file_corpus, kind, data):
        directory, _ = file_corpus
        capsys.readouterr()
        assert run_edited(directory, kind, data) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestGenerateFixturesScript:
    def test_regenerates_bundled_fixtures_byte_for_byte(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "generate_fixtures.py"),
             "--data-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        written = {p.relative_to(tmp_path): p.read_bytes() for p in tmp_path.rglob("*.json*")}
        bundled = {p.relative_to(DATA): p.read_bytes() for p in DATA.rglob("*.json*")}
        assert sorted(written) == sorted(bundled)
        assert all(written[name] == bundled[name] for name in bundled)


class TestBenchmarkTablesScript:
    def test_writes_every_artifact(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "run_benchmark_tables.py"),
             "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        artifacts = {p.name: p.read_text() for p in tmp_path.iterdir()}
        assert sorted(artifacts) == [
            "grid.json", "loss_noisy.json", "split_2_shot.json", "split_train_test.json",
            "split_zero_shot.json", "stats.md", "table.md", "timing.md",
        ]
        assert all(artifacts.values())
        assert artifacts["table.md"].startswith("| Setting |")


@pytest.fixture
def clamped_corpus(tmp_path, monkeypatch):
    """In a fresh working directory: the stats fixture with one box
    sticking out of its image, a train-test manifest of it, an empty
    prediction file, a filter file and a one-row grid."""
    monkeypatch.chdir(tmp_path)
    payload = json.loads((DATA / "fixture_stats" / "annotations.json").read_text())
    image = payload["images"][0]
    payload["annotations"][0].update(image_id=image["id"], bbox=[image["width"] - 5, 0, 20, 10])
    Path("clamped.json").write_text(json.dumps(payload))
    Path("predictions.json").write_text("[]")
    Path("filters.json").write_text(json.dumps({"apple": {"any": True}}))
    Path("grid.json").write_text(json.dumps({
        "rows": [{"label": "none", "manifest": "split.json", "predictions": "predictions.json"}]
    }))
    assert main([
        "split", "--annotations", "clamped.json", "--kind", "train-test", "--seed", "1",
        "--out", "split.json",
    ]) == 0
    return tmp_path


class TestWarningsOnStderr:
    """The CLI prints each loader's repairs itself, on stderr, naming the
    path as given without its ``./`` or trailing slash."""

    @pytest.mark.parametrize("argv", [
        ["stats"],
        ["write-coco", "--out", "out.json"],
        ["split", "--kind", "zero-shot", "--seed", "2", "--out", "zero.json"],
        ["evaluate", "--predictions", "predictions.json", "--split", "split.json"],
        ["loss", "--predictions", "predictions.json"],
        [
            "rec-eval", "--predictions", "predictions.json", "--split", "split.json",
            "--filters", "filters.json",
        ],
        ["report", "--grid", "grid.json"],
    ], ids=lambda argv: argv[0])
    def test_clamp_line(self, capsys, clamped_corpus, argv):
        code, _, err = run(capsys, argv[0], "--annotations", "./clamped.json", *argv[1:])
        assert (code, err) == (0, "clamped.json: clamped 1 out-of-image boxes\n")

    @pytest.mark.parametrize("fail, code", [(False, 0), (True, 1)])
    def test_unmapped_summary_line(self, capsys, tmp_path, monkeypatch, fail, code):
        unmapped_labels(tmp_path)
        monkeypatch.chdir(tmp_path)
        result, _, err = run(
            capsys, "ingest-labelme", "--dir", "labels/", "--categories", "cats.json",
            "--out", "out.json", *(["--fail-on-unmapped"] if fail else []),
        )
        assert result == code
        assert err.splitlines()[:2] == [
            "labels: 1 shapes with unmapped labels", "unmapped label 'pear': 1 shapes",
        ]


# `split --kind zero-shot` digests on synthetic30, seeds 0-9 per fraction.
ZERO_SHOT_DIGESTS = {
    "0.3": [
        "db44f3c3d49b8ff3d3eb238706817a7e734053e32b8559d81a9a3f610e808321",
        "f9c17f2ee6f8d5258463a5dee564b55aadc5860633b36df4b2630b30fbf8d1dd",
        "c7a08c1f398d3046f4a73ad547f2f30ffb670ef906d9365a657cc731e8a8d4bd",
        "46b2a4e532b11da314a56818a19a78189efc668e2c337588e9a20c3042f09d9b",
        "c4e3262ee8a9a887342eb109dd88826aa851d486cf0eb9d6c54fb3684f908e84",
        "65bc8f5c1454304b6f0021b3275d9f536d7c533c9812d052068c26186100a39b",
        "a25179ac5116513d84e5cc532f3f81c88741a614d6eb18a41278b740cd167ba6",
        "09309c06ed2573b83afb0d514d15f76f5eaa20cd4d4cb4f6ea26084753e5107f",
        "5ef7255ba010b842a86e09392719907199f26b00db65fae6a635f6ddaeb3e937",
        "dc6f70218aa157b7548c0ec36baba938cfc190ef74c12b9d382faedef0f5f9ae",
    ],
    "0.6": [
        "18ae1e583bd257dba081eac5fb7bcbca43972e054ce70a88d47e51cf8135e6e9",
        "c70a3885dbcc8e6680be06b34384ef6e69007ac489e220de1ed8d66ae8b73920",
        "ecaf919a8f12c1d4cc2581731849e59fcf0137ff3b99f696519832d239599700",
        "be999ed9834ac593ddd7a683c0e4619724166c7cd4797cc207a043f61811fc17",
        "e6e778f9d970d3b3169c2d5076cfe7f6ea31f56c76da83ea6764d9ab3b3c2227",
        "1353267de90edb373169beb982800444fbed8a2b135f4d4693d2d17bafa93c4f",
        "b269b128173a4d6ec2aaf34ac844bfac61df4f71131993a797b3799d87d83ec3",
        "885e4e3d0fdaae4c686f69f6c4b3f624079d7e26e9a97e8f98d0d6f732215a5a",
        "bd03975e4bf0c486985c42e79ca74b010d1cb6652a8205405e0c6237d7a2f878",
        "c116fa41a85021a6387b4a46be0cb65e9d807ae03e9c904e080297ded8107d35",
    ],
    "0.8": [
        "382806367abf7bbee52eed57b415393510e3c359b32858fb95eee65ec43c2b22",
        "45709cee4bd45c7e46f98f3766df32b888a66557fa245785a39d4e4a401fe2b6",
        "e033d2d2b562bd8529bb5245fb68f0d09fd51460e7bf6343f978badf606af2d0",
        "d1b589d0af14e1c158abf492ac14f1244b81c567f4521406c3284c160e173535",
        "e1d5187381ce3f2a1e800947bb3f969e0b61e671225d105aaa18004a812245d8",
        "c260e0c9799bff3be6b67fb03d23cc643b768cc592c94e7b525f53661ff6e17b",
        "cdd75c8b090cc78f7e2c05df67684b5fb6d58418252a408b4c32527d71a99545",
        "92eaeb93b5460ace8ac65fb238d2217efba76d733ed6bf36c5df0695c3740164",
        "386077aebdcc595e0e866c46fe10e13004498d46dde2abdcb86cb2fba443924c",
        "58266efa3f82556593551675d149b3037f181f2d3189bbb32f91e5eb47eaa0e1",
    ],
}


class TestZeroShotSplit:
    @pytest.mark.parametrize("fraction", sorted(ZERO_SHOT_DIGESTS))
    def test_golden_digests_and_k_0(self, capsys, tmp_path, fraction):
        """Zero-shot manifests keep their digests, and ``--kind k-shot
        --k 0`` writes the same file."""
        for seed, digest in enumerate(ZERO_SHOT_DIGESTS[fraction]):
            written = []
            for kind in (["zero-shot"], ["k-shot", "--k", "0"]):
                out_path = tmp_path / f"{kind[0]}.json"
                code, out, _ = run(
                    capsys, "split", "--annotations", str(SYN30 / "annotations.json"),
                    "--kind", *kind, "--fraction", fraction, "--seed", str(seed),
                    "--out", str(out_path),
                )
                assert (code, out) == (0, digest + "\n")
                written.append(out_path.read_bytes())
            assert written[0] == written[1]


# `split` digests on synthetic30 at the default fraction 0.6, seeds 0-9, per
# kind and its arguments.
SPLIT_DIGESTS = {
    "k-shot --k 1": [
        "9bd6f13915a629cd3165f0e9c9878b4e4d0b12b1315a54b0525e8f484e0f82b1",
        "2cee5edf48b6b392d69429cebff48a59286204007fa78784b19978039ca7fa98",
        "1dd56a014ffd188953a72dbb566f1a8b236fd7287a8c68a59d5656a282a6ee3d",
        "34436431596dbc7f2694cc0aa7a6bd21e60a8984ed49bb6e1dc60bc2c2c29e7c",
        "48f3a48612a12d95d01f3968574882bc1aaaa594aad72032315aab770f80938d",
        "211ded606f6ce294f2a3c5244d122067d2e02e852028813b5e8df5e45c1d6498",
        "fc46c1ddd580d1bafd4c96cfa4e3164cf213b98c064755df0b3be169c16626ed",
        "3d5b5a5144694e673c5915a479ce16cab8eee292ecf1087fe08a8f3f5f705b44",
        "8962bb72b2540b06b3e5241f291ed853b2deaaa2e4d4dd7896a1ff5680240f05",
        "3f63dd645b5b9997337992808e1c0f550e40387fbf18b6d4e7f4e35ff80333d8",
    ],
    "k-shot --k 3": [
        "4561255dfcf692304fba5a2adfcc299d9ca09526e77794f2b58f9a9e3950fa92",
        "95d5aa33e12a9fd365d6b9fa20f4881bc6df60da665df44001a65e76e337d0e4",
        "7c8ea0eb3ec1c1c49745b70fc868b20b45d8ef474c57648bdfb7779f42d893ff",
        "0c2f16e1d88c905b2c9987b9b99e02f1bc13bf364589aa585904059ca4f6bb86",
        "fdbb8a62eb7a405bcece7fc201f0f7d21a24abe623321df9757f4a55b8797635",
        "65aeeeec1ac1fc128fc4ff87134b89b3899a50ef31a2c16618fd46900b558e66",
        "6a0e1b288f5b0702f66380560e2254336b2cd6310c03052cbd187412544eb807",
        "e019c47d633afb2e63de9f4b6f9c1973470361c0226b852577e70ae616cdbd64",
        "c2cd4b7b1e0c6b82bd6e897500f651c25f1a6aae1fbbe2007857159fdacd0382",
        "9ccd6797f1392adb632f994323e0b4224acd653a02b7c212cf2ae2e9ed0930cc",
    ],
    "cross-class --held-out apple": [
        "6680216a80f2231c2c00dc0c9a1ffaa28f583ee9c12d784d7291f32ad7b925f6",
        "010d8a0799a60238aa3e19cbb33912e959677315a3a45be503a39bc80f7a365e",
        "0cb384861f33ce773988a2f57baba440a76c3d83da459477c325986457ecf8a0",
        "a11caf9401c4255dbdc3c9622753edbc6518bbee485fc3c07c80705edb4a4ee2",
        "bba1efeab4047c9ab266bc89c94c40aa31ee0eec53f555b4ff3622dea7052206",
        "278b52765dd0ec22789a6d86e04c9682a7bdd2ecfd653f581296863ecfc079a3",
        "8d1654f0708effa30e9e52f80785c7f325819497cdf7fbb6e1b8b1bba11513e2",
        "52838b236af32658bf19c90e30b5c2408ef37e6464ed7a021f657f5917e95b4f",
        "8fe8c0615f4a9c9ed92ff5992f811581dc9d01697965a350aba7e25901535ca4",
        "0280253dbec8dacd2fd7e0374ce6cd7dd2bcd82b1a0b50e83f57c41bff4e2a0d",
    ],
    "cross-class --held-out orange": [
        "977b4ea45ef2b259d530456f842e6bbdb151b0660d13b98ac39ede167fe115ed",
        "f8d0cea2df397c0cddda1052621e5cace172b2aa6c90021d8f9f4663478d7495",
        "113c0fc8e6e28bb495d28607dc90f9308a8d7d33e0418275a6323d803ce9f07b",
        "f221540db63a0d057a6a21c465ca0ebcfa59556f2bedab918a750dc1c4b1475f",
        "f57ded497390664d5541cc57df7bddfed98c73d785a672041589c4ea4e5b496e",
        "e092fd8cc92d811c0dba736e5e66a38217bfab8023501abbc385ed893f604d51",
        "f7e42c504df7dc6aa007bc8d9ae95db1879bc4dd254ee54994d442689193c306",
        "45a5e1596c48383b1bc8e70d091f5daf50940a8b067f3b208c467af9f3a12721",
        "657cd723b1fda216ffcf8b2ac701d1935b21061ef2cd30eaa7abd8dd1a8a4d59",
        "d8cb294f204748564fcbf44d22230c89c3aa0a2361ca1f4dd2641d71d6691ee6",
    ],
    "cross-class --held-out lemon": [
        "3af94712fa2a1925eace239011dd3ae519b42639b1e135db4b9ed80905835ae7",
        "a94ae046ce7984f7bb8383a9a8824e79209d322a14406e5740c97b8a0e2b5f59",
        "5cfced02fd72d1dc99ce3113c63ca0daf7d8194bc63bc982f4e5daa8183a6cab",
        "efe28bd864586fd8557805664dd2fbc77191a6f969b2a63b652a0dc86e9f3bda",
        "27f7c9148c34d410531d87fc6110f5c8408c2f9ee82406683b27ec5fe957f30e",
        "cd463c51bc8a46f0c8818c4afe4591db6df8a13a7d2e8aa2bf594daea6c8e802",
        "9b70adcc3aa03b15dcbb6e88c211c133ee1fc77b546dc853ff8528c0abd4f0eb",
        "dcb58aa92bbf0cede9ed3b470c4e3cb740f5e81ff3505151369da321ff22cd84",
        "5ad3f8e12535d132bb7ae4ceafe98f77014766f3b77d8fd667dd9a661543f99f",
        "2c24a81d43066621b0fdabd9e0284ca0865a93b3193a1bd29efd1cd4a3642c79",
    ],
    "cross-class --held-out grapefruit": [
        "86648d0dd5fb52f5ab0344b1b3892879988e02aa37000a5602dc12cf1db2f9cc",
        "72b48718ecbb36a9e4da97f49319ff469839989e4f199c5f7eeec4bdb6b8a0ae",
        "d8bff2716e0f6f3361778851ea0da84296cf517d47f223e3858c77b61467c923",
        "3a89adfc5a8a693d85dd1107965b7d5239ddee3ab9847983c46689bb5a8f7843",
        "666143e86d688345faf8cb8bd24fdd474da47e74e2d84e5fe56e6e98e382acc1",
        "b55d255ecb4e0f29b7bf729fc37ed334608d12273acf082c96c6820dfc1997ca",
        "6e7f1892fb35218c4c6ab1e5366170b69153b1f71bff7202a7ff0e6c61049a0b",
        "ade8fe328fc9bd028ca0ee60f27755a609449dad7f10a8b096b4e84ca69fc0b2",
        "65df0e50767765582eb2fe70b3dd0f7823aaa1b1d64e981026331947e9b08a49",
        "629a90b76913b41d6e741a65c81244a15d5f3c39e86dbd259d7538f2757121bf",
    ],
    "cross-class --held-out tangerine": [
        "b0e194cfa428c71e4dbdc97249ab36e4f0f0b24c3789bc6cdf5d2c14504d7157",
        "d4736da55c2f51a186ac17a283253cb211a55c9f3f2ed5a9e19bc1e6ce5348b2",
        "5786d7d7c80beb686d1a5a21009df32d5894feb2c7016bdd373867554ddabe00",
        "edacfa33025f6812a64cce88a152e5321bf46ba1d63c7d37c7b7098a3baac8e0",
        "bbddef234332363436b8ee0be2c7c9ec6b8439127c099ec279182ebdd26cf3c2",
        "e297bd2dd3a8dba276df01cb4d687be8adb8a4564f1aed405ecc435771b6bf5d",
        "94976135c04c6c97448381b6b2f6139905423a8dec3033cc1822f2738134cb05",
        "0d3815ea85ab06c0da046dffb41b797b8d5a6f6c36a7af8cceb52b4e37097541",
        "42aa7de4d87aafcc4fb8a3b985f3aa86c2099c0cd98c0b29a8c5079c7a548456",
        "4fbe161e730f2ba12955f3350a768b91e2d12f22e6863c6d76cf6100daf268d5",
    ],
}


class TestShotAndCrossClassSplits:
    @pytest.mark.parametrize("kind", sorted(SPLIT_DIGESTS))
    def test_golden_digests(self, capsys, tmp_path, kind):
        """k-shot and cross-class manifests keep their digests."""
        for seed, digest in enumerate(SPLIT_DIGESTS[kind]):
            code, out, _ = run(
                capsys, "split", "--annotations", str(SYN30 / "annotations.json"),
                "--kind", *kind.split(), "--seed", str(seed), "--out", str(tmp_path / "split.json"),
            )
            assert (code, out) == (0, digest + "\n")


class TestPredictionLoadCalls:
    """Every prediction file a subcommand scores is read by one call of
    ``datamodel.load_predictions``, looked up on the module at call time."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from fruitbench import datamodel

        counted = []
        load = datamodel.load_predictions

        def counting(path, ds):
            counted.append(Path(path).name)
            return load(path, ds)

        monkeypatch.setattr(datamodel, "load_predictions", counting)
        return counted

    def test_one_call_per_file(self, capsys, tmp_path, split_manifest, calls):
        rec = tmp_path / "rec.json"
        records = json.loads((SYN30 / "predictions_perfect.json").read_text())
        rec.write_text(json.dumps([{**r, "prompt": "apple"} for r in records]))
        filters = tmp_path / "filters.json"
        filters.write_text(json.dumps({"apple": {"any": True}}))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"rows": [
            {
                "label": name, "manifest": str(split_manifest),
                "predictions": str(SYN30 / f"predictions_{name}.json"),
            }
            for name in ("perfect", "noisy", "empty")
        ]}))
        scored = ["--annotations", str(SYN30 / "annotations.json")]
        perfect = ["--predictions", str(SYN30 / "predictions_perfect.json")]
        commands = {
            "evaluate": [*perfect, "--split", str(split_manifest)],
            "rec-eval": [
                "--predictions", str(rec), "--split", str(split_manifest),
                "--filters", str(filters),
            ],
            "report": ["--grid", str(grid)],
            "loss": perfect,
        }
        expected = {
            "evaluate": ["predictions_perfect.json"],
            "rec-eval": ["rec.json"],
            "report": [f"predictions_{n}.json" for n in ("perfect", "noisy", "empty")],
            "loss": ["predictions_perfect.json"],
        }
        for command, argv in commands.items():
            calls.clear()
            code, _, err = run(capsys, command, *scored, *argv)
            assert code == 0, err
            assert calls == expected[command], command


class TestInstancesBuiltOnRead:
    """``load_coco`` lays the ground truth out as columns and builds a
    ``GroundTruthInstance`` only when a row is read: subcommands that score
    from the columns build none."""

    @pytest.fixture
    def built(self, monkeypatch):
        from fruitbench import datamodel

        counted = []
        check = datamodel.GroundTruthInstance.__post_init__

        def counting(instance):
            counted.append(instance.id)
            check(instance)

        monkeypatch.setattr(datamodel.GroundTruthInstance, "__post_init__", counting)
        return counted

    def test_column_subcommands_build_none(self, capsys, tmp_path, split_manifest, built):
        rec = tmp_path / "rec.json"
        records = json.loads((SYN30 / "predictions_noisy.json").read_text())
        prompts = ("apple", "unoccluded")
        rec.write_text(json.dumps([{**r, "prompt": prompts[k % 2]} for k, r in enumerate(records)]))
        filters = tmp_path / "filters.json"
        filters.write_text(json.dumps({
            "apple": {"any": True}, "unoccluded": {"attribute": "occlusion", "equals": "none"},
        }))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"rows": [
            {
                "label": name, "manifest": str(split_manifest),
                "predictions": str(SYN30 / f"predictions_{name}.json"),
            }
            for name in ("perfect", "noisy")
        ]}))
        scored = ["--annotations", str(SYN30 / "annotations.json")]
        commands = {
            "split": [
                "--kind", "k-shot", "--k", "2", "--seed", "5", "--out", str(tmp_path / "k.json"),
            ],
            "evaluate": [
                "--predictions", str(SYN30 / "predictions_noisy.json"),
                "--split", str(split_manifest),
            ],
            "rec-eval": [
                "--predictions", str(rec), "--split", str(split_manifest),
                "--filters", str(filters),
            ],
            "report": ["--grid", str(grid)],
            "stats": [],
        }
        for command, argv in commands.items():
            code, _, err = run(capsys, command, *scored, *argv)
            assert code == 0, err
            assert built == [], command

    def test_length_builds_none(self, built):
        from fruitbench import datamodel

        ds, _ = datamodel.load_coco(SYN30 / "annotations.json")
        assert len(ds.instances) > 0 and built == []

    def test_dataset_check_raises_from_the_columns(self, tmp_path, built):
        """A duplicate category fails a dataset check, not a record: it
        raises straight from the columns, with no record replayed and no
        instance built."""
        from fruitbench import datamodel
        from fruitbench.errors import ValidationError

        payload = json.loads((SYN30 / "annotations.json").read_text())
        payload["categories"].append({"id": 1, "name": "duplicate"})
        path = tmp_path / "annotations.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="^duplicate category id 1$"):
            datamodel.load_coco(path)
        assert built == []

    @pytest.mark.parametrize("check", ["duplicate category", "unknown image"])
    def test_record_error_wins_over_dataset_check(self, tmp_path, check):
        """A bad record raises before a dataset check, wherever in the file
        it sits: the last annotation's box beats a duplicate category, or
        the first annotation's unknown image."""
        from fruitbench import datamodel
        from fruitbench.errors import ValidationError

        payload = json.loads((SYN30 / "annotations.json").read_text())
        if check == "duplicate category":
            payload["categories"].append({"id": 1, "name": "duplicate"})
        else:
            payload["annotations"][0]["image_id"] = 999
        last = payload["annotations"][-1]
        last["bbox"] = [0, 0, -1, 1]
        path = tmp_path / "annotations.json"
        path.write_text(json.dumps(payload))
        message = rf"^annotation {last['id']}: negative box size: w=-1\.0, h=1\.0$"
        with pytest.raises(ValidationError, match=message):
            datamodel.load_coco(path)

    def test_loss_builds_no_row_objects(self, capsys, monkeypatch, split_manifest, built):
        """``loss`` scores from the prediction table and the ground-truth
        columns: it builds no ``GroundTruthInstance`` or ``BoundingBox``."""
        from fruitbench import geometry

        check = geometry.BoundingBox.__post_init__

        def counting(box):
            built.append("BoundingBox")
            check(box)

        monkeypatch.setattr(geometry.BoundingBox, "__post_init__", counting)
        for split in (["--split", str(split_manifest)], []):
            code, out, err = run(
                capsys, "loss", "--annotations", str(SYN30 / "annotations.json"),
                "--predictions", str(SYN30 / "predictions_noisy.json"), *split,
            )
            assert code == 0, err
            assert json.loads(out)["per_image"]
            assert built == []


class TestConfigPathNamedLikeASubcommand:
    @pytest.mark.parametrize("config", [
        ["--config", "split"], ["--conf", "split"], ["--c", "split"], ["--config=split"],
        ["--json-errors", "--config", "split"],
    ], ids=" ".join)
    def test_config_file_is_read(self, capsys, tmp_path, monkeypatch, config):
        """A config file named like a subcommand is the config file, not
        the subcommand, in every form argparse reads ``--config`` in."""
        monkeypatch.chdir(tmp_path)
        Path("split").write_text(json.dumps({"stats": {"format": "csv"}}))
        code, out, err = run(
            capsys, *config, "stats",
            "--annotations", str(DATA / "fixture_stats" / "annotations.json"),
        )
        assert code == 0, err
        assert out.startswith("Category,")


def golden_corpus(directory: Path) -> dict[str, Path]:
    """A seeded 12-image corpus with crowd regions, occlusion attributes
    (some missing) and prompted detections. Image and instance ids are
    sparse and instances are written out of id order, so an image's ground
    truth is not a run of instance ids; ``pear`` has detections but no
    ground truth, and the ``unlabelled`` prompt has ground truth but no
    detections."""
    rng = random.Random("golden-outputs")
    categories = [{"id": c, "name": n} for c, n in ((2, "apple"), (5, "orange"), (7, "lemon"))]
    categories.append({"id": 9, "name": "pear"})
    images = [
        {"id": 3 * k + 4, "file_name": f"g{k}.jpg", "width": 64, "height": 48} for k in range(12)
    ]
    ids = iter(rng.sample(range(1, 1000), 200))
    annotations, predictions = [], []
    prompts = ("any fruit", "unoccluded", "occluded")
    for image in images:
        cats = rng.sample([2, 5, 7], rng.randint(1, 2))
        for _ in range(rng.randint(6, 14)):
            wq, hq = rng.randint(4, 80), rng.randint(4, 64)  # quarter pixels
            w, h = wq / 4, hq / 4
            bbox = [rng.randint(0, 256 - wq) / 4, rng.randint(0, 192 - hq) / 4, w, h]
            ann = {
                "id": next(ids), "image_id": image["id"], "category_id": rng.choice(cats),
                "bbox": bbox, "iscrowd": int(rng.random() < 0.12),
            }
            if rng.random() < 0.8:
                ann["attributes"] = {"occlusion": rng.choice(["none", "leaf", "branch"])}
            annotations.append(ann)
            for _ in range(rng.randint(0, 2)):
                x, y = bbox[0] + rng.randint(-8, 8) / 4, bbox[1] + rng.randint(-8, 8) / 4
                box = [min(max(x, 0.0), 64 - w), min(max(y, 0.0), 48 - h), w, h]
                category_id = ann["category_id"]
                if rng.random() >= 0.85:
                    category_id = rng.choice([2, 5, 7, 9])
                predictions.append((image["id"], category_id, box))
        for _ in range(3):
            predictions.append((image["id"], rng.choice([*cats, 9]), [
                rng.randint(0, 160) / 4, rng.randint(0, 120) / 4,
                rng.randint(4, 96) / 4, rng.randint(4, 72) / 4,
            ]))
    rng.shuffle(annotations)
    records = []
    for image_id, category_id, box in predictions:
        score = rng.randint(1, 20) / 20  # coarse grid: score ties are common
        for prompt in ("any fruit", rng.choice(prompts[1:])):
            records.append({
                "image_id": image_id, "category_id": category_id, "bbox": box,
                "score": score, "prompt": prompt,
            })
    filters = {
        "any fruit": {"any": True},
        "unoccluded": {"attribute": "occlusion", "equals": "none"},
        "occluded": {"attribute": "occlusion", "in": ["leaf", "branch"]},
        "unlabelled": {"attribute": "occlusion", "not_in": ["none", "leaf", "branch"]},
    }
    payload = {"images": images, "annotations": annotations, "categories": categories}
    paths = {
        "annotations": directory / "annotations.json",
        "predictions": directory / "predictions.json",
        "filters": directory / "filters.json",
    }
    for key, value in (("annotations", payload), ("predictions", records), ("filters", filters)):
        paths[key].write_text(json.dumps(value))
    return paths


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    corpus = {"golden": golden_corpus(directory)}
    corpus["synthetic30"] = {
        "annotations": SYN30 / "annotations.json",
        "predictions": SYN30 / "predictions_noisy.json",
    }
    for name, paths in corpus.items():
        paths["split"] = directory / f"{name}_split.json"
        assert main([
            "split", "--annotations", str(paths["annotations"]), "--kind", "train-test",
            "--fraction", "0.5", "--seed", "11", "--out", str(paths["split"]),
        ]) == 0
    syn30_rows = [
        {"label": n, "manifest": str(corpus["synthetic30"]["split"]),
         "predictions": str(SYN30 / f"predictions_{n}.json")}
        for n in ("perfect", "noisy", "empty")
    ]
    golden_rows = [{
        "label": "prompted", "manifest": str(corpus["golden"]["split"]),
        "predictions": str(corpus["golden"]["predictions"]),
    }]
    for name, rows in (("synthetic30", syn30_rows), ("golden", golden_rows)):
        for output_format in ("markdown", "csv", "json"):
            grid = directory / f"{name}_{output_format}.json"
            grid.write_text(json.dumps({"format": output_format, "rows": rows}))
            corpus[name][f"grid {output_format}"] = grid
    return corpus


# sha256 of stdout per case: subcommand, corpus, output format and scoring
# settings ("custom" is --max-dets 7 --thresholds 0.3,0.5,0.7, and for
# ``loss`` --weights 2,0.5,3 --no-unmatched-contrastive; "-all-images"
# scores every image instead of the split's test images).
GOLDEN_OUTPUT_DIGESTS = {
    "evaluate golden json custom":
        "8e5c86e51b47f3c186e3765b367a94526994c5f1c105ed90895f8b807d9bbce9",
    "evaluate golden json default":
        "76be5002754e8aaf2333696b8d5464f2155d9742c553cb46caece1701e55120b",
    "evaluate golden markdown custom":
        "a91cbcdad5677f67ceb19dabe9d3888c532a1f0f88ba40ccbfcc37a7edfee6e7",
    "evaluate golden markdown default":
        "e47d840cb95b9867d8af61dea00cfab805ddc47334f1cc069c39490613a74f8d",
    "evaluate synthetic30 json custom":
        "61c75d533917e14babfe165df7204c298689030f3475acc006563035fd8a1392",
    "evaluate synthetic30 json default":
        "768eef7d9306bbc6d7ad14dfcbb93b2a091889e80954949b5111c9c3af2ae880",
    "evaluate synthetic30 markdown custom":
        "f8796d08250c7ee4dcebb3ba8fc23ab775743de9d1fa2b737b50f8b3a0757782",
    "evaluate synthetic30 markdown default":
        "3922056f2bd524fc148fe21e3ed91ee980b5048cd64583c72ac0eed68fb0b04f",
    "loss golden json custom":
        "4c6eb8374edd47ad45a40260d0ff8028cf135a6189195ca3ff62a304c2499708",
    "loss golden json custom-all-images":
        "962664e005aba0ec180026f2989b594c002227bda446854167bd05e1f1d04b9a",
    "loss golden json default":
        "8621870668b771386614d5daa0000ab78c4710f5ade3fd4b6f0e76707d6cf66e",
    "loss golden json default-all-images":
        "356e13e7a123a4d21e5103b621105a3921d9b89951970052a994eb2e42ec003a",
    "loss synthetic30 json custom":
        "adaa245112d079253ce41736d5af067ca1bf62aa237e3f6200ef1943c3b51549",
    "loss synthetic30 json custom-all-images":
        "dc3e5601719558bdc43f1e8d94b2e32f92ceac6e358489f1fbf4043b2929846b",
    "loss synthetic30 json default":
        "474e07a39417e030702d110354ea28faee75ace1fbefa881af45d2f31d84b20e",
    "loss synthetic30 json default-all-images":
        "685baceee1d95a06f8fb016db2b8b531494ca4761388639a5c379fd4005a143e",
    "rec-eval golden json custom":
        "a15c412bc92904f8609a390ac05b29dc5eac5fcccb6250809fcdf49ef0532ff6",
    "rec-eval golden json default":
        "44b60d8875afa8a9f2faacbc3e388f0b30db118a9510f68856dbc9ed1093db8f",
    "rec-eval golden markdown custom":
        "86281b643466dc22090f601c1fba6be15449aee0ce39ebab9e06d7a3bef2b5ef",
    "rec-eval golden markdown default":
        "56e4e270da8d54a18237d85e1c64775649d0dd465eaba1e6c6dac500e343d68c",
    "report golden csv custom":
        "fcb861e62dd8f6dfa65a4efbf3ccaf3c60ca7727af43ccc62478b2dd47a17863",
    "report golden csv default":
        "8ce5198e57f58aef88e6f353e721d6c2f2a0164dbce30983a5c1834fa68f0f2d",
    "report golden json custom":
        "b6d24560f3a599641a16dde9af027a9445e8b67e6bf17ae9196f428c0f1a0447",
    "report golden json default":
        "d32e79e0ee5e9ae6ccfa7b7620bc4edf0cca2d65a7d71260e57fa97920bff3cb",
    "report golden markdown custom":
        "05ff6b532b3c8ccc2797ea79714b9208de538f6f8ca931e5772e503b2e8a497a",
    "report golden markdown default":
        "0d64a2c8a143cdb29b87fefd01150ef026f75d458b33ebd95f4476236adbb2a5",
    "report synthetic30 csv custom":
        "810ad4f8fe18be5f16699b0c31942c5547f8efefb80f580ae935a715285183d7",
    "report synthetic30 csv default":
        "94dde3558d655d55b0257c0a171c790eabbc99a0fc848479c3cca138249dd726",
    "report synthetic30 json custom":
        "262bac585db3cdf508267a84ec23d7c3e4c1b6be148de73804f5df9270a3a59a",
    "report synthetic30 json default":
        "8ee32447be8a578ebd159f028d64d3573b3725c6dbe89436260cf1041cfaf183",
    "report synthetic30 markdown custom":
        "b71f2e5a9e3dea8eb44fba6ff8d902495e73984b4f3e665097da251dbb228112",
    "report synthetic30 markdown default":
        "05aa362207bb95c850e7686446baaa4dabca0c383fcbc6b0d7acb0c043984ee2",
}

# sha256 of stdout per table case: subcommand, input and output format.
GOLDEN_TABLE_DIGESTS = {
    "stats fixture_stats csv":
        "c0df98b089f68788cc255c9c129318903617a292c817f6030c4e9cbd2f48154d",
    "stats fixture_stats json":
        "1d885e1f32c43d3c13a9ca7107777513a8a6bc3108e615752260ff9eaa41f52c",
    "stats fixture_stats markdown":
        "7e77df3986fd4d5c1a809633736462009def7f51e25d4c059ca4db8339fc220b",
    "stats synthetic30 csv":
        "b5a2b93533d97764cce07caab9c574852ecca821e0d17e45ed792acb07d26a8c",
    "stats synthetic30 json":
        "f8004b283bb660ddc222f4133001420502303c1bcc6d2ce728936ed90a727097",
    "stats synthetic30 markdown":
        "901f5b88ee83f56825932257dd65be367eac69372248094cb6eb91aa4bde22c0",
    "bench timing csv":
        "d1c0ac466e7aaf20c28426ee590dbbd51e43cbd43331535b91c515d180fadd83",
    "bench timing json":
        "30843bc6871c8687bfb5109a70a88f302ddcf8561b2d032f6f60a1bb88748994",
    "bench timing markdown":
        "9a41e87bfa2e0c79ccbf22e412eed129eaa23fbe0b6d9af37a36a8e1d6d05e4c",
}


def table_argv(case):
    """The command line of a ``GOLDEN_TABLE_DIGESTS`` case."""
    command, source, output_format = case.split()
    if command == "stats":
        argv = ["--annotations", str(DATA / source / "annotations.json")]
    else:
        argv = ["--timings", str(DATA / f"{source}.jsonl")]
    return [command, *argv, "--format", output_format]


def output_argv(case, golden_inputs):
    """The command line of a ``GOLDEN_OUTPUT_DIGESTS`` case."""
    command, corpus, output_format, settings = case.split()
    settings, _, scope = settings.partition("-")
    paths = golden_inputs[corpus]
    argv = [command, "--annotations", str(paths["annotations"])]
    if command == "report":
        argv += ["--grid", str(paths[f"grid {output_format}"])]
    else:
        argv += ["--predictions", str(paths["predictions"])]
        if scope != "all-images":
            argv += ["--split", str(paths["split"])]
    if command == "rec-eval":
        argv += ["--filters", str(paths["filters"])]
    if command == "loss":
        assert output_format == "json"  # ``loss`` writes JSON only
        if settings == "custom":
            argv += ["--weights", "2,0.5,3", "--no-unmatched-contrastive"]
    else:
        if command != "report":  # a report's grid file sets its format
            argv += ["--format", output_format]
        if settings == "custom":
            argv += ["--max-dets", "7", "--thresholds", "0.3,0.5,0.7"]
    return argv


class TestGoldenOutputs:
    @pytest.mark.parametrize("case", sorted(GOLDEN_TABLE_DIGESTS))
    def test_table_digest(self, capsys, case):
        """Statistics and timing tables stay byte for byte what they were."""
        code, out, err = run(capsys, *table_argv(case))
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_TABLE_DIGESTS[case]

    @pytest.mark.parametrize("case", sorted(GOLDEN_OUTPUT_DIGESTS))
    def test_stdout_digest(self, capsys, golden_inputs, case):
        """Scoring output stays byte for byte what it was."""
        code, out, err = run(capsys, *output_argv(case, golden_inputs))
        assert code == 0, err
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_OUTPUT_DIGESTS[case]

    def test_digests_hold_under_a_compensated_sum(self, capsys, golden_inputs, monkeypatch):
        """Every total adds left to right: with the builtin ``sum`` of
        Python 3.12 and later in place, which compensates float rounding,
        every digest stays what it is."""
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        cases = [(case, table_argv(case), digest) for case, digest in GOLDEN_TABLE_DIGESTS.items()]
        cases += [
            (case, output_argv(case, golden_inputs), digest)
            for case, digest in GOLDEN_OUTPUT_DIGESTS.items()
        ]
        changed = []
        for case, argv, digest in cases:
            code, out, _ = run(capsys, *argv)
            if (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) != (0, digest):
                changed.append(case)
        assert changed == []

    @pytest.mark.parametrize("max_dets", ["100", str(2**64)])
    def test_a_cap_past_int64_scores_as_the_default(self, capsys, golden_inputs, max_dets):
        """No cell of the corpus holds 100 detections, so a cap of 2**64
        keeps the same rows as the default cap; the markdown table carries
        no cap, so its digest is the default one."""
        paths = golden_inputs["synthetic30"]
        code, out, err = run(
            capsys, "evaluate", "--annotations", str(paths["annotations"]),
            "--predictions", str(paths["predictions"]), "--split", str(paths["split"]),
            "--format", "markdown", "--max-dets", max_dets,
        )
        assert code == 0, err
        digest = GOLDEN_OUTPUT_DIGESTS["evaluate synthetic30 markdown default"]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
