"""The three benchmark workloads: their corpus, the CLI invocations that
make up one op, and the untimed check of the op's output.

An op is one or two ``fruitbench.cli.main`` invocations whose outputs go
to files in the corpus directory; ``loss-detr`` has one op per shard of
its corpus. Checks compare the engine against the
independent oracles in ``tests/oracles.py`` (evaluation) or against
``scipy.optimize.linear_sum_assignment`` (set loss); they run outside
every timed region.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import corpora
from fruitbench import datamodel, evaluation, splits
from tests import oracles

# Images of the test split re-scored by the naive oracle in the check. The
# oracle rescans every detection per image, so its cost grows with the
# square of the subset; these sizes keep the check a small share of a run.
SPARSE_CHECK_IMAGES = 40
DENSE_CHECK_IMAGES = 4

# The category-token reduction of ``fruitbench loss``: a detection's logit
# for its own category is the log-odds of its clamped score, every other
# token gets the logit of the clamp floor.
SCORE_EPS = 1e-7


@dataclass
class Op:
    """One op: CLI invocations run in order, the files they write (hashed
    with their stdout) and the number of images they score."""

    argvs: list[list[str]]
    outputs: list[Path]
    images: int = 0


class Workload:
    """One generated corpus plus its ops. Timed ops cycle through ``ops``.
    Constructors take ``run_cli`` for set-up steps that need the CLI."""

    ops: list[Op]
    files: dict[str, Path]  # generated inputs

    def images_scored(self, index: int) -> int:
        return self.ops[index].images

    def check(self, rng: random.Random, ran: list[int]) -> list[str]:
        """Problems found in the outputs of the ops with index in ``ran``
        (empty when they are correct)."""
        raise NotImplementedError


def _compare_to_oracle(report, expected, context: str) -> list[str]:
    """Bit-for-bit comparison of an engine report with ``naive_evaluate``."""
    problems = []
    for row in report.per_category:
        want = expected["per_category"][row.category_id]
        got = {
            "per_threshold_ap": list(row.per_threshold_ap),
            "per_threshold_ar": list(row.per_threshold_ar),
            "mAP": row.map,
            "AP50": row.ap50,
            "mAR": row.mar,
            "num_gt": row.num_gt,
        }
        for key, value in got.items():
            if value != want[key]:
                problems.append(f"{context} {row.name} {key}: engine {value!r}, oracle {want[key]!r}")
    for key, value in (("mAP", report.mean_ap), ("AP50", report.mean_ap50), ("mAR", report.mean_ar)):
        if value != expected["aggregate"][key]:
            problems.append(
                f"{context} aggregate {key}: engine {value!r}, oracle {expected['aggregate'][key]!r}"
            )
    return problems


def _test_subset(split: splits.SplitResult, rng: random.Random, size: int) -> splits.SplitResult:
    ids = sorted(rng.sample(list(split.test_image_ids), min(size, len(split.test_image_ids))))
    return splits.SplitResult((), tuple(ids), split.spec, split.manifest_digest)


class GridSparse(Workload):
    """``split --kind k-shot`` then ``report`` over one row per model."""

    def __init__(self, directory: Path, seed: int, scale: corpora.Scale, run_cli):
        self.files = corpora.grid_sparse(directory, seed, scale)
        self.manifest = directory / "shot5.json"
        self.table = directory / "table.md"
        grid = directory / "grid.json"
        rows = [
            {
                "label": model,
                "manifest": self.manifest.name,
                "predictions": self.files[f"predictions_{model}"].name,
            }
            for model, _, _ in corpora.SPARSE_MODELS
        ]
        grid.write_text(json.dumps({"format": "markdown", "rows": rows}) + "\n", encoding="utf-8")
        annotations = str(self.files["annotations"])
        argvs = [
            [
                "split", "--annotations", annotations, "--kind", "k-shot", "--k", "5",
                "--fraction", "0.6", "--seed", str(seed % 2**63), "--out", str(self.manifest),
            ],
            ["report", "--annotations", annotations, "--grid", str(grid), "--out", str(self.table)],
        ]
        self.ops = [Op(argvs, [self.manifest, self.table])]

    def images_scored(self, index: int) -> int:
        if not self.ops[0].images:
            manifest = json.loads(self.manifest.read_text(encoding="utf-8"))
            self.ops[0].images = len(manifest["test_image_ids"]) * len(corpora.SPARSE_MODELS)
        return self.ops[0].images

    def check(self, rng, ran):
        problems = []
        lines = self.table.read_text(encoding="utf-8").splitlines()
        labels = [line.split("|")[1].strip() for line in lines[2:]]
        if labels != [model for model, _, _ in corpora.SPARSE_MODELS]:
            problems.append(f"grid rows {labels!r} do not match the models")
        ds, _ = datamodel.load_coco(self.files["annotations"])
        subset = _test_subset(splits.load_manifest(self.manifest), rng, SPARSE_CHECK_IMAGES)
        for model, _, _ in corpora.SPARSE_MODELS:
            dets = datamodel.load_predictions(self.files[f"predictions_{model}"], ds)
            report = evaluation.evaluate(ds, subset, dets)
            expected = oracles.naive_evaluate(
                ds, subset, dets, evaluation.DEFAULT_IOU_THRESHOLDS, 100
            )
            problems += _compare_to_oracle(report, expected, model)
        return problems


def _prompt_filter(spec):
    """The benchmark's own reading of the predicates in ``REC_FILTERS``."""
    if spec.get("any"):
        return lambda inst: True
    if "equals" in spec:
        return lambda inst: inst.attributes.get(spec["attribute"], "") == spec["equals"]
    return lambda inst: inst.attributes.get(spec["attribute"], "") in spec["in"]


class RecDense(Workload):
    """``rec-eval`` of every prompt on a 0.5 train-test manifest."""

    def __init__(self, directory: Path, seed: int, scale: corpora.Scale, run_cli):
        self.files = corpora.rec_dense(directory, seed, scale)
        self.manifest = directory / "train_test.json"
        annotations = str(self.files["annotations"])
        run_cli(
            [
                "split", "--annotations", annotations, "--kind", "train-test",
                "--fraction", "0.5", "--seed", str(seed % 2**63), "--out", str(self.manifest),
            ]
        )
        self.test_images = len(
            json.loads(self.manifest.read_text(encoding="utf-8"))["test_image_ids"]
        )
        self.dets_per_image = scale.dets_per_image[0]
        self.report = directory / "rec_report.json"
        argv = [
            "rec-eval", "--annotations", annotations,
            "--predictions", str(self.files["predictions"]),
            "--split", str(self.manifest), "--filters", str(self.files["filters"]),
            "--out", str(self.report),
        ]
        self.ops = [Op([argv], [self.report], self.test_images * len(corpora.REC_FILTERS))]

    def check(self, rng, ran):
        problems = []
        reports = json.loads(self.report.read_text(encoding="utf-8"))
        expected_used = self.test_images * self.dets_per_image
        for prompt, report in zip(sorted(corpora.REC_FILTERS), reports):
            if report.get("prompt") != prompt:
                problems.append(f"report for {report.get('prompt')!r} where {prompt!r} was due")
            if report["counts"]["detections_used"] != expected_used:
                problems.append(
                    f"{prompt}: {report['counts']['detections_used']} detections used, "
                    f"expected {expected_used}"
                )
            kept = sum(row["num_detections"] for row in report["per_category"].values())
            if kept != self.test_images * report["max_dets"]:
                problems.append(f"{prompt}: {kept} detections kept, expected the max_dets cap")
        ds, _ = datamodel.load_coco(self.files["annotations"])
        subset = _test_subset(splits.load_manifest(self.manifest), rng, DENSE_CHECK_IMAGES)
        dets = datamodel.load_predictions(self.files["predictions"], ds)
        filters = {
            prompt: evaluation.attribute_predicate(spec)
            for prompt, spec in corpora.REC_FILTERS.items()
        }
        for report in evaluation.evaluate_rec(ds, subset, dets, filters):
            keep = _prompt_filter(corpora.REC_FILTERS[report.prompt])
            filtered = datamodel.DetectionDataset(
                list(ds.categories), list(ds.images), [a for a in ds.instances if keep(a)]
            )
            prompt_dets = [d for d in dets if d.prompt == report.prompt]
            expected = oracles.naive_evaluate(
                filtered, subset, prompt_dets, evaluation.DEFAULT_IOU_THRESHOLDS, 100
            )
            problems += _compare_to_oracle(report, expected, report.prompt)
        return problems


def _bce(logits: np.ndarray, target: np.ndarray) -> np.ndarray:
    return np.maximum(logits, 0.0) - logits * target + np.log1p(np.exp(-np.abs(logits)))


def _cxcywh(boxes: np.ndarray, w: float, h: float) -> np.ndarray:
    x0, y0, x1, y1 = boxes.T
    return np.stack([(x0 + x1) / 2.0 / w, (y0 + y1) / 2.0 / h, (x1 - x0) / w, (y1 - y0) / h], 1)


def _corners(records) -> np.ndarray:
    xywh = np.array([r["bbox"] for r in records], dtype=np.float64).reshape(-1, 4)
    return np.concatenate([xywh[:, :2], xywh[:, :2] + xywh[:, 2:]], 1)


def loss_terms(image: dict, gts: list[dict], preds: list[dict], n_tokens: int):
    """Independent numpy form of the matching-cost terms of one image:
    (l1, 1 - giou, contrastive) as (P, G) matrices plus each prediction's
    contrastive penalty against the all-negative mask."""
    w, h = float(image["width"]), float(image["height"])
    p, g = _corners(preds), _corners(gts)
    l1 = np.abs(_cxcywh(p, w, h)[:, None, :] - _cxcywh(g, w, h)[None, :, :]).sum(2)
    lt = np.maximum(p[:, None, :2], g[None, :, :2])
    rb = np.minimum(p[:, None, 2:], g[None, :, 2:])
    inter = np.clip(rb - lt, 0.0, None).prod(2)
    area_p = (p[:, 2] - p[:, 0]) * (p[:, 3] - p[:, 1])
    area_g = (g[:, 2] - g[:, 0]) * (g[:, 3] - g[:, 1])
    union = area_p[:, None] + area_g[None, :] - inter
    enclose = (
        np.maximum(p[:, None, 2:], g[None, :, 2:]) - np.minimum(p[:, None, :2], g[None, :, :2])
    ).prod(2)
    giou_loss = 1.0 - (inter / union - (enclose - union) / enclose)
    floor = math.log(SCORE_EPS / (1.0 - SCORE_EPS))
    logits = np.full((len(preds), n_tokens), floor)
    for i, pred in enumerate(preds):
        score = min(max(pred["score"], SCORE_EPS), 1.0 - SCORE_EPS)
        logits[i, pred["category_id"] - 1] = math.log(score / (1.0 - score))
    masks = np.zeros((len(gts), n_tokens))
    for j, gt in enumerate(gts):
        masks[j, gt["category_id"] - 1] = 1.0
    contrastive = np.stack([_bce(logits, m).mean(1) for m in masks], 1)
    negative = _bce(logits, np.zeros(n_tokens)).mean(1)
    return l1, giou_loss, contrastive, negative


class LossDetr(Workload):
    """``loss`` with default weights; each op scores one shard of images."""

    def __init__(self, directory: Path, seed: int, scale: corpora.Scale, run_cli):
        self.files = corpora.loss_detr(directory, seed, scale)
        self.ops = []
        for k in range(scale.shards):
            report = directory / f"loss_{k}.json"
            argv = [
                "loss", "--annotations", str(self.files[f"annotations_{k}"]),
                "--predictions", str(self.files[f"predictions_{k}"]), "--out", str(report),
            ]
            self.ops.append(Op([argv], [report], scale.images // scale.shards))

    def check(self, rng, ran):
        """Every image's matched cost must equal the optimum found by
        ``scipy.optimize.linear_sum_assignment`` within ``1e-9 * scale``,
        and each reported term must equal the one of that optimal matching
        (the optimum is unique on these continuous-valued inputs)."""
        problems = []
        for k in ran:
            corpus = json.loads(self.files[f"annotations_{k}"].read_text(encoding="utf-8"))
            preds = json.loads(self.files[f"predictions_{k}"].read_text(encoding="utf-8"))
            report = json.loads(self.ops[k].outputs[0].read_text(encoding="utf-8"))
            rows = {row["image_id"]: row for row in report["per_image"]}
            for image in corpus["images"]:
                gts = [a for a in corpus["annotations"] if a["image_id"] == image["id"]]
                image_preds = [p for p in preds if p["image_id"] == image["id"]]
                problems += _check_loss_row(
                    image["id"], rows[image["id"]],
                    loss_terms(image, gts, image_preds, len(corpus["categories"])),
                )
        return problems


def _check_loss_row(image_id: int, got: dict, terms) -> list[str]:
    from scipy.optimize import linear_sum_assignment

    l1, giou_loss, contrastive, negative = terms
    cost = l1 + giou_loss + contrastive
    r, c = linear_sum_assignment(cost)
    optimum = float(cost[r, c].sum())
    tolerance = 1e-9 * max(1.0, float(np.abs(cost).max()))
    unmatched = np.ones(cost.shape[0], dtype=bool)
    unmatched[r] = False
    unmatched_negative = float(negative[unmatched].sum())
    n_gt = cost.shape[1]
    problems = []
    matched_cost = got["total"] * n_gt - unmatched_negative
    if abs(matched_cost - optimum) > tolerance * n_gt:
        problems.append(f"image {image_id}: matched cost {matched_cost!r}, optimum {optimum!r}")
    expected = {
        "l1": float(l1[r, c].sum()) / n_gt,
        "giou_loss": float(giou_loss[r, c].sum()) / n_gt,
        "contrastive": (float(contrastive[r, c].sum()) + unmatched_negative) / n_gt,
    }
    for key, value in expected.items():
        if abs(got[key] - value) > tolerance:
            problems.append(f"image {image_id} {key}: engine {got[key]!r}, optimum {value!r}")
    return problems
