"""Command-line interface: every subcommand is a thin composition of the
library operations.

Subcommands: ingest-labelme, write-coco, stats, split, evaluate, loss,
rec-eval, report, bench. Exit codes: 0 success, 1 validation/usage error,
2 I/O error. With ``--json-errors`` failures are additionally written to
stderr as one JSON object. A JSON config file (top-level keys naming
subcommands, values mapping flag names with dashes replaced by
underscores) supplies defaults; explicit flags always win. ``--threads``
and the FRUITBENCH_THREADS environment variable are accepted and validated
but have no effect: evaluation runs in one thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import datamodel, evaluation, reporting, splits
from .assignment import LossBreakdown, LossWeights, TokenLogits, set_loss
from .errors import FruitBenchError, ValidationError

__all__ = ["main", "build_parser", "RunConfig"]

THREADS_ENV = "FRUITBENCH_THREADS"

# Confidence clamp for deriving alignment logits from detection scores:
# scores are squeezed into [1e-7, 1 - 1e-7] before the log-odds transform.
_SCORE_EPS = 1e-7
_NEGATIVE_LOGIT = math.log(_SCORE_EPS / (1.0 - _SCORE_EPS))


class CliUsageError(FruitBenchError):
    """Raised instead of argparse's SystemExit so usage errors exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters, normalized before any file I/O happens."""

    subcommand: str
    fraction: float | None = None
    k: int | None = None
    seed: int | None = None
    thresholds: tuple[float, ...] | None = None
    max_dets: int | None = None
    weights: LossWeights | None = None
    output_format: str | None = None
    workers: int = 1


def _parse_weights(text: str) -> LossWeights:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"--weights expects three comma-separated values, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"--weights values must be numbers, got {text!r}") from None
    return LossWeights(l1=values[0], giou=values[1], contrastive=values[2])


def _parse_thresholds(text: str | None) -> tuple[float, ...]:
    if text is None:
        return evaluation.DEFAULT_IOU_THRESHOLDS
    try:
        values = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"--thresholds must be comma-separated numbers, got {text!r}") from None
    return values


def _default_workers() -> int:
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    return max(value, 1)


def _validated_config(args) -> RunConfig:
    threads = getattr(args, "threads", None)
    workers = threads if threads is not None else _default_workers()
    if workers < 1:
        raise ValidationError(f"--threads must be >= 1, got {workers}")
    cfg = RunConfig(
        subcommand=args.command,
        fraction=getattr(args, "fraction", None),
        k=getattr(args, "k", None),
        seed=getattr(args, "seed", None),
        thresholds=(
            _parse_thresholds(getattr(args, "thresholds", None))
            if hasattr(args, "thresholds")
            else None
        ),
        max_dets=getattr(args, "max_dets", None),
        weights=(
            _parse_weights(args.weights) if getattr(args, "weights", None) else LossWeights()
        ),
        output_format=getattr(args, "format", None),
        workers=workers,
    )
    if cfg.fraction is not None and not (0.0 < cfg.fraction < 1.0):
        raise ValidationError(f"--fraction must lie strictly between 0 and 1, got {cfg.fraction}")
    if cfg.k is not None and cfg.k < 0:
        raise ValidationError(f"--k must be non-negative, got {cfg.k}")
    if cfg.seed is not None and not (0 <= cfg.seed < 2**64):
        raise ValidationError(f"--seed must be a 64-bit unsigned integer, got {cfg.seed}")
    if cfg.max_dets is not None and cfg.max_dets < 1:
        raise ValidationError(f"--max-dets must be >= 1, got {cfg.max_dets}")
    return cfg


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_json_arg(path, flag: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{flag} file {path}: {exc.msg} (byte offset {exc.pos})") from None


def _eval_config(cfg: RunConfig) -> evaluation.EvalConfig:
    return evaluation.EvalConfig(
        iou_thresholds=cfg.thresholds or evaluation.DEFAULT_IOU_THRESHOLDS,
        max_dets=cfg.max_dets or 100,
        workers=cfg.workers,
    )


def _report_markdown(report: evaluation.EvaluationReport) -> str:
    header = ["Category", "mAP", "AP50", "mAR"]
    rows = [
        [row.name, _m(row.map), _m(row.ap50), _m(row.mar)] for row in report.per_category
    ]
    rows.append(["(mean)", _m(report.mean_ap), _m(report.mean_ap50), _m(report.mean_ar)])
    return reporting._markdown_table(header, rows)


def _m(value: float | None) -> str:
    return reporting.MISSING if value is None else f"{value * 100:.1f}"


def cmd_ingest_labelme(args, cfg: RunConfig) -> int:
    raw = _load_json_arg(args.categories, "--categories")
    if not isinstance(raw, list):
        raise ValidationError("--categories must be a JSON array of {id, name}")
    try:
        category_map = {c["name"]: datamodel.Category(id=c["id"], name=c["name"]) for c in raw}
    except (KeyError, TypeError):
        raise ValidationError("--categories entries need 'id' and 'name'") from None
    ds, unmapped = datamodel.load_labelme(args.dir, category_map)
    datamodel.write_coco(ds, args.out)
    for label, count in sorted(unmapped.items()):
        print(f"unmapped label {label!r}: {count} shapes", file=sys.stderr)
    if unmapped and args.fail_on_unmapped:
        raise ValidationError(f"{sum(unmapped.values())} shapes carried unmapped labels")
    print(
        f"wrote {args.out}: {len(ds.images)} images, {len(ds.instances)} instances",
        file=sys.stderr,
    )
    return 0


def cmd_write_coco(args, cfg: RunConfig) -> int:
    ds, _ = datamodel.load_coco(args.annotations)
    datamodel.write_coco(ds, args.out)
    return 0


def cmd_stats(args, cfg: RunConfig) -> int:
    ds, _ = datamodel.load_coco(args.annotations)
    stats = datamodel.compute_stats(ds)
    _write_output(reporting.render_stats_table(stats, cfg.output_format or "markdown"), args.out)
    return 0


def cmd_split(args, cfg: RunConfig) -> int:
    if cfg.seed is None:
        raise ValidationError("--seed is required")
    fraction = cfg.fraction if cfg.fraction is not None else 0.6
    ds, _ = datamodel.load_coco(args.annotations)
    if args.kind == splits.KIND_TRAIN_TEST:
        result = splits.split_train_test(ds, fraction, cfg.seed)
    elif args.kind == splits.KIND_ZERO_SHOT:
        result = splits.split_zero_shot(ds, fraction, cfg.seed)
    elif args.kind == splits.KIND_K_SHOT:
        if cfg.k is None:
            raise ValidationError("--k is required for k-shot splits")
        pool = splits.split_train_test(ds, fraction, cfg.seed)
        result = splits.sample_k_shot(ds, pool, cfg.k, cfg.seed)
    elif args.kind == splits.KIND_CROSS_CLASS:
        if not args.held_out:
            raise ValidationError("--held-out is required for cross-class splits")
        held = next((c for c in ds.categories if c.name == args.held_out), None)
        if held is None:
            raise ValidationError(f"unknown category {args.held_out!r}")
        result = splits.split_cross_class(ds, held, fraction, cfg.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValidationError(f"unknown split kind {args.kind!r}")
    splits.write_manifest(result, args.out)
    print(result.manifest_digest)
    return 0


def cmd_evaluate(args, cfg: RunConfig) -> int:
    ds, _ = datamodel.load_coco(args.annotations)
    split = splits.load_manifest(args.split)
    dets = datamodel.load_predictions(args.predictions, ds)
    report = evaluation.evaluate(ds, split, dets, _eval_config(cfg))
    if (cfg.output_format or "json") == "markdown":
        text = _report_markdown(report)
    else:
        text = json.dumps(evaluation.report_to_dict(report), indent=2) + "\n"
    _write_output(text, args.out)
    return 0


def _detections_to_loss_inputs(ds, dets_for_image):
    """Category-token reduction: the token vocabulary is the dataset's
    categories in id order; a detection's logit for its own category token
    is the log-odds of its score, every other token gets a saturated
    negative logit; ground-truth masks are one-hot."""
    vocabulary = [c.id for c in ds.categories]
    index = {cid: i for i, cid in enumerate(vocabulary)}
    preds = []
    for det in dets_for_image:
        scores = [_NEGATIVE_LOGIT] * len(vocabulary)
        p = min(max(det.score, _SCORE_EPS), 1.0 - _SCORE_EPS)
        scores[index[det.category_id]] = math.log(p / (1.0 - p))
        preds.append((det.box, TokenLogits(tuple(scores))))
    return preds, index, len(vocabulary)


def cmd_loss(args, cfg: RunConfig) -> int:
    ds, _ = datamodel.load_coco(args.annotations)
    dets = datamodel.load_predictions(args.predictions, ds)
    if args.split:
        image_ids = sorted(splits.load_manifest(args.split).test_image_ids)
    else:
        image_ids = [m.id for m in ds.images]
    by_image: dict[int, list] = {}
    for det in dets:
        by_image.setdefault(det.image_id, []).append(det)
    weights = cfg.weights or LossWeights()
    rows = []
    breakdowns: list[LossBreakdown] = []
    for image_id in image_ids:
        img = ds.image(image_id)
        gts = list(ds.instances_for_image(image_id))
        preds, index, vocab_size = _detections_to_loss_inputs(ds, by_image.get(image_id, []))
        masks = []
        for gt in gts:
            mask = [False] * vocab_size
            mask[index[gt.category_id]] = True
            masks.append(mask)
        breakdown = set_loss(
            preds, gts, masks, img.width, img.height, weights,
            count_unmatched_contrastive=not args.no_unmatched_contrastive,
        )
        breakdowns.append(breakdown)
        rows.append(
            {
                "image_id": image_id,
                "l1": breakdown.l1,
                "giou_loss": breakdown.giou_loss,
                "contrastive": breakdown.contrastive,
                "total": breakdown.total,
                "no_matches": breakdown.no_matches,
            }
        )
    n = max(len(breakdowns), 1)
    payload = {
        "weights": {
            "l1": weights.l1, "giou": weights.giou, "contrastive": weights.contrastive,
        },
        "per_image": rows,
        "aggregate": {
            "l1": sum(b.l1 for b in breakdowns) / n,
            "giou_loss": sum(b.giou_loss for b in breakdowns) / n,
            "contrastive": sum(b.contrastive for b in breakdowns) / n,
            "total": sum(b.total for b in breakdowns) / n,
        },
    }
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_rec_eval(args, cfg: RunConfig) -> int:
    ds, _ = datamodel.load_coco(args.annotations)
    split = splits.load_manifest(args.split)
    dets = datamodel.load_predictions(args.predictions, ds)
    raw = _load_json_arg(args.filters, "--filters")
    if not isinstance(raw, dict):
        raise ValidationError("--filters must be a JSON object mapping prompts to predicates")
    filters = {prompt: evaluation.attribute_predicate(spec) for prompt, spec in raw.items()}
    reports = evaluation.evaluate_rec(ds, split, dets, filters, _eval_config(cfg))
    if (cfg.output_format or "json") == "markdown":
        sections = []
        for report in reports:
            sections.append(f"## {report.prompt}\n\n" + _report_markdown(report))
        text = "\n".join(sections)
    else:
        text = json.dumps([evaluation.report_to_dict(r) for r in reports], indent=2) + "\n"
    _write_output(text, args.out)
    return 0


def cmd_report(args, cfg: RunConfig) -> int:
    grid_path = Path(args.grid)
    raw = _load_json_arg(grid_path, "--grid")
    try:
        rows = tuple(
            reporting.GridRow(
                label=r["label"], manifest=r["manifest"], predictions=r["predictions"]
            )
            for r in raw.get("rows", [])
        )
    except (KeyError, TypeError):
        raise ValidationError(
            "--grid rows need 'label', 'manifest' and 'predictions'"
        ) from None
    grid = reporting.ExperimentGrid(
        rows=rows,
        metrics=tuple(raw.get("metrics", reporting.METRIC_KEYS)),
        output_format=cfg.output_format or raw.get("format", "markdown"),
    )
    base = grid_path.parent
    grid.check_files_exist(base)
    ds, _ = datamodel.load_coco(args.annotations)
    reports = {}
    for row in grid.rows:
        split = splits.load_manifest(base / row.manifest)
        dets = datamodel.load_predictions(base / row.predictions, ds)
        reports[row.label] = evaluation.evaluate(ds, split, dets, _eval_config(cfg))
    text, missing = reporting.render_metric_grid(grid, reports)
    if missing:
        print(f"warning: {missing} missing cells rendered as {reporting.MISSING}", file=sys.stderr)
    _write_output(text, args.out)
    return 0


def cmd_bench(args, cfg: RunConfig) -> int:
    records = reporting.load_timing_log(args.timings)
    _write_output(
        reporting.summarize_timing(records, cfg.output_format or "markdown"), args.out
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Flags that a config file may supply are declared optional here and
    # checked after the config merge (collected in the `_required` default).
    parser = _Parser(prog="fruitbench", description=__doc__)
    parser.add_argument("--config", help="JSON config file supplying flag defaults")
    parser.add_argument("--json-errors", action="store_true", help="emit errors as JSON on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default=None, fmt_choices=reporting.FORMATS):
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")
        p.add_argument("--format", default=fmt_default, choices=fmt_choices)
        p.add_argument(
            "--threads", type=int, default=None, help="accepted for compatibility; has no effect"
        )

    p = sub.add_parser("ingest-labelme", help="convert per-image label files to one annotation file")
    p.add_argument("--dir")
    p.add_argument("--categories", help="JSON array of {id, name}")
    p.add_argument("--out")
    p.add_argument("--fail-on-unmapped", action="store_true")
    p.set_defaults(func=cmd_ingest_labelme, _required=("dir", "categories", "out"))

    p = sub.add_parser("write-coco", help="normalize an annotation file")
    p.add_argument("--annotations")
    p.add_argument("--out")
    p.set_defaults(func=cmd_write_coco, _required=("annotations", "out"))

    p = sub.add_parser("stats", help="dataset statistics table")
    p.add_argument("--annotations")
    common(p, fmt_default="markdown")
    p.set_defaults(func=cmd_stats, _required=("annotations",))

    p = sub.add_parser("split", help="generate a split manifest")
    p.add_argument("--annotations")
    p.add_argument(
        "--kind",
        choices=[
            splits.KIND_TRAIN_TEST, splits.KIND_K_SHOT,
            splits.KIND_CROSS_CLASS, splits.KIND_ZERO_SHOT,
        ],
    )
    p.add_argument("--fraction", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--held-out", default=None, help="category name to hold out")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_split, _required=("annotations", "kind", "seed", "out"))

    p = sub.add_parser("evaluate", help="score predictions on a split")
    p.add_argument("--annotations")
    p.add_argument("--predictions")
    p.add_argument("--split")
    p.add_argument("--thresholds", default=None, help="comma-separated IoU thresholds")
    p.add_argument("--max-dets", type=int, default=None)
    common(p, fmt_default="json", fmt_choices=("json", "markdown"))
    p.set_defaults(func=cmd_evaluate, _required=("annotations", "predictions", "split"))

    p = sub.add_parser("loss", help="set-matching loss report")
    p.add_argument("--annotations")
    p.add_argument("--predictions")
    p.add_argument("--split", default=None, help="restrict to a manifest's test images")
    p.add_argument("--weights", default=None, help="w_l1,w_giou,w_contrastive")
    p.add_argument("--no-unmatched-contrastive", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_loss, _required=("annotations", "predictions"))

    p = sub.add_parser("rec-eval", help="prompt-conditioned evaluation")
    p.add_argument("--annotations")
    p.add_argument("--predictions")
    p.add_argument("--split")
    p.add_argument("--filters", help="JSON map prompt -> attribute predicate")
    p.add_argument("--thresholds", default=None)
    p.add_argument("--max-dets", type=int, default=None)
    common(p, fmt_default="json", fmt_choices=("json", "markdown"))
    p.set_defaults(
        func=cmd_rec_eval, _required=("annotations", "predictions", "split", "filters")
    )

    p = sub.add_parser("report", help="metric grid over experiment settings")
    p.add_argument("--annotations")
    p.add_argument("--grid", help="JSON grid config")
    p.add_argument("--thresholds", default=None)
    p.add_argument("--max-dets", type=int, default=None)
    common(p, fmt_default=None)
    p.set_defaults(func=cmd_report, _required=("annotations", "grid"))

    p = sub.add_parser("bench", help="timing summary from a latency log")
    p.add_argument("--timings")
    common(p, fmt_default="markdown")
    p.set_defaults(func=cmd_bench, _required=("timings",))

    return parser


def _extract_config_path(argv) -> str | None:
    for k, token in enumerate(argv):
        if token == "--config":
            if k + 1 >= len(argv):
                raise CliUsageError("--config expects a path")
            return argv[k + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def _subparser_for(parser, command):
    for action in parser._subparsers._group_actions:
        if hasattr(action, "choices") and command in action.choices:
            return action.choices[command]
    return None


def _apply_config_file(parser, config_path, argv):
    config = _load_json_arg(config_path, "--config")
    if not isinstance(config, dict):
        raise ValidationError("config file must be a JSON object keyed by subcommand")
    known_commands = set()
    for action in parser._subparsers._group_actions:
        if hasattr(action, "choices"):
            known_commands.update(action.choices)
    command = next((a for a in argv if a in known_commands), None)
    section = config.get(command, {}) if command else {}
    if not isinstance(section, dict):
        raise ValidationError(f"config section {command!r} must be an object")
    subparser = _subparser_for(parser, command) if command else None
    if subparser is not None and section:
        known = {a.dest for a in subparser._actions}
        unknown = set(section) - known
        if unknown:
            raise ValidationError(
                f"config section {command!r} has unknown keys: {sorted(unknown)}"
            )
        subparser.set_defaults(**section)


def _check_required(args) -> None:
    missing = [
        name for name in getattr(args, "_required", ()) if getattr(args, name, None) is None
    ]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise CliUsageError(f"missing required arguments: {flags}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    json_errors = "--json-errors" in argv
    try:
        parser = build_parser()
        config_path = _extract_config_path(argv)
        if config_path:
            _apply_config_file(parser, config_path, argv)
        args = parser.parse_args(argv)
        _check_required(args)
        cfg = _validated_config(args)
        return args.func(args, cfg)
    except (FruitBenchError, CliUsageError) as exc:
        _emit_error(exc, 1, json_errors)
        return 1
    except OSError as exc:
        _emit_error(exc, 2, json_errors)
        return 2


def _emit_error(exc: Exception, code: int, json_errors: bool) -> None:
    if json_errors:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc), "exit_code": code}),
            file=sys.stderr,
        )
    else:
        print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
