"""Command-line interface: every subcommand is a thin composition of the
library operations.

Subcommands: ingest-labelme, write-coco, stats, split, evaluate, loss,
rec-eval, report, bench. Exit codes: 0 success, 1 validation/usage error
or running out of memory, 2 I/O error. A failure is one ``error:`` line on
stderr, or with ``--json-errors`` one JSON object instead.

Flags are checked before any file is read, with the texts of the library
types that own their rules (``SplitSpec``, ``EvalConfig``, ``LossWeights``);
manifests and filters are read before the annotation file.

A JSON config file (top-level keys naming subcommands, values mapping flag
names with dashes replaced by underscores) supplies flags: the chosen
subcommand's section is inserted into the arguments right after the
subcommand name, so argparse parses and checks each config value exactly
as it does a flag, and explicit flags, which come later, win. A string is
passed as written and any other value as its JSON text; an on/off flag
takes true or false, and null leaves a flag unset.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import datamodel, evaluation, reporting, splits
from .assignment import LossWeights, set_loss
from .datamodel import ARRAY, INTEGER, OBJECT, STRING, checked, field, read_json, reject_unknown_keys
from .errors import FruitBenchError, IntegrityError, ValidationError
from .geometry import left_sum

__all__ = ["main", "build_parser"]

# Confidence clamp for deriving alignment logits from detection scores:
# scores are squeezed into [1e-7, 1 - 1e-7] before the log-odds transform.
_SCORE_EPS = 1e-7
_NEGATIVE_LOGIT = math.log(_SCORE_EPS / (1.0 - _SCORE_EPS))


class CliUsageError(FruitBenchError):
    """Raised instead of argparse's SystemExit so usage errors exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


def _parse_weights(text: str) -> LossWeights:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"--weights expects three comma-separated values, got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"--weights values must be numbers, got {text!r}") from None
    return LossWeights(l1=values[0], giou=values[1], contrastive=values[2])


def _parse_thresholds(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"--thresholds must be comma-separated numbers, got {text!r}") from None


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_coco(path) -> datamodel.DetectionDataset:
    """``load_coco``'s dataset, with its clamped boxes reported on stderr."""
    ds, clamped = datamodel.load_coco(path)
    if clamped:
        print(f"{Path(path)}: clamped {clamped} out-of-image boxes", file=sys.stderr)
    return ds


def _eval_config(args) -> evaluation.EvalConfig:
    return evaluation.EvalConfig(iou_thresholds=args.thresholds, max_dets=args.max_dets)


def cmd_ingest_labelme(args) -> int:
    context = f"--categories {args.categories}"
    category_map = {}
    for c in checked(read_json(args.categories), ARRAY, context):
        name = field(c, "name", context, STRING)
        if name in category_map:
            raise IntegrityError(f"{context}: duplicate category name {name!r}")
        category_map[name] = datamodel.Category(id=field(c, "id", context, INTEGER), name=name)
    ds, unmapped = datamodel.load_labelme(args.dir, category_map)
    shapes = sum(unmapped.values())
    if shapes:
        print(f"{Path(args.dir)}: {shapes} shapes with unmapped labels", file=sys.stderr)
    for label, count in sorted(unmapped.items()):
        print(f"unmapped label {label!r}: {count} shapes", file=sys.stderr)
    if shapes and args.fail_on_unmapped:
        raise ValidationError(f"{shapes} shapes carried unmapped labels")
    datamodel.write_coco(ds, args.out)
    print(
        f"wrote {args.out}: {len(ds.images)} images, {len(ds.instances)} instances",
        file=sys.stderr,
    )
    return 0


def cmd_write_coco(args) -> int:
    ds = _load_coco(args.annotations)
    datamodel.write_coco(ds, args.out)
    return 0


def cmd_stats(args) -> int:
    ds = _load_coco(args.annotations)
    stats = datamodel.compute_stats(ds)
    _write_output(reporting.render_stats_table(stats, args.format), args.out)
    return 0


def cmd_split(args) -> int:
    # Rejects a wrong flag before the load; the spec only checks that held_out_category
    # is set, so the name stands in for the id, and the split functions build their own.
    splits.SplitSpec(args.kind, args.seed, args.fraction, args.k, args.held_out)
    ds = _load_coco(args.annotations)
    held = next((c.id for c in ds.categories if c.name == args.held_out), None)
    if held is None and args.held_out is not None:
        raise ValidationError(f"unknown category {args.held_out!r}")
    if args.kind == splits.KIND_CROSS_CLASS:
        result = splits.split_cross_class(ds, held, args.fraction, args.seed)
    else:
        result = splits.split_train_test(ds, args.fraction, args.seed)
        if args.kind != splits.KIND_TRAIN_TEST:  # k-shot, or zero-shot as its 0-shot draw
            result = splits.sample_k_shot(ds, result, args.k or 0, args.seed)
    splits.write_manifest(result, args.out)
    print(result.manifest_digest)
    return 0


def cmd_evaluate(args) -> int:
    config = _eval_config(args)
    split = splits.load_manifest(args.split)
    ds = _load_coco(args.annotations)
    dets = datamodel.load_predictions(args.predictions, ds)
    report = evaluation.evaluate(ds, split, dets, config)
    if args.format == "markdown":
        text = reporting.render_report_table(report)
    else:
        text = json.dumps(evaluation.report_to_dict(report), indent=2) + "\n"
    _write_output(text, args.out)
    return 0


def _loss_logits(table, rows, tokens) -> np.ndarray:
    """Category-token reduction of the table's ``rows``, as a (rows, V)
    array: the token vocabulary is the dataset's category positions
    ``tokens`` (id order); a detection's logit for its own category token
    is the log-odds of its score, every other token gets a saturated
    negative logit."""
    p = np.clip(table.score[rows], _SCORE_EPS, 1.0 - _SCORE_EPS).tolist()
    own = np.array([math.log(v / (1.0 - v)) for v in p]).reshape(-1, 1)
    return np.where(table.category[rows, None] == tokens, own, _NEGATIVE_LOGIT)


def cmd_loss(args) -> int:
    split = splits.load_manifest(args.split) if args.split else None
    ds = _load_coco(args.annotations)
    table = datamodel.load_predictions(args.predictions, ds)
    image_ids = [m.id for m in ds.images] if split is None else sorted(split.test_image_ids)
    by_image = np.argsort(table.image, kind="stable")  # input order within an image
    bounds = np.searchsorted(table.image[by_image], np.arange(len(ds.images) + 1)).tolist()
    tokens = np.arange(len(ds.categories))
    weights = args.weights
    rows = []
    for image_id in image_ids:
        k = ds.image_index(image_id)
        img = ds.images[k]
        gt_rows = ds.gt_rows(k)
        pred_rows = by_image[bounds[k]:bounds[k + 1]]
        breakdown = set_loss(
            table.boxes[pred_rows], _loss_logits(table, pred_rows, tokens),
            ds.gt_boxes[gt_rows], ds.gt_category[gt_rows, None] == tokens, img.width, img.height,
            weights, count_unmatched_contrastive=not args.no_unmatched_contrastive,
        )
        rows.append({"image_id": image_id, **dataclasses.asdict(breakdown)})
    n = max(len(rows), 1)
    aggregate = {
        key: left_sum(row[key] for row in rows) / n
        for key in ("l1", "giou_loss", "contrastive", "total")
    }
    for key, value in aggregate.items():
        if not math.isfinite(value):
            raise ValidationError(f"loss aggregate {key!r}: the sum over images overflows a float")
    payload = {
        "weights": dataclasses.asdict(weights),
        "per_image": rows,
        "aggregate": aggregate,
    }
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_rec_eval(args) -> int:
    config = _eval_config(args)
    context = f"--filters {args.filters}"
    raw = checked(read_json(args.filters), OBJECT, context)
    filters = {
        checked(prompt, STRING, context): evaluation.attribute_predicate(spec)
        for prompt, spec in raw.items()
    }
    split = splits.load_manifest(args.split)
    ds = _load_coco(args.annotations)
    dets = datamodel.load_predictions(args.predictions, ds)
    reports = evaluation.evaluate_rec(ds, split, dets, filters, config)
    if args.format == "markdown":
        text = "\n".join(reporting.render_report_table(report) for report in reports)
    else:
        text = json.dumps([evaluation.report_to_dict(r) for r in reports], indent=2) + "\n"
    _write_output(text, args.out)
    return 0


def cmd_report(args) -> int:
    config = _eval_config(args)
    grid_path = Path(args.grid)
    raw = read_json(grid_path)
    context = f"--grid {grid_path}"
    keys = ("label", "manifest", "predictions")
    rows = []
    for r in field(raw, "rows", context, ARRAY, []):
        rows.append(reporting.GridRow(*(field(r, key, f"{context} row", STRING) for key in keys)))
        reject_unknown_keys(r, keys, f"{context} row")
    reject_unknown_keys(raw, ("rows", "metrics", "format"), context)
    grid = reporting.ExperimentGrid(
        rows=tuple(rows),
        metrics=tuple(field(raw, "metrics", context, ARRAY, reporting.METRIC_KEYS)),
        output_format=field(raw, "format", context, STRING, "markdown"),
    )
    base = grid_path.parent  # row paths are relative to the grid file
    for row in grid.rows:
        for path in (row.manifest, row.predictions):
            if not (base / path).is_file():
                raise ValidationError(f"grid row {row.label!r}: missing file {path}")
    manifests = [splits.load_manifest(base / row.manifest) for row in grid.rows]
    ds = _load_coco(args.annotations)
    reports = {}
    for row, split in zip(grid.rows, manifests):
        dets = datamodel.load_predictions(base / row.predictions, ds)
        reports[row.label] = evaluation.evaluate(ds, split, dets, config)
    text, missing = reporting.render_metric_grid(grid, reports)
    if missing:
        print(f"warning: {missing} missing cells rendered as {reporting.MISSING}", file=sys.stderr)
    _write_output(text, args.out)
    return 0


def cmd_bench(args) -> int:
    records = reporting.load_timing_log(args.timings)
    _write_output(reporting.summarize_timing(records, args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fruitbench", description=__doc__)
    parser.add_argument("--config", help="JSON config file supplying flags per subcommand")
    parser.add_argument("--json-errors", action="store_true", help="emit errors as JSON on stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def output(p, fmt_default, fmt_choices=reporting.FORMATS):
        p.add_argument("--out", default="-", help="output path ('-' for stdout)")
        p.add_argument("--format", default=fmt_default, choices=fmt_choices)

    def scoring(p):
        defaults = evaluation.EvalConfig()
        p.add_argument(
            "--thresholds", type=_parse_thresholds, default=defaults.iou_thresholds,
            help="comma-separated IoU thresholds",
        )
        p.add_argument("--max-dets", type=int, default=defaults.max_dets)

    p = sub.add_parser("ingest-labelme", help="convert per-image label files to one annotation file")
    p.add_argument("--dir", required=True)
    p.add_argument("--categories", required=True, help="JSON array of {id, name}")
    p.add_argument("--out", required=True)
    p.add_argument("--fail-on-unmapped", action="store_true")
    p.set_defaults(func=cmd_ingest_labelme)

    p = sub.add_parser("write-coco", help="normalize an annotation file")
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_write_coco)

    p = sub.add_parser("stats", help="dataset statistics table")
    p.add_argument("--annotations", required=True)
    output(p, fmt_default="markdown")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("split", help="generate a split manifest")
    p.add_argument("--annotations", required=True)
    p.add_argument("--kind", required=True, choices=splits.KINDS)
    p.add_argument("--fraction", type=float, default=0.6)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--held-out", default=None, help="category name to hold out")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("evaluate", help="score predictions on a split")
    p.add_argument("--annotations", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--split", required=True)
    scoring(p)
    output(p, fmt_default="json", fmt_choices=("json", "markdown"))
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("loss", help="set-matching loss report")
    p.add_argument("--annotations", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--split", default=None, help="restrict to a manifest's test images")
    p.add_argument(
        "--weights", type=_parse_weights, default=LossWeights(), help="w_l1,w_giou,w_contrastive"
    )
    p.add_argument("--no-unmatched-contrastive", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("rec-eval", help="prompt-conditioned evaluation")
    p.add_argument("--annotations", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--filters", required=True, help="JSON map prompt -> attribute predicate")
    scoring(p)
    output(p, fmt_default="json", fmt_choices=("json", "markdown"))
    p.set_defaults(func=cmd_rec_eval)

    p = sub.add_parser("report", help="metric grid over experiment settings")
    p.add_argument("--annotations", required=True)
    p.add_argument("--grid", required=True, help="JSON grid config, which sets the output format")
    scoring(p)
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("bench", help="timing summary from a latency log")
    p.add_argument("--timings", required=True)
    output(p, fmt_default="markdown")
    p.set_defaults(func=cmd_bench)

    return parser


# Parsers keep no state between parses, so each process builds them once.
_parser = functools.cache(build_parser)
_config_parser = _Parser(add_help=False)
_config_parser.add_argument("--config")


def _with_config(parser, argv: list[str]) -> list[str]:
    """``argv`` with the chosen subcommand's config section inserted as
    ``--flag=value`` tokens right after the subcommand name. Only a
    ``--config`` before the subcommand is read; argparse rejects one after."""
    # The value of --config, or of a prefix of it such as --conf, names no command.
    skip = {k + 1 for k, t in enumerate(argv) if len(t) > 2 and "--config".startswith(t)}
    at = next((k for k, t in enumerate(argv) if t in parser.commands and k not in skip), None)
    config_path = _config_parser.parse_known_args(argv[:at])[0].config
    if not config_path:
        return argv
    context = f"config file {config_path}"
    config = checked(read_json(config_path), OBJECT, context)
    if at is None:
        return argv
    command = argv[at]
    section = field(config, command, context, OBJECT, {})
    subparser = parser.commands[command]
    actions = {a.dest: a for a in subparser._actions if a.option_strings and a.dest != "help"}
    reject_unknown_keys(section, actions, f"config section {command!r}")
    flags = []
    for key, value in section.items():
        flag = actions[key].option_strings[0]
        if actions[key].nargs == 0:  # an on/off flag
            if value is not None and value.__class__ is not bool:
                raise ValidationError(f"config key {key!r} takes true or false, got {value!r}")
            flags += [flag] if value else []
        elif value is not None:
            flags.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return argv[: at + 1] + flags + argv[at + 1 :]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    json_errors = "--json-errors" in argv
    try:
        parser = _parser()
        argv = _with_config(parser, argv)
        for token in argv:
            if "\0" in token or not _os_encodable(token):
                raise ValidationError(f"argument {token!r:.80} holds a NUL or a lone surrogate")
        args = parser.parse_args(argv)
        return args.func(args)
    except FruitBenchError as exc:
        _emit_error(exc, 1, json_errors)
        return 1
    except OSError as exc:
        _emit_error(exc, 2, json_errors)
        return 2
    except MemoryError:  # numpy's failed allocations included
        _emit_error(MemoryError("ran out of memory"), 1, json_errors)
        return 1


def _os_encodable(token: str) -> bool:
    """Whether ``token`` can be a path: config values are JSON strings,
    which may escape a lone surrogate that no file name can hold."""
    try:
        os.fsencode(token)
    except UnicodeEncodeError:
        return False
    return True


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
