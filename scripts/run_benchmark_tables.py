#!/usr/bin/env python3
"""End-to-end driver over the bundled 30-image corpus.

Produces, in the output directory: the dataset statistics table, split
manifests (train/test, zero-shot, 2-shot), the per-setting metric grid for
perfect / noisy / empty predictions, a loss report for the noisy
predictions, and the timing summary.

Usage: python3 scripts/run_benchmark_tables.py [--out-dir out]
"""

import argparse
import json
import os
import sys
from pathlib import Path

from fruitbench.cli import main as fruitbench

REPO = Path(__file__).resolve().parent.parent
DATA = REPO / "tests" / "data"
SYN30 = DATA / "synthetic30"


def run(*argv) -> None:
    argv = [str(a) for a in argv]
    print(f"$ fruitbench {' '.join(argv)}")
    code = fruitbench(argv)
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default=REPO / "out")
    parser.add_argument("--seed", type=int, default=77)
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    annotations = SYN30 / "annotations.json"
    run("stats", "--annotations", annotations, "--out", out / "stats.md")

    manifest = out / "split_train_test.json"
    run(
        "split", "--annotations", annotations, "--kind", "train-test",
        "--fraction", "0.6", "--seed", args.seed, "--out", manifest,
    )
    run(
        "split", "--annotations", annotations, "--kind", "zero-shot",
        "--fraction", "0.6", "--seed", args.seed, "--out", out / "split_zero_shot.json",
    )
    run(
        "split", "--annotations", annotations, "--kind", "k-shot", "--k", "2",
        "--fraction", "0.6", "--seed", args.seed, "--out", out / "split_2_shot.json",
    )

    grid = {
        "format": "markdown",
        "rows": [
            {
                "label": label,
                # Paths relative to the grid file's directory, which resolves them,
                # so the artifacts do not depend on where the checkout lives.
                "manifest": manifest.name,
                "predictions": os.path.relpath(SYN30 / f"predictions_{label}.json", out),
            }
            for label in ("perfect", "noisy", "empty")
        ],
    }
    grid_path = out / "grid.json"
    grid_path.write_text(json.dumps(grid, indent=2) + "\n", encoding="utf-8")
    run("report", "--annotations", annotations, "--grid", grid_path, "--out", out / "table.md")

    run(
        "loss", "--annotations", annotations,
        "--predictions", SYN30 / "predictions_noisy.json",
        "--split", manifest, "--out", out / "loss_noisy.json",
    )
    run("bench", "--timings", DATA / "timing.jsonl", "--out", out / "timing.md")

    print(f"\nartifacts in {out}:")
    for path in sorted(out.iterdir()):
        print(f"  {path.name}")


if __name__ == "__main__":
    main()
