#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (under a minute).

Usage (from the root of a fruitbench checkout):

    python3 perfbench/selftest.py

For every workload it generates a tiny corpus, runs one untraced and one
traced op, and requires the output check to pass with every metric that
``BENCHMARK.json`` declares, under its declared unit. It also requires an
op that overruns its time limit to count as failed, and the benchmark to
exit nonzero without a result where the library is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run


def declared(section: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_workloads() -> None:
    for name in run.WORKLOADS:
        for traced, section in ((False, "end_to_end"), (True, "per_layer")):
            result, problems = run.run(name, seed=1, seconds=0, traced=traced, scale="tiny")
            label = f"{name} traced={traced}"
            expect(result["correct"] and not problems, f"{label}: {problems}")
            expect(result["attempted"] >= 1 and result["failed"] == 0, f"{label}: {result}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == declared(section), f"{label}: metrics {units} differ from BENCHMARK.json")
            print(f"ok  {label}: {result['attempted']} ops")


def check_time_limit() -> None:
    result, problems = run.run("loss-detr", seed=1, seconds=0, traced=False, scale="tiny",
                               timeout=0.001)
    expect(result["failed"] == result["attempted"] >= 1, f"overrun ops not failed: {result}")
    expect(any("OpTimeout" in p for p in problems), f"no timeout reported: {problems}")
    print(f"ok  time limit: {result['failed']}/{result['attempted']} ops failed")


def check_bare_directory() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "loss-detr", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), f"bare directory: {proc}")
    print(f"ok  bare directory: exit {proc.returncode}")


if __name__ == "__main__":
    check_workloads()
    check_time_limit()
    check_bare_directory()
    print("selftest passed")
