#!/usr/bin/env python3
"""fruitbench benchmark: seeded corpora, end-to-end and per-layer metrics.

Usage (from the root of a fruitbench checkout):

    python3 perfbench/run.py --workload grid-sparse --seed 1 --seconds 25 --trace 0

One process drives the unmodified library through ``fruitbench.cli.main``
as a closed loop with one client: each op starts when the previous one
returns, with the default single evaluation worker. A run

1. generates the workload's corpus from ``--seed`` and runs one untimed
   warm-up op, ``SETUP_REPEATS`` times (``setup_s`` is the median, plus
   the library import);
2. runs ops for ``--seconds`` seconds; every op must exit with code 0,
   finish within ``OP_TIMEOUT_S`` and write output that hashes equal to
   its reference output, or it counts as failed;
3. checks the reference outputs against the independent oracles, untimed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` ops alternate untraced and traced (see ``spans.py``) and
the line reports the per-layer metrics. Spans are written to
``.perfbench/`` at the end of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_STARTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
# An op or check that runs longer is stopped and counted as failed, so a
# solver that hangs shows as failures and the run still ends in time.
OP_TIMEOUT_S = 30.0
CHECK_TIMEOUT_S = 60.0

# End-to-end metrics in report order: name -> unit.
END_TO_END = {"images_per_s": "images/s", "op_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _import_library():
    """Import the checkout's own library and oracles, never an installed copy."""
    if not (ROOT / "src" / "fruitbench" / "__init__.py").is_file() or not (
        ROOT / "tests" / "oracles.py"
    ).is_file():
        raise SystemExit(
            f"perfbench: {ROOT} is not a fruitbench checkout (src/fruitbench and "
            "tests/oracles.py are needed)"
        )
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import fruitbench

    if Path(fruitbench.__file__).resolve().parent != ROOT / "src" / "fruitbench":
        raise SystemExit(f"perfbench: imported fruitbench from {fruitbench.__file__}")


_import_library()
os.environ.pop("FRUITBENCH_THREADS", None)  # keep the default of one worker

# The checkout's library, and the modules that use it, import from here on.
import corpora
import spans
import workloads
from fruitbench import cli

IMPORT_S = time.perf_counter() - _STARTED


class OpTimeout(Exception):
    """Raised inside an op that overran its time limit."""


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise OpTimeout(f"exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    wall: float
    digest: str | None  # of stdout and output files; None when the op failed
    error: str | None = None


def run_cli(argv: list[str]) -> str:
    """One CLI invocation; returns its stdout, raises on a nonzero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fruitbench {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def run_op(op: workloads.Op, timeout: float) -> Outcome:
    for path in op.outputs:
        path.unlink(missing_ok=True)
    stdout = []
    start = time.perf_counter()
    try:
        with time_limit(timeout):
            for argv in op.argvs:
                stdout.append(run_cli(argv))
    except Exception as exc:  # any failure of the op is counted, never fatal
        return Outcome(time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    return Outcome(wall, _digest(op.outputs, "".join(stdout).encode()))


def _digest(paths, head: bytes = b"") -> str:
    digest = hashlib.sha256(head)
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


WORKLOADS = {
    "grid-sparse": workloads.GridSparse,
    "rec-dense": workloads.RecDense,
    "loss-detr": workloads.LossDetr,
}


def setup(name, seed, scale, directory: Path, timeout, problems: list[str]):
    """Generate (over the same files) and warm up ``SETUP_REPEATS`` times,
    repeat ``k`` warming up with op ``k``; returns the workload, the
    warm-up output digests by op index and ``setup_s``."""
    times, inputs, references = [], set(), {}
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = WORKLOADS[name](directory, seed, scale, run_cli)
        index = k % len(workload.ops)
        warm_up = run_op(workload.ops[index], timeout)
        times.append(time.perf_counter() - start)
        inputs.add(_digest(workload.files.values()))
        if warm_up.error:
            problems.append(f"warm-up op failed: {warm_up.error}")
            break
        if references.setdefault(index, warm_up.digest) != warm_up.digest or len(inputs) > 1:
            problems.append("one seed gave different corpora or outputs across set-ups")
            break
    return workload, references, IMPORT_S + statistics.median(times)


def run(name: str, seed: int, seconds: float, traced: bool, scale: str = "full",
        timeout: float = OP_TIMEOUT_S) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the problems found.

    Timed ops cycle through the workload's ops. The first output of each op
    (a warm-up output, for the ops set-up ran) is its reference and is
    checked after the loop; every later output must hash equal to it.
    An op fails when it raises, exits nonzero, overruns ``timeout`` or
    differs from its reference; only the last makes the run incorrect, as
    do problems in set-up or check.
    """
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    problems: list[str] = []
    try:
        workload, references, setup_s = setup(
            name, seed, corpora.SCALES[name][scale], work, timeout, problems
        )
        set_up = not problems
        tracer = spans.Tracer() if traced else None
        walls, traced_walls, layer_values = [], [], []
        attempted = failed = mismatched = 0
        rates = []  # images scored per second, per untraced op
        first_failure = None
        deadline = time.perf_counter() + seconds
        while True:
            index = len(walls) % len(workload.ops)
            op = workload.ops[index]
            for tracing in (False, True) if traced else (False,):
                with tracer.installed(attempted) if tracing else contextlib.nullcontext():
                    outcome = run_op(op, timeout)
                attempted += 1
                (traced_walls if tracing else walls).append(outcome.wall)
                if outcome.digest is not None:
                    references.setdefault(index, outcome.digest)
                ok = outcome.digest is not None and outcome.digest == references[index]
                if not ok:
                    failed += 1
                    mismatched += outcome.digest is not None
                    first_failure = first_failure or outcome.error or "output differs"
                if tracing:
                    tracer.replay()
                    layer_values.append(tracer.op_metrics(outcome.wall))
                else:
                    rates.append(workload.images_scored(index) / outcome.wall if ok else 0.0)
            if time.perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if set_up:
            try:
                with time_limit(CHECK_TIMEOUT_S):
                    problems += workload.check(random.Random(f"check/{seed}"), sorted(references))
            except Exception as exc:
                problems.append(f"output check did not complete: {type(exc).__name__}: {exc}")
        if traced:
            tracer.write(WORK / f"spans-{name}-seed{seed}.jsonl")
            metrics = spans.summarize(layer_values, traced_walls, walls)
            units = spans.PER_LAYER
        else:
            metrics = {
                "images_per_s": statistics.median(rates),
                "op_s_p50": statistics.median(walls),
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not problems and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    if first_failure:
        problems.append(f"{failed} of {attempted} ops failed, first: {first_failure}")
    return result, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    result, problems = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    if len(problems) > 10:
        print(f"problem: ... and {len(problems) - 10} more", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {result['attempted']} ops, "
        f"failed_ops_ratio={result['failed']}/{result['attempted']}"
        f"={result['failed'] / result['attempted']:g}, correct={result['correct']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
