"""The per-layer spans the benchmark pins keep firing.

``perfbench/spans.py`` wraps library functions at the module attribute the
CLI looks up. A call routed around one of those attributes raises nothing:
its per-layer metric just reads 0. So each workload runs one traced op at
tiny scale, in its own process with the unmodified harness, and every
layer the workload exercises must report a non-zero value. A few seconds
per workload."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The per-layer metrics each workload's op must move.
PINNED = {
    "grid-sparse": [
        "datamodel.load_coco.s", "datamodel.load_predictions.s", "splits.split.s",
        "splits.load_manifest.s", "evaluation.evaluate.s", "evaluation.cells",
        "reporting.render.s",
    ],
    "rec-dense": [
        "datamodel.load_coco.s", "datamodel.load_predictions.s", "splits.load_manifest.s",
        "evaluation.evaluate_rec.s", "reporting.render.s",
    ],
    "loss-detr": [
        "datamodel.load_coco.s", "datamodel.load_predictions.s", "assignment.set_loss.s",
        "assignment.hungarian.s", "assignment.cost_cells",
    ],
}

TRACED_RUN = """
import json, sys
import run
result, problems = run.run(sys.argv[1], seed=1, seconds=0, traced=True, scale="tiny")
values = {name: metric["value"] for name, metric in result["metrics"].items()}
print(json.dumps({"problems": problems, "metrics": values}))
"""


@pytest.mark.parametrize("workload", list(PINNED))
def test_pinned_spans_fire(workload):
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, workload],
        cwd=ROOT / "perfbench", capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == []
    assert [name for name in PINNED[workload] if not result["metrics"][name]] == []
