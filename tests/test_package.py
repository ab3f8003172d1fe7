"""The package's public names: each library module's exports, listed once."""

import json
import os
import subprocess
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

from fruitbench import assignment, datamodel, errors, evaluation, geometry, reporting, splits

LIBRARY = (assignment, datamodel, errors, evaluation, geometry, reporting, splits)


def exported(module) -> list[str]:
    """The names ``from module import *`` binds."""
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [name for name in vars(module) if not name.startswith("_")]


def test_public_names_are_the_library_exports():
    """A fresh interpreter's ``fruitbench`` holds the seven library modules,
    ``__version__`` and every name they export, and nothing else (``cli``
    is not imported)."""
    code = "import fruitbench, json; print(json.dumps(sorted(vars(fruitbench))))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    public = {n for n in json.loads(proc.stdout) if not n.startswith("_") or n == "__version__"}
    modules = {m.__name__.rpartition(".")[2] for m in LIBRARY}
    assert public == modules | {"__version__"} | set(chain.from_iterable(map(exported, LIBRARY)))


def test_no_name_is_exported_twice():
    """A star import lets a later module shadow an earlier one's name."""
    counts = Counter(chain.from_iterable(map(exported, LIBRARY)))
    assert sorted(name for name, count in counts.items() if count > 1) == []
