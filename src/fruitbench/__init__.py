"""Benchmark engine for open-set fruit detection experiments.

Dataset statistics, reproducible experiment splits (train/test, k-shot,
cross-class), an optimal set-matching loss, COCO-style detection metrics
(mAP / AP50 / mAR), and table renderers, behind one CLI.

The package re-exports each library module's ``__all__`` (``errors``: its
exception classes); ``cli`` is imported on its own.
"""

from .assignment import *
from .datamodel import *
from .errors import *
from .evaluation import *
from .geometry import *
from .reporting import *
from .splits import *

__version__ = "0.1.0"
