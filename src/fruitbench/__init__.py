"""Benchmark engine for open-set fruit detection experiments.

Dataset statistics, reproducible experiment splits (train/test, k-shot,
cross-class), an optimal set-matching loss, COCO-style detection metrics
(mAP / AP50 / mAR), and table renderers, behind one CLI.
"""

from .assignment import (
    Assignment,
    CostMatrix,
    LossBreakdown,
    LossWeights,
    build_match_cost,
    hungarian,
    set_loss,
)
from .datamodel import (
    Category,
    DatasetStats,
    Detection,
    DetectionDataset,
    GroundTruthInstance,
    ImageRecord,
    PredictionTable,
    compute_stats,
    load_coco,
    load_labelme,
    load_predictions,
    write_coco,
)
from .errors import (
    FruitBenchError,
    IntegrityError,
    ManifestDigestError,
    ParseError,
    ValidationError,
)
from .evaluation import (
    DEFAULT_IOU_THRESHOLDS,
    EvalConfig,
    EvaluationReport,
    PRCurve,
    attribute_predicate,
    average_precision,
    evaluate,
    evaluate_rec,
    match_detections,
)
from .geometry import BoundingBox, area, giou, iou, l1_box_distance
from .reporting import (
    ExperimentGrid,
    GridRow,
    TimingRecord,
    load_timing_log,
    render_metric_grid,
    render_stats_table,
    summarize_timing,
)
from .splits import (
    SplitResult,
    SplitSpec,
    load_manifest,
    sample_k_shot,
    split_cross_class,
    split_train_test,
    split_zero_shot,
    write_manifest,
)

__version__ = "0.1.0"
