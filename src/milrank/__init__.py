"""milrank: weakly-supervised video anomaly scoring via multiple-instance ranking.

Videos are bags of temporal segment features with a single video-level
label.  A small fully-connected network learns per-segment anomaly scores
from a max-instance ranking hinge with temporal-smoothness and sparsity
terms; evaluation is frame-level ROC/AUC plus the false-alarm rate on
normal videos.
"""

from .baseline import LinearModel, fit_linear, load_linear, save_linear, score_linear, train_linear
from .estimator import LinearHingeBaseline, MilRankingDetector
from .exceptions import (
    DataError,
    DimensionMismatchError,
    FormatError,
    MetricError,
    MilrankError,
    NonFiniteLossError,
    NotFittedError,
)
from .features import (
    Bag,
    DatasetManifest,
    FeatureMatrix,
    ManifestEntry,
    l2_normalize_rows,
    load_bags,
    load_features,
    load_manifest,
    make_bag,
    partition_segments,
    segment_bounds,
    write_features,
)
from .loss import LossParams, RankingLoss, ranking_loss_and_grad
from .metrics import (
    ManifestEvaluation,
    RocCurve,
    ScoreTimeline,
    TemporalAnnotation,
    evaluate_manifest,
    expand_scores,
    false_alarm_rate,
    load_annotations,
    roc_auc,
    score_video,
    write_roc_csv,
    write_timeline_csv,
)
from .network import (
    ForwardTrace,
    MlpModel,
    backward,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .optim import (
    AdagradState,
    TrainConfig,
    TrainingLog,
    adagrad_step,
    train,
    train_on_bags,
)
from .synthetic import GeneratedDataset, SynthSpec, generate, load_planted, localization_accuracy

__version__ = "0.1.0"

__all__ = [
    "AdagradState",
    "Bag",
    "DataError",
    "DatasetManifest",
    "DimensionMismatchError",
    "FeatureMatrix",
    "FormatError",
    "ForwardTrace",
    "GeneratedDataset",
    "LinearHingeBaseline",
    "LinearModel",
    "LossParams",
    "ManifestEntry",
    "ManifestEvaluation",
    "MetricError",
    "MilRankingDetector",
    "MilrankError",
    "MlpModel",
    "NonFiniteLossError",
    "NotFittedError",
    "RankingLoss",
    "RocCurve",
    "ScoreTimeline",
    "SynthSpec",
    "TemporalAnnotation",
    "TrainConfig",
    "TrainingLog",
    "adagrad_step",
    "backward",
    "evaluate_manifest",
    "expand_scores",
    "false_alarm_rate",
    "fit_linear",
    "forward",
    "generate",
    "init_model",
    "l2_normalize_rows",
    "load_annotations",
    "load_bags",
    "load_checkpoint",
    "load_features",
    "load_linear",
    "load_manifest",
    "load_planted",
    "localization_accuracy",
    "make_bag",
    "partition_segments",
    "ranking_loss_and_grad",
    "roc_auc",
    "save_checkpoint",
    "save_linear",
    "score_linear",
    "score_video",
    "segment_bounds",
    "train",
    "train_linear",
    "train_on_bags",
    "write_features",
    "write_roc_csv",
    "write_timeline_csv",
]
