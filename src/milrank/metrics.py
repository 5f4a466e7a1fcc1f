"""Frame-level evaluation: score expansion, ROC/AUC, false-alarm rate.

``expand_scores`` is the one rule from segment scores to a frame timeline.
``evaluate_manifest`` pools the frames of all videos once, for one global
ROC (a frame is positive iff it lies inside an annotated anomalous
interval) and the false-alarm rate of the normal videos' frames.  Tied
scores contribute diagonal curve segments, which makes the trapezoidal AUC
equal to the pair-counting definition with half credit for ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import DataError, DimensionMismatchError, FormatError, MetricError
from .features import (
    DEFAULT_SEGMENTS,
    DatasetManifest,
    FeatureMatrix,
    ManifestEntry,
    load_features,
    make_bag,
    spread_over_frames,
)
from .network import MlpModel, forward
from .validation import check_score_vector, content_lines, csv_lines, write_lines


@dataclass(frozen=True)
class TemporalAnnotation:
    """Ground-truth anomalous frame intervals for one video (test-time only)."""

    video_id: str
    n_frames: int
    intervals: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.n_frames < 1:
            raise ValueError("n_frames must be positive")
        prev_end = 0
        for start, end in self.intervals:
            if not (0 <= start < end <= self.n_frames):
                raise ValueError(f"interval [{start}, {end}) outside [0, {self.n_frames})")
            if start < prev_end:
                raise ValueError("intervals must be sorted and non-overlapping")
            prev_end = end

    def frame_labels(self) -> np.ndarray:
        labels = np.zeros(self.n_frames, dtype=bool)
        for start, end in self.intervals:
            labels[start:end] = True
        return labels


@dataclass(frozen=True)
class ScoreTimeline:
    """Per-frame anomaly scores for one video."""

    video_id: str
    frame_scores: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.frame_scores.shape[0]


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray  # +inf, then the distinct scores in decreasing order
    fpr: np.ndarray  # non-decreasing from 0 to 1, one point per threshold
    tpr: np.ndarray
    auc: float


def expand_scores(f: FeatureMatrix, segment_scores, m: int) -> ScoreTimeline:
    """Check ``m`` segment scores of ``f`` and spread them piecewise-constant over its frames."""
    scores = check_score_vector(segment_scores, length=m, name="segment_scores")
    return ScoreTimeline(video_id=f.video_id, frame_scores=spread_over_frames(scores, f.n_frames))


def roc_auc(labels, scores) -> RocCurve:
    """ROC curve and trapezoidal AUC of pooled frame ``labels`` (true if
    anomalous) and ``scores``.

    Thresholds sweep all distinct scores (prediction is positive iff
    score >= threshold) plus a +inf sentinel for the (0, 0) endpoint.
    """
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.ndim != 1 or labels.shape != scores.shape:
        raise ValueError(f"labels {labels.shape} and scores {scores.shape} must be equal-length vectors")
    n_pos = int(np.count_nonzero(labels))
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("frame pool contains only one class")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    # last index of each run of tied scores
    distinct = np.flatnonzero(np.diff(sorted_scores) != 0.0)
    boundaries = np.append(distinct, sorted_scores.size - 1)
    tp = np.cumsum(labels[order])[boundaries]
    fp = boundaries + 1 - tp
    fpr = np.concatenate([[0.0], fp / n_neg])
    tpr = np.concatenate([[0.0], tp / n_pos])
    return RocCurve(thresholds=np.concatenate([[np.inf], sorted_scores[boundaries]]),
                    fpr=fpr, tpr=tpr, auc=float(np.trapezoid(tpr, fpr)))


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless ``threshold`` is finite."""
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")


def false_alarm_rate(scores, threshold: float = 0.5) -> float:
    """Fraction of pooled frame ``scores`` at or above ``threshold``.

    Callers pass the frames of normal videos only; the result is a plain
    ratio (multiply by 100 when reporting a percentage).
    """
    check_threshold(threshold)
    scores = np.asarray(scores)
    if scores.size == 0:
        raise MetricError("empty frame pool")
    return float(np.count_nonzero(scores >= threshold) / scores.size)


def score_video(model: MlpModel, f: FeatureMatrix,
                m: int = DEFAULT_SEGMENTS) -> tuple[np.ndarray, ScoreTimeline]:
    """Normalize, segment, score in eval mode, and expand to frames."""
    if f.dim != model.dim:
        raise DimensionMismatchError(f"features have dim {f.dim}, model expects {model.dim}")
    scores = forward(model, make_bag(f, 0, m).segments)
    return scores, expand_scores(f, scores, m)


def load_annotations(path) -> dict[str, TemporalAnnotation]:
    """Parse an annotation file into a lookup by video id.

    One video per line: ``<video_id> <n_frames> <start1> <end1> ...`` with
    half-open frame intervals; ``-1 -1`` pairs are accepted and ignored so
    files padded to a fixed number of event slots parse cleanly.
    """
    path = Path(path)
    out: dict[str, TemporalAnnotation] = {}
    for lineno, text in content_lines(path):
        tokens = text.split()
        if len(tokens) < 2:
            raise FormatError(path, f"line {lineno}", "expected '<video_id> <n_frames> [pairs...]'")
        video_id = tokens[0]
        if video_id in out:
            raise FormatError(path, f"line {lineno}", f"duplicate video id {video_id!r}")
        try:
            n_frames = int(tokens[1])
            numbers = [int(tok) for tok in tokens[2:]]
        except ValueError:
            raise FormatError(path, f"line {lineno}", "non-integer field") from None
        if len(numbers) % 2 != 0:
            raise FormatError(path, f"line {lineno}", "interval bounds must come in pairs")
        intervals = []
        for start, end in zip(numbers[::2], numbers[1::2]):
            if start == -1 and end == -1:
                continue
            intervals.append((start, end))
        intervals.sort()
        try:
            out[video_id] = TemporalAnnotation(video_id, n_frames, tuple(intervals))
        except ValueError as e:
            raise FormatError(path, f"line {lineno}", str(e)) from None
    return out


@dataclass(frozen=True)
class ManifestEvaluation:
    curve: RocCurve
    false_alarm: float | None  # None when the manifest has no normal videos
    timelines: tuple[ScoreTimeline, ...]


def entry_annotation(entry: ManifestEntry, video_id: str, n_frames: int,
                     cache: dict) -> TemporalAnnotation:
    """Ground truth of one test-manifest entry.

    An anomalous entry must reference an annotation file that lists its
    video id with at least one interval; a normal entry gets an empty
    annotation and must not be listed with intervals.  A listed video's
    frame count must equal ``n_frames``, the feature file's.  ``cache`` maps
    each annotation path to its parsed file across calls.
    """
    ann = None
    if entry.annotation_path is not None:
        if entry.annotation_path not in cache:
            cache[entry.annotation_path] = load_annotations(entry.annotation_path)
        ann = cache[entry.annotation_path].get(video_id)
    if ann is not None and ann.n_frames != n_frames:
        raise DataError(f"video {video_id!r}: annotation covers {ann.n_frames} frames, "
                        f"feature file has {n_frames}")
    if entry.label == 1:
        if ann is None or not ann.intervals:
            raise DataError(f"anomalous video {video_id!r} has no annotated intervals")
        return ann
    if ann is not None and ann.intervals:
        raise DataError(f"video {video_id!r} is labeled normal but has anomalous intervals")
    return TemporalAnnotation(video_id, n_frames)


def evaluate_manifest(manifest: DatasetManifest, segment_scorer, m: int = DEFAULT_SEGMENTS,
                      threshold: float = 0.5) -> ManifestEvaluation:
    """Score every manifest video and compute the pooled frame metrics.

    ``segment_scorer(features)`` must return the per-segment score vector of
    ``make_bag(features, label, m)``; ``expand_scores`` spreads the scores
    over the frames.  Annotations follow ``entry_annotation``.
    """
    annotation_cache: dict = {}
    timelines = []
    labels = []
    for entry in manifest.entries:
        f = load_features(entry.feature_path)
        timelines.append(expand_scores(f, segment_scorer(f), m))
        labels.append(entry_annotation(entry, f.video_id, f.n_frames, annotation_cache).frame_labels())
    scores = np.concatenate([tl.frame_scores for tl in timelines])
    curve = roc_auc(np.concatenate(labels), scores)
    normal = np.repeat([e.label == 0 for e in manifest.entries], [tl.n_frames for tl in timelines])
    far = false_alarm_rate(scores[normal], threshold) if normal.any() else None
    return ManifestEvaluation(curve=curve, false_alarm=far, timelines=tuple(timelines))


def write_roc_csv(curve: RocCurve, path) -> None:
    """CSV with one row per threshold plus a final ``AUC,<value>`` line."""
    rows = zip(curve.thresholds.tolist(), curve.fpr.tolist(), curve.tpr.tolist())
    write_lines(path, csv_lines("threshold,fpr,tpr", [*rows, ("AUC", curve.auc)]))


def write_timeline_csv(timeline: ScoreTimeline, path) -> None:
    write_lines(path, csv_lines("frame,score", enumerate(timeline.frame_scores.tolist())))
