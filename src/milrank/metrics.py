"""Frame-level evaluation: score expansion, ROC/AUC, false-alarm rate.

``expand_scores`` is the one rule from segment scores to a frame timeline.
Frames from all videos are pooled into one global ROC; a frame is positive
iff it lies inside an annotated anomalous interval.  Tied scores
contribute diagonal curve segments, which makes the trapezoidal AUC equal
to the pair-counting definition with half credit for ties.
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
    thresholds: tuple[float, ...]
    points: tuple[tuple[float, float], ...]  # (fpr, tpr), sorted by fpr
    auc: float


def expand_scores(f: FeatureMatrix, segment_scores, m: int) -> ScoreTimeline:
    """Check ``m`` segment scores of ``f`` and spread them piecewise-constant over its frames."""
    scores = check_score_vector(segment_scores, length=m, name="segment_scores")
    return ScoreTimeline(video_id=f.video_id, frame_scores=spread_over_frames(scores, f.n_frames))


def _pool_frames(timelines, annotations) -> tuple[np.ndarray, np.ndarray]:
    by_id = {}
    for ann in annotations:
        if ann.video_id in by_id:
            raise ValueError(f"duplicate annotation for video {ann.video_id!r}")
        by_id[ann.video_id] = ann
    labels = []
    scores = []
    for tl in timelines:
        ann = by_id.get(tl.video_id)
        if ann is None:
            raise ValueError(f"no annotation for video {tl.video_id!r}")
        if ann.n_frames != tl.n_frames:
            raise ValueError(
                f"video {tl.video_id!r}: annotation covers {ann.n_frames} frames, timeline has {tl.n_frames}")
        labels.append(ann.frame_labels())
        scores.append(tl.frame_scores)
    if not labels:
        raise MetricError("empty frame pool")
    return np.concatenate(labels), np.concatenate(scores)


def roc_auc(timelines, annotations) -> RocCurve:
    """Pooled frame-level ROC curve and trapezoidal AUC.

    Thresholds sweep all distinct scores (prediction is positive iff
    score >= threshold) plus a +inf sentinel for the (0, 0) endpoint.
    """
    labels, scores = _pool_frames(timelines, annotations)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("frame pool contains only one class")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # last index of each run of tied scores
    distinct = np.flatnonzero(np.diff(sorted_scores) != 0.0)
    boundaries = np.append(distinct, sorted_scores.size - 1)
    tp = np.cumsum(sorted_labels)[boundaries]
    fp = boundaries + 1 - tp

    thresholds = [float("inf")] + [float(s) for s in sorted_scores[boundaries]]
    fpr = np.concatenate([[0.0], fp / n_neg])
    tpr = np.concatenate([[0.0], tp / n_pos])
    auc = float(np.trapezoid(tpr, fpr))
    points = tuple((float(x), float(y)) for x, y in zip(fpr, tpr))
    return RocCurve(thresholds=tuple(thresholds), points=points, auc=auc)


def check_threshold(threshold: float) -> None:
    """Raise ValueError unless ``threshold`` is finite."""
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")


def false_alarm_rate(timelines, threshold: float = 0.5) -> float:
    """Fraction of pooled frames scoring at or above ``threshold``.

    Callers must pass timelines of normal videos only; the result is a
    plain ratio (multiply by 100 when reporting a percentage).
    """
    check_threshold(threshold)
    frames = [tl.frame_scores for tl in timelines]
    if not frames:
        raise MetricError("empty frame pool")
    pooled = np.concatenate(frames)
    if pooled.size == 0:
        raise MetricError("empty frame pool")
    return float(np.count_nonzero(pooled >= threshold) / pooled.size)


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
    annotations = []
    normal_timelines = []
    for entry in manifest.entries:
        f = load_features(entry.feature_path)
        timeline = expand_scores(f, segment_scorer(f), m)
        annotations.append(entry_annotation(entry, f.video_id, f.n_frames, annotation_cache))
        if entry.label == 0:
            normal_timelines.append(timeline)
        timelines.append(timeline)
    curve = roc_auc(timelines, annotations)
    far = false_alarm_rate(normal_timelines, threshold) if normal_timelines else None
    return ManifestEvaluation(curve=curve, false_alarm=far, timelines=tuple(timelines))


def write_roc_csv(curve: RocCurve, path) -> None:
    """CSV with one row per threshold plus a final ``AUC,<value>`` line."""
    rows = [(threshold, fpr, tpr) for threshold, (fpr, tpr) in zip(curve.thresholds, curve.points)]
    write_lines(path, csv_lines("threshold,fpr,tpr", rows + [("AUC", curve.auc)]))


def write_timeline_csv(timeline: ScoreTimeline, path) -> None:
    write_lines(path, csv_lines("frame,score", enumerate(timeline.frame_scores.tolist())))
