"""Supervised linear hinge-loss baseline.

Trains a linear classifier on mean-pooled video features (video label
known, no temporal information) and scores segments with the sigmoid of
its margin, so it plugs into the same frame-level evaluation pipeline as
the ranking model.  The optimizer is plain full-batch subgradient descent
on

    c_reg * (1/k) sum_i max(0, 1 - y_i (w . x_i - b)) + 0.5 ||w||^2

with labels in {-1, +1}, which is deterministic from the zero start.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import DataError, DimensionMismatchError, FormatError
from .features import DEFAULT_SEGMENTS, DatasetManifest, FeatureMatrix, load_videos, make_bag, normalized_means
from .network import sigmoid
from .validation import check_feature_array, check_settings, json_number, json_numbers, read_json, write_json


@dataclass(frozen=True)
class LinearModel:
    w: np.ndarray
    b: float
    c_reg: float

    def __post_init__(self):
        if np.ndim(self.w) != 1 or np.size(self.w) == 0:
            raise ValueError("w must be a non-empty 1-D vector")
        if not (np.isfinite(self.w).all() and np.isfinite(self.b)):
            raise ValueError("linear model parameters must be finite")


def video_feature(f: FeatureMatrix) -> np.ndarray:
    """Mean of all L2-normalized clip rows."""
    return normalized_means(f.data, np.array([0]), np.array([f.n_clips]))[0]


def label_signs(y) -> np.ndarray:
    """0/1 or -1/+1 labels as -1/+1 signs; labels of a single class raise DataError."""
    signs = np.where(np.asarray(y) > 0, 1.0, -1.0)
    if len(np.unique(signs)) < 2:
        raise DataError("training data contains a single class")
    return signs


def fit_linear(X, y, c_reg: float = 1.0, epochs: int = 1000,
               learning_rate: float = 0.1) -> LinearModel:
    """Subgradient descent from w=0, b=0 over full-batch epochs.

    ``y`` may be 0/1 or -1/+1; it is mapped to -1/+1 internally.
    """
    check_settings({"c_reg": c_reg, "epochs": epochs, "learning_rate": learning_rate})
    X = check_feature_array(X, name="X")
    y = np.asarray(y)
    if y.shape != (X.shape[0],):
        raise ValueError(f"y must have shape ({X.shape[0]},), got {y.shape}")
    signs = label_signs(y)

    k = X.shape[0]
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(epochs):
        margins = signs * (X @ w - b)
        active = margins < 1.0
        grad_w = w - (c_reg / k) * (signs[active] @ X[active])
        grad_b = (c_reg / k) * signs[active].sum()
        w = w - learning_rate * grad_w
        b = b - learning_rate * grad_b
    return LinearModel(w=w, b=float(b), c_reg=c_reg)


def train_linear(manifest: DatasetManifest, **fit_params) -> LinearModel:
    """``fit_linear(**fit_params)`` on a manifest's videos; the settings and labels are checked first."""
    check_settings(fit_params)
    labels = np.array([entry.label for entry in manifest.entries])
    label_signs(labels)
    rows = []
    for _, f in load_videos(manifest):
        rows.append(video_feature(f))
        del f  # before the next video is read, as in load_bags
    return fit_linear(np.array(rows), labels, **fit_params)


def score_linear(model: LinearModel, f: FeatureMatrix, m: int = DEFAULT_SEGMENTS) -> np.ndarray:
    """Per-segment scores sigmoid(w . segment - b) for the eval pipeline."""
    if f.dim != model.w.shape[0]:
        raise DimensionMismatchError(f"features have dim {f.dim}, model expects {model.w.shape[0]}")
    return sigmoid(make_bag(f, 0, m).segments @ model.w - model.b)


def save_linear(model: LinearModel, path) -> None:
    doc = {"w": model.w.tolist(), "b": model.b, "c_reg": model.c_reg}
    write_json(path, doc)


def load_linear(path) -> LinearModel:
    path = Path(path)
    doc = read_json(path)
    try:
        return LinearModel(w=json_numbers(doc["w"]), b=float(json_number(doc["b"])),
                           c_reg=float(json_number(doc["c_reg"])))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FormatError(path, "document", f"invalid baseline checkpoint: {e}") from None
