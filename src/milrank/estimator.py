"""Estimator front-ends following scikit-learn conventions.

Both classes store constructor arguments verbatim, expose
``get_params``/``set_params`` so they work with ``sklearn.base.clone``
and pipeline tooling, and keep fitted state in trailing-underscore
attributes.  ``X`` for ``fit`` is a sequence of per-video clip matrices
(or FeatureMatrix objects) and ``y`` the video-level 0/1 labels; row-wise
scoring methods L2-normalize their input rows, matching the preprocessing
applied during training.
"""

from __future__ import annotations

import numpy as np

from .baseline import FIT_DEFAULTS, fit_linear, sigmoid, video_feature
from .exceptions import NotFittedError
from .features import FeatureMatrix, l2_normalize_rows, training_bag
from .metrics import ScoreTimeline, score_video
from .network import forward
from .optim import TrainConfig, train_bags
from .validation import check_binary_labels, check_feature_array


def _as_feature_matrices(X) -> list[FeatureMatrix]:
    out = []
    for i, item in enumerate(X):
        if isinstance(item, FeatureMatrix):
            out.append(item)
        else:
            data = check_feature_array(item, name=f"X[{i}]")
            out.append(FeatureMatrix(video_id=f"video{i:04d}", data=data,
                                     n_frames=data.shape[0]))
    if not out:
        raise ValueError("X must contain at least one video")
    return out


def _normalized_rows(X, dim: int) -> np.ndarray:
    return l2_normalize_rows(check_feature_array(X, dim=dim, name="X"))


class _Estimator:
    """Keyword-only params, named and defaulted by ``_defaults``, and the fitted check."""

    _defaults: dict = {}

    def __init__(self, **params):
        unknown = sorted(set(params) - set(self._defaults))
        if unknown:
            raise TypeError(f"{type(self).__name__} got unexpected keyword arguments {unknown}")
        for name, default in self._defaults.items():
            setattr(self, name, params.get(name, default))

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._defaults}

    def set_params(self, **params):
        for name, value in params.items():
            if name not in self._defaults:
                raise ValueError(f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def _check_fitted(self):
        if not hasattr(self, "model_"):
            raise NotFittedError(f"{type(self).__name__} instance is not fitted yet")


class MilRankingDetector(_Estimator):
    """Anomaly scorer trained from video-level labels only.

    fit(X, y) forms one training bag per video, as ``load_bags`` does for
    a manifest, and trains the scoring network with the max-instance
    ranking hinge plus smoothness/sparsity terms; score_samples(X) returns
    per-row anomaly scores in (0, 1).  Its params are the TrainConfig
    settings (``TrainConfig.defaults``) except the probe video, which is the
    first positive video.
    """

    _defaults = {name: value for name, value in TrainConfig.defaults().items()
                 if name != "probe_video_id"}

    def fit(self, X, y):
        videos = _as_feature_matrices(X)
        labels = check_binary_labels(y, n=len(videos))
        bags = [training_bag(f, int(label), self.segments_per_bag)
                for f, label in zip(videos, labels)]
        self.model_, self.training_log_ = train_bags(bags, TrainConfig.from_values(**self.get_params()))
        return self

    def score_samples(self, X) -> np.ndarray:
        """Anomaly score per feature row (rows are L2-normalized first)."""
        self._check_fitted()
        return forward(self.model_, _normalized_rows(X, self.model_.dim))

    def predict(self, X) -> np.ndarray:
        """1 where the anomaly score reaches 0.5, else 0."""
        return (self.score_samples(X) >= 0.5).astype(np.int64)

    def score_video(self, f: FeatureMatrix) -> tuple[np.ndarray, ScoreTimeline]:
        """Segment scores and the per-frame timeline for one video."""
        self._check_fitted()
        return score_video(self.model_, f, self.segments_per_bag)


class LinearHingeBaseline(_Estimator):
    """Video-level linear hinge classifier used as an AUC reference point."""

    _defaults = FIT_DEFAULTS

    def fit(self, X, y):
        videos = _as_feature_matrices(X)
        labels = check_binary_labels(y, n=len(videos))
        pooled = np.array([video_feature(f) for f in videos])
        self.model_ = fit_linear(pooled, labels, self.c_reg, self.epochs, self.learning_rate)
        return self

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted()
        return _normalized_rows(X, self.model_.w.shape[0]) @ self.model_.w - self.model_.b

    def score_samples(self, X) -> np.ndarray:
        return sigmoid(self.decision_function(X))

    def predict(self, X) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(np.int64)
