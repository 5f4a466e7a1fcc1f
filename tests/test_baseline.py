import numpy as np
import pytest

import segment_oracle
from milrank.baseline import (
    LinearModel,
    fit_linear,
    load_linear,
    save_linear,
    score_linear,
    train_linear,
    video_feature,
)
from milrank.exceptions import DataError, DimensionMismatchError
from milrank.features import FeatureMatrix, write_features


def write_video(tmp_path, name, data, n_frames=None):
    data = np.asarray(data, dtype=np.float64)
    f = FeatureMatrix(name, data, n_frames or 16 * data.shape[0])
    write_features(f, tmp_path / f"{name}.feat", "binary")
    return f


def hinge_objective(w, b, X, y, c_reg):
    """The objective ``fit_linear`` descends, for labels ``y`` in {-1, +1}."""
    margins = y * (X @ w - b)
    return c_reg * float(np.maximum(0.0, 1.0 - margins).mean()) + 0.5 * float(w @ w)


class TestFitLinear:
    def test_two_point_problem_hinge_vanishes(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1, 0])
        model = fit_linear(X, y, c_reg=1.0, epochs=10_000, learning_rate=0.1)
        signs = np.array([1.0, -1.0])
        margins = signs * (X @ model.w - model.b)
        hinge = np.maximum(0.0, 1.0 - margins).mean()
        assert hinge <= 1e-3

    def test_label_flip_anticorrelates_scores(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 6))
        y = (rng.uniform(size=20) > 0.5).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        a = fit_linear(X, y, c_reg=1.0, epochs=500, learning_rate=0.05)
        b = fit_linear(X, 1 - y, c_reg=1.0, epochs=500, learning_rate=0.05)
        scores_a = X @ a.w - a.b
        scores_b = X @ b.w - b.b
        corr = np.corrcoef(scores_a, scores_b)[0, 1]
        assert corr <= -0.99

    def test_objective_final_not_above_initial(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 4))
        y = (X[:, 0] > 0).astype(int)
        model = fit_linear(X, y, c_reg=2.0, epochs=2000, learning_rate=0.01)
        initial = hinge_objective(np.zeros(4), 0.0, X, np.where(y > 0, 1.0, -1.0), 2.0)
        final = hinge_objective(model.w, model.b, X, np.where(y > 0, 1.0, -1.0), 2.0)
        assert final <= initial

    def test_single_class_rejected(self):
        X = np.ones((5, 3))
        with pytest.raises(DataError):
            fit_linear(X, np.ones(5), c_reg=1.0, epochs=10)

    def test_accepts_plus_minus_labels(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        a = fit_linear(X, np.array([1, 0]), epochs=100)
        b = fit_linear(X, np.array([1, -1]), epochs=100)
        assert np.array_equal(a.w, b.w) and a.b == b.b


class TestTrainLinearFromManifest:
    def test_video_feature_is_mean_of_normalized_clips(self):
        f = FeatureMatrix("v", np.array([[3.0, 4.0], [0.0, 2.0]]), 32)
        expected = (np.array([0.6, 0.8]) + np.array([0.0, 1.0])) / 2
        assert np.allclose(video_feature(f), expected, atol=1e-15)

    def test_trains_from_files(self, tmp_path):
        rng = np.random.default_rng(2)
        lines = []
        for i in range(4):
            label = i % 2
            base = np.full((8, 4), 2.0 * label) + rng.standard_normal((8, 4))
            write_video(tmp_path, f"v{i}", base)
            lines.append(f"v{i}.feat {label}")
        (tmp_path / "m.txt").write_text("\n".join(lines) + "\n")
        from milrank.features import load_manifest
        manifest = load_manifest(tmp_path / "m.txt", "train")
        model = train_linear(manifest, c_reg=1.0, epochs=200)
        assert np.isfinite(model.w).all()


class TestScoreLinear:
    def test_zero_model_scores_half(self):
        model = LinearModel(w=np.zeros(3), b=0.0, c_reg=1.0)
        f = FeatureMatrix("v", np.random.default_rng(3).standard_normal((6, 3)), 96)
        assert np.array_equal(score_linear(model, f, 4), np.full(4, 0.5))

    def test_deterministic(self):
        model = LinearModel(w=np.array([0.5, -0.25, 1.0]), b=0.1, c_reg=1.0)
        f = FeatureMatrix("v", np.random.default_rng(4).standard_normal((6, 3)), 96)
        assert np.array_equal(score_linear(model, f, 4), score_linear(model, f, 4))

    def test_matches_manual_dot_product(self):
        model = LinearModel(w=np.array([0.5, -0.25, 1.0]), b=0.1, c_reg=1.0)
        f = FeatureMatrix("v", np.random.default_rng(5).standard_normal((6, 3)), 96)
        scores = score_linear(model, f, 4)
        segments = segment_oracle.bag_segments(f.data, 4)
        for g in range(4):
            margin = sum(model.w[j] * segments[g, j] for j in range(3)) - model.b
            assert abs(scores[g] - 1.0 / (1.0 + np.exp(-margin))) < 1e-12

    def test_dim_mismatch(self):
        model = LinearModel(w=np.zeros(5), b=0.0, c_reg=1.0)
        with pytest.raises(DimensionMismatchError):
            score_linear(model, FeatureMatrix("v", np.ones((4, 3)), 64), 4)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = LinearModel(w=np.array([1.5, -2.25, 0.125]), b=0.75, c_reg=3.0)
        save_linear(model, tmp_path / "m.json")
        loaded = load_linear(tmp_path / "m.json")
        assert np.array_equal(loaded.w, model.w)
        assert loaded.b == model.b and loaded.c_reg == model.c_reg
