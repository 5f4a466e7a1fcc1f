import dataclasses
import inspect

import numpy as np
import pytest

from milrank.baseline import fit_linear
from milrank.estimator import LinearHingeBaseline, MilRankingDetector
from milrank.exceptions import NotFittedError
from milrank.features import FeatureMatrix, load_features, load_manifest
from milrank.loss import LossParams
from milrank.network import forward
from milrank.optim import TrainConfig, train
from milrank.synthetic import SynthSpec, generate


def synthetic_videos(n_pos=3, n_neg=3, dim=8, clips=12, seed=0):
    """In-memory clip matrices with a planted mean shift in the positives."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=dim)
    u /= np.linalg.norm(u)
    X, y = [], []
    for _ in range(n_pos):
        clips_arr = rng.normal(size=(clips, dim))
        clips_arr[: clips // 3] += 3.0 * u
        X.append(clips_arr)
        y.append(1)
    for _ in range(n_neg):
        X.append(rng.normal(size=(clips, dim)))
        y.append(0)
    return X, np.array(y)


def small_detector(**overrides):
    params = dict(segments_per_bag=6, hidden1=16, hidden2=4, iterations=60,
                  batch_pos=2, batch_neg=2, seed=1)
    params.update(overrides)
    return MilRankingDetector(**params)


class TestParamsProtocol:
    def test_get_params_round_trip(self):
        det = small_detector(learning_rate=0.01)
        params = det.get_params()
        rebuilt = MilRankingDetector(**params)
        assert rebuilt.get_params() == params

    def test_set_params_returns_self(self):
        det = small_detector()
        assert det.set_params(seed=9) is det
        assert det.seed == 9

    def test_detector_defaults_are_train_config_defaults(self):
        expected = {f.name: f.default for f in dataclasses.fields(TrainConfig)
                    if f.name not in ("loss_params", "probe_video_id")}
        expected.update((f.name, f.default) for f in dataclasses.fields(LossParams))
        assert MilRankingDetector().get_params() == expected

    def test_baseline_defaults_are_fit_linear_defaults(self):
        signature = inspect.signature(fit_linear).parameters
        assert LinearHingeBaseline().get_params() == {
            "c_reg": signature["c_reg"].default, "epochs": signature["epochs"].default,
            "learning_rate": signature["learning_rate"].default}

    @pytest.mark.parametrize("cls, bogus", [(MilRankingDetector, "probe_video_id"),
                                            (LinearHingeBaseline, "seed")])
    def test_constructor_rejects_unknown(self, cls, bogus):
        with pytest.raises(TypeError, match=bogus):
            cls(**{bogus: 0})

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            small_detector().set_params(bogus=1)

    def test_sklearn_clone_compatible(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        det = small_detector(iterations=10)
        cloned = sklearn_base.clone(det)
        assert cloned.get_params() == det.get_params()
        baseline = LinearHingeBaseline(epochs=5)
        assert sklearn_base.clone(baseline).get_params() == baseline.get_params()


class TestMilRankingDetector:
    def test_not_fitted_errors(self):
        det = small_detector()
        with pytest.raises(NotFittedError):
            det.score_samples(np.ones((2, 8)))
        with pytest.raises(NotFittedError):
            det.predict(np.ones((2, 8)))

    def test_fit_predict_shapes(self):
        X, y = synthetic_videos()
        det = small_detector().fit(X, y)
        rows = np.random.default_rng(1).normal(size=(7, 8))
        scores = det.score_samples(rows)
        assert scores.shape == (7,)
        assert np.all((scores > 0) & (scores < 1))
        preds = det.predict(rows)
        assert set(np.unique(preds)) <= {0, 1}

    def test_score_samples_normalizes_rows(self):
        X, y = synthetic_videos()
        det = small_detector().fit(X, y)
        rows = np.random.default_rng(2).normal(size=(5, 8))
        scaled = 100.0 * rows
        assert np.allclose(det.score_samples(rows), det.score_samples(scaled))
        normalized = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        direct = forward(det.model_, normalized)
        assert np.array_equal(det.score_samples(rows), direct)

    def test_fit_accepts_feature_matrices(self):
        X, y = synthetic_videos(n_pos=2, n_neg=2)
        wrapped = [FeatureMatrix(f"v{i}", arr, 16 * arr.shape[0]) for i, arr in enumerate(X)]
        det = small_detector().fit(wrapped, y)
        _, tl = det.score_video(wrapped[0])
        assert tl.n_frames == wrapped[0].n_frames

    def test_fit_is_deterministic(self):
        X, y = synthetic_videos()
        a = small_detector().fit(X, y)
        b = small_detector().fit(X, y)
        for name, arr in a.model_.params().items():
            assert np.array_equal(arr, getattr(b.model_, name))

    def test_training_log_exposed(self):
        X, y = synthetic_videos()
        det = small_detector(iterations=13).fit(X, y)
        assert len(det.training_log_.rows) == 13

    def test_label_length_mismatch(self):
        X, y = synthetic_videos()
        with pytest.raises(ValueError):
            small_detector().fit(X, y[:-1])


class TestLinearHingeBaseline:
    def test_fit_and_separation(self):
        X, y = synthetic_videos(n_pos=5, n_neg=5, seed=3)
        clf = LinearHingeBaseline(epochs=500).fit(X, y)
        pooled = np.array([x.mean(axis=0) for x in X])
        margins = clf.decision_function(pooled)
        assert margins[y == 1].mean() > margins[y == 0].mean()

    def test_score_samples_in_unit_interval(self):
        X, y = synthetic_videos(n_pos=2, n_neg=2, seed=4)
        clf = LinearHingeBaseline(epochs=100).fit(X, y)
        scores = clf.score_samples(np.random.default_rng(5).normal(size=(6, 8)))
        assert np.all((scores > 0) & (scores < 1))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            LinearHingeBaseline().decision_function(np.ones((2, 8)))


class TestOneTrainingCache:
    # fit and optim.train build their bags through one helper and train through
    # one path, so the same videos give the same weights and log to the last bit

    def fit_and_train(self, tmp_path, **overrides):
        ds = generate(SynthSpec(n_pos_videos=12, n_neg_videos=12, dim=16, clips_per_video=40,
                                seed=2), tmp_path)
        manifest = load_manifest(ds.manifest_path, "train")
        det = small_detector(iterations=20, batch_pos=4, batch_neg=4, **overrides)
        model, log = train(manifest, TrainConfig.from_values(**det.get_params()))
        det.fit([load_features(entry.feature_path) for entry in manifest.entries],
                [entry.label for entry in manifest.entries])
        for name, arr in model.params().items():
            assert arr.tobytes() == getattr(det.model_, name).tobytes(), name
        assert det.training_log_.to_csv() == log.to_csv()
        return det.training_log_, log

    def test_fit_matches_train_on_the_manifest(self, tmp_path):
        self.fit_and_train(tmp_path)

    def test_fit_probe_rows_match_train(self, tmp_path):
        # with snapshots on, both probe the first positive video
        fitted, trained = self.fit_and_train(tmp_path, snapshot_every=5)
        assert len(trained.probe_rows) == 4 * 6
        assert fitted.probe_rows == trained.probe_rows
