import numpy as np
import pytest

import milrank.metrics
import segment_oracle
from milrank.exceptions import DataError, DimensionMismatchError, FormatError, MetricError
from milrank.features import (
    FeatureMatrix,
    load_features,
    load_manifest,
    segment_bounds,
    write_features,
)
from milrank.metrics import (
    RocCurve,
    TemporalAnnotation,
    entry_annotation,
    evaluate_manifest,
    expand_scores,
    false_alarm_rate,
    load_annotations,
    roc_auc,
    score_video,
    write_roc_csv,
)
from milrank.network import MlpModel, forward, init_model


def two_segment_video():
    return FeatureMatrix("v", np.zeros((2, 3)), 10)


def pair_count_auc(labels, scores):
    """Brute-force P(score_pos > score_neg) + half credit for ties."""
    labels = np.asarray(labels, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[labels][:, None]
    neg = scores[~labels][None, :]
    return ((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.size * neg.size)


def interval_labels(n_frames, *intervals):
    return TemporalAnnotation("v", n_frames, intervals).frame_labels()


class TestExpandScores:
    def test_two_segment_example(self):
        tl = expand_scores(two_segment_video(), [0.1, 0.9], 2)
        assert np.array_equal(tl.frame_scores[:5], np.full(5, 0.1))
        assert np.array_equal(tl.frame_scores[5:], np.full(5, 0.9))

    def test_constant_scores(self):
        tl = expand_scores(two_segment_video(), [0.4, 0.4], 2)
        assert np.array_equal(tl.frame_scores, np.full(10, 0.4))

    def test_random_bag_linear_scan_oracle(self):
        rng = np.random.default_rng(0)
        f = FeatureMatrix("v", rng.standard_normal((13, 3)), 77)
        scores = rng.uniform(0, 1, 8)
        tl = expand_scores(f, scores, 8)
        bounds = segment_bounds(77, 8)
        for frame in range(77):
            for start, end, s in zip(bounds[:-1], bounds[1:], scores):
                if start <= frame < end:
                    assert tl.frame_scores[frame] == s
                    break
            else:
                pytest.fail(f"frame {frame} not covered")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            expand_scores(two_segment_video(), [0.1, 0.2, 0.3], 2)


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc(interval_labels(4, (0, 2)), [1.0, 1.0, 0.0, 0.0]).auc == 1.0

    def test_degenerate_constant_scores(self):
        assert roc_auc(interval_labels(4, (0, 2)), [0.5, 0.5, 0.5, 0.5]).auc == 0.5

    def test_pair_counting_oracle_random_pools(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(10, 400))
            n_anom = int(rng.integers(1, n))
            scores = np.round(rng.uniform(0, 1, n), 2)  # rounding forces ties
            labels = interval_labels(n, (0, n_anom))
            got = roc_auc(labels, scores).auc
            want = pair_count_auc(labels, scores)
            assert abs(got - want) < 1e-9

    def test_multi_video_pooling(self):
        # two videos' frames, concatenated: [0.9, 0.1] with frame 0 anomalous,
        # then [0.8, 0.2, 0.3] with frame 0 anomalous
        labels = np.concatenate([interval_labels(2, (0, 1)), interval_labels(3, (0, 1))])
        scores = [0.9, 0.1, 0.8, 0.2, 0.3]
        got = roc_auc(labels, scores).auc
        assert abs(got - pair_count_auc(labels, scores)) < 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(0, 1, 200)
        labels = interval_labels(200, (50, 120))
        assert abs(roc_auc(labels, scores).auc - roc_auc(labels, scores ** 3).auc) < 1e-12

    def test_label_reversal_complements_auc(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0, 1, 100)
        forward_auc = roc_auc(interval_labels(100, (30, 70)), scores).auc
        reversed_auc = roc_auc(interval_labels(100, (0, 30), (70, 100)), scores).auc
        assert abs(forward_auc - (1.0 - reversed_auc)) < 1e-12

    def test_curve_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(4)
        curve = roc_auc(interval_labels(60, (10, 35)), np.round(rng.uniform(0, 1, 60), 1))
        assert curve.thresholds.shape == curve.fpr.shape == curve.tpr.shape
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert curve.thresholds[0] == float("inf")

    def test_single_class_pool_rejected(self):
        with pytest.raises(MetricError):
            roc_auc(interval_labels(2), [0.1, 0.2])
        with pytest.raises(MetricError):
            roc_auc(interval_labels(2, (0, 2)), [0.1, 0.2])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            roc_auc(interval_labels(3, (0, 1)), [0.1, 0.2])


class TestFalseAlarmRate:
    def test_all_zero_scores(self):
        assert false_alarm_rate(np.zeros(10)) == 0.0

    def test_all_one_scores(self):
        assert false_alarm_rate(np.ones(10)) == 1.0

    def test_uniform_scores_near_half(self):
        rng = np.random.default_rng(5)
        assert abs(false_alarm_rate(rng.uniform(0, 1, 10_000), 0.5) - 0.5) < 0.02

    def test_threshold_inclusive(self):
        assert false_alarm_rate([0.5, 0.4999, 0.5001], 0.5) == pytest.approx(2 / 3)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(6)
        scores = rng.uniform(0, 1, 500)
        rates = [false_alarm_rate(scores, t) for t in np.linspace(0, 1, 21)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_empty_pool_rejected(self):
        with pytest.raises(MetricError):
            false_alarm_rate([])

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        with pytest.raises(ValueError, match="threshold must be finite"):
            false_alarm_rate(np.zeros(10), threshold)


class TestScoreVideo:
    def test_zero_model_scores_half(self):
        model = MlpModel(w1=np.zeros((4, 3)), b1=np.zeros(4), w2=np.zeros((2, 4)),
                         b2=np.zeros(2), w3=np.zeros((1, 2)), b3=np.zeros(1))
        f = FeatureMatrix("v", np.random.default_rng(7).standard_normal((6, 3)), 96)
        scores, tl = score_video(model, f, 4)
        assert np.array_equal(scores, np.full(4, 0.5))
        assert np.array_equal(tl.frame_scores, np.full(96, 0.5))

    def test_deterministic(self):
        model = init_model(3, seed=8, hidden1=4, hidden2=2)
        f = FeatureMatrix("v", np.random.default_rng(8).standard_normal((6, 3)), 96)
        a, _ = score_video(model, f, 4)
        b, _ = score_video(model, f, 4)
        assert np.array_equal(a, b)

    def test_matches_manual_chain(self):
        model = init_model(3, seed=9, hidden1=4, hidden2=2)
        f = FeatureMatrix("v", np.random.default_rng(9).standard_normal((6, 3)), 96)
        scores, tl = score_video(model, f, 4)
        segments = segment_oracle.bag_segments(f.data, 4)
        manual = forward(model, segments)
        assert np.array_equal(scores, manual)
        assert np.array_equal(tl.frame_scores, expand_scores(f, manual, 4).frame_scores)

    def test_dim_mismatch(self):
        model = init_model(5, seed=10, hidden1=4, hidden2=2)
        f = FeatureMatrix("v", np.ones((4, 3)), 64)
        with pytest.raises(DimensionMismatchError):
            score_video(model, f, 4)


def write_eval_set(root, clip_frame_counts, dim=6, seed=0):
    """Binary feature files with the given (clips, frames), alternately anomalous
    and normal, a test manifest and an annotation file listing every video."""
    rng = np.random.default_rng(seed)
    manifest_lines, annotation_lines = [], []
    for i, (clips, frames) in enumerate(clip_frame_counts):
        video_id = f"v{i}"
        write_features(FeatureMatrix(video_id, rng.normal(size=(clips, dim)), frames),
                       root / f"{video_id}.feat")
        label = i % 2
        manifest_lines.append(f"{video_id}.feat {label} ann.txt")
        interval = f"0 {max(1, frames // 3)}" if label else "-1 -1"
        annotation_lines.append(f"{video_id} {frames} {interval}")
    (root / "ann.txt").write_text("\n".join(annotation_lines) + "\n")
    (root / "test.txt").write_text("\n".join(manifest_lines) + "\n")
    return load_manifest(root / "test.txt", "test")


class TestEvaluateManifest:
    # clip counts below, at and above m; frame counts that m does and does not divide
    SIZES = ((3, 50), (8, 128), (37, 600), (100, 1601), (5, 7), (64, 1024))

    def test_one_bag_per_video(self, tmp_path, monkeypatch):
        manifest = write_eval_set(tmp_path, self.SIZES)
        model = init_model(6, seed=2, hidden1=8, hidden2=3)
        calls = []
        original = milrank.metrics.make_bag

        def counting_make_bag(*args, **kwargs):
            calls.append(args[0].video_id)
            return original(*args, **kwargs)

        monkeypatch.setattr(milrank.metrics, "make_bag", counting_make_bag)
        evaluate_manifest(manifest, lambda f: score_video(model, f, 8)[0], m=8)
        assert calls == [f"v{i}" for i in range(len(self.SIZES))]

    @pytest.mark.parametrize("m", [2, 8, 32])
    def test_timelines_match_score_video_bit_for_bit(self, tmp_path, m):
        manifest = write_eval_set(tmp_path, self.SIZES)
        model = init_model(6, seed=3, hidden1=8, hidden2=3)
        evaluation = evaluate_manifest(manifest, lambda f: score_video(model, f, m)[0], m=m)
        assert len(evaluation.timelines) == len(self.SIZES)
        for entry, got in zip(manifest.entries, evaluation.timelines):
            _, expected = score_video(model, load_features(entry.feature_path), m)
            assert got.video_id == expected.video_id
            assert got.frame_scores.dtype == expected.frame_scores.dtype
            assert got.frame_scores.tobytes() == expected.frame_scores.tobytes()

    def test_pooled_metrics_match_brute_force(self, tmp_path):
        manifest = write_eval_set(tmp_path, self.SIZES)
        model = init_model(6, seed=4, hidden1=8, hidden2=3)
        scorer = lambda f: score_video(model, f, 8)[0]
        normal = [tl.frame_scores for entry, tl in
                  zip(manifest.entries, evaluate_manifest(manifest, scorer, m=8).timelines)
                  if entry.label == 0]
        threshold = float(np.median(np.concatenate(normal)))
        evaluation = evaluate_manifest(manifest, scorer, m=8, threshold=threshold)
        alarms = sum(int(np.count_nonzero(scores >= threshold)) for scores in normal)
        assert 0.0 < evaluation.false_alarm < 1.0
        assert evaluation.false_alarm == alarms / sum(scores.size for scores in normal)
        # write_eval_set marks the first third of each anomalous video's frames
        labels = np.concatenate([interval_labels(frames, (0, max(1, frames // 3))) if i % 2
                                 else interval_labels(frames) for i, (_, frames) in enumerate(self.SIZES)])
        scores = np.concatenate([tl.frame_scores for tl in evaluation.timelines])
        assert abs(evaluation.curve.auc - pair_count_auc(labels, scores)) < 1e-12

    def test_no_normal_video_gives_no_false_alarm_rate(self, tmp_path):
        write_eval_set(tmp_path, self.SIZES)
        lines = (tmp_path / "test.txt").read_text().splitlines()
        (tmp_path / "anomalous.txt").write_text("\n".join(lines[1::2]) + "\n")
        manifest = load_manifest(tmp_path / "anomalous.txt", "test")
        assert {entry.label for entry in manifest.entries} == {1}
        model = init_model(6, seed=5, hidden1=8, hidden2=3)
        evaluation = evaluate_manifest(manifest, lambda f: score_video(model, f, 8)[0], m=8)
        assert evaluation.false_alarm is None
        assert 0.0 <= evaluation.curve.auc <= 1.0


class TestEntryAnnotation:
    def entry(self, tmp_path, label, annotation_text):
        write_features(FeatureMatrix("v", np.ones((2, 2)), 32), tmp_path / "v.feat")
        ann = ""
        if annotation_text is not None:
            (tmp_path / "ann.txt").write_text(annotation_text)
            ann = " ann.txt"
        (tmp_path / "m.txt").write_text(f"v.feat {label}{ann}\n")
        return load_manifest(tmp_path / "m.txt", "test").entries[0]

    def test_anomalous_entry_returns_its_intervals(self, tmp_path):
        ann = entry_annotation(self.entry(tmp_path, 1, "v 32 4 9\n"), "v", 32, {})
        assert ann == TemporalAnnotation("v", 32, ((4, 9),))

    def test_normal_entry_gets_empty_annotation(self, tmp_path):
        for text in (None, "v 32 -1 -1\n", "other 10 0 5\n"):
            ann = entry_annotation(self.entry(tmp_path, 0, text), "v", 32, {})
            assert ann == TemporalAnnotation("v", 32)

    @pytest.mark.parametrize("label, text", [
        (1, None), (1, "other 10 0 5\n"), (1, "v 32 -1 -1\n"), (0, "v 32 0 5\n")])
    def test_contradicting_entry_is_data_error(self, tmp_path, label, text):
        with pytest.raises(DataError):
            entry_annotation(self.entry(tmp_path, label, text), "v", 32, {})

    def test_annotation_file_parsed_once(self, tmp_path):
        entry = self.entry(tmp_path, 1, "v 32 4 9\n")
        cache = {}
        entry_annotation(entry, "v", 32, cache)
        (tmp_path / "ann.txt").write_text("garbage\n")
        assert entry_annotation(entry, "v", 32, cache).intervals == ((4, 9),)


class TestAnnotationsFile:
    def test_parse_with_sentinels(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text(
            "vid_a 100 10 20 -1 -1\n"
            "vid_b 50 -1 -1 -1 -1\n"
            "vid_c 80 5 10 40 60\n")
        anns = load_annotations(path)
        assert anns["vid_a"].intervals == ((10, 20),)
        assert anns["vid_b"].intervals == ()
        assert anns["vid_c"].intervals == ((5, 10), (40, 60))

    def test_odd_token_count(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("vid 100 10\n")
        with pytest.raises(FormatError, match="line 1"):
            load_annotations(path)

    def test_interval_out_of_range(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("vid 100 90 110\n")
        with pytest.raises(FormatError, match="line 1"):
            load_annotations(path)

    def test_overlapping_intervals(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("vid 100 10 50 40 60\n")
        with pytest.raises(FormatError):
            load_annotations(path)

    def test_duplicate_video(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("vid 100 -1 -1\nvid 100 -1 -1\n")
        with pytest.raises(FormatError, match="line 2"):
            load_annotations(path)


class TestRocCsv:
    def test_csv_has_threshold_rows_and_auc_line(self, tmp_path):
        curve = RocCurve(thresholds=np.array([np.inf, 0.9, 0.1]), fpr=np.array([0.0, 0.0, 1.0]),
                         tpr=np.array([0.0, 0.5, 1.0]), auc=0.75)
        path = tmp_path / "roc.csv"
        write_roc_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert lines[1] == "inf,0.0,0.0"
        assert lines[-1] == "AUC,0.75"

    def test_curve_from_roc_auc_written_as_float_reprs(self, tmp_path):
        rng = np.random.default_rng(11)
        curve = roc_auc(interval_labels(90, (20, 50)), rng.uniform(0, 1, 90) / 3)
        path = tmp_path / "roc.csv"
        write_roc_csv(curve, path)
        lines = path.read_text().splitlines()
        assert lines[1].startswith("inf,")
        assert lines[1:-1] == [",".join(repr(float(x)) for x in row)
                               for row in zip(curve.thresholds, curve.fpr, curve.tpr)]
        assert lines[-1] == f"AUC,{curve.auc!r}"
