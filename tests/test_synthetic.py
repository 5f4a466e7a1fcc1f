import hashlib

import numpy as np
import pytest

from milrank.features import load_features, load_manifest, segment_bounds
from milrank.metrics import load_annotations
from milrank.network import MlpModel
from milrank.rng import STREAM_SYNTH, derive_rng
from milrank.synthetic import SynthSpec, generate
from planted import load_planted, localization_accuracy, planted_segment_range

SMALL = SynthSpec(n_pos_videos=4, n_neg_videos=4, dim=8, clips_per_video=16, seed=5)


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def planted_direction(spec):
    rng = derive_rng(spec.seed, STREAM_SYNTH)
    u = rng.normal(size=spec.dim)
    return u / np.linalg.norm(u)


class TestGenerate:
    def test_byte_identical_reruns(self, tmp_path):
        generate(SMALL, tmp_path / "a")
        generate(SMALL, tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_negative_videos_have_empty_annotations(self, tmp_path):
        ds = generate(SMALL, tmp_path / "d")
        anns = load_annotations(ds.annotations_path)
        for i in range(SMALL.n_neg_videos):
            assert anns[f"neg{i:03d}"].intervals == ()

    def test_positive_annotations_match_planted(self, tmp_path):
        ds = generate(SMALL, tmp_path / "d")
        anns = load_annotations(ds.annotations_path)
        for video_id, (clip_start, clip_end) in ds.planted.items():
            assert anns[video_id].intervals == ((clip_start * 16, clip_end * 16),)

    def test_generated_files_load_and_have_declared_shape(self, tmp_path):
        ds = generate(SMALL, tmp_path / "d")
        manifest = load_manifest(ds.manifest_path, "train")
        assert len(manifest.entries) == 8
        for entry in manifest.entries:
            f = load_features(entry.feature_path)
            assert f.n_clips == SMALL.clips_per_video
            assert f.dim == SMALL.dim
            assert f.n_frames == SMALL.clips_per_video * 16

    def test_planted_csv_round_trip(self, tmp_path):
        ds = generate(SMALL, tmp_path / "d")
        assert load_planted(ds.planted_csv_path) == ds.planted

    def test_test_split_shares_direction_and_numbering(self, tmp_path):
        ds = generate(SMALL, tmp_path / "d", test_pos=2, test_neg=2)
        test_manifest = load_manifest(ds.test_manifest_path, "test")
        ids = sorted(e.feature_path.stem for e in test_manifest.entries)
        assert ids == ["neg004", "neg005", "pos004", "pos005"]
        assert "pos005" in ds.planted

    def test_lone_test_count_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate(SMALL, tmp_path / "d", test_pos=2, test_neg=0)

    def test_run_length_at_least_one(self, tmp_path):
        spec = SynthSpec(n_pos_videos=2, n_neg_videos=2, dim=4, clips_per_video=10,
                         anomaly_fraction=0.1, seed=1)
        ds = generate(spec, tmp_path / "d")
        for clip_start, clip_end in ds.planted.values():
            assert clip_end - clip_start == 1

    def test_mean_shift_matches_separation(self, tmp_path):
        # statistical identity of the construction, measured from the files
        spec = SynthSpec(n_pos_videos=300, n_neg_videos=40, dim=32,
                         clips_per_video=64, separation=2.0, seed=9)
        ds = generate(spec, tmp_path / "d")
        manifest = load_manifest(ds.manifest_path, "train")
        anom_rows, normal_rows = [], []
        for entry in manifest.entries:
            f = load_features(entry.feature_path)
            run = ds.planted.get(f.video_id)
            if run is None:
                normal_rows.append(f.data)
            else:
                clip_start, clip_end = run
                anom_rows.append(f.data[clip_start:clip_end])
                normal_rows.append(np.delete(f.data, slice(clip_start, clip_end), axis=0))
        anom = np.concatenate(anom_rows)
        normal = np.concatenate(normal_rows)
        assert anom.shape[0] + normal.shape[0] >= 10_000
        shift = np.linalg.norm(anom.mean(axis=0) - normal.mean(axis=0))
        assert abs(shift - spec.separation) <= 0.05 * spec.separation

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            SynthSpec(n_pos_videos=0, n_neg_videos=1)
        with pytest.raises(ValueError):
            SynthSpec(n_pos_videos=1, n_neg_videos=1, anomaly_fraction=0.0)
        with pytest.raises(ValueError):
            SynthSpec(n_pos_videos=1, n_neg_videos=1, clips_per_video=4, anomaly_fraction=0.1)


class TestPlantedSegmentRange:
    def test_exact_mapping_even_split(self):
        # 16 clips into 8 segments: segment g covers clips [2g, 2g+2)
        assert planted_segment_range(16, 8, 4, 8) == {2, 3}
        assert planted_segment_range(16, 8, 3, 8) == {1, 2, 3}

    def test_empty_groups_never_match(self):
        # 3 clips into 8 segments leaves most groups empty
        segs = planted_segment_range(3, 8, 0, 3)
        bounds = segment_bounds(3, 8)
        for g in segs:
            assert bounds[g + 1] > bounds[g]


class TestLocalizationAccuracy:
    def test_tie_break_gives_segment_zero_hits_only(self, tmp_path):
        ds = generate(SMALL, tmp_path / "d")
        manifest = load_manifest(ds.manifest_path, "train")
        feats = [load_features(e.feature_path) for e in manifest.entries if e.label == 1]
        zero = MlpModel(w1=np.zeros((4, 8)), b1=np.zeros(4), w2=np.zeros((2, 4)),
                        b2=np.zeros(2), w3=np.zeros((1, 2)), b3=np.zeros(1))
        got = localization_accuracy(zero, feats, ds.planted, m=8)
        covering_zero = sum(
            1 for f in feats
            if 0 in planted_segment_range(f.n_clips, 8, *ds.planted[f.video_id]))
        assert got == covering_zero / len(feats)

    def test_hand_built_direction_model_is_perfect(self, tmp_path):
        spec = SynthSpec(n_pos_videos=10, n_neg_videos=2, dim=16, clips_per_video=32,
                         separation=3.0, seed=13)
        ds = generate(spec, tmp_path / "d")
        manifest = load_manifest(ds.manifest_path, "train")
        feats = [load_features(e.feature_path) for e in manifest.entries if e.label == 1]
        u = planted_direction(spec)
        # single linear unit aligned with the planted direction; relu passes
        # the positive component, the rest of the network forwards it
        model = MlpModel(
            w1=np.vstack([u, np.zeros((3, 16))]), b1=np.zeros(4),
            w2=np.array([[1.0, 0, 0, 0], [0.0, 0, 0, 0]]), b2=np.zeros(2),
            w3=np.array([[1.0, 0.0]]), b3=np.zeros(1),
        )
        assert localization_accuracy(model, feats, ds.planted, m=8) == 1.0

    def test_no_matching_features_rejected(self):
        model = MlpModel(w1=np.zeros((2, 4)), b1=np.zeros(2), w2=np.zeros((2, 2)),
                         b2=np.zeros(2), w3=np.zeros((1, 2)), b3=np.zeros(1))
        with pytest.raises(ValueError):
            localization_accuracy(model, [], {}, m=4)
