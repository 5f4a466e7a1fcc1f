import math
import tracemalloc

import numpy as np
import pytest

from milrank.exceptions import DataError, FormatError
from milrank.features import (
    FeatureMatrix,
    load_features,
    load_manifest,
    make_bag,
    normalized_means,
    segment_bounds,
    spread_over_frames,
    write_features,
)
from segment_oracle import l2_normalize_rows


def fm(data, n_frames=None, video_id="vid"):
    data = np.asarray(data, dtype=np.float64)
    return FeatureMatrix(video_id, data, n_frames or 16 * data.shape[0])


class TestBinaryFormat:
    def test_round_trip_values(self, tmp_path):
        original = fm([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], n_frames=32)
        path = tmp_path / "v.feat"
        write_features(original, path, "binary")
        loaded = load_features(path, "binary")
        assert loaded.n_clips == 2 and loaded.dim == 3 and loaded.n_frames == 32
        assert np.array_equal(loaded.data, original.data)

    def test_write_read_write_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        original = fm(rng.standard_normal((7, 11)))
        p1, p2 = tmp_path / "a.feat", tmp_path / "b.feat"
        write_features(original, p1, "binary")
        write_features(load_features(p1, "binary"), p2, "binary")
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "v.feat"
        write_features(fm([[1.0, 2.0]]), path, "binary")
        corrupted = b"XXXX" + path.read_bytes()[4:]
        path.write_bytes(corrupted)
        with pytest.raises(FormatError, match="byte 0"):
            load_features(path, "binary")

    def test_bad_version_names_offset(self, tmp_path):
        path = tmp_path / "v.feat"
        write_features(fm([[1.0, 2.0]]), path, "binary")
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="byte 4"):
            load_features(path, "binary")

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "v.feat"
        write_features(fm([[1.0, 2.0], [3.0, 4.0]]), path, "binary")
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="size mismatch"):
            load_features(path, "binary")

    def test_nan_payload_names_byte(self, tmp_path):
        path = tmp_path / "v.feat"
        write_features(fm([[1.0, 2.0], [3.0, 4.0]]), path, "binary")
        raw = bytearray(path.read_bytes())
        # third float (flat index 2) -> bytes 28..32
        raw[28:32] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="byte 28"):
            load_features(path, "binary")


class TestCsvFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        original = fm(rng.standard_normal((4, 6)).astype(np.float32).astype(np.float64))
        path = tmp_path / "v.csv"
        write_features(original, path, "csv")
        loaded = load_features(path, "csv")
        assert np.array_equal(loaded.data, original.data)
        assert loaded.n_frames == original.n_frames

    def test_format_follows_extension(self, tmp_path):
        original = fm([[1.5, -2.0], [0.25, 4.0]])
        write_features(original, tmp_path / "v.csv", "csv")
        write_features(original, tmp_path / "v.feat", "binary")
        for name in ("v.csv", "v.feat"):
            loaded = load_features(tmp_path / name)
            assert np.array_equal(loaded.data, original.data)
            assert loaded.n_frames == original.n_frames

    def test_default_write_follows_extension(self, tmp_path):
        original = fm([[1.5, -2.0], [0.25, 4.0]])
        for name, format in (("v.csv", "csv"), ("v.feat", "binary")):
            write_features(original, tmp_path / name)
            write_features(original, tmp_path / f"explicit_{name}", format)
            assert (tmp_path / name).read_bytes() == (tmp_path / f"explicit_{name}").read_bytes()
            loaded = load_features(tmp_path / name)
            assert np.array_equal(loaded.data, original.data)
            assert loaded.n_frames == original.n_frames

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "v.feat"
        with pytest.raises(ValueError, match="unknown feature format 'xml'"):
            write_features(fm([[1.0, 2.0]]), path, "xml")
        assert not path.exists()
        write_features(fm([[1.0, 2.0]]), path)
        with pytest.raises(ValueError, match="unknown feature format 'xml'"):
            load_features(path, "xml")

    def test_explicit_format_overrides_extension(self, tmp_path):
        write_features(fm([[1.0, 2.0]]), tmp_path / "v.feat", "csv")
        with pytest.raises(FormatError, match="byte 0"):
            load_features(tmp_path / "v.feat")
        assert load_features(tmp_path / "v.feat", "csv").dim == 2

    def test_ragged_rows_name_line(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("2,3,32\n1,2,3\n4,5\n")
        with pytest.raises(FormatError, match="line 3"):
            load_features(path, "csv")

    def test_nan_entry_names_line(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("2,2,32\n1,2\nnan,4\n")
        with pytest.raises(FormatError, match="line 3"):
            load_features(path, "csv")

    def test_value_past_float32_names_line(self, tmp_path):
        # finite as a float64 but not in 32-bit storage; refused with no numpy warning
        path = tmp_path / "v.csv"
        path.write_text("2,2,32\n1,2\n1e39,4\n")
        with pytest.raises(FormatError, match="line 3: value overflows 32-bit storage"):
            load_features(path, "csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("2,3\n")
        with pytest.raises(FormatError, match="line 1"):
            load_features(path, "csv")

    def test_clip_count_mismatch(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("3,2,48\n1,2\n3,4\n")
        with pytest.raises(FormatError, match="declares 3 clips"):
            load_features(path, "csv")


class TestWriteFeatures:
    @pytest.mark.parametrize("format", ["binary", "csv"])
    @pytest.mark.parametrize("row", [[1e39, 0.0], [0.0, np.nan], [-1e300, 0.0]])
    def test_value_not_finite_in_float32_refused(self, tmp_path, format, row):
        # storage is float32, so a value past its range would be written as inf,
        # which load_features refuses; nothing is written instead
        path = tmp_path / "v.feat"
        with pytest.raises(ValueError, match="clip 1: value not finite in 32-bit storage"):
            write_features(fm([[1.0, 2.0], row]), path, format)
        assert not path.exists()

    def test_float32_max_is_written(self, tmp_path):
        top = float(np.finfo(np.float32).max)
        for format in ("binary", "csv"):
            write_features(fm([[top, -top]]), tmp_path / format, format)
            assert load_features(tmp_path / format, format).data.tolist() == [[top, -top]]


def normalized_rows(data):
    """``normalized_means`` with one group per row: the rows themselves, normalized."""
    return normalized_means(data, np.arange(len(data)), np.arange(1, len(data) + 1))


class TestNormalize:
    def test_three_four_five(self):
        out = normalized_rows(np.array([[3.0, 4.0]]))
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)

    def test_zero_row_unchanged(self):
        out = normalized_rows(np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(out[0], [0.0, 0.0])

    def test_random_matrix_unit_norms(self):
        rng = np.random.default_rng(42)
        out = normalized_rows(rng.standard_normal((5, 4096)).astype(np.float32))
        assert out.dtype == np.float64
        # independent norm computation with compensated summation
        for row in out:
            norm = math.sqrt(math.fsum(float(v) * float(v) for v in row))
            assert abs(norm - 1.0) < 1e-6


class TestPartition:
    def test_even_division_averages_pairs(self):
        rng = np.random.default_rng(1)
        f = fm(rng.standard_normal((64, 3)))
        segments = make_bag(f, 0, 32).segments
        rows = l2_normalize_rows(f.data)
        for g in range(32):
            assert np.allclose(segments[g], rows[2 * g:2 * g + 2].mean(axis=0))
        painted = spread_over_frames(np.arange(32), f.n_frames)
        assert np.flatnonzero(painted == 0).tolist() == list(range(32))
        assert np.flatnonzero(painted == 31).tolist() == list(range(992, 1024))

    def test_single_clip_inherited_everywhere(self):
        f = fm(np.array([[1.0, 2.0, 3.0]]))
        segments = make_bag(f, 0, 32).segments
        assert segments.shape == (32, 3)
        assert np.array_equal(segments, np.tile(l2_normalize_rows(f.data)[0], (32, 1)))

    def test_33_clips_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        f = fm(rng.standard_normal((33, 4)))
        segments = make_bag(f, 0, 32).segments
        rows = l2_normalize_rows(f.data)
        bounds = [(33 * g) // 32 for g in range(33)]
        sizes = [bounds[g + 1] - bounds[g] for g in range(32)]
        assert sizes == [1] * 31 + [2]
        for g in range(32):
            group = rows[bounds[g]:bounds[g + 1]]
            assert np.allclose(segments[g], group.mean(axis=0), atol=1e-15)

    def test_m_below_two_rejected(self):
        with pytest.raises(ValueError):
            make_bag(fm(np.ones((1, 1))), 0, 1)

    def test_partition_properties_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_clips = int(rng.integers(1, 90))
            m = int(rng.integers(2, 40))
            n_frames = int(rng.integers(1, 2000))
            f = fm(rng.standard_normal((n_clips, 3)), n_frames=n_frames)
            segments = make_bag(f, 0, m).segments
            rows = l2_normalize_rows(f.data)
            bounds = segment_bounds(n_clips, m)
            assert np.all(np.diff(bounds) >= 0)
            assert bounds[0] == 0 and bounds[-1] == n_clips
            # segment means stay in the convex hull of their group
            for g in range(m):
                lo, hi = int(bounds[g]), int(bounds[g + 1])
                if hi > lo:
                    group = rows[lo:hi]
                    assert np.all(segments[g] >= group.min(axis=0) - 1e-12)
                    assert np.all(segments[g] <= group.max(axis=0) + 1e-12)
            # the painted frames cover [0, n_frames) in segment order
            painted = spread_over_frames(np.arange(m), n_frames)
            assert painted.shape == (n_frames,) and np.all(np.diff(painted) >= 0)


class TestMakeBag:
    @pytest.mark.parametrize("label", [0, 1])
    def test_label_carried(self, label):
        bag = make_bag(fm(np.ones((4, 3))), label, m=4)
        assert bag.label == label

    def test_segment_count_contract(self):
        bag = make_bag(fm(np.random.default_rng(0).standard_normal((10, 3))), 1, m=6)
        assert bag.segments.shape == (6, 3)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            make_bag(fm(np.ones((4, 3))), 2, m=4)

    def test_loaded_values_stay_float32(self, tmp_path):
        data = np.random.default_rng(3).standard_normal((5, 4)).astype(np.float32)
        for name in ("v.feat", "v.csv"):
            write_features(fm(data), tmp_path / name)
            loaded = load_features(tmp_path / name).data
            assert loaded.dtype == np.float32 and loaded.tobytes() == data.tobytes()
        assert not load_features(tmp_path / "v.feat").data.flags.writeable

    def test_allocation_budget_at_paper_scale(self, tmp_path):
        """Loading and featurizing a 600-clip, dim-4096 video allocates at
        most half its float32 payload beyond the payload itself: no float64
        copy of the clips is made.  Counted by tracemalloc, with no timing."""
        n_clips, dim = 600, 4096
        data = np.random.default_rng(4).standard_normal((n_clips, dim)).astype(np.float32)
        write_features(FeatureMatrix("v", data, 16 * n_clips), tmp_path / "v.feat")
        del data
        tracemalloc.start()
        try:
            make_bag(load_features(tmp_path / "v.feat"), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 4 * n_clips * dim


class TestManifest:
    def test_parse_with_comments_and_annotations(self, tmp_path):
        write_features(fm([[1.0, 2.0]]), tmp_path / "a.feat", "binary")
        write_features(fm([[3.0, 4.0]]), tmp_path / "b.feat", "binary")
        (tmp_path / "ann.txt").write_text("a 16 0 8\n")
        (tmp_path / "m.txt").write_text(
            "# a comment\na.feat 1 ann.txt\n\nb.feat 0\n")
        manifest = load_manifest(tmp_path / "m.txt", "train")
        assert len(manifest.entries) == 2
        assert manifest.entries[0].label == 1
        assert manifest.entries[0].annotation_path == (tmp_path / "ann.txt").resolve()
        assert manifest.entries[1].annotation_path is None

    def test_bad_label(self, tmp_path):
        write_features(fm([[1.0]]), tmp_path / "a.feat", "binary")
        (tmp_path / "m.txt").write_text("a.feat 2\n")
        with pytest.raises(FormatError, match="line 1"):
            load_manifest(tmp_path / "m.txt", "train")

    def test_missing_feature_file(self, tmp_path):
        (tmp_path / "m.txt").write_text("missing.feat 0\n")
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "m.txt", "train")

    def test_empty_manifest(self, tmp_path):
        (tmp_path / "m.txt").write_text("# nothing\n")
        with pytest.raises(DataError):
            load_manifest(tmp_path / "m.txt", "train")

    def test_bad_split(self, tmp_path):
        write_features(fm([[1.0]]), tmp_path / "a.feat", "binary")
        (tmp_path / "m.txt").write_text("a.feat 0\n")
        with pytest.raises(ValueError):
            load_manifest(tmp_path / "m.txt", "validation")
