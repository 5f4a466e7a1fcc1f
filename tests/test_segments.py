"""The one segment split: ``segment_bounds`` cuts both the clip axis (features)
and the frame axis (painted scores).  Checked bit for bit against the
reference loops in ``segment_oracle``, and for how far the two cuts drift
apart.  Featurization (``make_bag``, ``baseline.video_feature``) is checked bit
for bit against the oracle's float64 normalization fed to its partition."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import segment_oracle
from milrank.baseline import video_feature
from milrank.features import (
    FRAMES_PER_CLIP,
    FeatureMatrix,
    make_bag,
    segment_bounds,
    spread_over_frames,
)
from milrank.metrics import expand_scores

# shapes include fewer clips than segments and fewer frames than segments
SHAPES = dict(n_clips=st.integers(1, 90), n_frames=st.integers(1, 48) | st.integers(1, 3000),
              m=st.integers(2, 48), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(**SHAPES)
@example(n_clips=1, n_frames=1, m=32, seed=0)
@example(n_clips=5, n_frames=3, m=32, seed=1)
@example(n_clips=20, n_frames=320, m=45, seed=2)
@example(n_clips=33, n_frames=528, m=32, seed=3)
def test_partition_matches_fill_forward_oracle(n_clips, n_frames, m, seed):
    data = np.random.default_rng(seed).standard_normal((n_clips, 3))
    want, _ = segment_oracle.partition_segments(segment_oracle.l2_normalize_rows(data), n_frames, m)
    got = make_bag(FeatureMatrix("v", data, n_frames), 0, m).segments
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def feature_data(n_clips, dim, dtype, exponent, zero_share, seed):
    """Clip rows of one magnitude with a share of all-zero rows, in ``dtype``."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n_clips, dim)) * 10.0 ** exponent
    data[rng.random(n_clips) < zero_share] = 0.0
    return data.astype(dtype)


# dims from 1 to the paper's 4096, fewer clips than segments, zero rows, and
# magnitudes from 1e-20 (squares far below float32's range) up
FEATURES = dict(n_clips=st.integers(1, 80), dim=st.integers(1, 4096) | st.sampled_from([1, 2, 8, 9, 32]),
                dtype=st.sampled_from([np.float32, np.float64]), exponent=st.integers(-20, 6),
                zero_share=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(m=st.integers(2, 48), **FEATURES)
@example(m=32, n_clips=5, dim=4096, dtype=np.float32, exponent=-20, zero_share=0.3, seed=0)
@example(m=32, n_clips=600, dim=4096, dtype=np.float32, exponent=0, zero_share=0.0, seed=1)
@example(m=2, n_clips=1, dim=1, dtype=np.float64, exponent=0, zero_share=1.0, seed=2)
def test_make_bag_matches_float64_oracle(m, n_clips, dim, dtype, exponent, zero_share, seed):
    data = feature_data(n_clips, dim, dtype, exponent, zero_share, seed)
    got = make_bag(FeatureMatrix("v", data, 16 * n_clips), 0, m).segments
    want = segment_oracle.bag_segments(data, m)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(**FEATURES)
def test_video_feature_matches_float64_oracle(n_clips, dim, dtype, exponent, zero_share, seed):
    data = feature_data(n_clips, dim, dtype, exponent, zero_share, seed)
    want = segment_oracle.l2_normalize_rows(data).mean(axis=0)
    assert video_feature(FeatureMatrix("v", data, 16 * n_clips)).tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(**SHAPES)
@example(n_clips=1, n_frames=1, m=32, seed=0)
@example(n_clips=40, n_frames=7, m=8, seed=1)
def test_frame_spread_matches_range_loop_oracle(n_clips, n_frames, m, seed):
    rng = np.random.default_rng(seed)
    f = FeatureMatrix("v", rng.standard_normal((n_clips, 3)), n_frames)
    scores = rng.uniform(0.0, 1.0, m)
    _, ranges = segment_oracle.partition_segments(f.data, n_frames, m)
    want = segment_oracle.expand_scores(ranges, scores)
    assert spread_over_frames(scores, n_frames).tobytes() == want.tobytes()
    assert expand_scores(f, scores, m).frame_scores.tobytes() == want.tobytes()


@settings(max_examples=500, deadline=None)
@given(n_clips=st.integers(1, 400), r=st.integers(0, FRAMES_PER_CLIP - 1), m=st.integers(2, 64))
def test_painted_frames_stay_within_a_clip_of_the_features(n_clips, r, m):
    """Segment g averages the clips from clip boundary b_C and is painted
    from frame boundary b_F; with n_frames = 16 n_clips + r the painted
    start trails the clips' first frame 16 b_C by at most 15 + r frames."""
    n_frames = FRAMES_PER_CLIP * n_clips + r
    painted = spread_over_frames(np.arange(m, dtype=np.float64), n_frames)
    b_frame = np.searchsorted(painted, np.arange(m + 1))
    b_clip = segment_bounds(n_clips, m)
    drift = b_frame - FRAMES_PER_CLIP * b_clip
    assert drift.min() >= 0 and drift.max() <= FRAMES_PER_CLIP - 1 + r


def test_drift_example():
    # 50 clips, 800 frames: segment 1 averages clips 1-2 (frames 16-47) but
    # is painted on frames 25-49
    assert list(segment_bounds(50, 32)[1:3]) == [1, 3]
    painted = spread_over_frames(np.arange(32, dtype=np.float64), 800)
    assert list(np.flatnonzero(painted == 1.0)[[0, -1]]) == [25, 49]
