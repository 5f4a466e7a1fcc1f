"""Reference featurization and segment split: a float64 row normalization,
the earlier fill-forward partition and range-loop score expansion, kept as
oracles for ``features.make_bag`` (``bag_segments``), ``baseline.video_feature``
and ``features.spread_over_frames``.  Boundaries are written out here rather
than taken from ``segment_bounds``, so the oracle shares no code with the
functions it checks."""

import numpy as np


def bounds(count, m):
    return [(g * count) // m for g in range(m + 1)]


def l2_normalize_rows(rows):
    """Each row widened to float64 and scaled to unit Euclidean norm; all-zero rows are kept."""
    rows = np.asarray(rows, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / np.where(norms == 0.0, 1.0, norms)


def bag_segments(data, m):
    """The (m, dim) float64 segments of a bag: normalized rows, then the fill-forward partition."""
    return partition_segments(l2_normalize_rows(data), data.shape[0], m)[0]


def partition_segments(data, n_frames, m):
    """(m, dim) segment means and the m frame ranges the scores are painted on.

    Empty groups inherit the feature of the nearest preceding non-empty
    group; leading empties take the first non-empty group's feature.
    """
    clip_bounds = bounds(data.shape[0], m)
    segments = np.empty((m, data.shape[1]), dtype=np.float64)
    last_filled = -1
    pending_leading = []
    for g in range(m):
        lo, hi = clip_bounds[g], clip_bounds[g + 1]
        if hi > lo:
            segments[g] = data[lo:hi].mean(axis=0)
            if last_filled < 0:
                for p in pending_leading:
                    segments[p] = segments[g]
            last_filled = g
        elif last_filled >= 0:
            segments[g] = segments[last_filled]
        else:
            pending_leading.append(g)
    frame_bounds = bounds(n_frames, m)
    ranges = tuple((frame_bounds[g], frame_bounds[g + 1]) for g in range(m))
    return segments, ranges


def expand_scores(ranges, scores):
    """Per-frame scores: each segment's score over its frame range."""
    frames = np.empty(ranges[-1][1], dtype=np.float64)
    for (start, end), score in zip(ranges, scores):
        frames[start:end] = score
    return frames
