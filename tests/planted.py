"""Reading a synthetic run's planted anomalies back, for the localization
checks: the ``planted.csv`` index that ``synthetic.generate`` writes, the
segments a planted clip run falls in, and the fraction of positive videos
whose top-scoring segment hits its run."""

import numpy as np

from milrank.features import DEFAULT_SEGMENTS, segment_bounds
from milrank.metrics import score_video
from milrank.network import MlpModel
from milrank.validation import content_lines


def load_planted(path) -> dict[str, tuple[int, int]]:
    """Read a planted.csv back into a video-id lookup."""
    rows = (text.split(",") for lineno, text in content_lines(path) if lineno > 1)
    return {video_id: (int(start), int(end)) for video_id, start, end in rows}


def planted_segment_range(n_clips: int, m: int, clip_start: int, clip_end: int) -> set[int]:
    """Segment indices whose (non-empty) clip group intersects the planted run."""
    bounds = segment_bounds(n_clips, m)
    return {g for g in range(m)
            if bounds[g + 1] > bounds[g] and bounds[g] < clip_end and bounds[g + 1] > clip_start}


def localization_accuracy(model: MlpModel, features, planted: dict[str, tuple[int, int]],
                          m: int = DEFAULT_SEGMENTS) -> float:
    """Fraction of positive videos whose argmax segment hits the planted run."""
    hits = 0
    total = 0
    for f in features:
        run = planted.get(f.video_id)
        if run is None:
            continue
        best = int(np.argmax(score_video(model, f, m)[0]))
        total += 1
        if best in planted_segment_range(f.n_clips, m, *run):
            hits += 1
    if total == 0:
        raise ValueError("no features matched the planted index")
    return hits / total
