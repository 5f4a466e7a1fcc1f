"""Deterministic synthetic corpus with planted anomalous clip runs.

Normal clips are isotropic Gaussian noise around the origin; anomalous
clips add ``separation`` along a fixed random unit direction, giving a
tunable difficulty knob with an analytically known optimal scoring
direction.  Each positive video plants one contiguous anomalous run at a
random position.  Everything a run writes is a pure function of the spec,
so identical specs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .features import FRAMES_PER_CLIP, FeatureMatrix, write_features
from .rng import STREAM_SYNTH, derive_rng
from .validation import check_settings, csv_lines, write_lines

ANNOTATION_SLOTS = 2  # pad every annotation line to this many interval pairs


@dataclass(frozen=True)
class SynthSpec:
    n_pos_videos: int = 20
    n_neg_videos: int = 20
    dim: int = 32
    clips_per_video: int = 64
    anomaly_fraction: float = 0.15
    separation: float = 2.0
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_settings({name: getattr(self, name) for name in (
            "n_pos_videos", "n_neg_videos", "dim", "clips_per_video", "separation", "noise_sigma", "seed")},
            zero_ok=("separation", "seed"))
        if not (0.0 < self.anomaly_fraction < 1.0):
            raise ValueError(f"anomaly_fraction must be in (0, 1), got {self.anomaly_fraction}")
        if self.anomaly_fraction * self.clips_per_video < 1.0:
            raise ValueError("anomaly_fraction * clips_per_video must be at least 1")


@dataclass(frozen=True)
class GeneratedDataset:
    out_dir: Path
    manifest_path: Path
    test_manifest_path: Path | None
    annotations_path: Path
    planted_csv_path: Path
    feature_paths: tuple[Path, ...]
    planted: dict[str, tuple[int, int]]  # video_id -> half-open clip run


def generate(spec: SynthSpec, out_dir, test_pos: int = 0, test_neg: int = 0) -> GeneratedDataset:
    """Write feature files, manifests, annotations, and the planted index.

    The spec's video counts form the training split (``manifest.txt``).
    ``test_pos``/``test_neg`` request extra held-out videos drawn from the
    same distribution, written to ``manifest_test.txt``; both splits share
    the one planted anomaly direction, so a model trained on one transfers
    to the other.
    """
    if test_pos < 0 or test_neg < 0 or (test_pos > 0) != (test_neg > 0):
        raise ValueError(f"test_pos and test_neg must both be zero or both positive, got {test_pos} and {test_neg}")
    out_dir = Path(out_dir)
    features_dir = out_dir / "features"
    rng = derive_rng(spec.seed, STREAM_SYNTH)
    direction = rng.normal(size=spec.dim)
    direction /= np.linalg.norm(direction)

    n_frames = spec.clips_per_video * FRAMES_PER_CLIP
    run_len = max(1, int(round(spec.anomaly_fraction * spec.clips_per_video)))
    manifest_lines: dict[str, list[str]] = {"train": [], "test": []}
    annotation_lines = []
    planted: dict[str, tuple[int, int]] = {}
    feature_paths = []
    n_pos, n_neg = spec.n_pos_videos, spec.n_neg_videos
    for prefix, label, split, indices in (("pos", 1, "train", range(n_pos)),
                                          ("neg", 0, "train", range(n_neg)),
                                          ("pos", 1, "test", range(n_pos, n_pos + test_pos)),
                                          ("neg", 0, "test", range(n_neg, n_neg + test_neg))):
        for index in indices:
            video_id = f"{prefix}{index:03d}"
            clips = rng.normal(0.0, spec.noise_sigma, size=(spec.clips_per_video, spec.dim))
            intervals = []
            if label:
                start = int(rng.integers(0, spec.clips_per_video - run_len + 1))
                clips[start:start + run_len] += spec.separation * direction
                planted[video_id] = (start, start + run_len)
                intervals = [(start * FRAMES_PER_CLIP, (start + run_len) * FRAMES_PER_CLIP)]
            path = features_dir / f"{video_id}.feat"
            write_features(FeatureMatrix(video_id, clips, n_frames), path)
            feature_paths.append(path)
            manifest_lines[split].append(f"features/{video_id}.feat {label} annotations.txt")
            pairs = intervals + [(-1, -1)] * (ANNOTATION_SLOTS - len(intervals))
            annotation_lines.append(" ".join([video_id, str(n_frames), *(f"{a} {b}" for a, b in pairs)]))

    manifest_path = out_dir / "manifest.txt"
    test_manifest_path = out_dir / "manifest_test.txt" if test_pos else None
    annotations_path = out_dir / "annotations.txt"
    planted_csv_path = out_dir / "planted.csv"
    write_lines(manifest_path, manifest_lines["train"])
    if test_manifest_path is not None:
        write_lines(test_manifest_path, manifest_lines["test"])
    write_lines(annotations_path, annotation_lines)
    write_lines(planted_csv_path, csv_lines("video_id,clip_start,clip_end",
                                            ((video_id, *run) for video_id, run in planted.items())))
    return GeneratedDataset(out_dir, manifest_path, test_manifest_path, annotations_path,
                            planted_csv_path, tuple(feature_paths), planted)

