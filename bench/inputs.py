"""Seeded input generation for the benchmark workloads.

Runs in the benchmark's parent process, never in the measured one, so
neither ``peak_rss_mb`` nor ``setup_s`` pays for it.  Every file is a pure
function of the workload, the seed and the size table below; nothing
generated here is committed.  The result is a plan (``plan.json``) that
tells the measured process which files to load and what the right answers
are for its output checks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from milrank.features import FRAMES_PER_CLIP, FeatureMatrix, write_features
from milrank.network import clone_with_params, init_model, save_checkpoint
from milrank.synthetic import SynthSpec, generate

SEGMENTS = 32
# Training workloads spend this share of their work rounds training; the
# rest scores the held-out split with the trained model.
TRAIN_SHARE = 0.85
# ``setup_share`` is the share of --seconds spent on repeated set-ups, so that
# setup_s is the median of many samples spread over the run.  Set-ups run
# between work rounds, so rounds are kept to a few seconds (a training run of
# ``iterations`` steps, or eval-paper's ``round_seconds``): set-ups then sample
# the machine's drifting speed across the whole run, not at two or three moments.

SIZES = {
    "full": {
        # Acceptance scale: the matmuls are tiny, so the per-pair Python loop, the
        # 2P Philox generator constructions per step and repeated validation take a
        # large share of the step.  Vectorising the training step should show here.
        "train-small": dict(pos=20, neg=20, test_pos=10, test_neg=10, dim=32, clips=64,
                            separation=2.0, batch=10, iterations=200, setup_share=0.1),
        # Paper shapes: layer-1 forward and the dW1 backward GEMM take about 80% of
        # the step, so a Python-overhead change should show almost no change here
        # while dtype, BLAS and memory-layout changes do.  Separation 12 takes the
        # held-out AUC from about 0.6 after one iteration to above 0.99 within 12
        # on every seed tried, so auc is a steady quality sentinel at this scale.
        "train-paper": dict(pos=30, neg=30, test_pos=5, test_neg=5, dim=4096, clips=64,
                            separation=12.0, batch=30, iterations=12, setup_share=0.15),
        # Features (file read, normalise, partition), eval-mode forward on 32-row
        # batches and metrics, with no training code: a GEMM change tuned for large
        # training batches that slows small eval batches shows here, and so does a
        # feature-path change that trades read speed for training speed.
        "eval-paper": dict(videos=60, dim=4096, min_clips=8, max_clips=600, separation=12.0,
                           setup_share=0.3, round_seconds=2.5),
    },
    "tiny": {
        "train-small": dict(pos=3, neg=3, test_pos=2, test_neg=2, dim=8, clips=16,
                            separation=2.0, batch=2, iterations=6, setup_share=0.1),
        "train-paper": dict(pos=3, neg=3, test_pos=2, test_neg=2, dim=64, clips=16,
                            separation=12.0, batch=3, iterations=4, setup_share=0.1),
        "eval-paper": dict(videos=6, dim=64, min_clips=4, max_clips=80, separation=12.0,
                           setup_share=0.3, round_seconds=0.1),
    },
}


def prepare(workload: str, seed: int, seconds: float, size: str, out_dir: Path) -> Path:
    """Write the workload's inputs under ``out_dir`` and return the plan's path."""
    params = SIZES[size][workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "eval-paper":
        plan = _prepare_eval(params, seed, out_dir)
    else:
        plan = _prepare_train(params, seed, out_dir)
    plan.update(workload=workload, seed=seed, seconds=seconds, size=size,
                setup_share=params["setup_share"])
    plan_path = out_dir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    return plan_path


def _prepare_train(p: dict, seed: int, out_dir: Path) -> dict:
    spec = SynthSpec(n_pos_videos=p["pos"], n_neg_videos=p["neg"], dim=p["dim"],
                     clips_per_video=p["clips"], separation=p["separation"], seed=seed)
    ds = generate(spec, out_dir / "data", test_pos=p["test_pos"], test_neg=p["test_neg"])
    n_frames = p["clips"] * FRAMES_PER_CLIP
    truth = {}
    for line in ds.test_manifest_path.read_text(encoding="utf-8").splitlines():
        video_id = Path(line.split()[0]).stem
        run = ds.planted.get(video_id)
        intervals = [[run[0] * FRAMES_PER_CLIP, run[1] * FRAMES_PER_CLIP]] if run else []
        truth[video_id] = [n_frames, intervals]
    return {
        "kind": "train",
        "manifest": str(ds.manifest_path),
        "test_manifest": str(ds.test_manifest_path),
        "truth": truth,
        "train": dict(iterations=p["iterations"], batch=p["batch"], dim=p["dim"],
                      segments=SEGMENTS, train_share=TRAIN_SHARE),
    }


def _prepare_eval(p: dict, seed: int, out_dir: Path) -> dict:
    """Variable-length videos, half of them anomalous, and a planted checkpoint.

    Clip counts are a fixed geometric ladder from ``min_clips`` (fewer than
    the 32 segments, so the fill-forward path runs) to ``max_clips``; the
    seed only shuffles them, so every seed does the same amount of work.
    The checkpoint is ``init_model`` with one hidden unit aimed at the
    anomaly direction, so the AUC is far from chance and steady across seeds
    without a paper-scale training run during generation.
    """
    rng = np.random.default_rng([seed, 4096])
    dim, n = p["dim"], p["videos"]
    ladder = np.geomspace(p["min_clips"], p["max_clips"], n).round().astype(int)
    lengths = rng.permutation(ladder)
    anomalous = rng.permutation(n) < n // 2
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)

    features_dir = out_dir / "features"
    features_dir.mkdir(parents=True, exist_ok=True)
    manifest_lines, annotation_lines, truth = [], [], {}
    for i in range(n):
        video_id = f"vid{i:03d}"
        n_clips = int(lengths[i])
        clips = rng.standard_normal((n_clips, dim), dtype=np.float32)
        n_frames = n_clips * FRAMES_PER_CLIP
        intervals = []
        if anomalous[i]:
            run = max(1, int(round(rng.uniform(0.1, 0.3) * n_clips)))
            start = int(rng.integers(0, n_clips - run + 1))
            clips[start:start + run] += np.float32(p["separation"]) * direction.astype(np.float32)
            intervals = [[start * FRAMES_PER_CLIP, (start + run) * FRAMES_PER_CLIP]]
            annotation_lines.append(f"{video_id} {n_frames} {intervals[0][0]} {intervals[0][1]}")
            manifest_lines.append(f"features/{video_id}.feat 1 annotations.txt")
        else:
            manifest_lines.append(f"features/{video_id}.feat 0")
        write_features(FeatureMatrix(video_id, clips, n_frames), features_dir / f"{video_id}.feat")
        truth[video_id] = [n_frames, intervals]
    (out_dir / "annotations.txt").write_text("\n".join(annotation_lines) + "\n", encoding="utf-8")
    manifest_path = out_dir / "manifest_test.txt"
    manifest_path.write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")

    model = init_model(dim, seed)
    w1, w2, w3 = model.w1.copy(), model.w2.copy(), model.w3.copy()
    w1[0] = 30.0 * direction
    w2[0, 0] = 1.0
    w3[0, 0] = 2.0
    planted = clone_with_params(model, {"w1": w1, "w2": w2, "w3": w3, "b3": np.array([-3.0])})
    checkpoint_path = out_dir / "model.json"
    save_checkpoint(planted, checkpoint_path)
    return {
        "kind": "eval",
        "manifest": str(manifest_path),
        "checkpoint": str(checkpoint_path),
        "truth": truth,
        "round_seconds": p["round_seconds"],
    }
