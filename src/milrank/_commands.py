"""Subcommand implementations behind the ``milrank`` CLI.

Exit codes are stable: 0 success, 2 usage or bad input data, 3 I/O or
file-format failure, 4 non-finite loss, 5 dimensionality mismatch,
6 metric undefined.  Every option can also come from an optional
``key=value`` config file (``--config``); explicit flags win.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baseline import load_linear, save_linear, score_linear, train_linear
from .exceptions import (
    DataError,
    DimensionMismatchError,
    FormatError,
    MetricError,
    NonFiniteLossError,
)
from .features import feature_format_for, load_features, load_manifest
from .loss import LossParams
from .metrics import evaluate_manifest, score_video, write_roc_csv, write_timeline_csv
from .network import load_checkpoint, save_checkpoint
from .optim import TrainConfig, train
from .synthetic import SynthSpec, generate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_SHAPE = 5
EXIT_METRIC = 6


def _parse_config_file(path: Path) -> dict[str, str]:
    values = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValueError(f"{path}: line {lineno}: expected key=value")
        key, value = text.split("=", 1)
        values[key.strip()] = value.strip()
    return values


class _Options:
    """Resolves each option as: explicit flag > config file > default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _parse_config_file(args.config) if getattr(args, "config", None) else {}

    def get(self, name: str, cast, default):
        flag_value = getattr(self.args, name.replace("-", "_"), None)
        if flag_value is not None:
            return flag_value
        if name in self.config:
            return cast(self.config[name])
        return default


def cmd_synth(args) -> int:
    opt = _Options(args)
    spec = SynthSpec(
        n_pos_videos=opt.get("pos", int, 20),
        n_neg_videos=opt.get("neg", int, 20),
        dim=opt.get("dim", int, 32),
        clips_per_video=opt.get("clips", int, 64),
        anomaly_fraction=opt.get("anomaly-fraction", float, 0.15),
        separation=opt.get("separation", float, 2.0),
        noise_sigma=opt.get("noise-sigma", float, 1.0),
        seed=opt.get("seed", int, 0),
    )
    dataset = generate(spec, args.out,
                       test_pos=opt.get("test-pos", int, 0),
                       test_neg=opt.get("test-neg", int, 0))
    print(f"wrote {len(dataset.feature_paths)} feature files, manifest, annotations, "
          f"and planted index under {dataset.out_dir}")
    return EXIT_OK


def cmd_ingest_check(args) -> int:
    manifest = load_manifest(args.manifest, args.split)
    dim = None
    n_pos = n_neg = 0
    for entry in manifest.entries:
        f = load_features(entry.feature_path, feature_format_for(entry.feature_path))
        if dim is None:
            dim = f.dim
        elif f.dim != dim:
            raise DimensionMismatchError(
                f"{entry.feature_path}: dim {f.dim} differs from first video's {dim}")
        if entry.label == 1:
            n_pos += 1
            if manifest.split == "test" and entry.annotation_path is None:
                raise DataError(f"test entry {f.video_id!r} is anomalous but has no annotation")
        else:
            n_neg += 1
    print(f"OK: {len(manifest.entries)} videos ({n_pos} positive / {n_neg} negative), dim {dim}")
    return EXIT_OK


def cmd_train(args) -> int:
    opt = _Options(args)
    cfg = TrainConfig(
        iterations=opt.get("iters", int, 2000),
        seed=opt.get("seed", int, 0),
        batch_pos=opt.get("batch", int, 30),
        batch_neg=opt.get("batch", int, 30),
        segments_per_bag=opt.get("segments", int, 32),
        learning_rate=opt.get("lr", float, 0.001),
        adagrad_epsilon=opt.get("epsilon", float, 1e-8),
        loss_params=LossParams(
            smoothness_weight=opt.get("lambda1", float, 8e-5),
            sparsity_weight=opt.get("lambda2", float, 8e-5),
            weight_decay=opt.get("weight-decay", float, 1e-3),
            margin=opt.get("margin", float, 1.0),
        ),
        snapshot_every=opt.get("snapshot-every", int, 0),
        probe_video_id=opt.get("probe", str, None),
        hidden1=opt.get("hidden1", int, 512),
        hidden2=opt.get("hidden2", int, 32),
        dropout_rate=opt.get("dropout", float, 0.6),
    )
    import numpy as np
    cache_dtype = np.float32 if args.cache32 else np.float64

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = load_manifest(args.manifest, "train")

    def snapshot_hook(iteration, snapshot_model):
        save_checkpoint(snapshot_model, out_dir / f"ckpt_{iteration}.json")

    model, log = train(manifest, cfg, cache_dtype=cache_dtype, snapshot_hook=snapshot_hook)
    save_checkpoint(model, out_dir / f"ckpt_{cfg.iterations}.json")
    log.write_csv(out_dir / "training_log.csv")
    if cfg.snapshot_every:
        log.write_probe_csv(out_dir / "probe_scores.csv")
    print(f"final loss {log.rows[-1][1]!r}")
    return EXIT_OK


def cmd_score(args) -> int:
    model = load_checkpoint(args.checkpoint)
    fmt = args.format or feature_format_for(args.features)
    f = load_features(args.features, fmt)
    segment_scores, timeline = score_video(model, f, args.segments)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seg_path = out_dir / f"{f.video_id}_segments.csv"
    lines = ["segment_index,score"]
    lines.extend(f"{i},{float(s)!r}" for i, s in enumerate(segment_scores))
    seg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_timeline_csv(timeline, out_dir / f"{f.video_id}_frames.csv")
    print(f"scored {f.video_id}: {len(segment_scores)} segments, {timeline.n_frames} frames")
    return EXIT_OK


def _write_evaluation(evaluation, out_dir: Path, threshold: float) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_roc_csv(evaluation.curve, out_dir / "roc.csv")
    timeline_dir = out_dir / "timelines"
    timeline_dir.mkdir(exist_ok=True)
    for timeline in evaluation.timelines:
        write_timeline_csv(timeline, timeline_dir / f"{timeline.video_id}.csv")
    print(f"AUC {evaluation.curve.auc:.4f}")
    if evaluation.false_alarm is None:
        print("false alarm rate: n/a (no normal videos in manifest)")
    else:
        print(f"false alarm rate @ {threshold:g}: {evaluation.false_alarm * 100:.2f}%")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    manifest = load_manifest(args.manifest, "test")
    evaluation = evaluate_manifest(
        manifest,
        lambda f: score_video(model, f, args.segments)[0],
        m=args.segments,
        threshold=args.threshold,
    )
    return _write_evaluation(evaluation, Path(args.out), args.threshold)


def cmd_baseline_train(args) -> int:
    opt = _Options(args)
    manifest = load_manifest(args.manifest, "train")
    model = train_linear(
        manifest,
        c_reg=opt.get("c-reg", float, 1.0),
        epochs=opt.get("epochs", int, 1000),
        seed=opt.get("seed", int, 0),
        learning_rate=opt.get("lr", float, 0.1),
    )
    save_linear(model, args.out)
    print(f"saved baseline model to {args.out}")
    return EXIT_OK


def cmd_baseline_eval(args) -> int:
    model = load_linear(args.model)
    manifest = load_manifest(args.manifest, "test")
    evaluation = evaluate_manifest(
        manifest,
        lambda f: score_linear(model, f, args.segments),
        m=args.segments,
        threshold=args.threshold,
    )
    return _write_evaluation(evaluation, Path(args.out), args.threshold)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="milrank",
        description="Weakly-supervised video anomaly scoring via multiple-instance ranking.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="optional key=value config file; flags override it")
    common.add_argument("--threads", type=int, default=None,
                        help="cap on BLAS threads, overriding OMP_NUM_THREADS and the other "
                             "thread variables (default: keep them, else 1, for "
                             "reproducibility); a caller that has already imported numpy "
                             "in the same process cannot re-pin BLAS with it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic dataset")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--pos", type=int, default=None, help="positive video count (default 20)")
    p.add_argument("--neg", type=int, default=None, help="negative video count (default 20)")
    p.add_argument("--dim", type=int, default=None, help="feature dimensionality (default 32)")
    p.add_argument("--clips", type=int, default=None, help="clips per video (default 64)")
    p.add_argument("--anomaly-fraction", type=float, default=None)
    p.add_argument("--separation", type=float, default=None)
    p.add_argument("--noise-sigma", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--test-pos", type=int, default=None,
                   help="extra held-out positives written to manifest_test.txt")
    p.add_argument("--test-neg", type=int, default=None,
                   help="extra held-out negatives written to manifest_test.txt")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest-check", parents=[common], help="validate a manifest and its files")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--split", choices=("train", "test"), default="train")
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("train", parents=[common], help="train the ranking model")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--iters", type=int, default=None, help="training iterations (default 2000)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--batch", type=int, default=None, help="bags per class per batch (default 30)")
    p.add_argument("--segments", type=int, default=None, help="segments per bag (default 32)")
    p.add_argument("--lr", type=float, default=None, help="Adagrad learning rate (default 0.001)")
    p.add_argument("--epsilon", type=float, default=None, help="Adagrad epsilon (default 1e-8)")
    p.add_argument("--lambda1", type=float, default=None, help="smoothness weight (default 8e-5)")
    p.add_argument("--lambda2", type=float, default=None, help="sparsity weight (default 8e-5)")
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--margin", type=float, default=None)
    p.add_argument("--dropout", type=float, default=None, help="dropout rate (default 0.6)")
    p.add_argument("--hidden1", type=int, default=None)
    p.add_argument("--hidden2", type=int, default=None)
    p.add_argument("--snapshot-every", type=int, default=None)
    p.add_argument("--probe", type=str, default=None, help="probe video id for score snapshots")
    p.add_argument("--cache32", action="store_true", help="cache bags as float32")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", parents=[common], help="score one feature file with a checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--format", choices=("binary", "csv"), default=None)
    p.add_argument("--segments", type=int, default=32)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval", parents=[common], help="frame-level ROC/AUC and false-alarm rate")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--segments", type=int, default=32)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline-train", parents=[common], help="train the linear hinge baseline")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--c-reg", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_baseline_train)

    p = sub.add_parser("baseline-eval", parents=[common], help="evaluate the linear baseline")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--segments", type=int, default=32)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_baseline_eval)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except NonFiniteLossError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except DimensionMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SHAPE
    except MetricError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_METRIC
    except (DataError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
