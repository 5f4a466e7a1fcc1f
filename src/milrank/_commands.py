"""Subcommand implementations behind the ``milrank`` CLI.

Exit codes are stable: 0 success, 2 usage or bad input data, 3 I/O or
file-format failure, 4 non-finite loss, 5 dimensionality mismatch,
6 metric undefined (``EXIT_CODES`` maps the exceptions).  The settings of
``synth``, ``train`` and ``baseline-train`` can also come from an optional
``key=value`` config file (``--config``) that uses the flag names as keys;
explicit flags win.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from pathlib import Path

from .baseline import fit_linear, load_linear, save_linear, score_linear, train_linear
from .exceptions import (
    DataError,
    DimensionMismatchError,
    FormatError,
    MetricError,
    NonFiniteLossError,
)
from .features import DEFAULT_SEGMENTS, check_segment_count, load_features, load_manifest, load_videos
from .loss import LossParams
from .metrics import (
    check_threshold,
    entry_annotation,
    evaluate_manifest,
    score_video,
    write_roc_csv,
    write_timeline_csv,
)
from .network import load_checkpoint, save_checkpoint
from .optim import LOG_HEADER, PROBE_HEADER, TrainConfig, train
from .synthetic import SynthSpec, generate
from .validation import content_lines, csv_lines, write_lines

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_SHAPE = 5
EXIT_METRIC = 6

# The first class an exception is an instance of gives its exit code, so a
# subclass must come before its base (DimensionMismatchError is a ValueError).
EXIT_CODES = (
    (FormatError, EXIT_IO),
    (OSError, EXIT_IO),
    (NonFiniteLossError, EXIT_NUMERIC),
    (DimensionMismatchError, EXIT_SHAPE),
    (MetricError, EXIT_METRIC),
    (DataError, EXIT_USAGE),
    (ValueError, EXIT_USAGE),
)

# Settings a command takes from a flag or a config-file key of the same name:
# (flag, the setting names it sets, help).  A setting's type, default and
# destination come from the signature of the callee (``*_CALLEES``) naming it.
TRAIN_FLAGS = (
    ("iters", ("iterations",), "training iterations"),
    ("seed", ("seed",), "seed of initialisation, pair sampling and dropout"),
    ("batch", ("batch_pos", "batch_neg"), "bags per class per batch"),
    ("segments", ("segments_per_bag",), "segments per bag"),
    ("lr", ("learning_rate",), "Adagrad learning rate"),
    ("epsilon", ("adagrad_epsilon",), "Adagrad epsilon"),
    ("lambda1", ("smoothness_weight",), "smoothness weight"),
    ("lambda2", ("sparsity_weight",), "sparsity weight"),
    ("weight-decay", ("weight_decay",), "weight-decay coefficient"),
    ("margin", ("margin",), "ranking hinge margin"),
    ("dropout", ("dropout_rate",), "dropout rate"),
    ("hidden1", ("hidden1",), "first hidden layer width"),
    ("hidden2", ("hidden2",), "second hidden layer width"),
    ("snapshot-every", ("snapshot_every",), "checkpoint and probe-score interval, 0 for none"),
    ("probe", ("probe_video_id",),
     "probe video id for score snapshots (default: the first positive video)"),
    ("threads", ("threads",),
     "worker threads that split the layer-1 training GEMMs by rows; outputs are the same "
     "for every count, and the default is every CPU this process may use"),
)
TRAIN_CALLEES = (TrainConfig, LossParams)

SYNTH_FLAGS = (
    ("pos", ("n_pos_videos",), "positive video count"),
    ("neg", ("n_neg_videos",), "negative video count"),
    ("dim", ("dim",), "feature dimensionality"),
    ("clips", ("clips_per_video",), "clips per video"),
    ("anomaly-fraction", ("anomaly_fraction",), "share of a positive video's clips that is anomalous"),
    ("separation", ("separation",), "shift of anomalous clips along the anomaly direction"),
    ("noise-sigma", ("noise_sigma",), "standard deviation of the clip noise"),
    ("seed", ("seed",), "generator seed"),
    ("test-pos", ("test_pos",), "extra held-out positives written to manifest_test.txt"),
    ("test-neg", ("test_neg",), "extra held-out negatives written to manifest_test.txt"),
)
SYNTH_CALLEES = (SynthSpec, generate)

BASELINE_FLAGS = (
    ("c-reg", ("c_reg",), "weight of the mean hinge against 0.5 ||w||^2"),
    ("epochs", ("epochs",), "full-batch subgradient epochs"),
    ("lr", ("learning_rate",), "subgradient step size"),
)
BASELINE_CALLEES = (fit_linear,)


def _parse_config_file(path: Path, types: dict) -> dict:
    values = {}
    for lineno, text in content_lines(path):
        if "=" not in text:
            raise ValueError(f"{path}: line {lineno}: expected key=value")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in types:
            raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            values[key] = types[key](value)
        except ValueError as e:
            raise ValueError(f"{path}: line {lineno}: {key}: {e}") from None
    return values


def _defaults(callees) -> dict:
    """Each keyword default in the callees' signatures, by parameter name."""
    return {name: p.default for callee in callees
            for name, p in inspect.signature(callee).parameters.items() if p.default is not p.empty}


def _flag_type(default):
    return str if default is None else type(default)


def _add_setting_flags(parser: argparse.ArgumentParser, flags, callees) -> None:
    defaults = _defaults(callees)
    for flag, names, text in flags:
        default = defaults[names[0]]
        if default is not None:
            text = f"{text} (default {default})"
        parser.add_argument(f"--{flag}", type=_flag_type(default), default=None, help=text)


def _settings(args, flags, callees) -> list[dict]:
    """Settings given by flag or config file (the flag wins), split into one
    keyword dict per callee of the names its signature takes.

    Settings given neither way are left out, so the callees' defaults apply.
    """
    defaults = _defaults(callees)
    types = {flag: _flag_type(defaults[names[0]]) for flag, names, _ in flags}
    config = _parse_config_file(args.config, types) if args.config else {}
    values = {}
    for flag, names, _ in flags:
        value = getattr(args, flag.replace("-", "_"))
        if value is None:
            value = config.get(flag)
        if value is not None:
            values.update(dict.fromkeys(names, value))
    return [{name: values[name] for name in inspect.signature(callee).parameters if name in values}
            for callee in callees]


def cmd_synth(args) -> int:
    spec, split = _settings(args, SYNTH_FLAGS, SYNTH_CALLEES)
    dataset = generate(SynthSpec(**spec), args.out, **split)
    print(f"wrote {len(dataset.feature_paths)} feature files, manifest, annotations, "
          f"and planted index under {dataset.out_dir}")
    return EXIT_OK


def cmd_ingest_check(args) -> int:
    """Read a manifest's videos as ``train`` and ``baseline-train`` do (``load_videos``),
    and with ``--split test`` each entry's annotation as ``eval`` does."""
    manifest = load_manifest(args.manifest, args.split)
    annotation_cache: dict = {}
    for entry, f in load_videos(manifest):
        if manifest.split == "test":
            entry_annotation(entry, f.video_id, f.n_frames, annotation_cache)
    n = len(manifest.entries)
    n_pos = sum(entry.label for entry in manifest.entries)
    print(f"OK: {n} videos ({n_pos} positive / {n - n_pos} negative), dim {f.dim}")
    return EXIT_OK


def cmd_train(args) -> int:
    settings, loss = _settings(args, TRAIN_FLAGS, TRAIN_CALLEES)
    cfg = TrainConfig(loss_params=LossParams(**loss), **settings)

    out_dir = Path(args.out)
    manifest = load_manifest(args.manifest, "train")

    def save(iteration, snapshot_model):
        out_dir.mkdir(parents=True, exist_ok=True)  # so a refused run leaves no directory
        save_checkpoint(snapshot_model, out_dir / f"ckpt_{iteration}.bin")

    model, log = train(manifest, cfg, snapshot_hook=save)
    if not cfg.snapshot_every or cfg.iterations % cfg.snapshot_every:  # else the last snapshot saved it
        save(cfg.iterations, model)
    write_lines(out_dir / "training_log.csv", csv_lines(LOG_HEADER, log.rows))
    if cfg.snapshot_every:
        write_lines(out_dir / "probe_scores.csv", csv_lines(PROBE_HEADER, log.probe_rows))
    print(f"final loss {log.rows[-1][1]!r}")
    return EXIT_OK


def cmd_score(args) -> int:
    check_segment_count(args.segments)  # before any file is read
    model = load_checkpoint(args.checkpoint)
    f = load_features(args.features, args.format)
    segment_scores, timeline = score_video(model, f, args.segments)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_lines(out_dir / f"{f.video_id}_segments.csv",
                csv_lines("segment_index,score", enumerate(segment_scores.tolist())))
    write_timeline_csv(timeline, out_dir / f"{f.video_id}_frames.csv")
    print(f"scored {f.video_id}: {len(segment_scores)} segments, {timeline.n_frames} frames")
    return EXIT_OK


def cmd_eval(args) -> int:
    """``eval`` scores with an MLP checkpoint, ``baseline-eval`` with a linear model."""
    check_threshold(args.threshold)  # before any file is read
    check_segment_count(args.segments)
    if args.command == "eval":
        model = load_checkpoint(args.checkpoint)
        scorer = lambda f: score_video(model, f, args.segments)[0]
    else:
        model = load_linear(args.model)
        scorer = lambda f: score_linear(model, f, args.segments)
    manifest = load_manifest(args.manifest, "test")
    evaluation = evaluate_manifest(manifest, scorer, m=args.segments, threshold=args.threshold)
    out_dir = Path(args.out)
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
        print(f"false alarm rate @ {args.threshold:g}: {evaluation.false_alarm * 100:.2f}%")
    return EXIT_OK


def cmd_baseline_train(args) -> int:
    (fit_params,) = _settings(args, BASELINE_FLAGS, BASELINE_CALLEES)
    manifest = load_manifest(args.manifest, "train")
    save_linear(train_linear(manifest, **fit_params), args.out)
    print(f"saved baseline model to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="milrank",
        description="Weakly-supervised video anomaly scoring via multiple-instance ranking.",
    )
    # only the commands with settings read a config file; the others refuse --config
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", type=Path, default=None,
                            help="optional key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[configured], help="generate a synthetic dataset")
    p.add_argument("--out", type=Path, required=True)
    _add_setting_flags(p, SYNTH_FLAGS, SYNTH_CALLEES)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest-check", help="validate a manifest: read its videos as train and baseline-train do")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--split", choices=("train", "test"), default="train",
                   help="test also checks each entry's annotation as eval reads it")
    p.set_defaults(func=cmd_ingest_check)

    p = sub.add_parser("train", parents=[configured], help="train the ranking model")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_setting_flags(p, TRAIN_FLAGS, TRAIN_CALLEES)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="score one feature file with a checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--format", choices=("binary", "csv"), default=None,
                   help="feature file format (default: csv for a .csv file, else binary)")
    p.add_argument("--segments", type=int, default=DEFAULT_SEGMENTS)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_score)

    for name, model_flag, text in (
            ("eval", "--checkpoint", "frame-level ROC/AUC and false-alarm rate"),
            ("baseline-eval", "--model", "evaluate the linear baseline")):
        p = sub.add_parser(name, help=text)
        p.add_argument(model_flag, type=Path, required=True)
        p.add_argument("--manifest", type=Path, required=True)
        p.add_argument("--segments", type=int, default=DEFAULT_SEGMENTS)
        p.add_argument("--threshold", type=float, default=0.5)
        p.add_argument("--out", type=Path, required=True)
        p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline-train", parents=[configured],
                       help="train the linear hinge baseline")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    _add_setting_flags(p, BASELINE_FLAGS, BASELINE_CALLEES)
    p.set_defaults(func=cmd_baseline_train)
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


def run(argv: list[str]) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # refused by the command's own parser, which prints that command's usage line
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except tuple(cls for cls, _ in EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(e, cls))
