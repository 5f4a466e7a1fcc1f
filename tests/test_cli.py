import argparse
import base64
import dataclasses
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from milrank import _commands
from milrank.baseline import fit_linear
from milrank.cli import main
from milrank.exceptions import (
    DataError,
    DimensionMismatchError,
    FormatError,
    MetricError,
    NonFiniteLossError,
)
from milrank.loss import LossParams
from milrank.optim import DEFAULT_THREADS, TrainConfig
from milrank.synthetic import SynthSpec, generate
from milrank.features import FeatureMatrix, load_features, write_features
from milrank.network import init_model, load_checkpoint, save_checkpoint
from milrank.metrics import evaluate_manifest, score_video


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def synth_args(out, pos=3, neg=3, dim=8, clips=16, seed=5, extra=()):
    return ["synth", "--out", str(out), "--pos", str(pos), "--neg", str(neg),
            "--dim", str(dim), "--clips", str(clips), "--seed", str(seed), *extra]


def zero_checkpoint(path, dim=8, h1=4, h2=2):
    from milrank.network import MlpModel
    model = MlpModel(w1=np.zeros((h1, dim)), b1=np.zeros(h1), w2=np.zeros((h2, h1)),
                     b2=np.zeros(h2), w3=np.zeros((1, h2)), b3=np.zeros(1))
    save_checkpoint(model, path)
    return model


def mlp_header(**changes) -> bytes:
    """The header line of a valid dim-8, widths-[4, 2] checkpoint, with the
    named fields replaced."""
    doc = {"version": 3, "dim": 8, "widths": [4, 2], "dropout_rate": 0.6, **changes}
    return (json.dumps(doc) + "\n").encode()


def mlp_payload(**params) -> bytes:
    """That checkpoint's payload of zero weights, with the named parameters'
    values replaced."""
    values = {"w1": [0.0] * 32, "b1": [0.0] * 4, "w2": [0.0] * 8, "b2": [0.0] * 2,
              "w3": [0.0] * 2, "b3": [0.0], **params}
    return b"".join(np.asarray(v, dtype="<f8").tobytes() for v in values.values())


PAYLOAD = mlp_payload()


def b64(values):
    """``values`` as a version-2 checkpoint parameter: base64 of their
    little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


MALFORMED_CHECKPOINTS = [
    # the header line: one JSON object of JSON numbers, in UTF-8
    b"[1, 2, 3]\n" + PAYLOAD,
    b"null\n" + PAYLOAD,
    b"ok\n" + PAYLOAD,
    # strings and booleans are not numbers, though int()/float() would convert them
    mlp_header(dim="8") + PAYLOAD,
    mlp_header(widths="42") + PAYLOAD,
    mlp_header(dropout_rate=False) + PAYLOAD,
    mlp_header(dim=8.0) + PAYLOAD,
    mlp_header(widths=[4]) + PAYLOAD,
    mlp_header(version=True) + PAYLOAD,
    mlp_header(version=1.0) + PAYLOAD,
    mlp_header(version="3") + PAYLOAD,
    mlp_header(version=4) + PAYLOAD,
    b'{"version": 3, "dim": 8, "widths": [4, 2]}\n' + PAYLOAD,
    b'{"version": 3, "\xff": 0, "dim": 8, "widths": [4, 2], "dropout_rate": 0.6}\n' + PAYLOAD,
    # a header the model refuses
    mlp_header(dim=1, widths=[1, 1], dropout_rate=1.5) + bytes(8 * 6),
    mlp_header(widths=[0, 1]) + bytes(8 * 3),
    # a w1 whose element count, 2**64, wraps to 0 in int64 arithmetic
    mlp_header(dim=2**32, widths=[2**32, 1]),
    # after the header's newline, exactly 8 bytes for each of the shapes' values: none,
    # no newline, a byte or a float short or long, trailing bytes, float32 values
    b"",
    mlp_header(),
    mlp_header().rstrip(b"\n"),
    mlp_header().rstrip(b"\n") + PAYLOAD,
    mlp_header() + PAYLOAD[:-1],
    mlp_header() + PAYLOAD + b"\0",
    mlp_header() + mlp_payload(w1=[0.0] * 31),
    mlp_header() + mlp_payload(w1=[0.0] * 33),
    mlp_header() + PAYLOAD + b"trailing\n",
    mlp_header() + PAYLOAD + PAYLOAD,
    mlp_header() + np.zeros(49, dtype="<f4").tobytes(),
    # every value finite: a quiet and a signalling NaN, +inf and -inf
    mlp_header() + mlp_payload(b3=[float("nan")]),
    mlp_header() + b"\x01\0\0\0\0\0\xf0\x7f" + PAYLOAD[8:],
    mlp_header() + mlp_payload(w2=[0.0] * 7 + [float("inf")]),
    mlp_header() + mlp_payload(w3=[0.0, float("-inf")]),
]


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "data"
    assert main(synth_args(out, extra=["--test-pos", "2", "--test-neg", "2"])) == 0
    return out


class TestSynth:
    def test_file_counts(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(synth_args(out, pos=20, neg=20, dim=4, clips=8)) == 0
        assert "wrote 40 feature files" in capsys.readouterr().out
        assert len(list((out / "features").glob("*.feat"))) == 40
        assert (out / "manifest.txt").is_file()
        assert (out / "annotations.txt").is_file()
        assert (out / "planted.csv").is_file()

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--pos", "2"])
        assert exc.value.code == 2

    def test_rerun_digest_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(synth_args(a)) == 0
        assert main(synth_args(b)) == 0
        assert tree_digest(a) == tree_digest(b)

    def test_bad_flag_value_is_usage_error(self, tmp_path):
        assert main(synth_args(tmp_path / "d", extra=["--anomaly-fraction", "0"])) == 2

    @pytest.mark.parametrize("flag, value", [("--separation", "1e39"), ("--noise-sigma", "1e200")])
    def test_values_past_float32_are_usage_error(self, tmp_path, capsys, flag, value):
        # feature files store float32; synth must not write files ingest-check refuses
        assert main(synth_args(tmp_path / "d", extra=[flag, value])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "32-bit storage" in err
        assert "Traceback" not in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flag, value, rule", [
        ("--separation", "nan", "separation must be non-negative"),
        ("--separation", "inf", "separation must be non-negative"),
        ("--noise-sigma", "nan", "noise_sigma must be positive"),
        ("--noise-sigma", "-inf", "noise_sigma must be positive"),
    ])
    def test_non_finite_setting_is_usage_error(self, tmp_path, capsys, flag, value, rule):
        out = tmp_path / "d"
        assert main(synth_args(out, extra=[f"{flag}={value}"])) == 2
        assert capsys.readouterr().err == f"error: {rule} and finite, got {value}\n"
        assert not out.exists()


class TestIngestCheck:
    def test_ok(self, dataset, capsys):
        assert main(["ingest-check", "--manifest", str(dataset / "manifest.txt")]) == 0
        out = capsys.readouterr().out
        assert "OK: 6 videos (3 positive / 3 negative), dim 8" in out

    def test_missing_manifest_is_io_error(self, tmp_path):
        assert main(["ingest-check", "--manifest", str(tmp_path / "nope.txt")]) == 3

    def test_manifest_with_missing_feature_file(self, tmp_path):
        (tmp_path / "m.txt").write_text("gone.feat 0\n")
        assert main(["ingest-check", "--manifest", str(tmp_path / "m.txt")]) == 3


class TestIngestCheckTestSplit:
    """``--split test`` applies eval's annotation rules; eval agrees on each manifest."""

    def check_and_eval(self, dataset, tmp_path, manifest_text, annotation_text):
        (dataset / "ann_case.txt").write_text(annotation_text)
        manifest = dataset / "case.txt"
        manifest.write_text(manifest_text)
        ckpt = tmp_path / "zero.bin"
        zero_checkpoint(ckpt)
        check = main(["ingest-check", "--manifest", str(manifest), "--split", "test"])
        evaluated = main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest),
                          "--segments", "8", "--out", str(tmp_path / "e")])
        return check, evaluated

    def test_ok(self, dataset, capsys):
        assert main(["ingest-check", "--manifest", str(dataset / "manifest_test.txt"),
                     "--split", "test"]) == 0
        assert "OK: 4 videos (2 positive / 2 negative), dim 8" in capsys.readouterr().out

    def test_unparseable_annotation_file(self, dataset, tmp_path):
        codes = self.check_and_eval(dataset, tmp_path, "features/pos003.feat 1 ann_case.txt\n"
                                    "features/neg003.feat 0 ann_case.txt\n", "garbage\n")
        assert codes == (3, 3)

    def test_anomalous_video_left_out(self, dataset, tmp_path):
        codes = self.check_and_eval(dataset, tmp_path, "features/pos003.feat 1 ann_case.txt\n"
                                    "features/neg003.feat 0 ann_case.txt\n", "neg003 256 -1 -1\n")
        assert codes == (2, 2)

    def test_anomalous_video_without_intervals(self, dataset, tmp_path):
        codes = self.check_and_eval(dataset, tmp_path, "features/pos003.feat 1 ann_case.txt\n"
                                    "features/neg003.feat 0\n", "pos003 256 -1 -1\n")
        assert codes == (2, 2)

    def test_normal_video_with_intervals(self, dataset, tmp_path):
        codes = self.check_and_eval(dataset, tmp_path, "features/pos003.feat 1 ann_case.txt\n"
                                    "features/neg003.feat 0 ann_case.txt\n",
                                    "pos003 256 0 16\nneg003 256 0 16\n")
        assert codes == (2, 2)

    @pytest.mark.parametrize("annotation_text, video, frames", [
        ("pos003 700 0 16\nneg003 256 -1 -1\n", "pos003", 700),
        ("pos003 256 0 16\nneg003 300 -1 -1\n", "neg003", 300),
    ])
    def test_annotation_frame_count_mismatch(self, dataset, tmp_path, capsys, annotation_text,
                                             video, frames):
        assert load_features(dataset / "features" / f"{video}.feat").n_frames == 256
        codes = self.check_and_eval(dataset, tmp_path, "features/pos003.feat 1 ann_case.txt\n"
                                    "features/neg003.feat 0 ann_case.txt\n", annotation_text)
        assert codes == (2, 2)
        errors = capsys.readouterr().err.splitlines()
        expected = f"error: video {video!r}: annotation covers {frames} frames, feature file has 256"
        assert errors == [expected, expected]

    @pytest.mark.parametrize("command", ["ingest-check", "eval", "baseline-eval"])
    def test_repeated_video_is_usage_error(self, dataset, tmp_path, capsys, command):
        manifest = dataset / "case.txt"
        manifest.write_text("features/pos003.feat 1 annotations.txt\n"
                            "features/neg003.feat 0 annotations.txt\n"
                            "features/pos003.feat 1 annotations.txt\n")
        # dim-5 models: scoring any dim-8 video would exit 5, so exit 2 means none was scored
        ckpt = tmp_path / "dim5.bin"
        zero_checkpoint(ckpt, dim=5)
        linear = tmp_path / "dim5_linear.json"
        linear.write_text(json.dumps({"w": [0.0] * 5, "b": 0.0, "c_reg": 1.0}))
        argv = {
            "ingest-check": ["ingest-check", "--split", "test"],
            "eval": ["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "e")],
            "baseline-eval": ["baseline-eval", "--model", str(linear), "--out", str(tmp_path / "e")],
        }[command]
        assert main([*argv, "--manifest", str(manifest)]) == 2
        assert capsys.readouterr().err == \
            f"error: {manifest}: line 3: video 'pos003' already listed on line 1\n"

    def test_train_split_ignores_annotations(self, dataset, tmp_path):
        (dataset / "ann_case.txt").write_text("garbage\n")
        (dataset / "case.txt").write_text("features/pos003.feat 1 ann_case.txt\n")
        assert main(["ingest-check", "--manifest", str(dataset / "case.txt")]) == 0


class TestMixedDimensions:
    """Every command that reads a manifest's videos for training applies one dimension rule."""

    @pytest.mark.parametrize("command", ["ingest-check", "train", "baseline-train"])
    def test_one_exit_code_and_message(self, dataset, tmp_path, capsys, command):
        odd = dataset / "features" / "odd.feat"
        write_features(FeatureMatrix("odd", np.ones((16, 6)), 256), odd)
        manifest = dataset / "mixed.txt"
        manifest.write_text("features/pos000.feat 1\nfeatures/odd.feat 1\nfeatures/neg000.feat 0\n")
        out = tmp_path / "out"
        # train takes a batch its classes fill, so it reads the videos
        assert main([command, "--manifest", str(manifest),
                     *([] if command == "ingest-check" else ["--out", str(out)]),
                     *(["--batch", "1"] if command == "train" else [])]) == 5
        assert capsys.readouterr().err == f"error: {odd.resolve()}: dim 6 differs from first video's 8\n"
        assert not out.exists()


class TestExitCodes:
    @pytest.mark.parametrize("error, code", [
        (FormatError("f.bin", "byte 0", "bad magic"), 3),
        (OSError("disk"), 3),
        (FileNotFoundError("nope"), 3),
        (NonFiniteLossError("nan"), 4),
        (DimensionMismatchError("dim 3 vs 4"), 5),
        (MetricError("one class"), 6),
        (DataError("too few bags"), 2),
        (ValueError("bad value"), 2),
    ])
    def test_exception_maps_to_exit_code(self, monkeypatch, capsys, error, code):
        def failing(args):
            raise error

        monkeypatch.setattr(_commands, "cmd_ingest_check", failing)
        assert _commands.run(["ingest-check", "--manifest", "m.txt"]) == code
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_other_exceptions_propagate(self, monkeypatch):
        def failing(args):
            raise KeyError("bug")

        monkeypatch.setattr(_commands, "cmd_ingest_check", failing)
        with pytest.raises(KeyError):
            _commands.run(["ingest-check", "--manifest", "m.txt"])


def help_by_flag(argv, capsys):
    """Each ``--flag``'s help text from ``argv --help``, whitespace collapsed."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    text = text[text.index("options:"):]
    return {m.group(1): m.group(2).strip() for m in
            re.finditer(r"(--[a-z0-9-]+)(?: [A-Z0-9_]+)?(.*?)(?= --| -h|$)", text)}


class TestDefaultsFromConfig:
    TRAIN_FLAG_FIELDS = {
        "--iters": "iterations", "--seed": "seed", "--batch": "batch_pos",
        "--segments": "segments_per_bag", "--lr": "learning_rate", "--epsilon": "adagrad_epsilon",
        "--lambda1": "smoothness_weight", "--lambda2": "sparsity_weight",
        "--weight-decay": "weight_decay", "--margin": "margin", "--dropout": "dropout_rate",
        "--hidden1": "hidden1", "--hidden2": "hidden2", "--snapshot-every": "snapshot_every",
    }

    def test_train_help_shows_dataclass_defaults(self, capsys):
        defaults = {f.name: f.default for cls in (TrainConfig, LossParams)
                    for f in dataclasses.fields(cls)}
        assert defaults["iterations"] == 2000
        helps = help_by_flag(["train"], capsys)
        for flag, field in self.TRAIN_FLAG_FIELDS.items():
            assert helps[flag].endswith(f"(default {defaults[field]})"), (flag, helps[flag])
        assert "(default" in helps["--probe"]
        expected_flags = {*self.TRAIN_FLAG_FIELDS, "--probe", "--manifest", "--out", "--config",
                          "--threads"}
        assert set(helps) - {"--help"} == expected_flags

    SYNTH_FLAG_FIELDS = {
        "--pos": "n_pos_videos", "--neg": "n_neg_videos", "--dim": "dim", "--clips": "clips_per_video",
        "--anomaly-fraction": "anomaly_fraction", "--separation": "separation",
        "--noise-sigma": "noise_sigma", "--seed": "seed", "--test-pos": "test_pos",
        "--test-neg": "test_neg",
    }

    def test_synth_help_shows_spec_and_generate_defaults(self, capsys):
        defaults = {f.name: f.default for f in dataclasses.fields(SynthSpec)}
        defaults.update((name, p.default) for name, p in inspect.signature(generate).parameters.items())
        assert defaults["n_pos_videos"] == 20 and defaults["test_pos"] == 0
        helps = help_by_flag(["synth"], capsys)
        for flag, name in self.SYNTH_FLAG_FIELDS.items():
            assert helps[flag].endswith(f"(default {defaults[name]})"), (flag, helps[flag])
        assert set(helps) - {"--help"} == {*self.SYNTH_FLAG_FIELDS, "--out", "--config"}

    def test_baseline_train_help_shows_fit_linear_defaults(self, capsys):
        signature = inspect.signature(fit_linear).parameters
        helps = help_by_flag(["baseline-train"], capsys)
        for flag, name in (("--c-reg", "c_reg"), ("--epochs", "epochs"), ("--lr", "learning_rate")):
            assert helps[flag].endswith(f"(default {signature[name].default})")
        assert "--seed" not in helps

    def test_baseline_train_has_no_seed(self, dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["baseline-train", "--manifest", str(dataset / "manifest.txt"),
                  "--out", str(tmp_path / "b.json"), "--seed", "1"])
        assert exc.value.code == 2

    def test_config_keys_are_flag_names(self, dataset, tmp_path):
        settings = {"iters": "3", "seed": "4", "batch": "2", "segments": "4", "lr": "0.01",
                    "epsilon": "1e-6", "lambda1": "0.5", "lambda2": "0.25", "weight-decay": "0.125",
                    "margin": "0.75", "dropout": "0.5", "hidden1": "4", "hidden2": "2",
                    "snapshot-every": "3", "probe": "neg001"}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key}={value}\n" for key, value in settings.items()))
        train = ["train", "--manifest", str(dataset / "manifest.txt"), "--out"]
        assert main([*train, str(tmp_path / "by_config"), "--config", str(cfg)]) == 0
        flags = [token for key, value in settings.items() for token in (f"--{key}", value)]
        assert main([*train, str(tmp_path / "by_flags"), *flags]) == 0
        assert tree_digest(tmp_path / "by_config") == tree_digest(tmp_path / "by_flags")
        model = load_checkpoint(tmp_path / "by_config" / "ckpt_3.bin")
        assert model.w1.shape == (4, 8) and model.w2.shape == (2, 4)

    @pytest.mark.parametrize("argv, key", [
        (["train", "--iters", "2", "--batch", "3", "--segments", "8", "--hidden1", "4",
          "--hidden2", "2"], "iter"),
        (["synth", "--pos", "2", "--neg", "2", "--dim", "4", "--clips", "8"], "n_pos"),
        (["baseline-train", "--epochs", "5"], "epoch"),
    ])
    def test_unknown_config_key_is_usage_error(self, dataset, tmp_path, capsys, argv, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a misspelt setting\n{key}=3\n")
        manifest = [] if argv[0] == "synth" else ["--manifest", str(dataset / "manifest.txt")]
        out = tmp_path / "out"
        assert main([*argv, *manifest, "--out", str(out), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: line 2: unknown key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, line, error", [
        (["train"], "iters=abc", "iters: invalid literal for int() with base 10: 'abc'"),
        (["synth"], "separation=", "separation: could not convert string to float: ''"),
        (["baseline-train"], "epochs=2.5", "epochs: invalid literal for int() with base 10: '2.5'"),
    ])
    def test_bad_config_value_names_path_line_and_key(self, dataset, tmp_path, capsys, argv, line,
                                                      error):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# one bad value\n{line}\n")
        manifest = [] if argv[0] == "synth" else ["--manifest", str(dataset / "manifest.txt")]
        out = tmp_path / "out"
        assert main([*argv, *manifest, "--out", str(out), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: line 2: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest-check", "score", "eval", "baseline-eval"])
    def test_config_refused_without_settings(self, dataset, tmp_path, capsys, command):
        # these commands have no setting a config file could hold, so they do not take one
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threshold=0.9\nbogus=1\n")
        ckpt = tmp_path / "zero.bin"
        zero_checkpoint(ckpt)
        linear = tmp_path / "linear.json"
        linear.write_text(json.dumps({"w": [0.0] * 8, "b": 0.0, "c_reg": 1.0}))
        test_manifest = ["--manifest", str(dataset / "manifest_test.txt"), "--segments", "8"]
        argv = {
            "ingest-check": ["ingest-check", "--manifest", str(dataset / "manifest.txt")],
            "score": ["score", "--checkpoint", str(ckpt), "--segments", "8",
                      "--features", str(dataset / "features" / "pos003.feat")],
            "eval": ["eval", "--checkpoint", str(ckpt), *test_manifest],
            "baseline-eval": ["baseline-eval", "--model", str(linear), *test_manifest],
        }[command]
        out = [] if command == "ingest-check" else ["--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, *out, "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # refused by the command's own parser, so its usage line is the one shown
        assert err.startswith(f"usage: milrank {command} ")
        assert f"milrank {command}: error: unrecognized arguments: --config {cfg}\n" in err
        assert not (tmp_path / "out").exists()
        assert main([*argv, *out]) == 0


# One bad value for each setting flag of each command, and the one stderr line it
# gives; --probe is checked against the manifest, in TestEarlyRefusal's
# test_manifest_refused_before_reading.  A flag missing here fails TestEarlyRefusal.
BAD_SETTINGS = {
    ("train", "iters"): ("0", "iterations must be positive and finite, got 0"),
    ("train", "seed"): ("-1", "seed must be non-negative and finite, got -1"),
    ("train", "batch"): ("0", "batch_pos must be positive and finite, got 0"),
    ("train", "segments"): ("1", "segment count must be at least 2, got 1"),
    ("train", "lr"): ("0", "learning_rate must be positive and finite, got 0.0"),
    ("train", "epsilon"): ("nan", "adagrad_epsilon must be positive and finite, got nan"),
    ("train", "lambda1"): ("-1", "smoothness_weight must be non-negative and finite, got -1.0"),
    ("train", "lambda2"): ("inf", "sparsity_weight must be non-negative and finite, got inf"),
    ("train", "weight-decay"): ("-0.5", "weight_decay must be non-negative and finite, got -0.5"),
    ("train", "margin"): ("0", "margin must be positive and finite, got 0.0"),
    ("train", "dropout"): ("1", "dropout_rate must be in [0, 1), got 1.0"),
    ("train", "hidden1"): ("0", "hidden1 must be positive and finite, got 0"),
    ("train", "hidden2"): ("-1", "hidden2 must be positive and finite, got -1"),
    ("train", "snapshot-every"): ("-1", "snapshot_every must be non-negative and finite, got -1"),
    ("train", "threads"): ("0", "threads must be positive and finite, got 0"),
    ("synth", "pos"): ("0", "n_pos_videos must be positive and finite, got 0"),
    ("synth", "neg"): ("-2", "n_neg_videos must be positive and finite, got -2"),
    ("synth", "dim"): ("0", "dim must be positive and finite, got 0"),
    ("synth", "clips"): ("0", "clips_per_video must be positive and finite, got 0"),
    ("synth", "anomaly-fraction"): ("1", "anomaly_fraction must be in (0, 1), got 1.0"),
    ("synth", "separation"): ("-1", "separation must be non-negative and finite, got -1.0"),
    ("synth", "noise-sigma"): ("0", "noise_sigma must be positive and finite, got 0.0"),
    ("synth", "seed"): ("-1", "seed must be non-negative and finite, got -1"),
    ("synth", "test-pos"): ("-1", "test_pos and test_neg must both be zero or both positive, got -1 and 0"),
    ("synth", "test-neg"): ("2", "test_pos and test_neg must both be zero or both positive, got 0 and 2"),
    ("baseline-train", "c-reg"): ("0", "c_reg must be positive and finite, got 0.0"),
    ("baseline-train", "epochs"): ("0", "epochs must be positive and finite, got 0"),
    ("baseline-train", "lr"): ("-1", "learning_rate must be positive and finite, got -1.0"),
    **{(command, "segments"): ("1", "segment count must be at least 2, got 1")
       for command in ("score", "eval", "baseline-eval")},
    **{(command, "threshold"): ("nan", "threshold must be finite, got nan")
       for command in ("eval", "baseline-eval")},
}


class TestEarlyRefusal:
    """Every numeric setting of every command is refused before any feature,
    checkpoint or model file is read: each command's inputs here would exit 3
    if they were read."""

    SETTING_FLAGS = [(command, flag) for command, flags in (("train", _commands.TRAIN_FLAGS),
                                                            ("synth", _commands.SYNTH_FLAGS),
                                                            ("baseline-train", _commands.BASELINE_FLAGS))
                     for flag, _, _ in flags if flag != "probe"]
    SETTING_FLAGS += [(command, "segments") for command in ("score", "eval", "baseline-eval")]
    SETTING_FLAGS += [(command, "threshold") for command in ("eval", "baseline-eval")]

    @pytest.fixture
    def argv(self, tmp_path):
        """Each command with a manifest of zero-byte feature files, a missing
        checkpoint or model, and ``tmp_path / "out"`` as its output; ``train``
        takes a batch of one bag, which the manifest's one positive and one
        negative video fill."""
        for name in ("a.feat", "b.feat"):
            (tmp_path / name).write_bytes(b"")
        manifest = ["--manifest", str(tmp_path / "manifest.txt")]
        (tmp_path / "manifest.txt").write_text("a.feat 1\nb.feat 0\n")
        missing = str(tmp_path / "missing.bin")
        out = ["--out", str(tmp_path / "out")]
        return {"train": ["train", *manifest, *out, "--batch", "1"],
                "synth": ["synth", *out],
                "baseline-train": ["baseline-train", *manifest, *out],
                "score": ["score", "--checkpoint", missing, "--features", str(tmp_path / "a.feat"), *out],
                "eval": ["eval", "--checkpoint", missing, *manifest, *out],
                "baseline-eval": ["baseline-eval", "--model", missing, *manifest, *out]}

    @pytest.mark.parametrize("command", ["train", "baseline-train", "score", "eval", "baseline-eval"])
    def test_inputs_would_exit_3(self, argv, tmp_path, capsys, command):
        assert main(argv[command]) == 3
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag", SETTING_FLAGS)
    def test_bad_setting_refused_before_reading(self, argv, tmp_path, capsys, command, flag):
        assert (command, flag) in BAD_SETTINGS, f"no bad value listed for {command} --{flag}"
        value, error = BAD_SETTINGS[command, flag]
        assert main([*argv[command], f"--{flag}={value}"]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, labels, flags, error", [
        ("train", "10", ["--probe", "nosuch", "--snapshot-every", "2"], "probe video 'nosuch' not in manifest"),
        ("train", "10", ["--batch", "2"], "need at least 2 positive bags, have 1"),
        ("train", "11", ["--batch", "2"], "need at least 2 negative bags, have 0"),
        ("baseline-train", "11", [], "training data contains a single class"),
    ], ids=["unknown-probe", "small-positives", "small-negatives", "one-class"])
    def test_manifest_refused_before_reading(self, argv, tmp_path, capsys, command, labels, flags, error):
        # the manifest's ids and labels decide these, so no feature file is read
        (tmp_path / "manifest.txt").write_text(f"a.feat {labels[0]}\nb.feat {labels[1]}\n")
        assert main([*argv[command], *flags]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "out").exists()


class TestTrain:
    def test_artifacts_and_log_rows(self, dataset, tmp_path, capsys):
        run = tmp_path / "run"
        code = main(["train", "--manifest", str(dataset / "manifest.txt"),
                     "--out", str(run), "--iters", "12", "--seed", "1",
                     "--batch", "3", "--segments", "8", "--hidden1", "16",
                     "--hidden2", "4"])
        assert code == 0
        assert "final loss" in capsys.readouterr().out
        assert (run / "ckpt_12.bin").is_file()
        log_lines = (run / "training_log.csv").read_text().splitlines()
        assert len(log_lines) == 13  # header + 12 rows

    def test_repeat_run_digest_identical(self, dataset, tmp_path):
        args = lambda out: ["train", "--manifest", str(dataset / "manifest.txt"),
                            "--out", str(out), "--iters", "10", "--seed", "2",
                            "--batch", "3", "--segments", "8",
                            "--hidden1", "16", "--hidden2", "4"]
        assert main(args(tmp_path / "r1")) == 0
        assert main(args(tmp_path / "r2")) == 0
        assert tree_digest(tmp_path / "r1") == tree_digest(tmp_path / "r2")

    def test_snapshot_checkpoints_and_probe(self, dataset, tmp_path):
        run = tmp_path / "run"
        code = main(["train", "--manifest", str(dataset / "manifest.txt"),
                     "--out", str(run), "--iters", "6", "--seed", "1",
                     "--batch", "3", "--segments", "8", "--hidden1", "16",
                     "--hidden2", "4", "--snapshot-every", "3"])
        assert code == 0
        assert (run / "ckpt_3.bin").is_file()
        assert (run / "ckpt_6.bin").is_file()
        probe = (run / "probe_scores.csv").read_text().splitlines()
        assert probe[0] == "iteration,segment_index,score"
        assert len(probe) == 1 + 2 * 8

    @pytest.mark.parametrize("iters, saved", [(6, [3, 6]), (7, [3, 6, 7])])
    def test_each_checkpoint_saved_once(self, dataset, tmp_path, monkeypatch, iters, saved):
        names = []

        def recording(model, path):
            names.append(path.name)
            save_checkpoint(model, path)

        monkeypatch.setattr(_commands, "save_checkpoint", recording)
        assert main(["train", "--manifest", str(dataset / "manifest.txt"), "--out", str(tmp_path / "run"),
                     "--iters", str(iters), "--batch", "3", "--segments", "8", "--hidden1", "4",
                     "--hidden2", "2", "--snapshot-every", "3"]) == 0
        assert names == [f"ckpt_{it}.bin" for it in saved]

    @pytest.mark.parametrize("flag, value, rule", [
        ("--lr", "inf", "learning_rate must be positive"),
        ("--lr", "nan", "learning_rate must be positive"),
        ("--epsilon", "inf", "adagrad_epsilon must be positive"),
        ("--lambda1", "inf", "smoothness_weight must be non-negative"),
        ("--lambda2", "nan", "sparsity_weight must be non-negative"),
        ("--weight-decay", "inf", "weight_decay must be non-negative"),
        ("--margin", "nan", "margin must be positive"),
    ])
    def test_non_finite_setting_is_usage_error(self, dataset, tmp_path, capsys, flag, value, rule):
        run = tmp_path / "run"
        assert main(["train", "--manifest", str(dataset / "manifest.txt"), "--out", str(run),
                     "--iters", "2", "--batch", "3", "--segments", "8", "--hidden1", "4",
                     "--hidden2", "2", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {rule} and finite, got {value}\n"
        assert not run.exists()

    DIVERGING = ["--iters", "5", "--lr", "1e308", "--batch", "3", "--segments", "8",
                 "--hidden1", "16", "--hidden2", "4"]

    def test_diverging_run_is_non_finite_loss(self, dataset, tmp_path, capsys):
        code = main(["train", "--manifest", str(dataset / "manifest.txt"),
                     "--out", str(tmp_path / "run"), *self.DIVERGING])
        assert code == 4
        assert capsys.readouterr().err == "error: non-finite scores at iteration 2\n"

    @pytest.mark.parametrize("snapshots", [[], ["--snapshot-every", "1"]], ids=["no-snapshots", "snapshots"])
    def test_diverging_run_prints_one_line(self, dataset, tmp_path, snapshots):
        # numpy's overflow and invalid-value warnings stay off stderr, in a
        # fresh interpreter with its default warning filters, also while the
        # snapshot hook scores the probe of a diverging model
        src = os.path.dirname(os.path.dirname(_commands.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "milrank.cli", "train", "--manifest", str(dataset / "manifest.txt"),
             "--out", str(tmp_path / "run"), *self.DIVERGING, *snapshots],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 4
        assert proc.stderr == "error: non-finite scores at iteration 2\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("snapshots, error", [
        ([], "a probe video needs snapshot_every > 0"),
        (["--snapshot-every", "2"], "probe video 'nosuch' not in manifest"),
    ], ids=["no-snapshots", "unknown-id"])
    def test_bad_probe_is_usage_error(self, dataset, tmp_path, capsys, snapshots, error):
        run = tmp_path / "run"
        assert main(["train", "--manifest", str(dataset / "manifest.txt"), "--out", str(run),
                     "--iters", "2", "--batch", "3", "--segments", "8", "--hidden1", "4",
                     "--hidden2", "2", "--probe", "nosuch", *snapshots]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not run.exists()

    def test_config_file_defaults_and_flag_override(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iters=4\nbatch=3\nsegments=8\nhidden1=16\nhidden2=4\nseed=3\n")
        run = tmp_path / "run"
        code = main(["train", "--manifest", str(dataset / "manifest.txt"),
                     "--out", str(run), "--config", str(cfg), "--iters", "5"])
        assert code == 0
        assert (run / "ckpt_5.bin").is_file()  # flag beat the config file
        log_lines = (run / "training_log.csv").read_text().splitlines()
        assert len(log_lines) == 6


class TestScore:
    def test_zero_checkpoint_scores_half(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "zero.bin"
        zero_checkpoint(ckpt)
        feature_path = next((dataset / "features").glob("*.feat"))
        out = tmp_path / "scored"
        assert main(["score", "--checkpoint", str(ckpt), "--features", str(feature_path),
                     "--segments", "8", "--out", str(out)]) == 0
        vid = feature_path.stem
        seg_lines = (out / f"{vid}_segments.csv").read_text().splitlines()
        assert seg_lines[0] == "segment_index,score"
        assert all(line.endswith(",0.5") for line in seg_lines[1:])
        frame_lines = (out / f"{vid}_frames.csv").read_text().splitlines()
        f = load_features(feature_path)
        assert len(frame_lines) == 1 + f.n_frames

    def test_dim_mismatch_exit_code(self, dataset, tmp_path):
        ckpt = tmp_path / "wrong.bin"
        zero_checkpoint(ckpt, dim=5)
        feature_path = next((dataset / "features").glob("*.feat"))
        assert main(["score", "--checkpoint", str(ckpt), "--features", str(feature_path),
                     "--out", str(tmp_path / "s")]) == 5

    def test_missing_checkpoint_is_io_error(self, dataset, tmp_path):
        feature_path = next((dataset / "features").glob("*.feat"))
        assert main(["score", "--checkpoint", str(tmp_path / "nope.bin"),
                     "--features", str(feature_path), "--out", str(tmp_path / "s")]) == 3

    @pytest.mark.parametrize("doc", MALFORMED_CHECKPOINTS,
                             ids=[f"doc{i}" for i in range(len(MALFORMED_CHECKPOINTS))])
    def test_malformed_checkpoint_is_format_error(self, dataset, tmp_path, capsys, doc):
        ckpt = tmp_path / "bad.bin"
        ckpt.write_bytes(doc)
        feature_path = next((dataset / "features").glob("*.feat"))
        assert main(["score", "--checkpoint", str(ckpt), "--features", str(feature_path),
                     "--out", str(tmp_path / "s")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_version_1_checkpoint_is_format_error(self, dataset, tmp_path, capsys):
        # a version-1 document, each parameter a list of JSON numbers
        params = {"w1": [0.0] * 32, "b1": [0.0] * 4, "w2": [0.0] * 8, "b2": [0.0] * 2,
                  "w3": [0.0] * 2, "b3": [0.0]}
        ckpt = tmp_path / "v1.json"
        ckpt.write_text(json.dumps({"version": 1, "dim": 8, "widths": [4, 2], "dropout_rate": 0.6,
                                    "params": params}))
        feature_path = next((dataset / "features").glob("*.feat"))
        assert main(["score", "--checkpoint", str(ckpt), "--features", str(feature_path),
                     "--out", str(tmp_path / "s")]) == 3
        assert "unsupported version 1, expected 3" in capsys.readouterr().err

    @pytest.mark.parametrize("dim, h1, h2", [(8, 4, 2), (4096, 512, 32)], ids=["small", "paper"])
    def test_version_2_checkpoint_is_format_error(self, dataset, tmp_path, capsys, dim, h1, h2):
        # a version-2 file: one line of JSON, each parameter base64 of its float64 bytes
        sizes = {"w1": h1 * dim, "b1": h1, "w2": h2 * h1, "b2": h2, "w3": h2, "b3": 1}
        ckpt = tmp_path / "v2.json"
        ckpt.write_text(json.dumps({"version": 2, "dim": dim, "widths": [h1, h2], "dropout_rate": 0.6,
                                    "params": {k: b64(np.zeros(n)) for k, n in sizes.items()}}) + "\n")
        feature_path = next((dataset / "features").glob("*.feat"))
        assert main(["score", "--checkpoint", str(ckpt), "--features", str(feature_path),
                     "--out", str(tmp_path / "s")]) == 3
        assert "unsupported version 2, expected 3" in capsys.readouterr().err

    def test_unchanged_mlp_doc_scores(self, dataset, tmp_path):
        # the malformed cases above each differ from this file in one part
        ckpt = tmp_path / "good.bin"
        ckpt.write_bytes(mlp_header() + PAYLOAD)
        feature_path = next((dataset / "features").glob("*.feat"))
        assert main(["score", "--checkpoint", str(ckpt), "--features", str(feature_path),
                     "--out", str(tmp_path / "s")]) == 0

    def test_format_flag_overrides_extension(self, dataset, tmp_path):
        ckpt = tmp_path / "zero.bin"
        zero_checkpoint(ckpt)
        f = load_features(next((dataset / "features").glob("*.feat")))
        write_features(f, tmp_path / "clip.feat", "csv")
        write_features(f, tmp_path / "clip.csv", "binary")
        score = lambda path, *fmt: main(["score", "--checkpoint", str(ckpt), "--features", str(path),
                                         "--segments", "8", "--out", str(tmp_path / "s"), *fmt])
        assert score(tmp_path / "clip.feat") == 3
        assert score(tmp_path / "clip.feat", "--format", "csv") == 0
        assert score(tmp_path / "clip.csv", "--format", "binary") == 0
        write_features(f, tmp_path / "plain.csv", "csv")
        assert score(tmp_path / "plain.csv") == 0

    def test_binary_file_read_as_csv_is_format_error(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "zero.bin"
        zero_checkpoint(ckpt)
        binary = tmp_path / "x.csv"
        binary.write_bytes(next((dataset / "features").glob("*.feat")).read_bytes())
        assert main(["score", "--checkpoint", str(ckpt), "--features", str(binary),
                     "--segments", "8", "--out", str(tmp_path / "s")]) == 3
        assert "not UTF-8 text" in capsys.readouterr().err

    def test_matches_library_scores(self, dataset, tmp_path):
        ckpt = tmp_path / "m.bin"
        model = init_model(8, seed=4, hidden1=16, hidden2=4)
        save_checkpoint(model, ckpt)
        feature_path = next((dataset / "features").glob("*.feat"))
        out = tmp_path / "scored"
        assert main(["score", "--checkpoint", str(ckpt), "--features", str(feature_path),
                     "--segments", "8", "--out", str(out)]) == 0
        f = load_features(feature_path)
        expected, _ = score_video(model, f, 8)
        lines = (out / f"{f.video_id}_segments.csv").read_text().splitlines()[1:]
        got = np.array([float(line.split(",")[1]) for line in lines])
        assert np.array_equal(got, expected)


class TestEval:
    def test_outputs_and_library_equivalence(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "m.bin"
        model = init_model(8, seed=6, hidden1=16, hidden2=4)
        save_checkpoint(model, ckpt)
        out = tmp_path / "eval"
        code = main(["eval", "--checkpoint", str(ckpt),
                     "--manifest", str(dataset / "manifest_test.txt"),
                     "--segments", "8", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        from milrank.features import load_manifest
        manifest = load_manifest(dataset / "manifest_test.txt", "test")
        ev = evaluate_manifest(manifest, lambda f: score_video(model, f, 8)[0], m=8)
        assert f"AUC {ev.curve.auc:.4f}" in printed
        roc_lines = (out / "roc.csv").read_text().splitlines()
        assert roc_lines[-1] == f"AUC,{ev.curve.auc!r}"
        assert (out / "timelines").is_dir()

    def test_single_class_pool_exit_code(self, dataset, tmp_path):
        # manifest with only normal videos -> metric undefined
        manifest = tmp_path / "normals.txt"
        lines = [line for line in (dataset / "manifest_test.txt").read_text().splitlines()
                 if " 0 " in f" {line} " or line.split()[1] == "0"]
        manifest.write_text("\n".join(
            f"{dataset}/{line.split()[0]} 0 {dataset}/annotations.txt" for line in lines) + "\n")
        ckpt = tmp_path / "m.bin"
        zero_checkpoint(ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest),
                     "--segments", "8", "--out", str(tmp_path / "e")]) == 6


    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_is_usage_error(self, dataset, tmp_path, capsys, threshold):
        ckpt = tmp_path / "zero.bin"
        zero_checkpoint(ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(dataset / "manifest_test.txt"),
                     "--segments", "8", "--threshold", threshold, "--out", str(tmp_path / "e")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: threshold must be finite, got {float(threshold)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["eval", "baseline-eval"])
    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_stops_before_reading(self, dataset, tmp_path, capsys, command,
                                                       threshold):
        # with no normal video the threshold is never used, yet it is still refused,
        # and before the model or the manifest is read
        manifest = dataset / "anomalous.txt"
        manifest.write_text("".join(line + "\n" for line in
                                    (dataset / "manifest_test.txt").read_text().splitlines()
                                    if line.split()[1] == "1"))
        model = tmp_path / "model.json"
        if command == "eval":
            zero_checkpoint(model)
        else:
            model.write_text(json.dumps({"w": [0.0] * 8, "b": 0.0, "c_reg": 1.0}))
        flag = "--checkpoint" if command == "eval" else "--model"
        out = tmp_path / "e"
        argv = [command, "--manifest", str(manifest), "--segments", "8", "--threshold", threshold,
                "--out", str(out)]
        assert main([*argv, flag, str(model)]) == 2
        assert main([*argv, flag, str(tmp_path / "missing.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err == 2 * f"error: threshold must be finite, got {float(threshold)}\n"
        assert captured.out == ""
        assert not out.exists()


class TestScoreEvalRerun:
    """``score`` and ``eval`` write byte-identical output trees on two runs over
    the same inputs, as ``train`` does (c10); their scores come from a float32
    layer-1 product."""

    @pytest.fixture
    def inputs(self, tmp_path):
        data = tmp_path / "data"
        assert main(synth_args(data, pos=2, neg=2, dim=256, clips=40, seed=8,
                               extra=["--test-pos", "3", "--test-neg", "3"])) == 0
        ckpt = tmp_path / "m.bin"
        save_checkpoint(init_model(256, seed=8), ckpt)
        return data, ckpt

    @pytest.mark.parametrize("command", ["score", "eval"])
    def test_rerun_digest_identical(self, inputs, tmp_path, command):
        data, ckpt = inputs
        if command == "score":
            source = ["--features", str(sorted((data / "features").glob("*.feat"))[0])]
        else:
            source = ["--manifest", str(data / "manifest_test.txt")]
        for out in ("r1", "r2"):
            assert main([command, "--checkpoint", str(ckpt), *source, "--out", str(tmp_path / out)]) == 0
        assert tree_digest(tmp_path / "r1") == tree_digest(tmp_path / "r2")


class TestBaselineCommands:
    def test_train_then_eval(self, dataset, tmp_path, capsys):
        model_path = tmp_path / "baseline.json"
        assert main(["baseline-train", "--manifest", str(dataset / "manifest.txt"),
                     "--out", str(model_path), "--epochs", "50"]) == 0
        assert json.loads(model_path.read_text())["c_reg"] == 1.0
        out = tmp_path / "beval"
        code = main(["baseline-eval", "--model", str(model_path),
                     "--manifest", str(dataset / "manifest_test.txt"),
                     "--segments", "8", "--out", str(out)])
        assert code == 0
        assert "AUC" in capsys.readouterr().out
        assert (out / "roc.csv").is_file()

    def test_train_makes_missing_parents(self, dataset, tmp_path, capsys):
        model_path = tmp_path / "nodir" / "b.json"
        assert main(["baseline-train", "--manifest", str(dataset / "manifest.txt"),
                     "--out", str(model_path), "--epochs", "5"]) == 0
        assert capsys.readouterr().out == f"saved baseline model to {model_path}\n"
        assert json.loads(model_path.read_text())["c_reg"] == 1.0

    @pytest.mark.parametrize("flag, value, rule", [
        ("--c-reg", "nan", "c_reg must be positive"),
        ("--c-reg", "inf", "c_reg must be positive"),
        ("--lr", "inf", "learning_rate must be positive"),
        ("--lr", "nan", "learning_rate must be positive"),
    ])
    def test_non_finite_setting_is_usage_error(self, dataset, tmp_path, capsys, flag, value, rule):
        model_path = tmp_path / "baseline.json"
        assert main(["baseline-train", "--manifest", str(dataset / "manifest.txt"),
                     "--out", str(model_path), "--epochs", "5", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {rule} and finite, got {value}\n"
        assert not model_path.exists()


def writes_then_fails(real):
    """``real``, made to raise OSError after it has written its file."""
    def writer(*args):
        real(*args)
        raise OSError("disk full")
    return writer


class TestOutputDir:
    """Every command that writes makes ``--out`` and its missing parents
    (``baseline-train``: its model file's directory), and removes what it made
    when it fails after its first output file."""

    # command: (flags that make it fail, or the writer of ``_commands`` made to fail, exit code)
    FAILURES = {
        "synth": (["--pos", "4", "--neg", "4", "--seed", "1", "--noise-sigma", "1e38"], None, 2),
        "train": (["--lr", "1e308", "--snapshot-every", "1"], None, 4),
        "score": ([], "write_timeline_csv", 3),
        "eval": ([], "write_timeline_csv", 3),
        "baseline-eval": ([], "write_timeline_csv", 3),
        "baseline-train": ([], "save_linear", 3),
    }

    @pytest.fixture
    def argv(self, dataset, tmp_path):
        """A succeeding call of each writing command whose output goes into directory ``out``."""
        ckpt, linear = tmp_path / "m.bin", tmp_path / "linear.json"
        save_checkpoint(init_model(8, seed=6, hidden1=16, hidden2=4), ckpt)
        linear.write_text(json.dumps({"w": [0.5] * 8, "b": 0.0, "c_reg": 1.0}))
        test = ["--manifest", str(dataset / "manifest_test.txt"), "--segments", "8"]
        return lambda command, out: {
            "synth": synth_args(out),
            "train": ["train", "--manifest", str(dataset / "manifest.txt"), "--out", str(out),
                      "--iters", "5", "--batch", "3", "--segments", "8", "--hidden1", "16",
                      "--hidden2", "4", "--snapshot-every", "2"],
            "score": ["score", "--checkpoint", str(ckpt), "--features",
                      str(dataset / "features" / "pos000.feat"), "--segments", "8", "--out", str(out)],
            "eval": ["eval", "--checkpoint", str(ckpt), *test, "--out", str(out)],
            "baseline-eval": ["baseline-eval", "--model", str(linear), *test, "--out", str(out)],
            "baseline-train": ["baseline-train", "--manifest", str(dataset / "manifest.txt"),
                               "--epochs", "5", "--out", str(out / "model.json")],
        }[command]

    @pytest.mark.parametrize("command", FAILURES)
    def test_failure_leaves_no_directory(self, argv, tmp_path, monkeypatch, capsys, command):
        flags, writer, code = self.FAILURES[command]
        if writer is not None:
            monkeypatch.setattr(_commands, writer, writes_then_fails(getattr(_commands, writer)))
        assert main([*argv(command, tmp_path / "a" / "b" / "out"), *flags]) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("command", FAILURES)
    def test_existing_out_keeps_its_files(self, argv, tmp_path, command):
        fresh, used = tmp_path / "fresh", tmp_path / "used"
        used.mkdir()
        (used / "notes.txt").write_text("kept\n")
        assert main(argv(command, fresh)) == 0
        assert main(argv(command, used)) == 0
        assert (used / "notes.txt").read_text() == "kept\n"
        (used / "notes.txt").unlink()
        assert tree_digest(used) == tree_digest(fresh)

    def test_failure_keeps_a_sibling_written_meanwhile(self, argv, tmp_path, monkeypatch):
        # another command writes beside --out, under a parent this train made
        sibling = tmp_path / "a" / "eval" / "roc.csv"

        def write_lines(*args):
            sibling.parent.mkdir()
            sibling.write_text("kept\n")
            raise OSError("disk full")

        monkeypatch.setattr(_commands, "write_lines", write_lines)
        assert main(argv("train", tmp_path / "a" / "b" / "out")) == 3
        assert [p.name for p in (tmp_path / "a").iterdir()] == ["eval"]
        assert sibling.read_text() == "kept\n"

    def test_interrupted_train_keeps_its_snapshots(self, argv, tmp_path, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(_commands, "write_lines", interrupt)  # Ctrl-C after the last snapshot
        with pytest.raises(KeyboardInterrupt):
            main(argv("train", tmp_path / "a" / "out"))
        assert sorted(p.name for p in (tmp_path / "a" / "out").iterdir()) == [
            "ckpt_2.bin", "ckpt_4.bin", "ckpt_5.bin"]

    def test_every_writing_command_is_covered(self):
        sub = next(action for action in _commands.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        writing = {name for name, p in sub.choices.items()
                   if any("--out" in action.option_strings for action in p._actions)}
        assert writing == set(self.FAILURES)


class TestBaselineCheckpoint:
    @pytest.mark.parametrize("field, value", [("w", ["a"]), ("b", "x"), ("c_reg", [1.0]),
                                              ("w", 1.0), ("w", [[0.0] * 8]), ("w", []),
                                              ("w", ["0.5"] * 8), ("b", "0.5"), ("c_reg", False),
                                              ("w", [True] + [0.5] * 7), ("w", [0.5] * 7 + [None])])
    def test_malformed_value_is_format_error(self, dataset, tmp_path, field, value):
        doc = {"w": [0.0] * 8, "b": 0.0, "c_reg": 1.0}
        doc[field] = value
        model_path = tmp_path / "baseline.json"
        model_path.write_text(json.dumps(doc))
        assert main(["baseline-eval", "--model", str(model_path),
                     "--manifest", str(dataset / "manifest_test.txt"),
                     "--segments", "8", "--out", str(tmp_path / "e")]) == 3


class TestTextReaders:
    """Every text reader turns bytes that are not UTF-8 into a FormatError, exit 3."""

    @pytest.mark.parametrize("reader", ["manifest", "annotation", "config", "checkpoint", "baseline"])
    def test_non_utf8_is_format_error(self, dataset, tmp_path, capsys, reader):
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"ok \xff\xfe\n")  # on the first line, a checkpoint's header
        ckpt = tmp_path / "zero.bin"
        zero_checkpoint(ckpt)
        manifest = dataset / "case.txt"
        manifest.write_text(f"features/pos003.feat 1 {binary}\n")
        out = ["--out", str(tmp_path / "out")]
        argv = {
            "manifest": ["ingest-check", "--manifest", str(binary)],
            "annotation": ["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest), *out],
            "config": ["train", "--manifest", str(dataset / "manifest.txt"), "--config", str(binary),
                       *out],
            "checkpoint": ["score", "--checkpoint", str(binary),
                           "--features", str(dataset / "features" / "pos003.feat"), *out],
            "baseline": ["baseline-eval", "--model", str(binary),
                         "--manifest", str(dataset / "manifest_test.txt"), *out],
        }[reader]
        assert main(argv) == 3
        assert f"{binary}: byte 3: not UTF-8 text" in capsys.readouterr().err


class TestThreadPeek:
    @pytest.mark.parametrize("module", ["milrank", "milrank.cli"])
    def test_import_leaves_numpy_unloaded(self, module):
        # ``main`` sets the BLAS thread variables, which numpy reads once as it
        # loads; so importing the package or ``cli`` must not load numpy first
        src = os.path.dirname(os.path.dirname(_commands.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); import {module}; "
                "print('numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60)
        assert proc.stdout == "False\n", proc.stdout + proc.stderr

    @pytest.fixture
    def train_config(self, dataset, tmp_path, monkeypatch):
        """Runs ``train`` with the given flags up to ``optim.train`` and returns
        its exit code and the TrainConfig it built."""
        built = []

        def stop(manifest, cfg, snapshot_hook=None):
            built.append(cfg)
            raise DataError("stopped before training")

        monkeypatch.setattr(_commands, "train", stop)

        def run(*flags):
            code = main(["train", "--manifest", str(dataset / "manifest.txt"),
                         "--out", str(tmp_path / "out"), *flags])
            return code, built.pop() if built else None
        return run

    def test_threads_flag_parsed(self, train_config):
        assert train_config("--threads", "4")[1].threads == 4
        assert train_config("--threads=2")[1].threads == 2
        assert train_config()[1].threads == DEFAULT_THREADS == len(os.sched_getaffinity(0))
        with pytest.raises(SystemExit) as exc:
            train_config("--threads", "junk")
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_threads_is_usage_error(self, train_config, tmp_path, capsys, value):
        assert train_config("--threads", value) == (2, None)
        assert capsys.readouterr().err == f"error: threads must be positive and finite, got {value}\n"
        assert not (tmp_path / "out").exists()

    @pytest.fixture
    def clean_thread_env(self, monkeypatch):
        from milrank.cli import THREAD_ENV_VARS
        for var in THREAD_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        return THREAD_ENV_VARS

    def test_threads_flag_sets_workers_not_blas(self, clean_thread_env, monkeypatch, train_config):
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        assert train_config("--threads", "3")[1].threads == 3
        assert {var: os.environ[var] for var in clean_thread_env} == \
            {var: "1" for var in clean_thread_env}

    def test_preset_env_pinned_to_one(self, clean_thread_env, monkeypatch, tmp_path):
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        main(["ingest-check", "--manifest", str(tmp_path / "none.txt")])
        assert {var: os.environ[var] for var in clean_thread_env} == \
            {var: "1" for var in clean_thread_env}

    @pytest.mark.parametrize("command, required", [
        ("synth", ["--out"]), ("ingest-check", ["--manifest"]),
        ("score", ["--checkpoint", "--features", "--out"]),
        ("eval", ["--checkpoint", "--manifest", "--out"]),
        ("baseline-train", ["--manifest", "--out"]),
        ("baseline-eval", ["--model", "--manifest", "--out"])])
    def test_threads_is_train_only(self, tmp_path, capsys, command, required):
        # BLAS runs one thread for every command; only train has worker threads to set
        paths = [token for flag in required for token in (flag, str(tmp_path / flag[2:]))]
        with pytest.raises(SystemExit) as exc:
            main([command, *paths, "--threads", "2"])
        assert exc.value.code == 2
        assert f"milrank {command}: error: unrecognized arguments: --threads 2\n" in capsys.readouterr().err


class TestTrainThreads:
    """``train --threads`` sets how many worker threads split the layer-1
    GEMMs; the ``--out`` tree is the same for every count."""

    ITERS = 3

    def test_out_tree_identical_for_every_thread_count(self, tmp_path, pool_submits):
        # dim 1280 and 10 + 10 bags of 32 segments per batch: the forward GEMM
        # (640 x 1280 by 1280 x 512) and dW1 (512 x 320+ by 320+ x 1280) are
        # each large enough for three blocks
        data = tmp_path / "data"
        assert main(synth_args(data, pos=10, neg=10, dim=1280, clips=32, seed=3)) == 0
        train = ["train", "--manifest", str(data / "manifest.txt"), "--iters", str(self.ITERS),
                 "--batch", "10", "--snapshot-every", "1"]
        digests = {}
        for threads in (1, 2, 3, None):
            pool_submits.clear()
            out = tmp_path / f"out_{threads}"
            flags = [] if threads is None else ["--threads", str(threads)]
            assert main([*train, "--out", str(out), *flags]) == 0
            digests[threads] = tree_digest(out)
            if threads is None:  # every CPU this process may use
                assert bool(pool_submits) == (DEFAULT_THREADS > 1)
            else:  # one block per worker for each of a step's two layer-1 GEMMs
                assert len(pool_submits) == (2 * self.ITERS * threads if threads > 1 else 0)
        assert len(set(digests.values())) == 1, digests

        # the installed command pins BLAS to one thread whatever the environment says
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-m", "milrank.cli", *train, "--out",
                               str(tmp_path / "out_cmd"), "--threads", "2"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert tree_digest(tmp_path / "out_cmd") == digests[1]
