import dataclasses
import hashlib
import inspect
import json
import os
import re

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
from milrank.optim import TrainConfig
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
        ckpt = tmp_path / "zero.json"
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

    def test_train_split_ignores_annotations(self, dataset, tmp_path):
        (dataset / "ann_case.txt").write_text("garbage\n")
        (dataset / "case.txt").write_text("features/pos003.feat 1 ann_case.txt\n")
        assert main(["ingest-check", "--manifest", str(dataset / "case.txt")]) == 0


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
        expected_flags = {*self.TRAIN_FLAG_FIELDS, "--probe", "--cache32", "--manifest", "--out",
                          "--config", "--threads"}
        assert set(helps) - {"--help"} == expected_flags

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
        model = load_checkpoint(tmp_path / "by_config" / "ckpt_3.json")
        assert model.w1.shape == (4, 8) and model.w2.shape == (2, 4)


class TestTrain:
    def test_artifacts_and_log_rows(self, dataset, tmp_path, capsys):
        run = tmp_path / "run"
        code = main(["train", "--manifest", str(dataset / "manifest.txt"),
                     "--out", str(run), "--iters", "12", "--seed", "1",
                     "--batch", "3", "--segments", "8", "--hidden1", "16",
                     "--hidden2", "4"])
        assert code == 0
        assert "final loss" in capsys.readouterr().out
        assert (run / "ckpt_12.json").is_file()
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
        assert (run / "ckpt_3.json").is_file()
        assert (run / "ckpt_6.json").is_file()
        probe = (run / "probe_scores.csv").read_text().splitlines()
        assert probe[0] == "iteration,segment_index,score"
        assert len(probe) == 1 + 2 * 8

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_diverging_run_is_non_finite_loss(self, dataset, tmp_path, capsys):
        code = main(["train", "--manifest", str(dataset / "manifest.txt"),
                     "--out", str(tmp_path / "run"), "--iters", "5", "--lr", "1e308",
                     "--batch", "3", "--segments", "8", "--hidden1", "16", "--hidden2", "4"])
        assert code == 4
        assert capsys.readouterr().err == "error: non-finite scores at iteration 2\n"

    def test_config_file_defaults_and_flag_override(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iters=4\nbatch=3\nsegments=8\nhidden1=16\nhidden2=4\nseed=3\n")
        run = tmp_path / "run"
        code = main(["train", "--manifest", str(dataset / "manifest.txt"),
                     "--out", str(run), "--config", str(cfg), "--iters", "5"])
        assert code == 0
        assert (run / "ckpt_5.json").is_file()  # flag beat the config file
        log_lines = (run / "training_log.csv").read_text().splitlines()
        assert len(log_lines) == 6


class TestScore:
    def test_zero_checkpoint_scores_half(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "zero.json"
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
        ckpt = tmp_path / "wrong.json"
        zero_checkpoint(ckpt, dim=5)
        feature_path = next((dataset / "features").glob("*.feat"))
        assert main(["score", "--checkpoint", str(ckpt), "--features", str(feature_path),
                     "--out", str(tmp_path / "s")]) == 5

    def test_missing_checkpoint_is_io_error(self, dataset, tmp_path):
        feature_path = next((dataset / "features").glob("*.feat"))
        assert main(["score", "--checkpoint", str(tmp_path / "nope.json"),
                     "--features", str(feature_path), "--out", str(tmp_path / "s")]) == 3

    @pytest.mark.parametrize("doc", [
        [1, 2, 3],
        {"version": 1, "dim": 8, "widths": [4, 2], "dropout_rate": 0.6, "params": [1.0]},
        {"version": 1, "dim": 8, "widths": [4, 2], "dropout_rate": 0.6,
         "params": {"w1": 5, "b1": [], "w2": [], "b2": [], "w3": [], "b3": []}},
        {"version": 1, "dim": 1, "widths": [1, 1], "dropout_rate": 1.5,
         "params": {"w1": [0.0], "b1": [0.0], "w2": [0.0], "b2": [0.0], "w3": [0.0], "b3": [0.0]}},
    ])
    def test_malformed_checkpoint_is_format_error(self, dataset, tmp_path, capsys, doc):
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(json.dumps(doc))
        feature_path = next((dataset / "features").glob("*.feat"))
        assert main(["score", "--checkpoint", str(ckpt), "--features", str(feature_path),
                     "--out", str(tmp_path / "s")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_format_flag_overrides_extension(self, dataset, tmp_path):
        ckpt = tmp_path / "zero.json"
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
        ckpt = tmp_path / "zero.json"
        zero_checkpoint(ckpt)
        binary = tmp_path / "x.csv"
        binary.write_bytes(next((dataset / "features").glob("*.feat")).read_bytes())
        assert main(["score", "--checkpoint", str(ckpt), "--features", str(binary),
                     "--segments", "8", "--out", str(tmp_path / "s")]) == 3
        assert "not UTF-8 text" in capsys.readouterr().err

    def test_matches_library_scores(self, dataset, tmp_path):
        ckpt = tmp_path / "m.json"
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
        ckpt = tmp_path / "m.json"
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
        ckpt = tmp_path / "m.json"
        zero_checkpoint(ckpt)
        assert main(["eval", "--checkpoint", str(ckpt), "--manifest", str(manifest),
                     "--segments", "8", "--out", str(tmp_path / "e")]) == 6


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


class TestBaselineCheckpoint:
    @pytest.mark.parametrize("field, value", [("w", ["a"]), ("b", "x"), ("c_reg", [1.0])])
    def test_malformed_value_is_format_error(self, dataset, tmp_path, field, value):
        doc = {"w": [0.0] * 8, "b": 0.0, "c_reg": 1.0}
        doc[field] = value
        model_path = tmp_path / "baseline.json"
        model_path.write_text(json.dumps(doc))
        assert main(["baseline-eval", "--model", str(model_path),
                     "--manifest", str(dataset / "manifest_test.txt"),
                     "--segments", "8", "--out", str(tmp_path / "e")]) == 3


class TestThreadPeek:
    def test_threads_flag_parsed(self):
        from milrank.cli import _peek_threads
        assert _peek_threads(["train", "--threads", "4"]) == 4
        assert _peek_threads(["train", "--threads=2"]) == 2
        assert _peek_threads(["train"]) == 1
        assert _peek_threads(["--threads", "junk"]) == 1

    @pytest.fixture
    def clean_thread_env(self, monkeypatch):
        from milrank.cli import THREAD_ENV_VARS
        for var in THREAD_ENV_VARS:
            monkeypatch.delenv(var, raising=False)
        return THREAD_ENV_VARS

    def test_explicit_flag_overrides_preset_env(self, clean_thread_env, monkeypatch, tmp_path):
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        main(["ingest-check", "--manifest", str(tmp_path / "none.txt"), "--threads", "3"])
        assert {var: os.environ[var] for var in clean_thread_env} == \
            {var: "3" for var in clean_thread_env}

    def test_preset_env_kept_without_flag(self, clean_thread_env, monkeypatch, tmp_path):
        monkeypatch.setenv("OMP_NUM_THREADS", "7")
        main(["ingest-check", "--manifest", str(tmp_path / "none.txt")])
        assert os.environ["OMP_NUM_THREADS"] == "7"
        assert all(os.environ[var] == "1" for var in clean_thread_env[1:])
