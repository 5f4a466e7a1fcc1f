"""Hostile-input fuzzing of every file parser.

A malformed feature file, manifest, annotation file or checkpoint may only
raise FormatError, DataError or FileNotFoundError, which the CLI maps to
exit codes 3, 2 and 3; any other exception would end in a traceback or in
the wrong code.  Inputs are random bytes, random text over each format's
own tokens, and valid files with corrupted bytes or fields.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from milrank.baseline import LinearModel, load_linear, save_linear
from milrank.exceptions import DataError, FormatError
from milrank.features import FeatureMatrix, load_features, load_manifest, write_features
from milrank.metrics import load_annotations
from milrank.network import init_model, load_checkpoint, save_checkpoint

ALLOWED = (FormatError, DataError, FileNotFoundError)
FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def parses_or_rejects(parser, path, data):
    path.write_bytes(data)
    try:
        parser(path)
    except ALLOWED:
        pass


def corrupted(valid: bytes, values=st.integers(0, 255)):
    """``valid`` with some bytes overwritten, then cut or extended, by bytes from ``values``."""
    edits = st.lists(st.tuples(st.integers(0, len(valid) - 1), values), max_size=6)
    return st.builds(lambda changes, end, tail: _apply(valid, changes)[:end] + bytes(tail),
                     edits, st.integers(0, len(valid) + 4), st.lists(values, max_size=12))


def _apply(data, changes):
    out = bytearray(data)
    for index, value in changes:
        out[index] = value
    return bytes(out)


def token_text(tokens, separators=(" ", "\n", ",", "#", "\t", "\x00")):
    """Text built from a format's own tokens and separators, UTF-8 encoded."""
    pieces = st.sampled_from(tokens + list(separators)) | st.text(max_size=6)
    return st.lists(pieces, max_size=30).map(lambda parts: "".join(parts).encode("utf-8"))


NUMBERS = ["0", "1", "-1", "2", "16", "1e308", "1e39", "nan", "inf", "-0", "3.5", "9" * 5000]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    f = FeatureMatrix("a", np.arange(6, dtype=np.float64).reshape(3, 2), 48)
    write_features(f, root / "a.feat", "binary")
    write_features(f, root / "a.csv", "csv")
    (root / "ann.txt").write_text("a 48 0 16\n")
    save_checkpoint(init_model(2, seed=0, hidden1=2, hidden2=1), root / "mlp.bin")
    save_linear(LinearModel(w=np.array([0.5, -0.5]), b=0.1, c_reg=1.0), root / "linear.json")
    return root


class TestFeatureFiles:
    @FUZZ
    @given(data=st.binary(max_size=80))
    def test_binary_random(self, workdir, data):
        parses_or_rejects(load_features, workdir / "x.feat", data)

    @FUZZ
    @given(data=st.data())
    def test_binary_corrupted(self, workdir, data):
        valid = (workdir / "a.feat").read_bytes()
        parses_or_rejects(load_features, workdir / "x.feat", data.draw(corrupted(valid)))

    @FUZZ
    @given(data=st.binary(max_size=80) | token_text(NUMBERS + ["3,2,48", "1,1,1"]))
    def test_csv_random(self, workdir, data):
        parses_or_rejects(load_features, workdir / "x.csv", data)

    @FUZZ
    @given(data=st.data())
    def test_csv_corrupted(self, workdir, data):
        valid = (workdir / "a.csv").read_bytes()
        parses_or_rejects(load_features, workdir / "x.csv", data.draw(corrupted(valid)))


class TestManifest:
    @FUZZ
    @given(data=st.binary(max_size=80)
           | token_text(["a.feat", "ann.txt", "a.csv", "missing.feat", ".", "..", "/", "a" * 300,
                         "0", "1", "2", "01"]))
    @example(data=b"a\x00b.feat 0\n")
    @example(data=("a" * 5000 + ".feat 0\n").encode())
    def test_random(self, workdir, data):
        parses_or_rejects(lambda path: load_manifest(path, "test"), workdir / "m.txt", data)


class TestAnnotations:
    @FUZZ
    @given(data=st.binary(max_size=80) | token_text(["a", "b"] + NUMBERS))
    def test_random(self, workdir, data):
        parses_or_rejects(load_annotations, workdir / "x_ann.txt", data)

    @FUZZ
    @given(data=st.data())
    def test_corrupted(self, workdir, data):
        valid = (workdir / "ann.txt").read_bytes()
        parses_or_rejects(load_annotations, workdir / "x_ann.txt", data.draw(corrupted(valid)))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([10**400, -1, 0, 1e999, -1e999]),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children,
                                                                       max_size=4),
    max_leaves=10)


def with_field(doc, keys, value):
    """``doc`` with the field at the ``keys`` path set to ``value``, as JSON bytes."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    return json.dumps(doc).encode()


def json_documents(valid: bytes, field_paths):
    doc = json.loads(valid)
    mutated = st.builds(lambda keys, value: with_field(doc, keys, value),
                        st.sampled_from(field_paths), JSON_VALUES)
    whole = JSON_VALUES.map(lambda value: json.dumps(value).encode())
    return (mutated | whole | st.binary(max_size=60) | corrupted(valid)
            | st.sampled_from([b"[" * 100_000, b"1" * 5000, b"\xff{}"]))


MLP_FIELDS = [("version",), ("dim",), ("widths",), ("widths", 0), ("dropout_rate",)]


def mlp_parts(workdir):
    """The valid checkpoint's header line, without its newline, and its payload."""
    return (workdir / "mlp.bin").read_bytes().split(b"\n", 1)


class TestCheckpoints:
    @FUZZ
    @given(data=st.data())
    def test_mlp(self, workdir, data):
        header, payload = mlp_parts(workdir)
        line = data.draw(json_documents(header, MLP_FIELDS))
        parses_or_rejects(load_checkpoint, workdir / "x_mlp.bin", line + b"\n" + payload)

    @FUZZ
    @given(data=st.data())
    def test_mlp_corrupted_payload(self, workdir, data):
        header, payload = mlp_parts(workdir)
        corrupt = data.draw(corrupted(payload))
        (workdir / "x_mlp.bin").write_bytes(header + b"\n" + corrupt)
        try:
            model = load_checkpoint(workdir / "x_mlp.bin")
        except FormatError:
            return
        # only the exact byte count, every value finite, loads, and bit for bit
        assert b"".join(arr.astype("<f8").tobytes() for arr in model.params().values()) == corrupt

    def test_mlp_negative_widths(self, workdir):
        header, payload = mlp_parts(workdir)
        doc = json.loads(header)
        doc.update(dim=-1, widths=[-1, -1])
        (workdir / "x_mlp.bin").write_bytes(json.dumps(doc).encode() + b"\n" + payload)
        with pytest.raises(FormatError) as exc:
            load_checkpoint(workdir / "x_mlp.bin")
        assert str(exc.value) == (f"{workdir / 'x_mlp.bin'}: header: missing or malformed field: "
                                  "dim must be positive and finite, got -1")

    @FUZZ
    @given(data=st.data())
    def test_linear(self, workdir, data):
        valid = (workdir / "linear.json").read_bytes()
        parses_or_rejects(load_linear, workdir / "x_linear.json",
                          data.draw(json_documents(valid, [("w",), ("w", 0), ("b",), ("c_reg",)])))
