"""The one text writer: line endings, JSON, and the number format of every CSV."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from milrank.validation import csv_lines, read_json, read_text, write_json, write_lines


class TestCsvLines:
    def test_number_format_is_the_old_repr(self):
        # every CSV the commands write used f"{x!r}" for floats and
        # f"{float(s)!r}" for float64 scores; str must give the same bytes
        floats = [0.1, 1.0 / 3.0, float("inf"), -float("inf"), -0.0, 1e16, 5e-324, 123456789.0]
        rows = [(i, x, np.float64(x)) for i, x in enumerate(floats)]
        expected = ["h"] + [f"{i},{x!r},{float(s)!r}" for i, x, s in rows]
        auc = 0.8541666666666666
        assert csv_lines("h", rows + [("AUC", auc)]) == expected + [f"AUC,{auc!r}"]

    @given(st.floats(allow_nan=False))
    def test_float64_field_is_its_float_repr(self, x):
        assert csv_lines("h", [(np.float64(x), x)]) == ["h", f"{x!r},{x!r}"]

    def test_header_only(self):
        assert csv_lines("a,b", []) == ["a,b"]


class TestWriters:
    def test_write_lines_ends_every_line(self, tmp_path):
        path = tmp_path / "t.txt"
        write_lines(path, iter(["a", "é", ""]))
        assert path.read_bytes() == "a\né\n\n".encode("utf-8")
        write_lines(path, [])
        assert read_text(path) == ""

    def test_write_json_is_one_line_read_json_reads_back(self, tmp_path):
        path = tmp_path / "d.json"
        doc = {"version": 1, "w": [0.1, -0.0, 1e16, 5e-324], "name": "x"}
        write_json(path, doc)
        assert read_text(path).count("\n") == 1
        assert read_json(path) == doc
