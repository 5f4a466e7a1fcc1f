"""The one text writer: line endings, JSON, the number format of every CSV,
and the output directory every command writes into."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from milrank.validation import csv_lines, output_dir, read_json, read_text, write_json, write_lines


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


class TestOutputDir:
    def test_makes_parents_and_removes_them_on_failure(self, tmp_path):
        with pytest.raises(OSError):
            with output_dir(tmp_path / "a" / "b" / "out") as out:
                assert out.is_dir()
                write_lines(out / "part.txt", ["x"])
                raise OSError("disk full")
        assert list(tmp_path.iterdir()) == []

    def test_keeps_what_another_command_wrote_into_a_made_parent(self, tmp_path):
        # another command writes beside ``out`` while the block runs
        with pytest.raises(OSError):
            with output_dir(tmp_path / "a" / "b" / "out") as out:
                write_lines(out / "part.txt", ["x"])
                write_lines(tmp_path / "a" / "other.txt", ["kept"])
                raise OSError("disk full")
        assert [p.name for p in tmp_path.iterdir()] == ["a"]
        assert [p.name for p in (tmp_path / "a").iterdir()] == ["other.txt"]

    def test_interrupt_keeps_what_was_written(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            with output_dir(tmp_path / "a" / "out") as out:
                write_lines(out / "part.txt", ["x"])
                raise KeyboardInterrupt
        assert read_text(tmp_path / "a" / "out" / "part.txt") == "x\n"

    def test_existing_directory_is_kept(self, tmp_path):
        (tmp_path / "old.txt").write_text("kept")
        with pytest.raises(OSError):
            with output_dir(tmp_path):
                write_lines(tmp_path / "part.txt", ["x"])
                raise OSError("disk full")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt", "part.txt"]

    def test_file_in_the_way_is_os_error(self, tmp_path):
        (tmp_path / "f").write_text("")
        for out in (tmp_path / "f", tmp_path / "f" / "out"):
            with pytest.raises(OSError):
                with output_dir(out):
                    pass
        assert [p.name for p in tmp_path.iterdir()] == ["f"]
