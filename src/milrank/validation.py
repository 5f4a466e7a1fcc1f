"""Input validation helpers, and the one reader and writer of text files:
every parser starts from ``read_text``/``read_json``, and every text output
goes through ``write_lines``/``write_json``, its CSV rows through ``csv_lines``.
A checkpoint's header line is JSON too, written by ``write_json`` and read by
``read_json`` from the line's bytes; its float64 payload is not text."""

from __future__ import annotations

import json
import shutil
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from .exceptions import DimensionMismatchError, FormatError


def read_text(path, data: bytes | None = None) -> str:
    """A text file's contents, or ``data`` (bytes read from it, such as its
    first line) as text; bytes that are not UTF-8 raise FormatError."""
    path = Path(path)
    try:
        return (path.read_bytes() if data is None else data).decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(path, f"byte {e.start}", "not UTF-8 text") from None


def read_json(path, data: bytes | None = None):
    """A JSON document from a UTF-8 text file, or from ``data`` read from it;
    text that does not decode (bad syntax, nesting too deep, an integer too
    long) raises FormatError."""
    text = read_text(path, data)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise FormatError(path, "document", f"invalid JSON: {e}") from None


def write_lines(path, lines) -> None:
    """Write ``lines`` to a UTF-8 text file, each followed by ``"\\n"``."""
    Path(path).write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def write_json(path, doc) -> None:
    """Write ``doc`` as one line of JSON, which ``read_json`` reads back."""
    write_lines(path, [json.dumps(doc)])


@contextmanager
def output_dir(out):
    """Yield ``out``, made with missing parents; an Exception removes what this made (a parent only if empty)."""
    out = Path(out)
    made = [p for p in (out, *out.parents) if not p.exists()]  # out first, then its parents
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield out
    except Exception:  # an interrupt keeps what was written
        for path in made:  # a parent another command wrote into meanwhile is kept
            with suppress(OSError):
                shutil.rmtree(path) if path == out else path.rmdir()
        raise


def csv_lines(header: str, rows) -> list[str]:
    """``header``, then one line per row with each field written by ``str``
    (for a float or float64, its shortest repr, which parses back exactly)."""
    return [header, *(",".join(map(str, row)) for row in rows)]


def json_number(value, *, integer: bool = False):
    """``value`` if it is a JSON number (an integer when ``integer``), else
    TypeError: strings and booleans are not taken for numbers."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise TypeError(f"expected a JSON {'integer' if integer else 'number'}, got {value!r}")
    return value


def json_numbers(values) -> np.ndarray:
    """A JSON list of numbers as a float64 array.  Each entry is checked by
    ``json_number``, so a string, boolean, null, list or object anywhere in
    the list, or a value that is not a list, raises TypeError instead of
    being converted."""
    if not isinstance(values, list):
        raise TypeError(f"expected a JSON list of numbers, got {type(values).__name__}")
    for value in values:
        json_number(value)
    return np.array(values, dtype=np.float64)


def content_lines(path):
    """``(line number, text)`` of each line of a text file, stripped of its ``#``
    comment and surrounding whitespace; lines left empty are skipped."""
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            yield lineno, text


def check_settings(settings: dict, zero_ok=()) -> None:
    """Raise a ValueError naming the first of ``settings`` (name: value) that is NaN,
    infinite, negative, or zero unless its name is in ``zero_ok``."""
    for name, value in settings.items():
        if not ((value >= 0 if name in zero_ok else value > 0) and value < np.inf):
            raise ValueError(f"{name} must be {'non-negative' if name in zero_ok else 'positive'} "
                             f"and finite, got {value}")


def check_feature_array(X, *, dim: int | None = None, name: str = "X") -> np.ndarray:
    """Coerce ``X`` to a finite 2-D float64 array, optionally checking width."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError(f"{name} must have at least one row")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    if dim is not None and arr.shape[1] != dim:
        raise DimensionMismatchError(
            f"{name} has {arr.shape[1]} columns, expected {dim}"
        )
    return arr


def check_score_vector(scores, *, length: int | None = None, name: str = "scores") -> np.ndarray:
    """Coerce to a 1-D float64 vector of values in [0, 1]."""
    vec = np.asarray(scores, dtype=np.float64)
    if vec.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {vec.shape}")
    if length is not None and vec.shape[0] != length:
        raise ValueError(f"{name} must have length {length}, got {vec.shape[0]}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{name} contains non-finite values")
    if vec.size and (vec.min() < 0.0 or vec.max() > 1.0):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    return vec
