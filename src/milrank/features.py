"""Clip-feature ingestion, normalization, and bag assembly.

Feature files hold one row per 16-frame clip.  Two on-disk formats are
supported:

* binary: little-endian, magic ``MILF``, u32 version (=1), u32 n_clips,
  u32 dim, u32 n_frames, then ``n_clips * dim`` IEEE-754 float32 values in
  row-major order.  Write/read round-trips are bit-exact.
* csv: header line ``n_clips,dim,n_frames``, then one clip per line with
  ``dim`` comma-separated decimal floats.

A FeatureMatrix holds the stored float32 values (from a binary file, a
read-only view of its bytes); ``normalized_means`` widens them exactly to
float64 means, which ``make_bag`` returns.  ``load_bags`` rounds them once
to float32 for the trainer's layer-1 GEMMs, and ``network.forward`` does
the same for scoring and evaluation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import DataError, DimensionMismatchError, FormatError
from .validation import content_lines, read_text, write_lines

MAGIC = b"MILF"
BINARY_VERSION = 1
HEADER_SIZE = 20
FRAMES_PER_CLIP = 16
DEFAULT_SEGMENTS = 32


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-video matrix of clip feature vectors plus the frame count."""

    video_id: str
    data: np.ndarray  # (n_clips, dim): the stored float32, read-only when loaded from a binary file
    n_frames: int

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ValueError(f"feature data must be a non-empty 2-D matrix, got shape {self.data.shape}")
        if self.n_frames < 1:
            raise ValueError("n_frames must be positive")

    @property
    def n_clips(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class Bag:
    """A video as a fixed count of temporal segment instances with one label."""

    video_id: str
    label: int
    segments: np.ndarray  # (m, dim), float32 in training bags

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")

    @property
    def n_segments(self) -> int:
        return self.segments.shape[0]


@dataclass(frozen=True)
class ManifestEntry:
    feature_path: Path
    label: int
    annotation_path: Path | None = None


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]
    split: str  # "train" or "test"

    def __post_init__(self):
        if self.split not in ("train", "test"):
            raise ValueError(f"split must be 'train' or 'test', got {self.split!r}")


def load_features(path, format: str | None = None) -> FeatureMatrix:
    """Read a feature file.  No normalization is applied.

    ``format`` defaults to csv for a ``.csv`` extension and binary for any
    other.  Raises FormatError naming the byte offset (binary) or line
    number (csv) of the first problem found.
    """
    path = Path(path)
    return _load_binary(path) if _feature_format(path, format) == "binary" else _load_csv(path)


def _feature_format(path: Path, format: str | None) -> str:
    """The format a feature file at ``path`` is read and written in."""
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "binary"
    if format not in ("binary", "csv"):
        raise ValueError(f"unknown feature format {format!r}")
    return format


def _load_binary(path: Path) -> FeatureMatrix:
    raw = path.read_bytes()
    if len(raw) < HEADER_SIZE:
        raise FormatError(path, "byte 0", f"truncated header ({len(raw)} bytes, need {HEADER_SIZE})")
    if raw[:4] != MAGIC:
        raise FormatError(path, "byte 0", f"bad magic {raw[:4]!r}, expected {MAGIC!r}")
    version, n_clips, dim, n_frames = struct.unpack_from("<4I", raw, 4)
    if version != BINARY_VERSION:
        raise FormatError(path, "byte 4", f"unsupported version {version}")
    if n_clips < 1:
        raise FormatError(path, "byte 8", "n_clips must be positive")
    if dim < 1:
        raise FormatError(path, "byte 12", "dim must be positive")
    if n_frames < 1:
        raise FormatError(path, "byte 16", "n_frames must be positive")
    expected = HEADER_SIZE + 4 * n_clips * dim
    if len(raw) != expected:
        raise FormatError(
            path, f"byte {HEADER_SIZE}",
            f"payload size mismatch: header declares {n_clips}x{dim} ({expected} bytes total), file has {len(raw)}",
        )
    values = np.frombuffer(raw, dtype="<f4", offset=HEADER_SIZE)
    finite = np.isfinite(values)
    if not finite.all():
        offset = HEADER_SIZE + 4 * int(finite.argmin())
        raise FormatError(path, f"byte {offset}", "non-finite feature value")
    return FeatureMatrix(video_id=path.stem, data=values.reshape(n_clips, dim), n_frames=n_frames)


def _load_csv(path: Path) -> FeatureMatrix:
    lines = read_text(path).splitlines()
    if not lines:
        raise FormatError(path, "line 1", "empty file")
    header = lines[0].split(",")
    if len(header) != 3:
        raise FormatError(path, "line 1", "header must be 'n_clips,dim,n_frames'")
    try:
        n_clips, dim, n_frames = (int(tok) for tok in header)
    except ValueError:
        raise FormatError(path, "line 1", f"non-integer header field in {lines[0]!r}") from None
    if n_clips < 1 or dim < 1 or n_frames < 1:
        raise FormatError(path, "line 1", "header counts must be positive")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tokens = line.split(",")
        if len(tokens) != dim:
            raise FormatError(path, f"line {lineno}", f"expected {dim} values, found {len(tokens)}")
        try:
            row = [float(tok) for tok in tokens]
        except ValueError:
            raise FormatError(path, f"line {lineno}", "unparseable float") from None
        if not all(np.isfinite(row)):
            raise FormatError(path, f"line {lineno}", "non-finite feature value")
        # storage is 32-bit for both formats; overflow past float32 is an error
        with np.errstate(over="ignore"):
            row32 = np.array(row, dtype=np.float32)
        if not np.isfinite(row32).all():
            raise FormatError(path, f"line {lineno}", "value overflows 32-bit storage")
        rows.append(row32)
    if len(rows) != n_clips:
        raise FormatError(path, f"line {len(lines)}", f"header declares {n_clips} clips, file has {len(rows)}")
    return FeatureMatrix(video_id=path.stem, data=np.array(rows), n_frames=n_frames)


def write_features(f: FeatureMatrix, path, format: str | None = None) -> None:
    """Write a feature file, by default in the format ``load_features`` reads it in.
    Values are stored as float32; a value that is not finite there raises
    ValueError and no file or directory is written.  Missing parent
    directories are made."""
    path = Path(path)
    format = _feature_format(path, format)
    with np.errstate(over="ignore"):
        values = f.data.astype("<f4")
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}: clip {bad.argmax()}: value not finite in 32-bit storage")
    path.parent.mkdir(parents=True, exist_ok=True)
    if format == "binary":
        header = MAGIC + struct.pack("<4I", BINARY_VERSION, f.n_clips, f.dim, f.n_frames)
        path.write_bytes(header + values.tobytes(order="C"))
    else:
        write_lines(path, [f"{f.n_clips},{f.dim},{f.n_frames}",
                           *(",".join(np.format_float_positional(v, unique=True, trim="0") for v in row)
                             for row in values)])


def segment_bounds(count: int, m: int) -> np.ndarray:
    """Boundary indices of the m-way proportional split of ``range(count)``.

    Group g covers [bounds[g], bounds[g+1]); boundaries are floor(g*count/m).
    """
    return (np.arange(m + 1, dtype=np.int64) * count) // m


def spread_over_frames(segment_values: np.ndarray, n_frames: int) -> np.ndarray:
    """Repeat each of m segment values over its group of the m-way split of the frames."""
    return np.repeat(segment_values, np.diff(segment_bounds(n_frames, len(segment_values))))


def normalized_means(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """(groups, dim) float64 means of the L2-normalized rows ``data[starts[g]:ends[g]]``;
    all-zero rows stay zero.  Bit-equal to widening every row to float64,
    normalizing with ``np.linalg.norm`` and taking each group's ``mean``, but
    with no full-size float64 copy: the row norms, then each group's
    normalized rows, are summed in one small scratch."""
    n, dim = data.shape
    counts = ends - starts
    block = max(1, (1 << 16) // dim)  # rows per block of norms, 512 KB of float64
    scratch = np.empty(max(min(n, block), int(counts.max())) * dim)
    norms = np.empty(n)
    for lo in range(0, n, block):
        wide = scratch[:min(block, n - lo) * dim].reshape(-1, dim)
        np.copyto(wide, data[lo:lo + block])
        np.add.reduce(np.multiply(wide, wide, out=wide), axis=1, out=norms[lo:lo + len(wide)])
    np.sqrt(norms, out=norms)
    norms[norms == 0.0] = 1.0
    if counts.max() == 1:  # no group averages: a one-row mean is the row itself
        return data[starts] / norms[starts, None]
    means = np.empty((len(starts), dim))
    for g, (lo, hi) in enumerate(zip(starts.tolist(), ends.tolist())):
        wide = scratch[:(hi - lo) * dim].reshape(-1, dim)
        np.add.reduce(np.divide(data[lo:hi], norms[lo:hi, None], out=wide), axis=0, out=means[g])
    return np.divide(means, counts[:, None], out=means)


def check_segment_count(m: int) -> None:
    """Raise a ValueError unless ``m`` is a bag's segment count: at least 2."""
    if m < 2:
        raise ValueError(f"segment count must be at least 2, got {m}")


def make_bag(f: FeatureMatrix, label: int, m: int = DEFAULT_SEGMENTS) -> Bag:
    """Normalize, segment, and label a video's features: segment g averages
    group g of ``segment_bounds(n_clips, m)``.  With fewer clips than
    segments, every group holds at most one clip, and an empty group [s, s)
    takes clip s-1 (leading empties clip 0), so a bag always has ``m`` rows.
    """
    check_segment_count(m)
    bounds = segment_bounds(f.n_clips, m)
    starts = np.minimum(bounds[:-1], np.maximum(bounds[1:] - 1, 0))
    return Bag(f.video_id, label, normalized_means(f.data, starts, np.maximum(bounds[1:], 1)))


def load_manifest(path, split: str) -> DatasetManifest:
    """Parse a dataset manifest.

    One entry per line: ``<feature_path> <label:0|1> [<annotation_path>]``.
    Paths are resolved relative to the manifest's directory and every
    referenced file must exist.  ``#`` starts a comment.  A test manifest
    lists each video id (feature file stem) at most once.
    """
    path = Path(path)
    entries = []
    first_line: dict[str, int] = {}
    for lineno, text in content_lines(path):
        tokens = text.split()
        if len(tokens) not in (2, 3):
            raise FormatError(path, f"line {lineno}", f"expected 2 or 3 fields, found {len(tokens)}")
        if tokens[1] not in ("0", "1"):
            raise FormatError(path, f"line {lineno}", f"label must be 0 or 1, got {tokens[1]!r}")
        feature_path = _listed_file(path, lineno, "feature", tokens[0])
        annotation_path = _listed_file(path, lineno, "annotation", tokens[2]) if len(tokens) == 3 else None
        if split == "test":
            first = first_line.setdefault(feature_path.stem, lineno)
            if first != lineno:
                raise DataError(f"{path}: line {lineno}: video {feature_path.stem!r} "
                                f"already listed on line {first}")
        entries.append(ManifestEntry(feature_path, int(tokens[1]), annotation_path))
    if not entries:
        raise DataError(f"{path}: manifest contains no entries")
    return DatasetManifest(entries=tuple(entries), split=split)


def _listed_file(manifest_path: Path, lineno: int, kind: str, name: str) -> Path:
    """The resolved path of a file a manifest line names, relative to the manifest."""
    listed = manifest_path.parent / name
    try:
        listed = listed.resolve()
        if listed.is_file():
            return listed
    except (OSError, RuntimeError, ValueError):  # too long, a symlink loop, a NUL byte
        pass
    raise FileNotFoundError(f"{manifest_path}: line {lineno}: {kind} file not found: {listed}")


def load_videos(manifest: DatasetManifest):
    """Each manifest entry and its features, in manifest order.  Every video of
    a dataset has the first video's dim; one that differs raises DimensionMismatchError."""
    dim = None
    for entry in manifest.entries:
        f = load_features(entry.feature_path)
        dim = dim or f.dim
        if f.dim != dim:
            raise DimensionMismatchError(f"{entry.feature_path}: dim {f.dim} differs from first video's {dim}")
        yield entry, f
        del f  # so a caller that drops its own reference holds one video's clips at a time


def load_bags(manifest: DatasetManifest, m: int = DEFAULT_SEGMENTS) -> list[Bag]:
    """Featurize every manifest entry into a training bag, in manifest order.

    Each bag is ``make_bag``'s with its float64 segment means rounded once to
    float32: half the footprint, and the inputs of the trainer's float32
    layer-1 GEMMs.
    """
    bags = []
    for entry, f in load_videos(manifest):
        bag = make_bag(f, entry.label, m)
        del f  # before the next video is read: a longer-lived matrix raised the peak RSS
        bags.append(Bag(bag.video_id, bag.label, bag.segments.astype(np.float32)))
    return bags
