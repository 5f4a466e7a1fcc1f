"""Clip-feature ingestion, normalization, and bag assembly.

Feature files hold one row per 16-frame clip.  Two on-disk formats are
supported:

* binary: little-endian, magic ``MILF``, u32 version (=1), u32 n_clips,
  u32 dim, u32 n_frames, then ``n_clips * dim`` IEEE-754 float32 values in
  row-major order.  Write/read round-trips are bit-exact.
* csv: header line ``n_clips,dim,n_frames``, then one clip per line with
  ``dim`` comma-separated decimal floats.

Arithmetic is done in float64 throughout; only file storage is 32-bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import DataError, FormatError

MAGIC = b"MILF"
BINARY_VERSION = 1
HEADER_SIZE = 20
FRAMES_PER_CLIP = 16
DEFAULT_SEGMENTS = 32


@dataclass(frozen=True)
class FeatureMatrix:
    """Per-video matrix of clip feature vectors plus the frame count."""

    video_id: str
    data: np.ndarray  # (n_clips, dim) float64
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
    segments: np.ndarray  # (m, dim)
    segment_frame_ranges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        m = self.segments.shape[0]
        if m < 2:
            raise ValueError("a bag needs at least 2 segments")
        if len(self.segment_frame_ranges) != m:
            raise ValueError("segment count and frame-range count differ")

    @property
    def n_segments(self) -> int:
        return self.segments.shape[0]

    @property
    def n_frames(self) -> int:
        return self.segment_frame_ranges[-1][1]


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
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "binary"
    if format == "binary":
        return _load_binary(path)
    if format == "csv":
        return _load_csv(path)
    raise ValueError(f"unknown feature format {format!r}")


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
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        offset = HEADER_SIZE + 4 * int(bad[0])
        raise FormatError(path, f"byte {offset}", "non-finite feature value")
    data = values.astype(np.float64).reshape(n_clips, dim)
    return FeatureMatrix(video_id=path.stem, data=data, n_frames=n_frames)


def _load_csv(path: Path) -> FeatureMatrix:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise FormatError(path, f"byte {e.start}", "not UTF-8 text") from None
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
        row32 = np.array(row, dtype=np.float32)
        if not np.isfinite(row32).all():
            raise FormatError(path, f"line {lineno}", "value overflows 32-bit storage")
        rows.append(row32)
    if len(rows) != n_clips:
        raise FormatError(path, f"line {len(lines)}", f"header declares {n_clips} clips, file has {len(rows)}")
    return FeatureMatrix(video_id=path.stem, data=np.array(rows).astype(np.float64), n_frames=n_frames)


def write_features(f: FeatureMatrix, path, format: str = "binary") -> None:
    """Write a feature file.  Values are stored as float32."""
    path = Path(path)
    if format == "binary":
        header = MAGIC + struct.pack("<4I", BINARY_VERSION, f.n_clips, f.dim, f.n_frames)
        path.write_bytes(header + f.data.astype("<f4").tobytes(order="C"))
    elif format == "csv":
        out = [f"{f.n_clips},{f.dim},{f.n_frames}"]
        for row in f.data.astype(np.float32):
            out.append(",".join(np.format_float_positional(v, unique=True, trim="0") for v in row))
        path.write_text("\n".join(out) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown feature format {format!r}")


def l2_normalize_rows(f: FeatureMatrix) -> FeatureMatrix:
    """Scale each clip row to unit Euclidean norm.  All-zero rows are kept."""
    norms = np.linalg.norm(f.data, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return FeatureMatrix(video_id=f.video_id, data=f.data / safe, n_frames=f.n_frames)


def segment_bounds(count: int, m: int) -> np.ndarray:
    """Boundary indices of the m-way proportional split of ``range(count)``.

    Group g covers [bounds[g], bounds[g+1]); boundaries are floor(g*count/m).
    """
    return (np.arange(m + 1, dtype=np.int64) * count) // m


def partition_segments(f: FeatureMatrix, m: int) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """Average clip rows into ``m`` contiguous temporal segments.

    When a video has fewer clips than segments, empty groups inherit the
    feature of the nearest preceding non-empty group (leading empties take
    the first non-empty group's feature), so every bag has exactly ``m``
    rows.  Frame ranges come from the same proportional split of the frame
    axis and always partition [0, n_frames).
    """
    if m < 2:
        raise ValueError(f"segment count must be at least 2, got {m}")
    clip_bounds = segment_bounds(f.n_clips, m)
    segments = np.empty((m, f.dim), dtype=np.float64)
    last_filled = -1
    pending_leading = []
    for g in range(m):
        lo, hi = int(clip_bounds[g]), int(clip_bounds[g + 1])
        if hi > lo:
            segments[g] = f.data[lo:hi].mean(axis=0)
            if last_filled < 0:
                for p in pending_leading:
                    segments[p] = segments[g]
            last_filled = g
        elif last_filled >= 0:
            segments[g] = segments[last_filled]
        else:
            pending_leading.append(g)
    frame_bounds = segment_bounds(f.n_frames, m)
    ranges = tuple((int(frame_bounds[g]), int(frame_bounds[g + 1])) for g in range(m))
    return segments, ranges


def make_bag(f: FeatureMatrix, label: int, m: int = DEFAULT_SEGMENTS) -> Bag:
    """Normalize, segment, and label a video's features."""
    segments, ranges = partition_segments(l2_normalize_rows(f), m)
    return Bag(video_id=f.video_id, label=label, segments=segments, segment_frame_ranges=ranges)


def load_manifest(path, split: str) -> DatasetManifest:
    """Parse a dataset manifest.

    One entry per line: ``<feature_path> <label:0|1> [<annotation_path>]``.
    Paths are resolved relative to the manifest's directory and every
    referenced file must exist.  ``#`` starts a comment.
    """
    path = Path(path)
    base = path.parent
    entries = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        tokens = text.split()
        if len(tokens) not in (2, 3):
            raise FormatError(path, f"line {lineno}", f"expected 2 or 3 fields, found {len(tokens)}")
        if tokens[1] not in ("0", "1"):
            raise FormatError(path, f"line {lineno}", f"label must be 0 or 1, got {tokens[1]!r}")
        feature_path = (base / tokens[0]).resolve()
        if not feature_path.is_file():
            raise FileNotFoundError(f"{path}: line {lineno}: feature file not found: {feature_path}")
        annotation_path = None
        if len(tokens) == 3:
            annotation_path = (base / tokens[2]).resolve()
            if not annotation_path.is_file():
                raise FileNotFoundError(f"{path}: line {lineno}: annotation file not found: {annotation_path}")
        entries.append(ManifestEntry(feature_path, int(tokens[1]), annotation_path))
    if not entries:
        raise DataError(f"{path}: manifest contains no entries")
    return DatasetManifest(entries=tuple(entries), split=split)


def load_bags(manifest: DatasetManifest, m: int = DEFAULT_SEGMENTS, dtype=np.float64) -> list[Bag]:
    """Featurize every manifest entry into a bag, in manifest order.

    ``dtype`` controls the in-memory cache (float32 halves the footprint
    for large datasets; arithmetic is still done in float64 downstream).
    """
    bags = []
    for entry in manifest.entries:
        bag = make_bag(load_features(entry.feature_path), entry.label, m)
        if dtype is not np.float64:
            bag = Bag(bag.video_id, bag.label, bag.segments.astype(dtype), bag.segment_frame_ranges)
        bags.append(bag)
    return bags
