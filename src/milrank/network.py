"""Three-layer fully-connected scoring network.

Maps a segment feature vector to an anomaly score in (0, 1):

    h1 = dropout(relu(W1 x + b1))
    h2 = dropout(W2 h1 + b2)
    score = sigmoid(W3 h2 + b3)

Dropout uses the inverted convention (kept units scaled by 1/keep_prob)
and is active only in train mode, so eval needs no rescaling.  Gradients
are computed by hand-written reverse mode over the cached forward trace.
Dropout masks are thresholded 32-bit words of a Philox counter-based
generator (see rng.py), so a given ``rng_seed`` yields the same masks on
every platform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .exceptions import DimensionMismatchError, FormatError
from .rng import STREAM_DROPOUT, STREAM_INIT, derive_rng

PARAM_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class MlpModel:
    """Weights and biases of the scoring network plus its dropout rate."""

    w1: np.ndarray  # (hidden1, dim)
    b1: np.ndarray  # (hidden1,)
    w2: np.ndarray  # (hidden2, hidden1)
    b2: np.ndarray  # (hidden2,)
    w3: np.ndarray  # (1, hidden2)
    b3: np.ndarray  # (1,)
    dropout_rate: float = 0.6

    def __post_init__(self):
        h1, d = self.w1.shape
        h2 = self.w2.shape[0]
        if self.w2.shape != (h2, h1) or self.w3.shape != (1, h2):
            raise ValueError("layer shapes do not chain")
        if self.b1.shape != (h1,) or self.b2.shape != (h2,) or self.b3.shape != (1,):
            raise ValueError("bias shapes do not match weights")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        for name in PARAM_FIELDS:
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"parameter {name} contains non-finite values")

    @property
    def dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden1(self) -> int:
        return self.w1.shape[0]

    @property
    def hidden2(self) -> int:
        return self.w2.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_FIELDS}


@dataclass
class ForwardTrace:
    """Cached activations and dropout masks from one forward pass.

    ``gate1`` is the layer-1 relu derivative times the scaled dropout mask,
    and ``gate2`` the scaled layer-2 mask, so backward applies each site in
    one multiply; both are None where that site's mask is.
    """

    inputs: np.ndarray
    z1: np.ndarray
    h1: np.ndarray  # post-relu, post-dropout
    h2: np.ndarray  # post-dropout
    logits: np.ndarray
    scores: np.ndarray
    mask1: np.ndarray | None
    mask2: np.ndarray | None
    keep_prob: float
    gate1: np.ndarray | None = None
    gate2: np.ndarray | None = None

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[0]


def init_model(dim: int, seed: int, hidden1: int = 512, hidden2: int = 32,
               dropout_rate: float = 0.6) -> MlpModel:
    """Fan-balanced uniform initialization, biases zero, fixed by ``seed``.

    Each weight matrix is drawn uniformly from
    [-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))], which keeps
    initial scores near 0.5 so the ranking hinge is active from step 0.
    """
    if dim < 1 or hidden1 < 1 or hidden2 < 1:
        raise ValueError("layer widths must be positive")
    rng = derive_rng(seed, STREAM_INIT)

    def draw(fan_out, fan_in):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_out, fan_in))

    return MlpModel(
        w1=draw(hidden1, dim),
        b1=np.zeros(hidden1),
        w2=draw(hidden2, hidden1),
        b2=np.zeros(hidden2),
        w3=draw(1, hidden2),
        b3=np.zeros(1),
        dropout_rate=dropout_rate,
    )


def zero_grads(model: MlpModel) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in model.params().items()}


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def dropout_masks(model: MlpModel, n_rows: int, rng_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw the keep masks both dropout sites would use for ``n_rows`` inputs.

    One Philox stream keyed by ``rng_seed`` yields 32-bit words, read
    little-endian from its 64-bit outputs; a unit is kept when its word is
    below round(keep * 2**32).  The layer-1 mask takes the first
    ``n_rows * hidden1`` words in row-major order, the layer-2 mask the next
    ``n_rows * hidden2``.
    """
    keep = 1.0 - model.dropout_rate
    n1 = n_rows * model.hidden1
    n2 = n_rows * model.hidden2
    bits = derive_rng(rng_seed, STREAM_DROPOUT).bit_generator
    words = bits.random_raw((n1 + n2 + 1) // 2).astype("<u8", copy=False).view("<u4")
    kept = words[:n1 + n2] < round(keep * 2**32)
    return kept[:n1].reshape(n_rows, model.hidden1), kept[n1:].reshape(n_rows, model.hidden2)


def forward(model: MlpModel, segments, mode: str = "eval",
            rng_seed: int | None = None) -> tuple[np.ndarray, ForwardTrace]:
    """Score a batch of segment features.

    ``mode`` is "train" (dropout active, ``rng_seed`` required when the
    model has a non-zero dropout rate) or "eval" (deterministic, no
    masking or scaling).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    X = np.asarray(segments, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError(f"segments must be a non-empty 2-D matrix, got shape {X.shape}")
    if X.shape[1] != model.dim:
        raise DimensionMismatchError(f"segments have dim {X.shape[1]}, model expects {model.dim}")
    if not np.isfinite(X).all():
        raise ValueError("segments contain non-finite values")
    mask1 = mask2 = None
    if mode == "train" and model.dropout_rate > 0.0:
        if rng_seed is None:
            raise ValueError("train mode with dropout requires rng_seed")
        mask1, mask2 = dropout_masks(model, X.shape[0], rng_seed)
    return forward_with_masks(model, X, mask1, mask2)


def forward_with_masks(model: MlpModel, X: np.ndarray,
                       mask1: np.ndarray | None, mask2: np.ndarray | None) -> tuple[np.ndarray, ForwardTrace]:
    """Forward pass with caller-supplied masks (None disables a dropout site).

    The trainer uses this to run one stacked pass over a whole batch with
    the masks of one ``dropout_masks`` draw for all of its rows.  A masked
    site applies relu, mask and 1/keep scaling as one multiply by its gate.
    """
    keep = 1.0 - model.dropout_rate
    z1 = X @ model.w1.T
    z1 += model.b1
    gate1 = gate2 = None
    if mask1 is None:
        h1 = np.maximum(z1, 0.0)
    else:
        gate1 = ((z1 > 0.0) & mask1) * (1.0 / keep)
        h1 = z1 * gate1
    h2 = h1 @ model.w2.T
    h2 += model.b2
    if mask2 is not None:
        gate2 = mask2 * (1.0 / keep)
        h2 *= gate2
    logits = (h2 @ model.w3.T + model.b3)[:, 0]
    scores = sigmoid(logits)
    trace = ForwardTrace(inputs=X, z1=z1, h1=h1, h2=h2, logits=logits, scores=scores,
                         mask1=mask1, mask2=mask2, keep_prob=keep, gate1=gate1, gate2=gate2)
    return scores, trace


def backward(model: MlpModel, trace: ForwardTrace, dloss_dscores) -> dict[str, np.ndarray]:
    """Parameter gradients for the loss whose score-gradient is given.

    Applies the dropout masks recorded in the trace; the relu subgradient
    at exactly zero is zero.  A row whose logit gradient is zero adds
    nothing to any parameter gradient, so layers 3 to 1 run on the other
    rows only and never read those rows' inputs or activations.  The ranking
    loss reaches every positive segment but only the top-scoring segment of
    each negative bag, so all other negative rows are skipped.
    """
    g = np.asarray(dloss_dscores, dtype=np.float64)
    if g.shape != (trace.batch_size,):
        raise ValueError(f"dloss_dscores must have shape ({trace.batch_size},), got {g.shape}")
    if trace.inputs.shape[1] != model.dim or trace.h2.shape[1] != model.hidden2 \
            or trace.h1.shape[1] != model.hidden1:
        raise ValueError("trace does not match model shape")

    dlogits = g * trace.scores * (1.0 - trace.scores)
    live = np.flatnonzero(dlogits)
    dlogits = dlogits[live]
    dw3 = dlogits[None, :] @ trace.h2[live]
    db3 = np.array([dlogits.sum()])
    dh2 = dlogits[:, None] @ model.w3
    if trace.gate2 is not None:
        dh2 *= trace.gate2[live]
    dw2 = dh2.T @ trace.h1[live]
    db2 = dh2.sum(axis=0)
    dz1 = dh2 @ model.w2
    dz1 *= trace.gate1[live] if trace.gate1 is not None else trace.z1[live] > 0.0
    # The trainer stacks its positive bags, whose rows are all live, first:
    # the run of live rows from row 0 is read in place and only the rows
    # after it are gathered, instead of copying every live input row.
    k = int(np.searchsorted(live - np.arange(live.size), 0, side="right"))
    dw1 = dz1[:k].T @ trace.inputs[:k]
    if k < live.size:
        dw1 += dz1[k:].T @ trace.inputs[live[k:]]
    db1 = dz1.sum(axis=0)
    return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2, "w3": dw3, "b3": db3}


def save_checkpoint(model: MlpModel, path) -> None:
    """Write the model as JSON with exact float64 round-tripping."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "dim": model.dim,
        "widths": [model.hidden1, model.hidden2],
        "dropout_rate": model.dropout_rate,
        "params": {name: arr.ravel().tolist() for name, arr in model.params().items()},
    }
    Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def load_checkpoint(path) -> MlpModel:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise FormatError(path, f"line {e.lineno}", f"invalid JSON: {e.msg}") from None
    if not isinstance(doc, dict):
        raise FormatError(path, "document", "expected a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise FormatError(path, "field 'version'", f"unsupported version {doc.get('version')!r}")
    try:
        dim = int(doc["dim"])
        h1, h2 = (int(w) for w in doc["widths"])
        dropout_rate = float(doc["dropout_rate"])
        params = doc["params"]
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(path, "header", f"missing or malformed field: {e}") from None
    if not isinstance(params, dict):
        raise FormatError(path, "field 'params'", "expected a JSON object")
    shapes = {"w1": (h1, dim), "b1": (h1,), "w2": (h2, h1), "b2": (h2,), "w3": (1, h2), "b3": (1,)}
    arrays = {}
    for name, shape in shapes.items():
        want = int(np.prod(shape))
        try:
            flat = np.array(params.get(name), dtype=np.float64)
        except (TypeError, ValueError):
            flat = None
        if flat is None or flat.shape != (want,):
            raise FormatError(path, f"field 'params.{name}'", f"expected {want} numbers")
        arrays[name] = flat.reshape(shape)
    try:
        return MlpModel(dropout_rate=dropout_rate, **arrays)
    except ValueError as e:
        raise FormatError(path, "params", str(e)) from None


def clone_with_params(model: MlpModel, params: dict[str, np.ndarray]) -> MlpModel:
    """New model with the same dropout rate and replaced parameters."""
    return replace(model, **params)
