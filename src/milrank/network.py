"""Three-layer fully-connected scoring network.

Maps a segment feature vector to an anomaly score in (0, 1):

    h1 = dropout(relu(W1 x + b1))
    h2 = dropout(W2 h1 + b2)
    score = sigmoid(W3 h2 + b3)

Dropout uses the inverted convention (kept units scaled by 1/keep_prob)
and acts only where masks from ``dropout_masks`` are passed to
``forward_with_masks``, the one pass and the only one that returns a
``ForwardTrace``; ``forward`` is its checked, scores-only eval entry,
which passes no masks and so needs no rescaling.  Gradients are computed
by hand-written reverse mode over the cached forward trace.
The two layer-1 GEMMs, ``X @ W1.T`` in ``forward_with_masks`` and
``dZ1.T @ X`` in ``backward``, run in the dtype of the inputs X: float32
for the trainer's cached bags.  ``forward`` (and so scoring and
evaluation) rounds its segments to float32 too, and multiplies them by
the model's float32 copy of ``w1``, made once per model on first use, so
its scores are the trainer's unmasked pass on float32 inputs, bit for bit.
Parameters, their gradients, layers 2-3 and the scores are float64 for
either input dtype.
Dropout masks are thresholded 32-bit words of a Philox counter-based
generator (see rng.py), so a given ``rng_seed`` yields the same masks on
every platform.

A training run passes one ``Workspace`` to every step's
``forward_with_masks`` and ``backward``.  Its worker threads split the
large float32 layer-1 GEMMs by output rows, each worker making one BLAS
call into its own rows of the product.  This relies on two
things: numpy releases the GIL inside a BLAS call, and the bundled
OpenBLAS is reentrant when each call runs on one thread, which
``cli.main``, the benchmark and the tests' conftest all pin before numpy
loads.  On that OpenBLAS the split changes no bits (see
``Workspace.split_rows``), so outputs are the same for every worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .exceptions import FormatError
from .rng import STREAM_DROPOUT, STREAM_INIT, derive_rng
from .validation import check_feature_array, check_settings, json_number, read_json, write_json

PARAM_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3")
CHECKPOINT_VERSION = 3
# the paper's network: 512-32-1 with 60% dropout
DEFAULT_HIDDEN1 = 512
DEFAULT_HIDDEN2 = 32
DEFAULT_DROPOUT = 0.6
# A GEMM is split only into blocks of at least this many rows and
# multiply-adds.  Smaller OpenBLAS calls can take other kernels, whose bits
# differ from the single call's, and the thread hand-off would outweigh
# them.  So the acceptance-scale batches (640 x 32 by 32 x 512) and eval's
# 32-row bags stay one call; the paper's training GEMMs (2e9 and 4e9
# multiply-adds) are split over every worker.
BLOCK_MIN_ROWS = 64
BLOCK_MIN_MACS = 1 << 26


@dataclass(frozen=True)
class MlpModel:
    """Weights and biases of the scoring network plus its dropout rate."""

    w1: np.ndarray  # (hidden1, dim)
    b1: np.ndarray  # (hidden1,)
    w2: np.ndarray  # (hidden2, hidden1)
    b2: np.ndarray  # (hidden2,)
    w3: np.ndarray  # (1, hidden2)
    b3: np.ndarray  # (1,)
    dropout_rate: float = DEFAULT_DROPOUT

    def __post_init__(self):
        h1, d = self.w1.shape
        check_dropout_rate(self.dropout_rate)
        for name, shape in param_shapes(d, h1, self.w2.shape[0]).items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"parameter {name} has shape {getattr(self, name).shape}, expected {shape}")
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

    @cached_property
    def w1_float32(self) -> np.ndarray:
        """``w1`` rounded to float32, made on first use: the layer-1 weights of ``forward``."""
        return self.w1.astype(np.float32)


def param_shapes(dim: int, hidden1: int, hidden2: int) -> dict[str, tuple[int, ...]]:
    """The ``PARAM_FIELDS`` shapes of a dim-hidden1-hidden2-1 network; a width below 1 raises ValueError."""
    check_settings({"dim": dim, "hidden1": hidden1, "hidden2": hidden2})
    return {"w1": (hidden1, dim), "b1": (hidden1,), "w2": (hidden2, hidden1), "b2": (hidden2,),
            "w3": (1, hidden2), "b3": (1,)}


def check_dropout_rate(rate: float) -> None:
    """Raise a ValueError unless ``rate`` lies in [0, 1)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout_rate must be in [0, 1), got {rate}")


class Workspace:
    """The worker threads that the steps of one training run share.

    The pool of ``workers`` threads starts on the first split, and leaving
    a ``with`` block shuts it down.  Every array a step makes is its own.
    """

    def __init__(self, workers: int = 1):
        self.workers = workers
        self._pool: ThreadPoolExecutor | None = None

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()

    def split_rows(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a @ b``, split over the workers when it is a large float32 product.

        Such a product is cut into one block of rows of ``a`` per worker,
        when every block still holds ``BLOCK_MIN_ROWS`` rows and
        ``BLOCK_MIN_MACS`` multiply-adds.  Each worker writes its block's
        rows of a fresh product with one BLAS call.  On the bundled OpenBLAS
        an sgemm row computed this way has the single call's bits; the tests
        check this.  A dgemm row block can change the last column's bits
        when the column count is odd, so float64 products stay one call.
        """
        rows = a.shape[0]
        blocks = min(self.workers, rows // BLOCK_MIN_ROWS, rows * a.shape[1] * b.shape[1] // BLOCK_MIN_MACS)
        if blocks < 2 or np.result_type(a, b) != np.float32:
            return a @ b
        out = np.empty((rows, b.shape[1]), np.float32)
        if self._pool is None:
            self._pool = ThreadPoolExecutor(self.workers, thread_name_prefix="milrank-gemm")
        edges = [rows * i // blocks for i in range(blocks + 1)]
        # reading every result waits for all blocks and re-raises a worker's exception
        for _ in self._pool.map(lambda lo, hi: np.matmul(a[lo:hi], b, out=out[lo:hi]), edges, edges[1:]):
            pass
        return out


@dataclass
class ForwardTrace:
    """What backward reads of one forward pass.

    ``gate1`` is the boolean layer-1 keep mask ``(h1 > 0) & mask1`` (relu and
    dropout in one), and ``gate2`` the boolean layer-2 mask; each is None
    where that site had no mask.  The forward pass and backward multiply by
    a gate and then by ``1/keep``: a factor of exactly 0 or 1 is exact, so
    this has the bits of one multiply by the scaled gate.
    """

    inputs: np.ndarray
    h1: np.ndarray  # post-relu, post-dropout
    h2: np.ndarray  # post-dropout
    scores: np.ndarray
    gate1: np.ndarray | None = None
    gate2: np.ndarray | None = None


def init_model(dim: int, seed: int, hidden1: int = DEFAULT_HIDDEN1, hidden2: int = DEFAULT_HIDDEN2,
               dropout_rate: float = DEFAULT_DROPOUT) -> MlpModel:
    """Fan-balanced uniform initialization, biases zero, fixed by ``seed``.

    Each weight matrix is drawn uniformly from
    [-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))], which keeps
    initial scores near 0.5 so the ranking hinge is active from step 0.
    """
    rng = derive_rng(seed, STREAM_INIT)
    params = {}
    for name, shape in param_shapes(dim, hidden1, hidden2).items():  # draws w1, w2, w3 in turn
        limit = np.sqrt(6.0 / sum(shape))  # fan_out + fan_in
        params[name] = rng.uniform(-limit, limit, size=shape) if len(shape) == 2 else np.zeros(shape)
    return MlpModel(dropout_rate=dropout_rate, **params)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: ``exp`` only ever sees ``-|x|``, so it never overflows."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


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


def forward(model: MlpModel, segments) -> np.ndarray:
    """Score a batch of segment features in eval mode: no dropout, so the
    scores are deterministic.  Returns the (n,) float64 score vector.

    ``segments`` is checked by ``check_feature_array`` and rounded once to
    float32, as ``load_bags`` rounds training bags; a value past float32's
    range raises ValueError.  Layer 1 multiplies by ``model.w1_float32``,
    so the scores equal ``forward_with_masks(model, X32, None, None)`` on
    the rounded segments ``X32``, bit for bit.  Training runs
    ``forward_with_masks`` instead, with masks from ``dropout_masks``.
    """
    X = check_feature_array(segments, dim=model.dim, name="segments")
    with np.errstate(over="ignore"):
        X32 = X.astype(np.float32)
    if not np.isfinite(X32).all():
        raise ValueError("segments contains values that overflow float32")
    # (w1 @ X.T).T has the bits of X @ w1.T on the bundled OpenBLAS, whose sgemm sums each
    # element's products in one order either way (the tests check it); for a 32-row bag at
    # the paper's shape it took 2.6 ms against 4.0 ms on one core (Haswell kernels)
    z1 = (model.w1_float32 @ X32.T).T
    return _forward_from_z1(model, X32, z1, None, None)[0]


def forward_with_masks(model: MlpModel, X: np.ndarray, mask1: np.ndarray | None, mask2: np.ndarray | None,
                       workspace: Workspace | None = None) -> tuple[np.ndarray, ForwardTrace]:
    """Forward pass with caller-supplied masks (None disables a dropout site).

    The trainer uses this to run one stacked pass over a whole batch with
    the masks of one ``dropout_masks`` draw for all of its rows.  A masked
    site applies relu and mask as one multiply by its boolean gate, then
    the 1/keep scaling.  Layer 1 multiplies in the dtype of ``X``, with
    ``w1`` cast to it on every call; its product, and so every later
    activation, is float64 from then on.  Both casts are no-ops for float64
    input.  A ``workspace`` (the trainer's, shared by its steps) splits the
    layer-1 product over its workers.  Every array of the trace is fresh,
    or the caller's ``X`` and ``mask2``, so no later step writes to it.
    """
    z1 = (workspace or Workspace()).split_rows(X, model.w1.astype(X.dtype, copy=False).T)
    return _forward_from_z1(model, X, z1, mask1, mask2)


def _forward_from_z1(model: MlpModel, X: np.ndarray, z1: np.ndarray, mask1: np.ndarray | None,
                     mask2: np.ndarray | None) -> tuple[np.ndarray, ForwardTrace]:
    """``forward_with_masks`` from the layer-1 product ``z1 = X @ W1.T`` on."""
    scale = 1.0 / (1.0 - model.dropout_rate)
    # C order: eval's z1 is the F-order view of a transposed product, and an F-order h1
    # would change the bits of h1 @ w2.T
    h1 = np.add(z1, model.b1, dtype=np.float64, order="C")
    gate1 = gate2 = None
    if mask1 is None:
        np.maximum(h1, 0.0, out=h1)
    else:
        gate1 = h1 > 0.0
        gate1 &= mask1
        h1 *= gate1
        h1 *= scale
    h2 = h1 @ model.w2.T
    h2 += model.b2
    if mask2 is not None:
        gate2 = mask2
        h2 *= gate2
        h2 *= scale
    scores = sigmoid((h2 @ model.w3.T + model.b3)[:, 0])
    return scores, ForwardTrace(inputs=X, h1=h1, h2=h2, scores=scores, gate1=gate1, gate2=gate2)


def backward(model: MlpModel, trace: ForwardTrace, dloss_dscores,
             workspace: Workspace | None = None) -> dict[str, np.ndarray]:
    """Parameter gradients for the loss whose score-gradient is given.

    Applies the dropout masks recorded in the trace; the relu subgradient
    at exactly zero is zero.  A row whose logit gradient is zero adds
    nothing to any parameter gradient, so layers 3 to 1 run on the other
    rows only and never read those rows' inputs or activations.  The ranking
    loss reaches every positive segment but only the top-scoring segment of
    each negative bag, so all other negative rows are skipped.  ``dW1``
    is multiplied in the dtype of the trace's inputs, split over the
    ``workspace``'s workers when one is given, and returned, like every
    other gradient, as a fresh float64 array.
    """
    g = np.asarray(dloss_dscores, dtype=np.float64)
    if g.shape != trace.scores.shape:
        raise ValueError(f"dloss_dscores must have shape {trace.scores.shape}, got {g.shape}")
    if trace.inputs.shape[1] != model.dim or trace.h2.shape[1] != model.hidden2 \
            or trace.h1.shape[1] != model.hidden1:
        raise ValueError("trace does not match model shape")

    dlogits = g * trace.scores * (1.0 - trace.scores)
    live = np.flatnonzero(dlogits)
    dlogits = dlogits[live]
    dw3 = dlogits[None, :] @ trace.h2[live]
    db3 = np.array([dlogits.sum()])
    scale = 1.0 / (1.0 - model.dropout_rate)
    dh2 = dlogits[:, None] @ model.w3
    if trace.gate2 is not None:
        dh2 *= trace.gate2[live]
        dh2 *= scale
    dw2 = dh2.T @ trace.h1[live]
    db2 = dh2.sum(axis=0)
    dz1 = dh2 @ model.w2
    if trace.gate1 is not None:
        dz1 *= trace.gate1[live]
        dz1 *= scale
    else:  # without a layer-1 mask h1 = relu(z1), so h1 > 0 exactly where z1 > 0
        dz1 *= trace.h1[live] > 0.0
    # The trainer stacks its positive bags, whose rows are all live, first:
    # the run of live rows from row 0 is read in place and only the rows
    # after it are gathered, instead of copying every live input row.
    k = int(np.searchsorted(live - np.arange(live.size), 0, side="right"))
    dz1_x = dz1.astype(trace.inputs.dtype, copy=False)
    dw1 = (workspace or Workspace()).split_rows(dz1_x[:k].T, trace.inputs[:k]).astype(np.float64, copy=False)
    if k < live.size:
        dw1 += dz1_x[k:].T @ trace.inputs[live[k:]]
    db1 = dz1.sum(axis=0)
    return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2, "w3": dw3, "b3": db3}


def save_checkpoint(model: MlpModel, path) -> None:
    """Write the model as checkpoint version 3: a header line, then the weights.

    The header is one line of JSON holding ``version`` (3), ``dim``,
    ``widths`` ([hidden1, hidden2]) and ``dropout_rate``.  The little-endian
    float64 bytes of w1, b1, w2, b2, w3 and b3 follow it, each in row-major
    order, so every weight round-trips bit for bit.  The shapes follow from
    the header and are not stored.
    """
    write_json(path, {"version": CHECKPOINT_VERSION, "dim": model.dim,
                      "widths": [model.hidden1, model.hidden2], "dropout_rate": model.dropout_rate})
    with open(path, "ab") as f:
        for arr in model.params().values():
            f.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_checkpoint(path) -> MlpModel:
    """Read a checkpoint that ``save_checkpoint`` wrote.

    Header fields must be JSON numbers (integers for ``version``, positive
    ones for ``dim`` and ``widths``), and only version 3 is read.  Exactly
    ``8 * n`` bytes must follow the header line, for the ``n`` values of the
    shapes the header implies, and every value must be finite.  Anything
    else raises FormatError.  The six parameters are views of one float64
    array, read straight from the file.
    """
    path = Path(path)
    with open(path, "rb") as f:
        line = f.readline()
        header = read_json(path, line)
        if not isinstance(header, dict):
            raise FormatError(path, "header", "expected a JSON object")
        version = header.get("version")
        try:
            supported = json_number(version, integer=True) == CHECKPOINT_VERSION
        except TypeError:
            supported = False
        if not supported:
            raise FormatError(path, "field 'version'",
                              f"unsupported version {version!r}, expected {CHECKPOINT_VERSION}")
        try:
            dim = json_number(header["dim"], integer=True)
            h1, h2 = (json_number(w, integer=True) for w in header["widths"])
            dropout_rate = float(json_number(header["dropout_rate"]))
            shapes = param_shapes(dim, h1, h2)
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise FormatError(path, "header", f"missing or malformed field: {e}") from None
        sizes = [math.prod(shape) for shape in shapes.values()]
        n = sum(sizes)
        got = os.fstat(f.fileno()).st_size - len(line)
        if got != 8 * n:
            raise FormatError(path, f"byte {len(line)}",
                              f"expected {8 * n} bytes of float64 after the header, got {got}")
        flat = np.fromfile(f, "<f8", count=n).astype(np.float64, copy=False)
    views = np.split(flat, np.cumsum(sizes)[:-1])
    try:
        return MlpModel(dropout_rate=dropout_rate,
                        **{name: view.reshape(shapes[name]) for name, view in zip(shapes, views)})
    except ValueError as e:
        raise FormatError(path, "params", str(e)) from None


def clone_with_params(model: MlpModel, params: dict[str, np.ndarray]) -> MlpModel:
    """New model with the same dropout rate and replaced parameters."""
    return replace(model, **params)
