"""Adagrad training loop over randomly paired positive/negative bags.

Each iteration samples ``batch_pos`` positive and ``batch_neg`` negative
bags without replacement (with replacement across iterations) and pairs
them one-to-one.  It draws one pair of dropout masks for all 2P bags,
runs a single stacked ``forward_with_masks`` pass, evaluates the ranking
loss and its score gradient on the (2P, m) score matrix at once, and
back-propagates the mean pair loss plus weight decay through the network.
Batches are stacked in the bags' dtype, float32 for ``load_bags``, so the
layer-1 GEMMs ``X @ W1.T`` and ``dZ1.T @ X`` run in float32; weights,
Adagrad state, gradients, layers 2-3 and the loss stay float64.
``TrainConfig.threads`` worker threads split the large layer-1 GEMMs by
output rows (``network.Workspace``).  That is safe because numpy releases
the GIL inside BLAS calls and OpenBLAS, pinned to one thread per call, is
reentrant; everything else, Adagrad and weight decay included, runs on the
calling thread.
Everything is keyed off integer seeds, so a run is a pure function of its
inputs: identical config and data give bit-identical checkpoints and logs
on one platform, for every thread count.

``train_on_bags`` only trains.  ``train`` takes a manifest: from its ids and
labels alone it settles the probe video and checks that each class fills a
batch, then reads the videos and scores the probe in the snapshot hook it
hands ``train_on_bags``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DataError, DimensionMismatchError, NonFiniteLossError
from .features import DEFAULT_SEGMENTS, Bag, DatasetManifest, check_segment_count, load_bags
from .loss import LossParams, ranking_loss_and_grad, weight_decay_grads, weight_decay_term
from .network import (
    DEFAULT_DROPOUT,
    DEFAULT_HIDDEN1,
    DEFAULT_HIDDEN2,
    MlpModel,
    Workspace,
    backward,
    check_dropout_rate,
    clone_with_params,
    dropout_masks,
    forward_with_masks,
    init_model,
)
from .rng import STREAM_SAMPLER, derive_rng, mix_to_seed
from .validation import check_settings, csv_lines

LOG_HEADER = "iteration,loss,hinge_mean,smooth_mean,sparse_mean,reg"
PROBE_HEADER = "iteration,segment_index,score"
# every CPU this process may run on
DEFAULT_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True)
class TrainConfig:
    """Every setting of a training run; the CLI reads the defaults from this signature.

    A probe video is scored at the snapshots, so it needs ``snapshot_every`` > 0."""

    iterations: int = 2000
    seed: int = 0
    batch_pos: int = 30
    batch_neg: int = 30
    segments_per_bag: int = DEFAULT_SEGMENTS
    learning_rate: float = 0.001
    adagrad_epsilon: float = 1e-8
    loss_params: LossParams = field(default_factory=LossParams)
    snapshot_every: int = 0
    probe_video_id: str | None = None
    hidden1: int = DEFAULT_HIDDEN1
    hidden2: int = DEFAULT_HIDDEN2
    dropout_rate: float = DEFAULT_DROPOUT
    threads: int = DEFAULT_THREADS  # workers splitting the layer-1 GEMMs; outputs do not depend on it

    def __post_init__(self):
        check_settings({name: getattr(self, name) for name in (
            "iterations", "seed", "batch_pos", "batch_neg", "learning_rate", "adagrad_epsilon", "snapshot_every",
            "hidden1", "hidden2", "threads")}, zero_ok=("seed", "snapshot_every"))
        if self.batch_pos != self.batch_neg:
            raise ValueError("batch_pos and batch_neg must be equal (bags are paired one-to-one)")
        check_segment_count(self.segments_per_bag)
        check_dropout_rate(self.dropout_rate)
        if self.probe_video_id is not None and not self.snapshot_every:
            raise ValueError("a probe video needs snapshot_every > 0")


@dataclass
class AdagradState:
    """Per-parameter squared-gradient accumulators plus step settings."""

    accumulators: dict[str, np.ndarray]
    learning_rate: float
    epsilon: float

    @classmethod
    def for_model(cls, model: MlpModel, learning_rate: float, epsilon: float) -> "AdagradState":
        acc = {name: np.zeros_like(arr) for name, arr in model.params().items()}
        return cls(accumulators=acc, learning_rate=learning_rate, epsilon=epsilon)


def adagrad_step(model: MlpModel, grads: dict[str, np.ndarray],
                 state: AdagradState) -> tuple[MlpModel, AdagradState]:
    """One update: G += g^2, then theta -= lr * g / (sqrt(G) + eps).

    Pure: the new parameters and accumulators are fresh arrays, and the
    model, gradients and state passed in are left unchanged.
    """
    params = model.params()
    if set(grads) != set(params):
        raise ValueError(f"gradient keys {sorted(grads)} do not match parameters")
    new_params = {}
    new_acc = {}
    for name, theta in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != theta.shape:
            raise ValueError(f"gradient for {name} has shape {g.shape}, expected {theta.shape}")
        acc = g * g
        acc += state.accumulators[name]
        denom = np.sqrt(acc)
        denom += state.epsilon
        step = state.learning_rate * g
        step /= denom
        new_acc[name] = acc
        new_params[name] = np.subtract(theta, step, out=step)
    return clone_with_params(model, new_params), AdagradState(new_acc, state.learning_rate, state.epsilon)


def sample_pair_indices(n_pos: int, n_neg: int, cfg: TrainConfig,
                        iteration: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the bags paired at this iteration.

    Uniform without replacement within the batch, seeded by (cfg.seed, iteration), already in
    shuffled pairing order.  ``check_class_sizes`` has passed for the class sizes.
    """
    rng = derive_rng(cfg.seed, STREAM_SAMPLER, iteration)
    pos_idx = rng.choice(n_pos, size=cfg.batch_pos, replace=False)
    neg_idx = rng.choice(n_neg, size=cfg.batch_neg, replace=False)
    return pos_idx, neg_idx


@dataclass
class TrainingLog:
    """Per-iteration loss terms plus the probe-video score snapshots that ``train`` adds."""

    rows: list[tuple[int, float, float, float, float, float]] = field(default_factory=list)
    probe_rows: list[tuple[int, int, float]] = field(default_factory=list)

    def to_csv(self) -> str:
        return "".join(f"{line}\n" for line in csv_lines(LOG_HEADER, self.rows))


def check_class_sizes(n_pos: int, n_neg: int, cfg: TrainConfig) -> None:
    """Raise a DataError unless each class has at least a batch of bags."""
    for kind, n, batch in (("positive", n_pos, cfg.batch_pos), ("negative", n_neg, cfg.batch_neg)):
        if n < batch:
            raise DataError(f"need at least {batch} {kind} bags, have {n}")


def train_on_bags(pos_bags: list[Bag], neg_bags: list[Bag], cfg: TrainConfig,
                  snapshot_hook=None) -> tuple[MlpModel, TrainingLog]:
    """Run the training loop over in-memory bags; the log holds no probe rows.

    Every bag must have the segments' dtype of the first positive bag; each batch is stacked in
    that dtype, which layer 1 computes in.  ``snapshot_hook(iteration, model)``, if given, fires at
    every ``snapshot_every`` multiple.  The loop, hooks included, ignores overflow and invalid
    values (``np.errstate``): the score and loss checks report a diverging step.
    """
    check_class_sizes(len(pos_bags), len(neg_bags), cfg)
    dim = pos_bags[0].segments.shape[1]
    dtype = pos_bags[0].segments.dtype
    for bag in pos_bags + neg_bags:
        if bag.n_segments != cfg.segments_per_bag:
            raise ValueError(
                f"bag {bag.video_id} has {bag.n_segments} segments, config expects {cfg.segments_per_bag}")
        if bag.segments.shape[1] != dim:  # load_bags checks this too, but not every caller builds bags with it
            raise DimensionMismatchError(f"bag {bag.video_id} has dim {bag.segments.shape[1]}, expected {dim}")
        if bag.segments.dtype != dtype:
            raise ValueError(f"bag {bag.video_id} has dtype {bag.segments.dtype}, expected {dtype}")

    model = init_model(dim, cfg.seed, cfg.hidden1, cfg.hidden2, cfg.dropout_rate)
    state = AdagradState.for_model(model, cfg.learning_rate, cfg.adagrad_epsilon)
    lp = cfg.loss_params
    P = cfg.batch_pos
    m = cfg.segments_per_bag
    log = TrainingLog()
    X = np.empty((2 * P * m, dim), dtype)  # every batch is stacked into this one buffer

    with Workspace(cfg.threads) as workspace, np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, cfg.iterations + 1):
            pos_idx, neg_idx = sample_pair_indices(len(pos_bags), len(neg_bags), cfg, it)
            # positive bag j at rows j*m.., then negative bag j at (P+j)*m..; one dropout_masks stream covers all
            np.concatenate([pos_bags[i].segments for i in pos_idx]
                           + [neg_bags[j].segments for j in neg_idx], out=X)

            mask1 = mask2 = None
            if cfg.dropout_rate > 0.0:
                mask1, mask2 = dropout_masks(model, 2 * P * m, mix_to_seed(cfg.seed, it))
            scores, trace = forward_with_masks(model, X, mask1, mask2, workspace)
            if not np.isfinite(scores).all():
                raise NonFiniteLossError(f"non-finite scores at iteration {it}")
            S = scores.reshape(2 * P, m)

            terms = ranking_loss_and_grad(S[:P], S[P:], lp)
            reg = weight_decay_term(model, lp)
            loss_value = terms.totals.sum() / P + reg
            if not np.isfinite(loss_value):
                raise NonFiniteLossError(f"non-finite loss at iteration {it}")

            dscores = np.concatenate((terms.grad_pos, terms.grad_neg)).ravel() / P
            grads = backward(model, trace, dscores, workspace)
            for name, extra in weight_decay_grads(model, lp).items():
                grads[name] += extra
            model, state = adagrad_step(model, grads, state)

            log.rows.append((
                it,
                float(loss_value),
                float(terms.hinge.mean()),
                float(terms.smoothness.mean()),
                float(terms.sparsity.mean()),
                float(reg),
            ))
            if snapshot_hook is not None and cfg.snapshot_every and it % cfg.snapshot_every == 0:
                snapshot_hook(it, model)
    return model, log


def train(manifest: DatasetManifest, cfg: TrainConfig,
          snapshot_hook=None) -> tuple[MlpModel, TrainingLog]:
    """Featurize a manifest once, split its bags into positives and negatives,
    then train, logging at every snapshot the eval-mode scores of the probe video:
    ``cfg.probe_video_id`` when set, else the first positive.  An unknown probe
    and a class smaller than a batch are refused before any video is read.
    """
    ids = [entry.feature_path.stem for entry in manifest.entries]  # a video's id, as in load_manifest
    labels = [entry.label for entry in manifest.entries]
    if cfg.probe_video_id is not None and cfg.probe_video_id not in ids:
        raise DataError(f"probe video {cfg.probe_video_id!r} not in manifest")
    check_class_sizes(labels.count(1), labels.count(0), cfg)
    bags = load_bags(manifest, cfg.segments_per_bag)
    probe = bags[labels.index(1) if cfg.probe_video_id is None else ids.index(cfg.probe_video_id)]
    probe_rows = []

    def snapshot(iteration, model):
        # the unmasked pass in the bags' dtype: ``forward``'s scores for float32
        # bags, without keeping a float32 copy of w1 on each snapshot's model
        scores = forward_with_masks(model, probe.segments, None, None)[0]
        probe_rows.extend((iteration, seg, float(s)) for seg, s in enumerate(scores))
        if snapshot_hook is not None:
            snapshot_hook(iteration, model)

    model, log = train_on_bags([b for b in bags if b.label == 1], [b for b in bags if b.label == 0], cfg, snapshot)
    log.probe_rows = probe_rows
    return model, log
