"""Adagrad training loop over randomly paired positive/negative bags.

Each iteration samples ``batch_pos`` positive and ``batch_neg`` negative
bags without replacement (with replacement across iterations) and pairs
them one-to-one.  It draws one pair of dropout masks for all 2P bags,
runs a single stacked forward pass in train mode, evaluates the ranking
loss and its score gradient on the (2P, m) score matrix at once, and
back-propagates the mean pair loss plus weight decay through the network.
Everything is keyed off integer seeds, so a run is a pure function of its
inputs: identical config and data give bit-identical checkpoints and logs
on one platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .exceptions import DataError, NonFiniteLossError
from .features import DEFAULT_SEGMENTS, Bag, DatasetManifest, load_bags
from .loss import LossParams, ranking_loss_and_grad, weight_decay_grads, weight_decay_term
from .network import (
    MlpModel,
    backward,
    clone_with_params,
    dropout_masks,
    forward,
    forward_with_masks,
    init_model,
)
from .rng import STREAM_SAMPLER, derive_rng, mix_to_seed

LOG_HEADER = "iteration,loss,hinge_mean,smooth_mean,sparse_mean,reg"
PROBE_HEADER = "iteration,segment_index,score"


@dataclass(frozen=True)
class TrainConfig:
    """Every setting of a training run; the CLI and the estimator derive theirs from it."""

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
    hidden1: int = 512
    hidden2: int = 32
    dropout_rate: float = 0.6

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be at least 1, got {self.iterations}")
        if self.batch_pos < 1 or self.batch_neg < 1:
            raise ValueError("batch sizes must be positive")
        if self.batch_pos != self.batch_neg:
            raise ValueError("batch_pos and batch_neg must be equal (bags are paired one-to-one)")
        if self.segments_per_bag < 2:
            raise ValueError("segments_per_bag must be at least 2")
        if self.learning_rate <= 0 or self.adagrad_epsilon <= 0:
            raise ValueError("learning_rate and adagrad_epsilon must be positive")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @classmethod
    def defaults(cls) -> dict:
        """Every setting's default by name, the LossParams fields in place of ``loss_params``."""
        out = {}
        for f in fields(cls):
            if f.name == "loss_params":
                out.update((lf.name, lf.default) for lf in fields(LossParams))
            else:
                out[f.name] = f.default
        return out

    @classmethod
    def from_values(cls, **values) -> "TrainConfig":
        """A config from settings named as in ``defaults``; absent ones keep their default."""
        loss = {f.name: values.pop(f.name) for f in fields(LossParams) if f.name in values}
        return cls(loss_params=LossParams(**loss), **values)


@dataclass
class AdagradState:
    """Per-parameter squared-gradient accumulators plus step settings."""

    accumulators: dict[str, np.ndarray]
    learning_rate: float = 0.001
    epsilon: float = 1e-8

    @classmethod
    def for_model(cls, model: MlpModel, learning_rate: float = 0.001,
                  epsilon: float = 1e-8) -> "AdagradState":
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

    Uniform without replacement within the batch, seeded by
    (cfg.seed, iteration), already in shuffled pairing order.
    """
    if n_pos < cfg.batch_pos:
        raise DataError(f"need at least {cfg.batch_pos} positive bags, have {n_pos}")
    if n_neg < cfg.batch_neg:
        raise DataError(f"need at least {cfg.batch_neg} negative bags, have {n_neg}")
    rng = derive_rng(cfg.seed, STREAM_SAMPLER, iteration)
    pos_idx = rng.choice(n_pos, size=cfg.batch_pos, replace=False)
    neg_idx = rng.choice(n_neg, size=cfg.batch_neg, replace=False)
    return pos_idx, neg_idx


def sample_batch(pos_bags: list[Bag], neg_bags: list[Bag], cfg: TrainConfig,
                 iteration: int) -> list[tuple[Bag, Bag]]:
    """The (positive, negative) bag pairs drawn for one iteration."""
    pos_idx, neg_idx = sample_pair_indices(len(pos_bags), len(neg_bags), cfg, iteration)
    return [(pos_bags[i], neg_bags[j]) for i, j in zip(pos_idx, neg_idx)]


@dataclass
class TrainingLog:
    """Per-iteration loss terms plus optional probe-video score snapshots."""

    rows: list[tuple[int, float, float, float, float, float]] = field(default_factory=list)
    probe_rows: list[tuple[int, int, float]] = field(default_factory=list)

    def loss_values(self) -> np.ndarray:
        return np.array([row[1] for row in self.rows])

    def to_csv(self) -> str:
        lines = [LOG_HEADER]
        for it, loss, hinge, smooth, sparse, reg in self.rows:
            lines.append(f"{it},{loss!r},{hinge!r},{smooth!r},{sparse!r},{reg!r}")
        return "\n".join(lines) + "\n"

    def to_probe_csv(self) -> str:
        lines = [PROBE_HEADER]
        for it, seg, score in self.probe_rows:
            lines.append(f"{it},{seg},{score!r}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        Path(path).write_text(self.to_csv(), encoding="utf-8")

    def write_probe_csv(self, path) -> None:
        Path(path).write_text(self.to_probe_csv(), encoding="utf-8")


def dropout_seed(cfg_seed: int, iteration: int) -> int:
    """Mask seed of one iteration.

    One ``dropout_masks`` stream per iteration covers the whole stacked
    batch: rows of positive bag j come first, at rows j*m..(j+1)*m-1, and
    negative bag j follows at rows (P+j)*m..(P+j+1)*m-1.
    """
    return mix_to_seed(cfg_seed, iteration)


def _check_bags(bags: list[Bag], cfg: TrainConfig, dim: int) -> None:
    for bag in bags:
        if bag.n_segments != cfg.segments_per_bag:
            raise ValueError(
                f"bag {bag.video_id} has {bag.n_segments} segments, config expects {cfg.segments_per_bag}")
        if bag.segments.shape[1] != dim:
            raise ValueError(f"bag {bag.video_id} has dim {bag.segments.shape[1]}, expected {dim}")


def train_on_bags(pos_bags: list[Bag], neg_bags: list[Bag], cfg: TrainConfig,
                  probe_bag: Bag | None = None,
                  snapshot_hook=None) -> tuple[MlpModel, TrainingLog]:
    """Run the training loop over in-memory bags.

    ``snapshot_hook(iteration, model)``, if given, fires at every
    ``snapshot_every`` multiple alongside the probe-score snapshot.
    """
    if not pos_bags or not neg_bags:
        raise DataError("training needs at least one positive and one negative bag")
    dim = pos_bags[0].segments.shape[1]
    _check_bags(pos_bags, cfg, dim)
    _check_bags(neg_bags, cfg, dim)

    model = init_model(dim, cfg.seed, cfg.hidden1, cfg.hidden2, cfg.dropout_rate)
    state = AdagradState.for_model(model, cfg.learning_rate, cfg.adagrad_epsilon)
    lp = cfg.loss_params
    P = cfg.batch_pos
    m = cfg.segments_per_bag
    log = TrainingLog()
    X = np.empty((2 * P * m, dim))  # every batch is stacked into this one buffer

    for it in range(1, cfg.iterations + 1):
        pos_idx, neg_idx = sample_pair_indices(len(pos_bags), len(neg_bags), cfg, it)
        np.concatenate([pos_bags[i].segments for i in pos_idx]
                       + [neg_bags[j].segments for j in neg_idx], out=X)

        mask1 = mask2 = None
        if cfg.dropout_rate > 0.0:
            mask1, mask2 = dropout_masks(model, 2 * P * m, dropout_seed(cfg.seed, it))
        scores, trace = forward_with_masks(model, X, mask1, mask2)
        if not np.isfinite(scores).all():
            raise NonFiniteLossError(f"non-finite scores at iteration {it}")
        S = scores.reshape(2 * P, m)

        terms = ranking_loss_and_grad(S[:P], S[P:], lp)
        reg = weight_decay_term(model, lp)
        loss_value = terms.totals.sum() / P + reg
        if not np.isfinite(loss_value):
            raise NonFiniteLossError(f"non-finite loss at iteration {it}")

        dscores = np.concatenate((terms.grad_pos, terms.grad_neg)).ravel() / P
        grads = backward(model, trace, dscores)
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
        if cfg.snapshot_every and it % cfg.snapshot_every == 0:
            if probe_bag is not None:
                probe_scores, _ = forward(model, probe_bag.segments, mode="eval")
                log.probe_rows.extend((it, seg, float(s)) for seg, s in enumerate(probe_scores))
            if snapshot_hook is not None:
                snapshot_hook(it, model)
    return model, log


def train(manifest: DatasetManifest, cfg: TrainConfig, cache_dtype=np.float64,
          snapshot_hook=None) -> tuple[MlpModel, TrainingLog]:
    """Featurize a manifest once, then train.

    The probe video (whose eval-mode scores are snapshotted every
    ``snapshot_every`` iterations) is ``cfg.probe_video_id`` when set,
    otherwise the first positive entry.
    """
    bags = load_bags(manifest, cfg.segments_per_bag, dtype=cache_dtype)
    pos_bags = [b for b in bags if b.label == 1]
    neg_bags = [b for b in bags if b.label == 0]
    probe_bag = None
    if cfg.snapshot_every:
        if cfg.probe_video_id is not None:
            matches = [b for b in bags if b.video_id == cfg.probe_video_id]
            if not matches:
                raise DataError(f"probe video {cfg.probe_video_id!r} not in manifest")
            probe_bag = matches[0]
        elif pos_bags:
            probe_bag = pos_bags[0]
    return train_on_bags(pos_bags, neg_bags, cfg, probe_bag=probe_bag, snapshot_hook=snapshot_hook)
