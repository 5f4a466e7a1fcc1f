"""Ranking objective on paired positive/negative bags.

For one pair, with ``p`` and ``q`` the positive and negative segment
scores and m segments per bag:

    hinge      = max(0, margin - max_i p[i] + max_i q[i])
    smoothness = smoothness_weight * sum_{i<m-1} (p[i] - p[i+1])^2
    sparsity   = sparsity_weight   * sum_i p[i]

The smoothness and sparsity terms act on the positive bag only.  A batch
averages the pair totals and adds ``weight_decay`` times the squared
Frobenius norm of the weight matrices (biases excluded).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import MlpModel
from .validation import check_score_vector


@dataclass(frozen=True)
class LossParams:
    smoothness_weight: float = 8e-5
    sparsity_weight: float = 8e-5
    weight_decay: float = 1e-3
    margin: float = 1.0

    def __post_init__(self):
        if self.smoothness_weight < 0 or self.sparsity_weight < 0 or self.weight_decay < 0:
            raise ValueError("loss weights must be non-negative")
        if self.margin <= 0:
            raise ValueError(f"margin must be positive, got {self.margin}")


@dataclass(frozen=True)
class BagLossBreakdown:
    hinge: float
    smoothness: float
    sparsity: float
    argmax_pos: int
    argmax_neg: int

    @property
    def total(self) -> float:
        return self.hinge + self.smoothness + self.sparsity


@dataclass(frozen=True)
class RankingLoss:
    """Loss terms of each pair in a batch and their score subgradients.

    Row ``j`` of every array belongs to pair ``j``; ``grad_pos[j]`` and
    ``grad_neg[j]`` are the subgradients of ``totals[j]`` with respect to
    that pair's positive and negative score rows.
    """

    hinge: np.ndarray  # (P,)
    smoothness: np.ndarray  # (P,)
    sparsity: np.ndarray  # (P,)
    argmax_pos: np.ndarray  # (P,) int
    argmax_neg: np.ndarray  # (P,) int
    grad_pos: np.ndarray  # (P, m)
    grad_neg: np.ndarray  # (P, m)

    @property
    def totals(self) -> np.ndarray:
        return self.hinge + self.smoothness + self.sparsity


def _check_batch(S_pos, S_neg) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(S_pos, dtype=np.float64)
    q = np.asarray(S_neg, dtype=np.float64)
    if p.ndim != 2 or p.shape != q.shape or p.shape[0] < 1:
        raise ValueError(f"score matrices must be non-empty, 2-D and of one shape, "
                         f"got {p.shape} and {q.shape}")
    if p.shape[1] < 2:
        raise ValueError("bags need at least 2 segments")
    check_score_vector(np.concatenate((p, q)).ravel(), name="scores")
    return p, q


def ranking_loss_and_grad(S_pos, S_neg, params: LossParams) -> RankingLoss:
    """Loss terms and score subgradients for P pairs at once.

    ``S_pos`` and ``S_neg`` are (P, m) score matrices whose row ``j`` holds
    the positive and negative bag of pair ``j``.  Argmax ties break toward
    the lowest segment index.  When a pair's hinge is active only its two
    argmax entries receive the hinge gradient; the smoothness term
    contributes the one-sided discrete Laplacian of the positive scores, and
    sparsity a constant.
    """
    p, q = _check_batch(S_pos, S_neg)
    rows = np.arange(p.shape[0])
    i_pos = np.argmax(p, axis=1)
    i_neg = np.argmax(q, axis=1)
    hinge = np.maximum(params.margin - p[rows, i_pos] + q[rows, i_neg], 0.0)
    steps = np.diff(p, axis=1)
    smoothness = params.smoothness_weight * (steps * steps).sum(axis=1)
    sparsity = params.sparsity_weight * p.sum(axis=1)

    grad_pos = np.full(p.shape, params.sparsity_weight)
    grad_neg = np.zeros(q.shape)
    smooth_grad = 2.0 * params.smoothness_weight * steps
    grad_pos[:, :-1] -= smooth_grad
    grad_pos[:, 1:] += smooth_grad
    active = (hinge > 0.0).astype(np.float64)
    grad_pos[rows, i_pos] -= active
    grad_neg[rows, i_neg] = active
    return RankingLoss(hinge=hinge, smoothness=smoothness, sparsity=sparsity,
                       argmax_pos=i_pos, argmax_neg=i_neg, grad_pos=grad_pos, grad_neg=grad_neg)


def _single_pair(pos_scores, neg_scores, params: LossParams) -> RankingLoss:
    return ranking_loss_and_grad(np.asarray(pos_scores, dtype=np.float64)[None],
                                 np.asarray(neg_scores, dtype=np.float64)[None], params)


def pair_loss(pos_scores, neg_scores, params: LossParams) -> BagLossBreakdown:
    """Loss terms for one positive/negative bag pair (one row of ``ranking_loss_and_grad``)."""
    out = _single_pair(pos_scores, neg_scores, params)
    return BagLossBreakdown(hinge=float(out.hinge[0]), smoothness=float(out.smoothness[0]),
                            sparsity=float(out.sparsity[0]),
                            argmax_pos=int(out.argmax_pos[0]), argmax_neg=int(out.argmax_neg[0]))


def pair_loss_grad(pos_scores, neg_scores, params: LossParams) -> tuple[np.ndarray, np.ndarray]:
    """Subgradient of ``pair_loss(...).total`` with respect to both score vectors."""
    out = _single_pair(pos_scores, neg_scores, params)
    return out.grad_pos[0], out.grad_neg[0]


def weight_decay_term(model: MlpModel, params: LossParams) -> float:
    """weight_decay times the summed squared entries of all weight matrices."""
    total = 0.0
    for w in (model.w1, model.w2, model.w3):
        total += float(np.vdot(w, w))
    return params.weight_decay * total


def weight_decay_grads(model: MlpModel, params: LossParams) -> dict[str, np.ndarray]:
    """Gradient contribution of the regularizer, keyed by weight matrix.

    Biases are not regularized, so they have no entry.
    """
    scale = 2.0 * params.weight_decay
    return {name: scale * getattr(model, name) for name in ("w1", "w2", "w3")}


def batch_loss(pairs, params: LossParams, model: MlpModel) -> float:
    """Mean pair total over a batch plus the weight-decay term.

    Every pair's score vectors must have the same length.
    """
    if not pairs:
        raise ValueError("batch_loss requires at least one pair")
    S_pos, S_neg = zip(*pairs)
    totals = ranking_loss_and_grad(S_pos, S_neg, params).totals
    return float(totals.mean()) + weight_decay_term(model, params)
