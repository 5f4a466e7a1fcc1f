"""Reference implementation of the per-pair ranking objective.

A plain per-pair loop, written independently of ``milrank.loss`` so that
tests can check the batched objective and the vectorised training step
against it rather than against themselves.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OraclePair:
    hinge: float
    smoothness: float
    sparsity: float
    argmax_pos: int
    argmax_neg: int
    dpos: np.ndarray
    dneg: np.ndarray

    @property
    def total(self) -> float:
        return self.hinge + self.smoothness + self.sparsity


def oracle_pair(pos_scores, neg_scores, params) -> OraclePair:
    """Loss terms and subgradients of one pair; argmax ties go to the lowest index."""
    p = np.asarray(pos_scores, dtype=np.float64)
    q = np.asarray(neg_scores, dtype=np.float64)
    i_pos = int(np.argmax(p))
    i_neg = int(np.argmax(q))
    hinge = max(0.0, params.margin - p[i_pos] + q[i_neg])
    diffs = p[:-1] - p[1:]
    smoothness = params.smoothness_weight * float(diffs @ diffs)
    sparsity = params.sparsity_weight * float(p.sum())
    dpos = np.full(p.shape[0], params.sparsity_weight, dtype=np.float64)
    dneg = np.zeros(q.shape[0], dtype=np.float64)
    dpos[:-1] += 2.0 * params.smoothness_weight * diffs
    dpos[1:] -= 2.0 * params.smoothness_weight * diffs
    if hinge > 0.0:
        dpos[i_pos] -= 1.0
        dneg[i_neg] += 1.0
    return OraclePair(float(hinge), smoothness, sparsity, i_pos, i_neg, dpos, dneg)


def oracle_batch(S: np.ndarray, params) -> tuple[list[OraclePair], np.ndarray]:
    """Per-pair terms of a stacked (2P, m) score matrix and d(mean total)/dS, flattened.

    Rows 0..P-1 are the positive bags and row P+j is pair j's negative bag.
    """
    P = S.shape[0] // 2
    m = S.shape[1]
    pairs = [oracle_pair(S[j], S[P + j], params) for j in range(P)]
    dscores = np.zeros(2 * P * m)
    for j, pair in enumerate(pairs):
        dscores[j * m:(j + 1) * m] = pair.dpos / P
        dscores[(P + j) * m:(P + j + 1) * m] = pair.dneg / P
    return pairs, dscores
