"""The float32 layer-1 GEMMs of training and eval, checked against float64 oracles.

Training bags hold float32 segments, so ``forward_with_masks`` multiplies
``X @ W1.T`` and ``backward`` multiplies ``dZ1.T @ X`` in float32; the
weights, gradients, Adagrad state, layers 2-3 and the loss stay float64.  The
oracle is a step written here in plain float64 over every row, fed the same
float32-rounded inputs held in float64, with the same dropout masks.  Eval's
``forward`` rounds its segments to float32 too; its scores are checked
against the same float64 forward on the unrounded segments.
"""

import numpy as np
import pytest

import milrank.optim as optim_module
from loss_oracle import oracle_batch
from milrank.features import Bag, load_bags, load_features, load_manifest, make_bag
from milrank.loss import LossParams, ranking_loss_and_grad
from milrank.network import backward, dropout_masks, forward, forward_with_masks, init_model
from milrank.optim import TrainConfig, train_on_bags
from milrank.synthetic import SynthSpec, generate

# Normwise relative error allowed between each mixed-precision gradient and
# the float64 one.  The mixed step rounds w1 (forward) and dZ1 (backward) to
# float32, unit roundoff u = 2**-24 ~ 6e-8, and accumulates its dot products
# in float32.  Over K = 4096 terms whose rounding errors have random signs the
# relative error of a dot product is about u * sqrt(K) ~ 4e-6; layers 2-3 and
# the loss, all float64, pass it on without adding to it.  1e-5 leaves a
# factor 2.5 above that estimate.  The five draws below measure at most 9e-7
# (w1 1.2e-7; the largest is b3, a sum of mixed-sign logit gradients), with
# every argmax the same; a wrong cast or transpose errs by O(1).
GRAD_RTOL = 1e-5


def reference_sigmoid(x):
    with np.errstate(over="ignore"):
        return np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))


def reference_forward(model, X, mask1=None, mask2=None):
    """Scores plus each layer's input and gate, every row, all float64."""
    keep = 1.0 - model.dropout_rate
    z1 = X @ model.w1.T + model.b1
    if mask1 is None:
        gate1 = z1 > 0.0
        h1 = np.maximum(z1, 0.0)
    else:
        gate1 = ((z1 > 0.0) & mask1) * (1.0 / keep)
        h1 = z1 * gate1
    h2 = h1 @ model.w2.T + model.b2
    gate2 = 1.0 if mask2 is None else mask2 * (1.0 / keep)
    h2 = h2 * gate2
    scores = reference_sigmoid((h2 @ model.w3.T + model.b3)[:, 0])
    return scores, (X, gate1, h1, gate2, h2)


def reference_backward(model, scores, parts, dscores):
    X, gate1, h1, gate2, h2 = parts
    dlogits = dscores * scores * (1.0 - scores)
    dh2 = (dlogits[:, None] @ model.w3) * gate2
    dz1 = (dh2 @ model.w2) * gate1
    return {"w1": dz1.T @ X, "b1": dz1.sum(axis=0),
            "w2": dh2.T @ h1, "b2": dh2.sum(axis=0),
            "w3": dlogits[None, :] @ h2, "b3": np.array([dlogits.sum()])}


def float64_step(model, X, masks, P, m, lp):
    """The reference oracle: one step's score matrix and gradients in float64."""
    scores, parts = reference_forward(model, X, *masks)
    S = scores.reshape(2 * P, m)
    _, dscores = oracle_batch(S, lp)
    return S, reference_backward(model, scores, parts, dscores)


def mixed_step(model, X, masks, P, m, lp):
    """One step as ``train_on_bags`` runs it, on the float32 batch ``X``."""
    scores, trace = forward_with_masks(model, X, *masks)
    S = scores.reshape(2 * P, m)
    terms = ranking_loss_and_grad(S[:P], S[P:], lp)
    return S, backward(model, trace, np.concatenate((terms.grad_pos, terms.grad_neg)).ravel() / P)


def paper_batch(seed, P=30, m=32, dim=4096):
    """A stacked batch of unit-norm rows rounded to float32, as in a training bag."""
    X = np.random.default_rng(seed).standard_normal((2 * P * m, dim))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return X.astype(np.float32)


@pytest.mark.parametrize("seed", [301, 302, 303, 304, 305])
def test_mixed_step_matches_float64_oracle(seed):
    P, m = 30, 32
    X32 = paper_batch(seed, P, m)
    model = init_model(X32.shape[1], seed, hidden1=512, hidden2=32, dropout_rate=0.6)
    masks = dropout_masks(model, X32.shape[0], seed)
    lp = LossParams()
    S_mixed, mixed = mixed_step(model, X32, masks, P, m, lp)
    S_ref, ref = float64_step(model, X32.astype(np.float64), masks, P, m, lp)
    assert np.array_equal(S_mixed.argmax(axis=1), S_ref.argmax(axis=1))
    assert mixed.keys() == ref.keys()
    errors = {}
    for name, want in ref.items():
        got = mixed[name]
        assert got.dtype == np.float64 and got.shape == want.shape, name
        errors[name] = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert max(errors.values()) <= GRAD_RTOL, errors
    # float64 GEMMs would agree with the oracle to ~1e-16, float32 ones do not
    assert errors["w1"] > 1e-10, errors


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_float64_forward_is_plain_float64(mode):
    model = init_model(64, seed=4, hidden1=32, hidden2=8, dropout_rate=0.6)
    X = np.random.default_rng(4).standard_normal((40, 64))
    masks = dropout_masks(model, 40, 9) if mode == "train" else (None, None)
    scores, trace = forward_with_masks(model, X, *masks)
    want, (_, _, h1, _, h2) = reference_forward(model, X, *masks)
    assert scores.tobytes() == want.tobytes()
    assert trace.h1.tobytes() == h1.tobytes() and trace.h2.tobytes() == h2.tobytes()


@pytest.mark.parametrize("dim", [7, 32, 4096])
def test_eval_forward_is_the_unmasked_float32_pass(dim):
    # eval's scores are the trainer's unmasked pass on float32 inputs, bit for bit,
    # for eval's 32-row bags and for other segment counts
    model = init_model(dim, seed=dim)
    for rows in (1, 8, 32, 100):
        X = np.random.default_rng(dim + rows).standard_normal((rows, dim))
        want, _ = forward_with_masks(model, X.astype(np.float32), None, None)
        assert forward(model, X).tobytes() == want.tobytes(), rows


# Largest change allowed in an eval score against the float64 oracle.  Layer 1
# rounds x and w1 to float32 and accumulates in float32, so, as for GRAD_RTOL,
# its product has a normwise relative error of about u * sqrt(K) ~ 4e-6 at
# K = 4096, which the float64 layers 2-3 pass on to the logits.  Each score's
# error is then at most 1/4 (the sigmoid's largest slope) of its logit's, and
# no logit's error exceeds the 2-norm of all of them; SCORE_RTOL = 1e-5 leaves
# the same factor 2.5.  The five draws below measure a normwise logit error of
# at most 4.2e-7, and score changes of at most 5.7e-9, under 3% of the bound.
SCORE_RTOL = 1e-5


@pytest.mark.parametrize("seed", [401, 402, 403, 404, 405])
def test_eval_scores_near_float64_oracle(seed):
    # a paper-shape bag: 32 segment means of unit-norm clips, each of norm at most 1
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((32, 4096))
    X *= rng.uniform(0.2, 1.0, (32, 1)) / np.linalg.norm(X, axis=1, keepdims=True)
    model = init_model(4096, seed)
    want, (_, _, _, _, h2) = reference_forward(model, X)
    logits = (h2 @ model.w3.T + model.b3)[:, 0]
    error = np.abs(forward(model, X) - want).max()
    assert error <= 0.25 * SCORE_RTOL * np.linalg.norm(logits), error
    # a float64 layer 1 would agree with the oracle to ~1e-16
    assert error > 1e-12, error


def float32_bags(n, label, rng, m=4, dim=6):
    return [Bag(f"{label}{i}", label, rng.standard_normal((m, dim)).astype(np.float32))
            for i in range(n)]


def test_training_state_stays_float64(monkeypatch):
    rng = np.random.default_rng(6)
    pos, neg = float32_bags(4, 1, rng), float32_bags(4, 0, rng)
    batch_dtypes = []
    steps = []
    real_forward, real_step = optim_module.forward_with_masks, optim_module.adagrad_step

    def recording_forward(model, X, *rest):
        batch_dtypes.append(X.dtype)
        return real_forward(model, X, *rest)

    def recording_step(model, grads, state):
        stepped, new_state = real_step(model, grads, state)
        steps.append((grads, stepped, new_state))
        return stepped, new_state

    monkeypatch.setattr(optim_module, "forward_with_masks", recording_forward)
    monkeypatch.setattr(optim_module, "adagrad_step", recording_step)
    cfg = TrainConfig(iterations=3, seed=3, batch_pos=2, batch_neg=2, segments_per_bag=4,
                      hidden1=8, hidden2=4, dropout_rate=0.5)
    final, _ = train_on_bags(pos, neg, cfg)
    assert batch_dtypes == [np.float32] * 3
    assert len(steps) == 3
    for grads, stepped, state in steps:
        for arrays in (grads, stepped.params(), state.accumulators):
            assert {name: arr.dtype for name, arr in arrays.items()} == \
                {name: np.float64 for name in final.params()}


def test_load_bags_caches_rounded_float32_segments(tmp_path):
    ds = generate(SynthSpec(n_pos_videos=2, n_neg_videos=2, dim=8, clips_per_video=20, seed=1),
                  tmp_path)
    manifest = load_manifest(ds.manifest_path, "train")
    bags = load_bags(manifest, 6)
    assert [bag.video_id for bag in bags] == [entry.feature_path.stem for entry in manifest.entries]
    for bag, entry in zip(bags, manifest.entries):
        assert bag.segments.dtype == np.float32
        means = make_bag(load_features(entry.feature_path), entry.label, 6).segments
        assert means.dtype == np.float64
        assert bag.segments.tobytes() == means.astype(np.float32).tobytes()
