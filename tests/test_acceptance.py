"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  The end-to-end criteria share one deterministic synthetic dataset
and one trained model (module-scoped fixtures), so the whole suite stays
within a few minutes single-threaded.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from milrank.baseline import score_linear, train_linear
from milrank.features import FeatureMatrix, load_bags, load_features, load_manifest, write_features
from milrank.loss import (
    LossParams,
    ranking_loss_and_grad,
    weight_decay_grads,
    weight_decay_term,
)
from milrank.metrics import evaluate_manifest, roc_auc, score_video
from milrank.network import (
    backward,
    clone_with_params,
    dropout_masks,
    forward,
    forward_with_masks,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from milrank.optim import AdagradState, TrainConfig, adagrad_step, train
from milrank.synthetic import SynthSpec, generate
from planted import load_planted, localization_accuracy

DATA_SEED = 5
TRAIN_SEED = 1
CONSTRAINT_ITERATIONS = 4000


def report(number, text):
    print(f"[criterion {number:02d}] {text}: PASS")


def acceptance_config(**overrides):
    base = dict(iterations=2000, seed=TRAIN_SEED, batch_pos=10, batch_neg=10,
                segments_per_bag=32)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    spec = SynthSpec(n_pos_videos=20, n_neg_videos=20, dim=32, clips_per_video=64,
                     separation=2.0, seed=DATA_SEED)
    ds = generate(spec, root / "default", test_pos=10, test_neg=10)
    return ds


@pytest.fixture(scope="module")
def trained(dataset):
    """c04's model, and c07's constrained one, from one run.

    Sampling and dropout are keyed by (seed, iteration), never by the
    iteration count, so iteration 2000 of the constrained 4000-iteration run
    is, bit for bit, the model a 2000-iteration run ends with.  ``elapsed``
    times exactly those first 2000 iterations."""
    manifest = load_manifest(dataset.manifest_path, "train")
    snapshots = {}
    start = time.perf_counter()
    constrained, _ = train(manifest, acceptance_config(iterations=CONSTRAINT_ITERATIONS, snapshot_every=2000),
                           snapshot_hook=lambda it, model: snapshots.setdefault(it, (model, time.perf_counter())))
    model, stop = snapshots[2000]
    elapsed = stop - start
    test_manifest = load_manifest(dataset.test_manifest_path, "test")
    evaluation = evaluate_manifest(
        test_manifest, lambda f: score_video(model, f, 32)[0], m=32)
    return {
        "model": model,
        "constrained": constrained,
        "elapsed": elapsed,
        "evaluation": evaluation,
        "train_manifest": manifest,
        "test_manifest": test_manifest,
    }


def tie_free_instance(seed):
    """One random small problem whose objective is locally smooth.

    Rejects draws whose argmax gaps, hinge kink distance, or relu
    pre-activations sit close enough to a boundary that an h=1e-5
    parameter perturbation could cross it.
    """
    rng = np.random.default_rng(seed)
    dropout = 0.4 if seed % 2 == 0 else 0.0
    model = init_model(8, seed=int(rng.integers(1 << 30)), hidden1=8, hidden2=4,
                       dropout_rate=dropout)
    X = rng.standard_normal((8, 8))
    mask1 = mask2 = None
    if dropout > 0.0:
        mask1, mask2 = dropout_masks(model, 8, rng_seed=int(rng.integers(1 << 30)))
    scores, trace = forward_with_masks(model, X, mask1, mask2)
    S = scores.reshape(2, 4)
    gap_p = np.sort(S[0])[-1] - np.sort(S[0])[-2]
    gap_q = np.sort(S[1])[-1] - np.sort(S[1])[-2]
    hinge_margin = abs(1.0 - S[0].max() + S[1].max())
    min_preact = np.abs(X @ model.w1.T + model.b1).min()
    if min(gap_p, gap_q) < 1e-3 or hinge_margin < 1e-3 or min_preact < 1e-3:
        return None
    return model, X, mask1, mask2


def test_c01_gradient_correctness():
    params = LossParams()
    h = 1e-5
    checked = 0
    seed = 0
    start = time.perf_counter()
    while checked < 100:
        seed += 1
        instance = tie_free_instance(seed)
        if instance is None:
            continue
        model, X, mask1, mask2 = instance

        def objective(mod):
            s, _ = forward_with_masks(mod, X, mask1, mask2)
            S = s.reshape(2, 4)
            return ranking_loss_and_grad(S[:1], S[1:], params).totals[0] + weight_decay_term(mod, params)

        scores, trace = forward_with_masks(model, X, mask1, mask2)
        S = scores.reshape(2, 4)
        terms = ranking_loss_and_grad(S[:1], S[1:], params)
        grads = backward(model, trace, np.concatenate([terms.grad_pos[0], terms.grad_neg[0]]))
        for name, extra in weight_decay_grads(model, params).items():
            grads[name] += extra

        for name, arr in model.params().items():
            flat = arr.ravel()
            for i in range(flat.size):
                pert = {k: v.copy() for k, v in model.params().items()}
                pert[name].ravel()[i] = flat[i] + h
                up = objective(clone_with_params(model, pert))
                pert[name].ravel()[i] = flat[i] - h
                down = objective(clone_with_params(model, pert))
                fd = (up - down) / (2 * h)
                analytic = grads[name].ravel()[i]
                assert abs(analytic - fd) <= max(1e-4 * abs(fd), 1e-6), \
                    f"instance {seed} {name}[{i}]: analytic {analytic} vs fd {fd}"
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    report(1, f"full-objective gradients match finite differences on {checked} "
              f"tie-free instances in {elapsed:.1f}s")


def test_c02_loss_term_oracle():
    params = LossParams(smoothness_weight=0.1, sparsity_weight=0.1, margin=1.0)
    out = ranking_loss_and_grad([[0.5, 0.7]], [[0.2, 0.1]], params)
    assert abs(out.hinge[0] - 0.5) <= 1e-12
    assert abs(out.smoothness[0] - 0.004) <= 1e-12
    assert abs(out.sparsity[0] - 0.12) <= 1e-12
    assert abs(out.totals[0] - 0.624) <= 1e-12

    bare = LossParams(smoothness_weight=0.0, sparsity_weight=0.0)
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = rng.uniform(0, 1, 6)
        q = rng.uniform(0, 1, 6)
        out = ranking_loss_and_grad(p[None], q[None], bare)
        assert np.count_nonzero(out.grad_pos[0]) <= 1
        assert np.count_nonzero(out.grad_neg[0]) <= 1
    report(2, "hand-evaluated loss terms reproduced to 1e-12; bare gradient "
              "touches at most one entry per bag")


def test_c03_auc_pair_counting_equivalence():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    for pool in range(200):
        n = int(rng.integers(10, 1001))
        labels = rng.uniform(size=n) < rng.uniform(0.05, 0.95)
        if labels.all() or not labels.any():
            labels[rng.integers(n)] ^= True
        decimals = int(rng.integers(1, 4))  # coarse scores force ties
        scores = np.round(rng.uniform(0, 1, n), decimals)
        curve = roc_auc(labels, scores)
        pos = scores[labels][:, None]
        neg = scores[~labels][None, :]
        oracle = ((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.size * neg.shape[1])
        assert abs(curve.auc - oracle) <= 1e-9, f"pool {pool}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"AUC oracle check took {elapsed:.1f}s"
    report(3, f"trapezoidal AUC equals pair counting with tie credit on 200 pools "
              f"in {elapsed:.1f}s")


def test_c04_end_to_end_separability(trained):
    auc = trained["evaluation"].curve.auc
    assert trained["elapsed"] < 120.0, f"training took {trained['elapsed']:.0f}s"
    assert auc >= 0.95, f"test AUC {auc:.4f}"
    report(4, f"test frame-level AUC {auc:.4f} >= 0.95 "
              f"(2000 iterations in {trained['elapsed']:.0f}s)")


def test_c05_localization(trained, dataset):
    feats = [load_features(e.feature_path)
             for e in trained["test_manifest"].entries if e.label == 1]
    planted = load_planted(dataset.planted_csv_path)
    accuracy = localization_accuracy(trained["model"], feats, planted, m=32)
    assert accuracy >= 0.9, f"localization accuracy {accuracy:.2f}"
    report(5, f"argmax segment inside planted range for {accuracy:.0%} of test positives")


def test_c06_chance_level_control(tmp_path_factory):
    root = tmp_path_factory.mktemp("chance")
    spec = SynthSpec(n_pos_videos=20, n_neg_videos=20, dim=32, clips_per_video=64,
                     separation=0.0, seed=DATA_SEED)
    ds = generate(spec, root, test_pos=10, test_neg=10)
    model, _ = train(load_manifest(ds.manifest_path, "train"), acceptance_config())
    evaluation = evaluate_manifest(
        load_manifest(ds.test_manifest_path, "test"),
        lambda f: score_video(model, f, 32)[0], m=32)
    auc = evaluation.curve.auc
    assert 0.4 <= auc <= 0.6, f"chance-level AUC {auc:.4f}"
    report(6, f"separation=0 rerun lands back at chance (AUC {auc:.4f})")


def test_c07_constraint_effect(trained):
    manifest = trained["train_manifest"]
    constrained = trained["constrained"]
    bare = acceptance_config(iterations=CONSTRAINT_ITERATIONS,
                             loss_params=LossParams(smoothness_weight=0.0, sparsity_weight=0.0))
    unconstrained, _ = train(manifest, bare)

    pos_bags = [b for b in load_bags(manifest, 32) if b.label == 1]

    def stats(model):
        scores = [forward(model, b.segments) for b in pos_bags]
        mean_score = float(np.mean([s.mean() for s in scores]))
        mean_sq_adjacent = float(np.mean([np.mean(np.diff(s) ** 2) for s in scores]))
        return mean_score, mean_sq_adjacent

    score_c, adjacent_c = stats(constrained)
    score_u, adjacent_u = stats(unconstrained)
    assert score_c < score_u, f"mean score {score_c:.5f} !< {score_u:.5f}"
    assert adjacent_c < adjacent_u, f"adjacent diff {adjacent_c:.7f} !< {adjacent_u:.7f}"
    report(7, f"constraints lower mean positive-bag score ({score_c:.4f} < {score_u:.4f}) "
              f"and adjacent-score roughness ({adjacent_c:.6f} < {adjacent_u:.6f})")


def test_c08_false_alarm_behavior(trained):
    far = trained["evaluation"].false_alarm
    untrained = init_model(32, TRAIN_SEED)
    untrained_eval = evaluate_manifest(
        trained["test_manifest"], lambda f: score_video(untrained, f, 32)[0], m=32)
    assert far <= 0.05, f"trained false-alarm rate {far:.4f}"
    assert far < untrained_eval.false_alarm, \
        f"trained {far:.4f} !< untrained {untrained_eval.false_alarm:.4f}"
    report(8, f"false-alarm rate at 0.5 is {far:.4f} (untrained model: "
              f"{untrained_eval.false_alarm:.4f})")


def test_c09_baseline_gap(trained):
    baseline = train_linear(trained["train_manifest"], c_reg=1.0, epochs=1000)
    baseline_eval = evaluate_manifest(
        trained["test_manifest"],
        lambda f: score_linear(baseline, f, 32), m=32)
    mil_auc = trained["evaluation"].curve.auc
    assert baseline_eval.curve.auc < mil_auc, \
        f"baseline {baseline_eval.curve.auc:.4f} !< ranking model {mil_auc:.4f}"
    report(9, f"linear baseline AUC {baseline_eval.curve.auc:.4f} < ranking model "
              f"AUC {mil_auc:.4f}")


def tree_digest(root):
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def test_c10_training_determinism(dataset, tmp_path):
    from milrank.cli import main
    args = lambda out: ["train", "--manifest", str(dataset.manifest_path),
                        "--out", str(out), "--iters", "60", "--seed", "9",
                        "--batch", "10", "--segments", "32"]
    assert main(args(tmp_path / "run1")) == 0
    assert main(args(tmp_path / "run2")) == 0
    d1, d2 = tree_digest(tmp_path / "run1"), tree_digest(tmp_path / "run2")
    assert d1 == d2
    report(10, f"identical flags give digest-identical checkpoints and logs ({d1[:12]}...)")


def test_c11_adagrad_unit_oracle():
    model = init_model(3, seed=0, hidden1=2, hidden2=2)
    state = AdagradState.for_model(model, learning_rate=0.001, epsilon=1e-8)
    ones = {name: np.ones_like(arr) for name, arr in model.params().items()}
    step1, state = adagrad_step(model, ones, state)
    delta1 = float(step1.w1[0, 0] - model.w1[0, 0])
    assert abs(delta1 - (-0.001 / (1.0 + 1e-8))) <= 1e-15
    step2, _ = adagrad_step(step1, ones, state)
    delta2 = float(step2.w1[0, 0] - step1.w1[0, 0])
    assert abs(delta2 - (-0.001 / (math.sqrt(2.0) + 1e-8))) <= 1e-15
    report(11, "two-step hand-computed updates match to 1e-15")


def test_c12_format_round_trips(tmp_path):
    rng = np.random.default_rng(12)
    f = FeatureMatrix("v", rng.standard_normal((9, 7)), 144)
    p1, p2 = tmp_path / "a.feat", tmp_path / "b.feat"
    write_features(f, p1, "binary")
    write_features(load_features(p1, "binary"), p2, "binary")
    assert p1.read_bytes() == p2.read_bytes()

    model = init_model(16, seed=12, hidden1=8, hidden2=4, dropout_rate=0.6)
    c1, c2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    save_checkpoint(model, c1)
    loaded = load_checkpoint(c1)
    for name, arr in model.params().items():
        assert np.array_equal(arr, getattr(loaded, name))
    save_checkpoint(loaded, c2)
    assert c1.read_bytes() == c2.read_bytes()
    report(12, "binary features and checkpoints round-trip exactly")
