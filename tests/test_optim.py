import dataclasses
import math

import numpy as np
import pytest

import milrank.optim as optim_module
from loss_oracle import oracle_batch
from milrank.exceptions import DataError, DimensionMismatchError, NonFiniteLossError
from milrank.features import Bag, load_bags, load_manifest
from milrank.loss import LossParams, weight_decay_grads, weight_decay_term
from milrank.network import backward, dropout_masks, forward, forward_with_masks, init_model
from milrank.optim import (
    LOG_HEADER,
    PROBE_HEADER,
    AdagradState,
    TrainConfig,
    adagrad_step,
    sample_pair_indices,
    train,
    train_on_bags,
)
from milrank.rng import mix_to_seed
from milrank.synthetic import SynthSpec, generate
from milrank.validation import csv_lines, write_lines


def toy_bag(video_id, label, rng, m=4, dim=6):
    return Bag(video_id, label, rng.standard_normal((m, dim)))


def toy_bags(n_pos, n_neg, seed=0, m=4, dim=6):
    rng = np.random.default_rng(seed)
    pos = [toy_bag(f"p{i}", 1, rng, m, dim) for i in range(n_pos)]
    neg = [toy_bag(f"n{i}", 0, rng, m, dim) for i in range(n_neg)]
    return pos, neg


@pytest.fixture
def synth_manifest(tmp_path):
    """A tiny ``synth`` training manifest: pos000-pos003, then neg000-neg003, dim 6."""
    spec = SynthSpec(n_pos_videos=4, n_neg_videos=4, dim=6, clips_per_video=8)
    return load_manifest(generate(spec, tmp_path).manifest_path, "train")


def toy_config(**overrides):
    base = dict(iterations=5, seed=3, batch_pos=2, batch_neg=2, segments_per_bag=4,
                hidden1=8, hidden2=4, dropout_rate=0.5)
    base.update(overrides)
    return TrainConfig(**base)


class TestAdagrad:
    def test_hand_computed_two_steps(self):
        model = init_model(3, seed=0, hidden1=2, hidden2=2)
        state = AdagradState.for_model(model, learning_rate=0.001, epsilon=1e-8)
        ones = {name: np.ones_like(arr) for name, arr in model.params().items()}
        stepped, state = adagrad_step(model, ones, state)
        delta1 = stepped.w1[0, 0] - model.w1[0, 0]
        assert abs(delta1 - (-0.001 / (1.0 + 1e-8))) < 1e-15
        stepped2, _ = adagrad_step(stepped, ones, state)
        delta2 = stepped2.w1[0, 0] - stepped.w1[0, 0]
        assert abs(delta2 - (-0.001 / (math.sqrt(2.0) + 1e-8))) < 1e-15

    def test_zero_gradient_is_noop(self):
        model = init_model(3, seed=1, hidden1=2, hidden2=2)
        state = AdagradState.for_model(model, learning_rate=0.001, epsilon=1e-8)
        zeros = {name: np.zeros_like(arr) for name, arr in model.params().items()}
        stepped, new_state = adagrad_step(model, zeros, state)
        for name, arr in model.params().items():
            assert np.array_equal(arr, getattr(stepped, name))
            assert np.array_equal(new_state.accumulators[name], state.accumulators[name])

    def test_accumulators_never_decrease(self):
        rng = np.random.default_rng(2)
        model = init_model(3, seed=2, hidden1=2, hidden2=2)
        state = AdagradState.for_model(model, learning_rate=0.001, epsilon=1e-8)
        prev = {k: v.copy() for k, v in state.accumulators.items()}
        for _ in range(20):
            grads = {name: rng.standard_normal(arr.shape) for name, arr in model.params().items()}
            model, state = adagrad_step(model, grads, state)
            for name in prev:
                assert np.all(state.accumulators[name] >= prev[name])
            prev = {k: v.copy() for k, v in state.accumulators.items()}

    def test_update_bounded_by_lr_g_over_eps(self):
        model = init_model(3, seed=3, hidden1=2, hidden2=2)
        state = AdagradState.for_model(model, learning_rate=0.5, epsilon=1e-4)
        g = {name: np.full(arr.shape, 7.0) for name, arr in model.params().items()}
        stepped, _ = adagrad_step(model, g, state)
        bound = 0.5 * 7.0 / 1e-4
        for name, arr in model.params().items():
            assert np.all(np.abs(getattr(stepped, name) - arr) <= bound)

    def test_shape_mismatch_rejected(self):
        model = init_model(3, seed=4, hidden1=2, hidden2=2)
        state = AdagradState.for_model(model, learning_rate=0.001, epsilon=1e-8)
        bad = {name: np.zeros_like(arr) for name, arr in model.params().items()}
        bad["w1"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            adagrad_step(model, bad, state)


class TestSampler:
    def test_deterministic_per_iteration(self):
        cfg = toy_config(batch_pos=3, batch_neg=3)
        a = sample_pair_indices(10, 10, cfg, 7)
        b = sample_pair_indices(10, 10, cfg, 7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = sample_pair_indices(10, 10, cfg, 8)
        assert not (np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1]))

    def test_exact_batch_exhausts_population(self):
        cfg = toy_config(batch_pos=30, batch_neg=30)
        pos_idx, neg_idx = sample_pair_indices(30, 30, cfg, 1)
        assert sorted(pos_idx) == list(range(30))
        assert sorted(neg_idx) == list(range(30))

    def test_selection_frequencies_uniform(self):
        # each positive bag is a Binomial(T, 0.3) draw; check each count
        # within 3 sigma and the aggregate chi-square statistic (with 100
        # bags a per-bag 3-sigma excursion is likely for many seeds, so the
        # seed is pinned to one where the stricter per-bag check also holds)
        cfg = toy_config(batch_pos=30, batch_neg=30, seed=7)
        T = 1000
        counts = np.zeros(100)
        for it in range(1, T + 1):
            pos_idx, _ = sample_pair_indices(100, 100, cfg, it)
            counts[pos_idx] += 1
        expected = T * 0.3
        sigma = math.sqrt(T * 0.3 * 0.7)
        assert np.all(np.abs(counts - expected) <= 3 * sigma)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 99 dof, p=0.001 critical value ~ 148.2
        assert chi2 < 148.2


class TestTrainLoop:
    def test_log_length_matches_iterations(self):
        pos, neg = toy_bags(4, 4)
        model, log = train_on_bags(pos, neg, toy_config(iterations=1))
        assert len(log.rows) == 1
        model, log = train_on_bags(pos, neg, toy_config(iterations=7))
        assert len(log.rows) == 7
        assert [row[0] for row in log.rows] == list(range(1, 8))

    def test_insufficient_bags(self):
        # checked once, before the first step samples a batch
        cfg = toy_config(batch_pos=5, batch_neg=5)
        for pos, neg, error in ((4, 10, "need at least 5 positive bags, have 4"),
                                (10, 4, "need at least 5 negative bags, have 4")):
            with pytest.raises(DataError, match=f"^{error}$"):
                train_on_bags(*toy_bags(pos, neg), cfg)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            toy_config(iterations=0)

    def test_unequal_batches_rejected(self):
        with pytest.raises(ValueError):
            toy_config(batch_pos=2, batch_neg=3)

    def test_bitwise_deterministic(self):
        pos, neg = toy_bags(4, 4)
        cfg = toy_config(iterations=10)
        model_a, log_a = train_on_bags(pos, neg, cfg)
        model_b, log_b = train_on_bags(pos, neg, cfg)
        for name, arr in model_a.params().items():
            assert np.array_equal(arr, getattr(model_b, name))
        assert log_a.rows == log_b.rows

    def test_losses_finite_and_logged(self):
        pos, neg = toy_bags(4, 4)
        _, log = train_on_bags(pos, neg, toy_config(iterations=20))
        losses = [row[1] for row in log.rows]
        assert len(losses) == 20 and np.isfinite(losses).all()

    def test_probe_snapshots(self, synth_manifest):
        _, log = train(synth_manifest, toy_config(iterations=6, snapshot_every=2))
        iterations = sorted({row[0] for row in log.probe_rows})
        assert iterations == [2, 4, 6]
        per_snapshot = [row for row in log.probe_rows if row[0] == 2]
        assert [seg for _, seg, _ in per_snapshot] == list(range(4))

    def test_probe_by_id(self, synth_manifest):
        # a video's id is its feature file's stem
        snapshots = {}
        _, log = train(synth_manifest, toy_config(iterations=2, snapshot_every=2, probe_video_id="neg002"),
                       snapshot_hook=snapshots.__setitem__)
        bag = load_bags(synth_manifest, 4)[6]
        assert bag.video_id == "neg002"
        assert [score for _, _, score in log.probe_rows] == forward(snapshots[2], bag.segments).tolist()

    def test_snapshot_hook_called(self):
        pos, neg = toy_bags(4, 4)
        seen = []
        cfg = toy_config(iterations=5, snapshot_every=2)
        train_on_bags(pos, neg, cfg, snapshot_hook=lambda it, model: seen.append(it))
        assert seen == [2, 4]

    def test_snapshot_is_the_shorter_runs_model(self):
        # steps are keyed by (seed, iteration), not by the iteration count, so the
        # acceptance suite takes c04's 2000-iteration model from c07's longer run
        pos, neg = toy_bags(4, 4)
        snapshots = {}
        train_on_bags(pos, neg, toy_config(iterations=8, snapshot_every=4),
                      snapshot_hook=lambda it, model: snapshots.setdefault(it, model))
        short, _ = train_on_bags(pos, neg, toy_config(iterations=4))
        for name, arr in short.params().items():
            assert np.array_equal(arr, getattr(snapshots[4], name))

    def test_snapshot_models_make_no_float32_w1(self, synth_manifest):
        # the probe, the first positive video, is scored from its float32 bag, as
        # load_bags makes it: its scores are the snapshot's forward scores bit for
        # bit, yet no snapshot's model keeps forward's float32 copy of w1
        bag = load_bags(synth_manifest, 4)[0]
        assert bag.label == 1 and bag.segments.dtype == np.float32
        snapshots = []
        _, log = train(synth_manifest, toy_config(iterations=6, snapshot_every=2),
                       snapshot_hook=lambda it, model: snapshots.append((it, model)))
        assert [it for it, _ in snapshots] == [2, 4, 6]
        assert not any("w1_float32" in vars(model) for _, model in snapshots)
        for it, model in snapshots:
            probe = np.array([score for i, _, score in log.probe_rows if i == it])
            assert probe.tobytes() == forward(model, bag.segments).tobytes()

    def test_non_finite_loss_aborts_with_iteration(self, monkeypatch):
        pos, neg = toy_bags(4, 4)

        def poisoned(*args, **kwargs):
            raise_at = 3
            poisoned.calls = getattr(poisoned, "calls", 0) + 1
            value = real_term(*args, **kwargs)
            return float("nan") if poisoned.calls >= raise_at * 2 else value

        real_term = optim_module.weight_decay_term
        monkeypatch.setattr(optim_module, "weight_decay_term", poisoned)
        with pytest.raises(NonFiniteLossError, match="iteration"):
            train_on_bags(pos, neg, toy_config(iterations=10))

    def test_mismatched_bag_segments_rejected(self):
        pos, neg = toy_bags(4, 4, m=4)
        bad_pos, _ = toy_bags(1, 1, m=6)
        with pytest.raises(ValueError):
            train_on_bags(bad_pos + pos[1:], neg, toy_config())

    def test_mismatched_bag_dim_rejected(self):
        # a caller that builds its own bags skips load_videos' dimension check
        pos, neg = toy_bags(4, 4, dim=6)
        _, odd_neg = toy_bags(0, 1, dim=5)
        with pytest.raises(DimensionMismatchError, match="bag n0 has dim 5, expected 6"):
            train_on_bags(pos, neg[:2] + odd_neg + neg[3:], toy_config())

    @pytest.mark.parametrize("odd, rest", [(np.float32, np.float64), (np.float64, np.float32)])
    @pytest.mark.parametrize("where", ["first positive", "a negative"])
    def test_mixed_dtype_bags_rejected(self, odd, rest, where):
        # stacking a float64 bag into a float32 buffer would round it silently
        pos, neg = toy_bags(4, 4)
        pos, neg = ([dataclasses.replace(b, segments=b.segments.astype(rest)) for b in bags]
                    for bags in (pos, neg))
        bags, i = (pos, 0) if where == "first positive" else (neg, 2)
        bags[i] = dataclasses.replace(bags[i], segments=bags[i].segments.astype(odd))
        with pytest.raises(ValueError, match="dtype"):
            train_on_bags(pos, neg, toy_config())

    def test_empty_class_rejected(self):
        pos, _ = toy_bags(4, 0)
        with pytest.raises(DataError, match="^need at least 2 negative bags, have 0$"):
            train_on_bags(pos, [], toy_config())


class TestTraceArrays:
    """Each step's trace owns its arrays: the steps of a run share only the
    ``Workspace``'s threads, so a trace kept past its step keeps its bytes."""

    def traced_run(self, monkeypatch, dtype, with_workspace=True):
        pos, neg = toy_bags(4, 4, seed=5)
        pos, neg = ([Bag(b.video_id, b.label, b.segments.astype(dtype)) for b in bags] for bags in (pos, neg))
        traces, trace_bytes = [], []

        def recording_forward(model, X, mask1, mask2, *rest):
            scores, trace = forward_with_masks(model, X, mask1, mask2, *(rest if with_workspace else ()))
            traces.append(trace)
            trace_bytes.append([trace.h1.tobytes(), trace.gate1.tobytes(), trace.gate2.tobytes()])
            return scores, trace

        monkeypatch.setattr(optim_module, "forward_with_masks", recording_forward)
        model, log = train_on_bags(pos, neg, toy_config(iterations=6))
        return model, log, traces, trace_bytes

    def test_held_trace_keeps_its_bytes(self, monkeypatch):
        _, _, traces, trace_bytes = self.traced_run(monkeypatch, np.float32)
        assert not np.shares_memory(traces[0].h1, traces[1].h1)
        for trace, at_its_step in zip(traces, trace_bytes):
            assert [trace.h1.tobytes(), trace.gate1.tobytes(), trace.gate2.tobytes()] == at_its_step

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bytes_without_the_workspace(self, monkeypatch, dtype):
        model, log, _, _ = self.traced_run(monkeypatch, dtype)
        alone_model, alone_log, _, _ = self.traced_run(monkeypatch, dtype, with_workspace=False)
        assert log.to_csv() == alone_log.to_csv()
        for name, arr in model.params().items():
            assert arr.tobytes() == getattr(alone_model, name).tobytes()


def reference_run(pos_bags, neg_bags, cfg):
    """Today's training step written as a per-pair loop over ``oracle_batch``,
    with the masks of the same ``dropout_masks`` draw as the trainer."""
    model = init_model(pos_bags[0].segments.shape[1], cfg.seed, cfg.hidden1, cfg.hidden2,
                       cfg.dropout_rate)
    state = AdagradState.for_model(model, cfg.learning_rate, cfg.adagrad_epsilon)
    lp = cfg.loss_params
    P, m = cfg.batch_pos, cfg.segments_per_bag
    rows = []
    for it in range(1, cfg.iterations + 1):
        pos_idx, neg_idx = sample_pair_indices(len(pos_bags), len(neg_bags), cfg, it)
        X = np.concatenate([pos_bags[i].segments for i in pos_idx]
                           + [neg_bags[j].segments for j in neg_idx])
        mask1, mask2 = dropout_masks(model, 2 * P * m, mix_to_seed(cfg.seed, it))
        scores, trace = forward_with_masks(model, X, mask1, mask2)
        pairs, dscores = oracle_batch(scores.reshape(2 * P, m), lp)
        reg = weight_decay_term(model, lp)
        loss = sum(pair.total for pair in pairs) / P + reg
        grads = backward(model, trace, dscores)
        for name, extra in weight_decay_grads(model, lp).items():
            grads[name] += extra
        model, state = adagrad_step(model, grads, state)
        rows.append((it, loss, np.mean([pair.hinge for pair in pairs]),
                     np.mean([pair.smoothness for pair in pairs]),
                     np.mean([pair.sparsity for pair in pairs]), reg))
    return model, rows


class TestVectorisedStep:
    @pytest.mark.parametrize("overrides", [
        dict(iterations=1, batch_pos=10, batch_neg=10, segments_per_bag=32, hidden1=512,
             hidden2=32, dropout_rate=0.6),
        dict(iterations=4, batch_pos=3, batch_neg=3, segments_per_bag=5, hidden1=16, hidden2=4,
             dropout_rate=0.5, loss_params=LossParams(smoothness_weight=0.2, sparsity_weight=0.1,
                                                     margin=0.3)),
    ])
    def test_matches_per_pair_reference(self, overrides):
        m = overrides["segments_per_bag"]
        pos, neg = toy_bags(12, 12, seed=4, m=m, dim=32)
        cfg = toy_config(**overrides)
        model, log = train_on_bags(pos, neg, cfg)
        ref_model, ref_rows = reference_run(pos, neg, cfg)
        assert len(log.rows) == len(ref_rows)
        for row, ref in zip(log.rows, ref_rows):
            assert row[0] == ref[0]
            assert np.max(np.abs(np.array(row[1:]) - np.array(ref[1:]))) <= 1e-12
        for name, arr in model.params().items():
            assert np.max(np.abs(arr - getattr(ref_model, name))) <= 1e-12

    def test_one_mask_draw_per_iteration(self, monkeypatch):
        pos, neg = toy_bags(4, 4)
        cfg = toy_config(iterations=3)
        calls = []
        real = optim_module.dropout_masks

        def counted(model, n_rows, rng_seed):
            calls.append((n_rows, rng_seed))
            return real(model, n_rows, rng_seed)

        monkeypatch.setattr(optim_module, "dropout_masks", counted)
        train_on_bags(pos, neg, cfg)
        rows = 2 * cfg.batch_pos * cfg.segments_per_bag
        assert calls == [(rows, mix_to_seed(cfg.seed, it)) for it in (1, 2, 3)]

    def test_keep_rate_within_four_sigma(self):
        model = init_model(4, seed=0, hidden1=512, hidden2=32, dropout_rate=0.6)
        mask1, mask2 = dropout_masks(model, 2000, rng_seed=mix_to_seed(5, 1))
        draws = np.concatenate([mask1.ravel(), mask2.ravel()])
        assert draws.size >= 10**6
        keep = 0.4
        sigma = math.sqrt(keep * (1.0 - keep) / draws.size)
        assert abs(draws.mean() - keep) <= 4.0 * sigma
        for mask in (mask1, mask2):  # both sites, not just the pooled draw
            assert abs(mask.mean() - keep) <= 4.0 * math.sqrt(keep * (1.0 - keep) / mask.size)


def frozen(arrays):
    return {name: arr.copy() for name, arr in arrays.items()}


def assert_unchanged(arrays, copies):
    assert arrays.keys() == copies.keys()
    for name, arr in arrays.items():
        assert arr.dtype == copies[name].dtype and arr.tobytes() == copies[name].tobytes(), name


def assert_no_shared_memory(outputs, inputs):
    for out in outputs:
        assert not any(np.shares_memory(out, arr) for arr in inputs)


class TestPurity:
    """The step's building blocks leave their inputs unchanged and return fresh arrays."""

    def setup_method(self):
        self.model = init_model(6, seed=8, hidden1=8, hidden2=4, dropout_rate=0.5)
        rng = np.random.default_rng(8)
        self.grads = {name: rng.standard_normal(arr.shape) for name, arr in self.model.params().items()}
        self.state = AdagradState(frozen({name: rng.uniform(0.0, 2.0, arr.shape)
                                          for name, arr in self.model.params().items()}),
                                  learning_rate=0.001, epsilon=1e-8)

    def test_adagrad_step(self):
        params, grads, acc = (frozen(self.model.params()), frozen(self.grads),
                              frozen(self.state.accumulators))
        stepped, new_state = adagrad_step(self.model, self.grads, self.state)
        assert_unchanged(self.model.params(), params)
        assert_unchanged(self.grads, grads)
        assert_unchanged(self.state.accumulators, acc)
        inputs = [*self.model.params().values(), *self.grads.values(),
                  *self.state.accumulators.values()]
        assert_no_shared_memory([*stepped.params().values(), *new_state.accumulators.values()],
                                inputs)

    def test_weight_decay_grads(self):
        params = frozen(self.model.params())
        extra = weight_decay_grads(self.model, LossParams(weight_decay=0.25))
        assert_unchanged(self.model.params(), params)
        assert_no_shared_memory(extra.values(), self.model.params().values())
        for name, arr in extra.items():
            assert np.array_equal(arr, 0.5 * params[name])

    def test_backward(self):
        X = np.random.default_rng(9).standard_normal((5, 6))
        _, trace = forward_with_masks(self.model, X, *dropout_masks(self.model, 5, 3))
        fields = {f.name: getattr(trace, f.name) for f in dataclasses.fields(trace)
                  if isinstance(getattr(trace, f.name), np.ndarray)}
        copies = frozen(fields)
        params = frozen(self.model.params())
        g = np.array([0.5, 0.0, -1.0, 0.0, 2.0])
        g_copy = g.copy()
        grads = backward(self.model, trace, g)
        assert_unchanged(fields, copies)
        assert_unchanged(self.model.params(), params)
        assert g.tobytes() == g_copy.tobytes()
        assert_no_shared_memory(grads.values(), [*fields.values(), *self.model.params().values()])

    def test_snapshot_models_are_distinct_and_kept(self):
        pos, neg = toy_bags(4, 4)
        kept = []
        cfg = toy_config(iterations=6, snapshot_every=1)
        final, _ = train_on_bags(pos, neg, cfg,
                                 snapshot_hook=lambda it, model: kept.append((model, frozen(model.params()))))
        assert len(kept) == 6
        for model, params in kept:
            assert_unchanged(model.params(), params)
        arrays = [arr for model, _ in kept for arr in model.params().values()]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
        assert_unchanged(final.params(), kept[-1][1])


class TestTrainingLogCsv:
    def test_csv_shape(self, tmp_path):
        pos, neg = toy_bags(4, 4)
        _, log = train_on_bags(pos, neg, toy_config(iterations=3))
        path = tmp_path / "log.csv"
        write_lines(path, csv_lines(LOG_HEADER, log.rows))
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,loss,hinge_mean,smooth_mean,sparse_mean,reg"
        assert len(lines) == 4
        # values round-trip through repr
        parts = lines[1].split(",")
        assert int(parts[0]) == 1
        assert all(math.isfinite(float(p)) for p in parts[1:])

    def test_probe_csv_shape(self, tmp_path, synth_manifest):
        _, log = train(synth_manifest, toy_config(iterations=4, snapshot_every=2))
        path = tmp_path / "probe.csv"
        write_lines(path, csv_lines(PROBE_HEADER, log.probe_rows))
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,segment_index,score"
        assert len(lines) == 1 + 2 * 4
