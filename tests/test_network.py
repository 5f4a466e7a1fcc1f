import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from milrank.exceptions import DimensionMismatchError, FormatError
from milrank.loss import LossParams, ranking_loss_and_grad
from milrank.network import (
    ForwardTrace,
    MlpModel,
    Workspace,
    backward,
    clone_with_params,
    dropout_masks,
    forward,
    forward_with_masks,
    init_model,
    load_checkpoint,
    save_checkpoint,
)


def tiny_model(seed=3, dropout=0.0):
    return init_model(8, seed=seed, hidden1=8, hidden2=4, dropout_rate=dropout)


def train_forward(model, X, seed):
    """The trainer's pass: ``forward_with_masks`` with one ``dropout_masks`` draw for every row."""
    return forward_with_masks(model, X, *dropout_masks(model, X.shape[0], seed))


def unmasked_forward(model, X):
    """The eval pass with its trace: ``forward_with_masks`` with no masks."""
    return forward_with_masks(model, X, None, None)


def zero_model(dim=8, h1=8, h2=4, dropout=0.0):
    return MlpModel(
        w1=np.zeros((h1, dim)), b1=np.zeros(h1),
        w2=np.zeros((h2, h1)), b2=np.zeros(h2),
        w3=np.zeros((1, h2)), b3=np.zeros(1),
        dropout_rate=dropout,
    )


class TestInit:
    def test_deterministic(self):
        a = init_model(16, seed=9, hidden1=8, hidden2=4)
        b = init_model(16, seed=9, hidden1=8, hidden2=4)
        for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_biases_zero(self):
        model = init_model(16, seed=0)
        assert not model.b1.any() and not model.b2.any() and not model.b3.any()

    def test_fan_balanced_bounds_at_full_scale(self):
        model = init_model(4096, seed=1)
        limit = math.sqrt(6.0 / (4096 + 512))
        assert model.w1.min() >= -limit and model.w1.max() <= limit
        # the draw actually exercises most of the interval
        assert model.w1.max() > 0.9 * limit

    def test_different_seeds_differ(self):
        assert not np.array_equal(init_model(8, seed=0).w1, init_model(8, seed=1).w1)


class TestForward:
    def test_zero_model_scores_half(self):
        scores = forward(zero_model(), np.random.default_rng(0).standard_normal((5, 8)))
        assert np.array_equal(scores, np.full(5, 0.5))

    def test_zero_dropout_train_equals_eval(self):
        model = tiny_model(dropout=0.0)
        X = np.random.default_rng(1).standard_normal((4, 8))
        train_scores, _ = train_forward(model, X, 5)
        eval_scores = forward(model, X)
        assert np.array_equal(train_scores, eval_scores)

    def test_straight_line_oracle(self):
        # re-evaluate the three matrix-vector chains with explicit loops
        model = tiny_model(seed=11)
        rng = np.random.default_rng(2)
        X = rng.standard_normal((3, 8))
        scores = forward(model, X)
        for r in range(3):
            h1 = [max(0.0, sum(model.w1[i, j] * X[r, j] for j in range(8)) + model.b1[i])
                  for i in range(8)]
            h2 = [sum(model.w2[i, j] * h1[j] for j in range(8)) + model.b2[i]
                  for i in range(4)]
            logit = sum(model.w3[0, j] * h2[j] for j in range(4)) + model.b3[0]
            expected = 1.0 / (1.0 + math.exp(-logit))
            assert abs(scores[r] - expected) < 1e-12

    def test_scores_strictly_inside_unit_interval(self):
        model = tiny_model(seed=4)
        X = np.random.default_rng(3).uniform(-5, 5, size=(200, 8))
        scores = forward(model, X)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            forward(tiny_model(), np.ones((2, 5)))

    def test_train_masks_reproducible(self):
        model = tiny_model(dropout=0.5)
        X = np.random.default_rng(5).standard_normal((4, 8))
        a, _ = train_forward(model, X, 7)
        b, _ = train_forward(model, X, 7)
        c, _ = train_forward(model, X, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_batched_masked_forward_matches_per_bag(self):
        # the trainer stacks bags into one pass; slices must equal per-bag calls
        model = tiny_model(seed=6, dropout=0.6)
        rng = np.random.default_rng(6)
        bags = [rng.standard_normal((4, 8)) for _ in range(3)]
        seeds = [101, 202, 303]
        per_bag = [train_forward(model, b, s)[0] for b, s in zip(bags, seeds)]
        masks = [dropout_masks(model, 4, s) for s in seeds]
        stacked, _ = forward_with_masks(
            model,
            np.concatenate(bags),
            np.concatenate([m1 for m1, _ in masks]),
            np.concatenate([m2 for _, m2 in masks]),
        )
        assert np.array_equal(stacked, np.concatenate(per_bag))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        model = tiny_model(seed=5)
        X = np.random.default_rng(7).standard_normal((3, 8))
        _, trace = unmasked_forward(model, X)
        grads = backward(model, trace, np.zeros(3))
        assert all(not g.any() for g in grads.values())

    def test_finite_difference_on_single_score(self):
        model = tiny_model(seed=8)
        x = np.random.default_rng(8).standard_normal((1, 8))
        _, trace = unmasked_forward(model, x)
        grads = backward(model, trace, np.ones(1))
        h = 1e-5
        for name, arr in model.params().items():
            flat = arr.ravel()
            for i in range(flat.size):
                pert = {k: v.copy() for k, v in model.params().items()}
                pert[name].ravel()[i] = flat[i] + h
                up = forward(clone_with_params(model, pert), x)
                pert[name].ravel()[i] = flat[i] - h
                down = forward(clone_with_params(model, pert), x)
                fd = (up[0] - down[0]) / (2 * h)
                analytic = grads[name].ravel()[i]
                assert abs(analytic - fd) <= 1e-4 * max(abs(fd), 1e-2)

    def test_masked_unit_gets_no_gradient(self):
        model = tiny_model(seed=9, dropout=0.5)
        X = np.abs(np.random.default_rng(9).standard_normal((1, 8))) + 0.1
        scores, trace = train_forward(model, X, 77)
        grads = backward(model, trace, np.ones(1))
        dropped_units = np.flatnonzero(~dropout_masks(model, 1, 77)[0][0])
        assert dropped_units.size > 0  # seed chosen so at least one unit drops
        for j in dropped_units:
            assert not grads["w1"][j].any()
            assert grads["b1"][j] == 0.0

    def test_trace_shape_mismatch_rejected(self):
        model = tiny_model()
        _, trace = unmasked_forward(model, np.ones((3, 8)))
        with pytest.raises(ValueError):
            backward(model, trace, np.zeros(4))

    def test_trace_holds_only_what_backward_reads(self):
        names = [field.name for field in dataclasses.fields(ForwardTrace)]
        assert names == ["inputs", "h1", "h2", "scores", "gate1", "gate2"]


def full_row_backward(model, trace, g):
    """Reference gradients: every layer runs over every row of the batch,
    whether or not its score gradient is zero."""
    dlogits = g * trace.scores * (1.0 - trace.scores)
    dh2 = dlogits[:, None] @ model.w3
    if trace.gate2 is not None:
        dh2 = dh2 * trace.gate2
    dz1 = dh2 @ model.w2
    z1 = trace.inputs @ model.w1.T + model.b1
    dz1 = dz1 * (trace.gate1 if trace.gate1 is not None else z1 > 0.0)
    return {"w1": dz1.T @ trace.inputs, "b1": dz1.sum(axis=0),
            "w2": dh2.T @ trace.h1, "b2": dh2.sum(axis=0),
            "w3": dlogits[None, :] @ trace.h2, "b3": np.array([dlogits.sum()])}


class TestLiveRowBackward:
    """``backward`` skips rows with a zero logit gradient; it must equal the
    full-row formula and never read those rows' inputs or activations."""

    P, M = 4, 8

    def batch(self, mode):
        model = init_model(16, seed=12, hidden1=32, hidden2=8, dropout_rate=0.6)
        X = np.random.default_rng(12).standard_normal((2 * self.P * self.M, 16))
        _, trace = train_forward(model, X, 5) if mode == "train" else unmasked_forward(model, X)
        return model, trace

    def ranking_gradient(self, trace):
        S = trace.scores.reshape(2 * self.P, self.M)
        terms = ranking_loss_and_grad(S[:self.P], S[self.P:], LossParams(margin=2.0))
        return np.concatenate((terms.grad_pos, terms.grad_neg)).ravel() / self.P

    def cases(self):
        model, trace = self.batch("train")
        rng = np.random.default_rng(13)
        yield "every row live", model, trace, rng.uniform(0.1, 1.0, trace.scores.size)
        yield "no row live", model, trace, np.zeros(trace.scores.size)
        yield "negatives at their argmax", model, trace, self.ranking_gradient(trace)
        scattered = rng.uniform(0.1, 1.0, trace.scores.size) * (rng.random(trace.scores.size) < 0.3)
        scattered[0] = 0.0
        yield "scattered, row 0 dead", model, trace, scattered
        model, trace = self.batch("eval")
        yield "eval trace", model, trace, self.ranking_gradient(trace)

    def assert_matches(self, grads, ref):
        assert grads.keys() == ref.keys()
        for name, want in ref.items():
            got = grads[name]
            assert got.shape == want.shape
            assert np.isfinite(got).all()
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=0.0)

    def test_cases_cover_both_gates_and_live_counts(self):
        live = {}
        for label, _, trace, g in self.cases():
            live[label] = np.count_nonzero(g)
            assert (trace.gate1 is None) == (label == "eval trace")
        rows = 2 * self.P * self.M
        assert live["every row live"] == rows and live["no row live"] == 0
        # margin 2 keeps every hinge active: all positive rows plus one argmax per negative bag
        assert live["negatives at their argmax"] == live["eval trace"] == self.P * self.M + self.P
        assert 0 < live["scattered, row 0 dead"] < rows

    def test_matches_full_row_formula(self):
        for _, model, trace, g in self.cases():
            self.assert_matches(backward(model, trace, g), full_row_backward(model, trace, g))

    def test_dead_rows_never_read(self):
        for _, model, trace, g in self.cases():
            dead = g == 0.0
            poisoned = dataclasses.replace(trace, inputs=trace.inputs.copy(), h1=trace.h1.copy())
            poisoned.inputs[dead] = np.nan
            poisoned.h1[dead] = np.nan
            self.assert_matches(backward(model, poisoned, g), full_row_backward(model, trace, g))


class TestSplitRows:
    """``Workspace.split_rows`` cuts a large float32 GEMM into one block of
    rows per worker; the product keeps the single call's bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_forward_and_dw1_shapes_match_one_call(self, dtype, workers, pool_submits):
        # X @ W1.T and dZ1.T @ X, with odd counts of rows, columns and inner
        # terms, each large enough for three blocks
        rng = np.random.default_rng(11)
        X, w1 = rng.standard_normal((1001, 513)), rng.standard_normal((511, 513))
        dz1, rows = rng.standard_normal((401, 511)), rng.standard_normal((401, 1025))
        with Workspace(workers) as ws:
            for a, b in ((X, w1.T), (dz1.T, rows)):
                a, b = a.astype(dtype), b.astype(dtype)
                assert ws.split_rows("out", a, b).tobytes() == (a @ b).tobytes()
        # float64 products always stay one call
        assert len(pool_submits) == (2 * workers if workers > 1 and dtype == np.float32 else 0)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_training_pass_matches_one_worker(self, workers, pool_submits):
        model = init_model(1025, seed=4, hidden1=511, hidden2=8, dropout_rate=0.6)
        X = np.random.default_rng(4).standard_normal((640, 1025)).astype(np.float32)
        masks = dropout_masks(model, 640, 7)

        def step(ws):
            scores, trace = forward_with_masks(model, X, *masks, ws)
            S = scores.reshape(20, 32)
            terms = ranking_loss_and_grad(S[:10], S[10:], LossParams())
            grads = backward(model, trace, np.concatenate((terms.grad_pos, terms.grad_neg)).ravel() / 10, ws)
            return [scores, trace.h1, trace.gate1, *grads.values()]

        with Workspace(1) as one, Workspace(workers) as many:
            want, got = step(one), step(many)
        assert [arr.tobytes() for arr in got] == [arr.tobytes() for arr in want]
        assert pool_submits  # both GEMMs were split

    def test_small_work_stays_on_calling_thread(self, pool_submits):
        rng = np.random.default_rng(5)
        with Workspace(2) as ws:
            # the acceptance-scale training step: 10 + 10 bags of 32 segments at dim 32
            model = init_model(32, seed=5, dropout_rate=0.6)
            X = rng.standard_normal((640, 32)).astype(np.float32)
            scores, trace = forward_with_masks(model, X, *dropout_masks(model, 640, 5), ws)
            backward(model, trace, np.ones(640), ws)
            # eval's 32-row bags at the paper's dim
            ws.split_rows("z1", rng.standard_normal((32, 4096)), rng.standard_normal((4096, 512)))
            ws.split_rows("z1", *(rng.standard_normal(shape).astype(np.float32)
                                  for shape in ((32, 4096), (4096, 512))))
            # many multiply-adds, but fewer rows than two blocks need
            ws.split_rows("dw1", *(rng.standard_normal(shape).astype(np.float32)
                                   for shape in ((100, 4096), (4096, 1024))))
        assert pool_submits == []


class TestDropoutExpectation:
    def test_mean_train_logits_near_eval_logits(self):
        # inverted scaling keeps the expected pre-sigmoid activation close
        # to the eval-mode value; checked loosely over 10,000 mask draws
        model = init_model(8, seed=21, hidden1=16, hidden2=8, dropout_rate=0.6)
        x = np.random.default_rng(10).standard_normal(8)
        _, eval_trace = unmasked_forward(model, x[None, :])
        eval_logit = (eval_trace.h2 @ model.w3.T + model.b3)[0, 0]
        assert abs(eval_logit) > 0.01  # keep the relative comparison meaningful
        stacked = np.tile(x, (10_000, 1))
        _, train_trace = train_forward(model, stacked, 0)
        mean_logit = (train_trace.h2 @ model.w3.T + model.b3).mean()
        assert abs(mean_logit - eval_logit) <= 0.10 * abs(eval_logit)


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        model = init_model(12, seed=13, hidden1=6, hidden2=3, dropout_rate=0.25)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(model, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_exact(self, tmp_path):
        model = init_model(5, seed=17, hidden1=4, hidden2=2)
        path = tmp_path / "m.bin"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for name, arr in model.params().items():
            assert np.array_equal(arr, getattr(loaded, name))
        assert loaded.dropout_rate == model.dropout_rate

    def test_special_values_and_paper_shape_bit_exact(self, tmp_path):
        model = init_model(4096, seed=21)
        assert model.w1.shape == (512, 4096)
        w3 = model.w3.copy()
        w3[0, :5] = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        model = clone_with_params(model, {"w3": w3})
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(model, p1)
        loaded = load_checkpoint(p1)
        for name, arr in model.params().items():
            got = getattr(loaded, name)
            assert got.tobytes() == arr.tobytes(), name
            assert got.dtype == np.float64 and got.dtype.isnative, name
            assert got.flags.writeable and got.flags.aligned and got.flags.c_contiguous, name
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_line_then_float64_payload(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "m.bin"
        save_checkpoint(model, path)
        header, payload = path.read_bytes().split(b"\n", 1)
        assert json.loads(header) == {"version": 3, "dim": 8, "widths": [8, 4], "dropout_rate": 0.0}
        assert payload == b"".join(arr.astype("<f8").tobytes() for arr in model.params().values())

    def test_bad_version(self, tmp_path):
        path = tmp_path / "m.bin"
        save_checkpoint(tiny_model(), path)
        data = path.read_bytes()
        for version in (1, 2, 4):
            path.write_bytes(data.replace(b'"version": 3', f'"version": {version}'.encode(), 1))
            with pytest.raises(FormatError, match=f"unsupported version {version}, expected 3"):
                load_checkpoint(path)

    def test_wrong_param_length(self, tmp_path):
        path = tmp_path / "m.bin"
        save_checkpoint(tiny_model(), path)
        data = path.read_bytes()
        want = 8 * (8 * 8 + 8 + 4 * 8 + 4 + 4 + 1)
        assert len(data) - data.index(b"\n") - 1 == want
        for wrong, got in ((data[:-8], want - 8), (data + bytes(8), want + 8)):
            path.write_bytes(wrong)
            with pytest.raises(FormatError, match=f"expected {want} bytes of float64 after the header, got {got}"):
                load_checkpoint(path)

    def test_loading_allocates_little_beyond_the_payload(self, tmp_path):
        """Loading a paper-shape checkpoint allocates at most half its float64
        payload beyond the payload itself: the weights are read straight into
        one array, with no text or bytes copy.  Counted by tracemalloc, with no
        timing."""
        path = tmp_path / "m.bin"
        save_checkpoint(init_model(4096, seed=21), path)
        payload = 8 * (512 * 4096 + 512 + 32 * 512 + 32 + 32 + 1)
        assert path.stat().st_size > payload
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * payload
