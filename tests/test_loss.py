import numpy as np
import pytest
from loss_oracle import oracle_pair

from milrank.loss import LossParams, ranking_loss_and_grad, weight_decay_term
from milrank.network import clone_with_params, init_model

ZERO_EXTRAS = LossParams(smoothness_weight=0.0, sparsity_weight=0.0)


def one_pair(p, q, params):
    """``ranking_loss_and_grad`` on the one-pair batch of score vectors p and q."""
    return ranking_loss_and_grad(np.asarray(p)[None], np.asarray(q)[None], params)


def total(p, q, params) -> float:
    return float(one_pair(p, q, params).totals[0])


def grads(p, q, params) -> tuple[np.ndarray, np.ndarray]:
    out = one_pair(p, q, params)
    return out.grad_pos[0], out.grad_neg[0]


def logged_loss(pairs, params, model) -> float:
    """The loss ``train_on_bags`` logs: mean pair total plus weight decay."""
    S_pos, S_neg = zip(*pairs)
    totals = ranking_loss_and_grad(S_pos, S_neg, params).totals
    return float(totals.mean()) + weight_decay_term(model, params)


def jittered_scores(rng, m):
    """Random score vectors with well-separated entries (unique argmax,
    hinge away from its kink), so finite differences are valid."""
    while True:
        p = rng.uniform(0.05, 0.95, size=m)
        q = rng.uniform(0.05, 0.95, size=m)
        gap_p = np.sort(p)[-1] - np.sort(p)[-2]
        gap_q = np.sort(q)[-1] - np.sort(q)[-2]
        hinge_arg = 1.0 - p.max() + q.max()
        if gap_p > 1e-3 and gap_q > 1e-3 and abs(hinge_arg) > 1e-3:
            return p, q


class TestPairLoss:
    def test_worked_example(self):
        params = LossParams(smoothness_weight=0.1, sparsity_weight=0.1, margin=1.0)
        out = one_pair([0.5, 0.7], [0.2, 0.1], params)
        assert abs(out.hinge[0] - 0.5) < 1e-12
        assert abs(out.smoothness[0] - 0.004) < 1e-12
        assert abs(out.sparsity[0] - 0.12) < 1e-12
        assert abs(out.totals[0] - 0.624) < 1e-12
        assert out.argmax_pos[0] == 1 and out.argmax_neg[0] == 0

    def test_perfect_separation(self):
        assert total(np.ones(4), np.zeros(4), ZERO_EXTRAS) == 0.0

    def test_all_zero_scores(self):
        assert one_pair(np.zeros(4), np.zeros(4), ZERO_EXTRAS).hinge[0] == 1.0

    def test_tie_breaks_to_lowest_index(self):
        out = one_pair([0.7, 0.7, 0.1], [0.3, 0.3, 0.3], LossParams())
        assert out.argmax_pos[0] == 0 and out.argmax_neg[0] == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            one_pair([0.1, 0.2], [0.1, 0.2, 0.3], LossParams())

    def test_single_segment_rejected(self):
        with pytest.raises(ValueError):
            one_pair([0.1], [0.2], LossParams())

    def test_scores_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            one_pair([0.1, 1.2], [0.1, 0.2], LossParams())


class TestPairLossProperties:
    def test_total_non_negative_and_hinge_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            m = int(rng.integers(2, 40))
            p = rng.uniform(0, 1, m)
            q = rng.uniform(0, 1, m)
            params = LossParams(smoothness_weight=rng.uniform(0, 1),
                                sparsity_weight=rng.uniform(0, 1))
            out = one_pair(p, q, params)
            assert out.totals[0] >= 0.0
            assert 0.0 <= out.hinge[0] <= params.margin + 1.0

    def test_negative_bag_permutation_invariance(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0, 1, 8)
        q = rng.uniform(0, 1, 8)
        base = one_pair(p, q, LossParams())
        shuffled = one_pair(p, rng.permutation(q), LossParams())
        assert shuffled.hinge[0] == base.hinge[0]
        assert shuffled.smoothness[0] == base.smoothness[0]
        assert shuffled.sparsity[0] == base.sparsity[0]

    def test_raising_max_pos_never_raises_hinge(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = rng.uniform(0, 0.8, 6)
            q = rng.uniform(0, 1, 6)
            i = int(np.argmax(p))
            p_up = p.copy()
            p_up[i] = min(1.0, p[i] + rng.uniform(0, 0.2))
            assert one_pair(p_up, q, ZERO_EXTRAS).hinge[0] <= one_pair(p, q, ZERO_EXTRAS).hinge[0]


class TestPairLossGrad:
    def test_flat_region_zero_grad(self):
        # hinge inactive and no extra terms
        params = LossParams(smoothness_weight=0.0, sparsity_weight=0.0)
        dpos, dneg = grads([1.0, 1.0], [0.0, 0.0], params)
        assert not dpos.any() and not dneg.any()

    def test_pure_sparsity_grad(self):
        c = 0.37
        params = LossParams(smoothness_weight=0.0, sparsity_weight=c)
        dpos, dneg = grads([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], params)
        assert np.array_equal(dpos, np.full(3, c))
        assert not dneg.any()

    def test_gradient_sparsity_without_extras(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p, q = jittered_scores(rng, 6)
            dpos, dneg = grads(p, q, ZERO_EXTRAS)
            assert np.count_nonzero(dpos) <= 1
            assert np.count_nonzero(dneg) <= 1

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(4)
        params = LossParams(smoothness_weight=0.03, sparsity_weight=0.02)
        h = 1e-7
        for _ in range(60):
            p, q = jittered_scores(rng, 5)
            dpos, dneg = grads(p, q, params)
            for vec, grad in ((p, dpos), (q, dneg)):
                for i in range(5):
                    up, down = vec.copy(), vec.copy()
                    up[i] += h
                    down[i] -= h
                    if vec is p:
                        fd = (total(up, q, params) - total(down, q, params)) / (2 * h)
                    else:
                        fd = (total(p, up, params) - total(p, down, params)) / (2 * h)
                    assert abs(grad[i] - fd) < 1e-6


def score_matrices(rng, P, m):
    """Random (P, m) score matrices with exact argmax ties planted in some
    rows and perfectly separated (inactive-hinge) pairs in others."""
    S_pos = rng.uniform(0, 1, (P, m))
    S_neg = rng.uniform(0, 1, (P, m))
    for j in range(0, P, 3):  # tie: a second entry equals the row maximum
        for S in (S_pos, S_neg):
            top = int(np.argmax(S[j]))
            S[j, (top + 1 + int(rng.integers(0, m - 1))) % m] = S[j, top]
    for j in range(1, P, 4):  # hinge inactive: max p - max q >= margin
        S_pos[j, int(rng.integers(0, m))] = 1.0
        S_neg[j] = 0.0
    return S_pos, S_neg


class TestRankingLossAndGrad:
    def test_matches_per_pair_oracle(self):
        rng = np.random.default_rng(11)
        inactive = active = 0
        for trial in range(200):
            P = int(rng.integers(1, 12))
            m = int(rng.integers(2, 40))
            params = LossParams(smoothness_weight=rng.uniform(0, 0.5),
                                sparsity_weight=rng.uniform(0, 0.5),
                                margin=rng.uniform(0.1, 1.5))
            S_pos, S_neg = score_matrices(rng, P, m)
            out = ranking_loss_and_grad(S_pos, S_neg, params)
            for j in range(P):
                ref = oracle_pair(S_pos[j], S_neg[j], params)
                assert abs(out.hinge[j] - ref.hinge) <= 1e-12
                assert abs(out.smoothness[j] - ref.smoothness) <= 1e-12
                assert abs(out.sparsity[j] - ref.sparsity) <= 1e-12
                assert abs(out.totals[j] - ref.total) <= 1e-12
                assert out.argmax_pos[j] == ref.argmax_pos
                assert out.argmax_neg[j] == ref.argmax_neg
                assert np.max(np.abs(out.grad_pos[j] - ref.dpos)) <= 1e-12
                assert np.max(np.abs(out.grad_neg[j] - ref.dneg)) <= 1e-12
                inactive += ref.hinge == 0.0
                active += ref.hinge > 0.0
        assert inactive > 50 and active > 50

    def test_ties_break_to_lowest_index_per_row(self):
        S_pos = np.array([[0.2, 0.9, 0.9, 0.1], [0.8, 0.8, 0.8, 0.8]])
        S_neg = np.array([[0.3, 0.3, 0.1, 0.3], [0.1, 0.5, 0.2, 0.5]])
        out = ranking_loss_and_grad(S_pos, S_neg, LossParams())
        assert out.argmax_pos.tolist() == [1, 0]
        assert out.argmax_neg.tolist() == [0, 1]

    @pytest.mark.parametrize("S_pos, S_neg", [
        (np.full((2, 3), 0.5), np.full((2, 4), 0.5)),  # shapes differ
        (np.full((2, 3), 0.5), np.full((3, 3), 0.5)),
        (np.full(3, 0.5), np.full(3, 0.5)),  # not 2-D
        (np.full((2, 1), 0.5), np.full((2, 1), 0.5)),  # one segment
        (np.full((0, 3), 0.5), np.full((0, 3), 0.5)),  # no pairs
        (np.full((2, 3), 0.5), np.array([[0.5, 1.5, 0.5], [0.5, 0.5, 0.5]])),
        (np.array([[0.5, np.nan, 0.5]]), np.full((1, 3), 0.5)),
    ])
    def test_malformed_batches_rejected(self, S_pos, S_neg):
        with pytest.raises(ValueError):
            ranking_loss_and_grad(S_pos, S_neg, LossParams())


class TestBatchLoss:
    def test_zero_weight_model_gives_pair_total(self):
        model = init_model(4, seed=0, hidden1=3, hidden2=2)
        zeroed = model.params()
        for arr in zeroed.values():
            arr[...] = 0.0
        zero_model = clone_with_params(model, zeroed)
        params = LossParams(weight_decay=123.0)
        pair = ([0.2, 0.8], [0.3, 0.1])
        expected = total(*pair, params)
        assert logged_loss([pair], params, zero_model) == pytest.approx(expected, abs=1e-15)

    def test_two_identical_pairs_average(self):
        model = init_model(4, seed=1, hidden1=3, hidden2=2)
        params = LossParams()
        pair = ([0.2, 0.8], [0.3, 0.1])
        single = logged_loss([pair], params, model)
        double = logged_loss([pair, pair], params, model)
        assert double == pytest.approx(single, rel=1e-15)

    def test_naive_summation_oracle(self):
        rng = np.random.default_rng(5)
        model = init_model(4, seed=2, hidden1=3, hidden2=2)
        params = LossParams(smoothness_weight=0.01, sparsity_weight=0.02, weight_decay=0.5)
        pairs = [(rng.uniform(0, 1, 6), rng.uniform(0, 1, 6)) for _ in range(9)]
        expected = 0.0
        for p, q in pairs:
            hinge = max(0.0, 1.0 - max(p) + max(q))
            smooth = 0.01 * sum((p[i] - p[i + 1]) ** 2 for i in range(5))
            sparse = 0.02 * sum(p)
            expected += hinge + smooth + sparse
        expected /= len(pairs)
        sq = sum(float((w ** 2).sum()) for w in (model.w1, model.w2, model.w3))
        expected += 0.5 * sq
        assert logged_loss(pairs, params, model) == pytest.approx(expected, abs=1e-12)


class TestParamsValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossParams(smoothness_weight=-1e-9)

    def test_zero_margin_rejected(self):
        with pytest.raises(ValueError):
            LossParams(margin=0.0)

    def test_weight_decay_term_zero_for_zero_weights(self):
        model = init_model(4, seed=0, hidden1=3, hidden2=2)
        assert weight_decay_term(model, LossParams(weight_decay=0.0)) == 0.0
