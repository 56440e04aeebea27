"""Feed-forward teacher: forward against a hand-rolled triple-loop
oracle and, bit for bit, against a chain of allocating expressions, in
one block or in row blocks, on one thread or several;
backward against central finite differences and, bit for bit, against
a chain of allocating expressions that recomputes the activations."""

import math
import sys
import threading
import time

import numpy as np
import pytest

from kdtrain import feedforward
from kdtrain.distill import batch_soft_loss, one_hot_rows
from kdtrain.errors import ShapeError
from kdtrain.feedforward import (
    _BLOCK_ROWS,
    FeedForwardParams,
    ff_backward,
    ff_forward,
    init_feedforward,
    sigmoid,
)
from param_vectors import finite_diff_check, pack, unpack_into


def naive_forward(params, features):
    """Triple-loop reimplementation of the forward pass."""
    h = [list(row) for row in features]
    n_layers = len(params.weights)
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = []
        for row in h:
            new = []
            for o in range(w.shape[0]):
                acc = b[o]
                for i in range(w.shape[1]):
                    acc += w[o, i] * row[i]
                if li < n_layers - 1:
                    acc = 1.0 / (1.0 + math.exp(-acc))
                new.append(acc)
            out.append(new)
        h = out
    return np.array(h)


def reference_forward(params, features):
    """The forward as a chain of allocating expressions."""
    h = features
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = sigmoid(h @ w.T + b)
    return h @ params.weights[-1].T + params.biases[-1]


def reference_backward(params, features, logit_grads):
    """The backward as a chain of allocating expressions, on activations
    recomputed as reference_forward computes them."""
    acts = [features]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        acts.append(sigmoid(acts[-1] @ w.T + b))
    weight_grads, bias_grads = [], []
    delta = logit_grads
    for layer in range(len(params.weights) - 1, -1, -1):
        weight_grads.insert(0, delta.T @ acts[layer])
        bias_grads.insert(0, delta.sum(axis=0))
        delta = (delta @ params.weights[layer]) * acts[layer] * (1.0 - acts[layer])
    return FeedForwardParams(weight_grads, bias_grads)


def backward(params, features, logit_grads):
    """ff_backward on the activations ff_forward records for ``features``."""
    hidden = []
    ff_forward(params, features, hidden)
    return ff_backward(params, features, logit_grads, hidden)


class TestSigmoid:
    X = np.linspace(-40.0, 40.0, 160_001)

    def test_symmetric_within_one_ulp(self):
        """1 - sigmoid(x) resolves only an ulp of [0.5, 1), so that ulp
        is the bound, also where sigmoid(-x) itself is tiny."""
        np.testing.assert_allclose(
            sigmoid(-self.X), 1.0 - sigmoid(self.X), rtol=0, atol=np.spacing(0.5)
        )

    def test_matches_logistic_formula(self):
        np.testing.assert_allclose(sigmoid(self.X), 1.0 / (1.0 + np.exp(-self.X)), rtol=0, atol=1e-15)

    def test_saturates_exactly_and_never_nan(self):
        assert sigmoid(np.array([-800.0]))[0] == 0.0
        assert sigmoid(np.array([800.0]))[0] == 1.0
        x = np.concatenate([self.X, [-1e308, -800.0, 800.0, 1e308]])
        y = sigmoid(x)
        assert not np.isnan(y).any() and y.min() >= 0.0 and y.max() <= 1.0

    def test_leaves_input_untouched(self):
        x = self.X.copy()
        sigmoid(x)
        np.testing.assert_array_equal(x, self.X)

    def test_in_place_equals_allocating(self):
        x = self.X.copy()
        y = sigmoid(x, out=x)
        assert y is x
        np.testing.assert_array_equal(y, sigmoid(self.X))


class TestForward:
    def test_zero_parameters_give_zero_logits(self):
        p = FeedForwardParams([np.zeros((4, 3)), np.zeros((2, 4))], [np.zeros(4), np.zeros(2)])
        logits = ff_forward(p, np.random.default_rng(0).normal(size=(6, 3)))
        np.testing.assert_array_equal(logits, np.zeros((6, 2)))

    def test_single_identity_layer_is_identity(self):
        """The final layer emits raw logits, so identity weights pass
        features straight through."""
        p = FeedForwardParams([np.eye(3)], [np.zeros(3)])
        x = np.random.default_rng(1).normal(size=(5, 3))
        np.testing.assert_array_equal(ff_forward(p, x), x)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        p = init_feedforward([3, 5, 4, 2], rng, scale=0.8)
        x = rng.normal(size=(7, 3))
        np.testing.assert_allclose(ff_forward(p, x), naive_forward(p, x), atol=1e-12)

    @pytest.mark.parametrize("hidden", [[], [7], [7, 6]])
    def test_bit_equals_the_reference_chain(self, hidden):
        rng = np.random.default_rng(13)
        p = init_feedforward([5, *hidden, 4], rng, scale=0.8)
        for b in p.biases:
            b[:] = rng.normal(size=b.shape)
        x = rng.normal(size=(33, 5))
        np.testing.assert_array_equal(ff_forward(p, x), reference_forward(p, x))

    @pytest.mark.parametrize("rows", [8_092, 16_406, 16_648, 2_049, _BLOCK_ROWS + 1])
    def test_row_blocks_bit_equal_one_block(self, rows):
        """Without ``hidden`` the rows run in near-equal blocks of at most
        _BLOCK_ROWS, and every logit of the 20-128-128-10 teacher at the
        desk split sizes equals the one-block reference chain; with
        ``hidden`` the rows run as one block and record full-height
        activations."""
        rng = np.random.default_rng(rows)
        p = init_feedforward([20, 128, 128, 10], rng, scale=0.3)
        for b in p.biases:
            b[:] = rng.normal(size=b.shape)
        x = rng.normal(size=(rows, 20))
        want = reference_forward(p, x)
        np.testing.assert_array_equal(ff_forward(p, x), want)
        hidden = []
        np.testing.assert_array_equal(ff_forward(p, x, hidden), want)
        assert [h.shape for h in hidden] == [(rows, 128), (rows, 128)]

    def test_fills_the_hidden_list_with_each_layer_output(self):
        rng = np.random.default_rng(14)
        p = init_feedforward([5, 7, 6, 4], rng, scale=0.8)
        x = rng.normal(size=(9, 5))
        hidden = []
        ff_forward(p, x, hidden)
        want = [sigmoid(x @ p.weights[0].T + p.biases[0])]
        want.append(sigmoid(want[0] @ p.weights[1].T + p.biases[1]))
        assert len(hidden) == 2
        for got, w in zip(hidden, want):
            np.testing.assert_array_equal(got, w)

    @pytest.mark.parametrize("hidden", [[], [7, 6]])
    def test_leaves_input_untouched(self, hidden):
        rng = np.random.default_rng(15)
        p = init_feedforward([5, *hidden, 4], rng, scale=0.8)
        x = rng.normal(size=(9, 5))
        before = x.copy()
        ff_forward(p, x, [])
        np.testing.assert_array_equal(x, before)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        p = init_feedforward([4, 6, 3], rng)
        x = rng.normal(size=(10, 4))
        np.testing.assert_array_equal(ff_forward(p, x), ff_forward(p, x))

    def test_dimension_mismatch(self):
        p = init_feedforward([4, 6, 3], np.random.default_rng(4))
        with pytest.raises(ShapeError):
            ff_forward(p, np.zeros((5, 5)))


class TestScoringThreads:
    """A forward without ``hidden`` deals its row blocks to
    ``_scoring_cpus()`` threads, this one among them."""

    @staticmethod
    def case(blocks):
        rng = np.random.default_rng(16)
        p = init_feedforward([6, 8, 3], rng, scale=0.8)
        return p, rng.normal(size=(blocks * _BLOCK_ROWS, 6))

    def test_many_threads_hand_each_block_over_once(self, monkeypatch):
        """Eight threads, more than there are CPUs, over 40 blocks, with
        a thread switch every microsecond: ``each`` gets every block once
        and never two at a time, so its counter, read and written back
        around a yield, loses no update; and the logits keep the bits of
        one thread."""
        p, x = self.case(40)
        monkeypatch.setattr(feedforward, "_scoring_cpus", lambda: 1)
        want = ff_forward(p, x)
        monkeypatch.setattr(feedforward, "_scoring_cpus", lambda: 8)
        got = np.full_like(want, np.nan)
        calls, inside, threads = [0], [0], set()

        def each(rows, logits):
            inside[0] += 1
            n = calls[0]
            time.sleep(0)
            calls[0] = n + 1
            assert inside[0] == 1
            inside[0] -= 1
            threads.add(threading.get_ident())
            got[rows] = logits

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.monotonic()
            assert ff_forward(p, x, each=each) is None
            assert time.monotonic() - started < 30
        finally:
            sys.setswitchinterval(switch)
        assert calls[0] == 40 and len(threads) > 1 and got.tobytes() == want.tobytes()

    def test_a_thread_that_cannot_start_leaves_its_blocks_to_the_others(self, monkeypatch):
        """When the second of two extra threads cannot start, the caller
        and the first score every block, with the bits of one thread."""
        p, x = self.case(5)
        monkeypatch.setattr(feedforward, "_scoring_cpus", lambda: 1)
        want = ff_forward(p, x)
        starts, start = [], threading.Thread.start

        def second_fails(thread):
            starts.append(thread)
            if len(starts) == 2:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", second_fails)
        monkeypatch.setattr(feedforward, "_scoring_cpus", lambda: 3)
        before = threading.active_count()
        assert ff_forward(p, x).tobytes() == want.tobytes()
        assert len(starts) == 2 and threading.active_count() == before


class TestBackward:
    def test_zero_logit_grads_give_zero_parameter_grads(self):
        rng = np.random.default_rng(5)
        p = init_feedforward([3, 4, 2], rng)
        g = backward(p, rng.normal(size=(6, 3)), np.zeros((6, 2)))
        for a in g.arrays():
            np.testing.assert_array_equal(a, np.zeros_like(a))

    def test_output_bias_gradient_is_column_sum(self):
        rng = np.random.default_rng(6)
        p = init_feedforward([3, 4, 2], rng, scale=0.5)
        lg = rng.normal(size=(6, 2))
        g = backward(p, rng.normal(size=(6, 3)), lg)
        np.testing.assert_allclose(g.biases[-1], lg.sum(axis=0), rtol=1e-15)

    def test_all_parameters_pass_finite_differences(self):
        """Max relative error below 1e-6 on a 3x4x2 net (20 seeds)."""
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            p = init_feedforward([3, 4, 2], rng, scale=0.6)
            x = rng.normal(size=(4, 3))
            labels = rng.integers(0, 2, size=4)
            targets = one_hot_rows(labels, 2)

            def loss(vec):
                trial = p.copy()
                unpack_into(vec, trial.arrays())
                losses, _, _ = batch_soft_loss(ff_forward(trial, x), targets, 1.0, False)
                return losses.mean()

            logits = ff_forward(p, x)
            _, grad_rows, _ = batch_soft_loss(logits, targets, 1.0, False)
            grads = backward(p, x, grad_rows / len(labels))
            err = finite_diff_check(loss, pack(p.arrays()), pack(grads.arrays()), step=1e-4)
            assert err < 1e-6, f"seed {seed}: {err}"

    @pytest.mark.parametrize("hidden", [[], [7], [7, 6]])
    def test_forward_activations_give_the_recomputed_gradients(self, hidden):
        """Gradients from the activations ff_forward kept bit-equal the
        reference chain's, which recomputes them, for every parameter."""
        rng = np.random.default_rng(16)
        p = init_feedforward([5, *hidden, 4], rng, scale=0.8)
        for b in p.biases:
            b[:] = rng.normal(size=b.shape)
        x = rng.normal(size=(33, 5))
        lg = rng.normal(size=(33, 4))
        grads = backward(p, x, lg)
        want = reference_backward(p, x, lg)
        for got, exp in zip(grads.arrays(), want.arrays(), strict=True):
            np.testing.assert_array_equal(got, exp)

    def test_activations_of_other_shapes_rejected(self):
        rng = np.random.default_rng(17)
        p = init_feedforward([3, 4, 2], rng)
        x = rng.normal(size=(6, 3))
        kept = []
        ff_forward(p, x[:5], kept)
        with pytest.raises(ShapeError):
            ff_backward(p, x, np.zeros((6, 2)), kept)
        with pytest.raises(ShapeError):
            ff_backward(p, x, np.zeros((6, 2)), [])

    def test_shape_validation(self):
        p = init_feedforward([3, 4, 2], np.random.default_rng(9))
        with pytest.raises(ShapeError):
            backward(p, np.zeros((5, 3)), np.zeros((5, 3)))


class TestInit:
    def test_bounds_and_bias(self):
        p = init_feedforward([10, 20, 5], np.random.default_rng(10), scale=0.05)
        for w in p.weights:
            assert np.all(np.abs(w) <= 0.05)
        for b in p.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_reproducible_from_seed(self):
        a = init_feedforward([4, 8, 3], np.random.default_rng(11))
        b = init_feedforward([4, 8, 3], np.random.default_rng(11))
        for x, y in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(x, y)

    def test_chained_dimension_validation(self):
        with pytest.raises(ShapeError):
            FeedForwardParams(
                [np.zeros((4, 3)), np.zeros((2, 5))], [np.zeros(4), np.zeros(2)]
            )

    def test_pack_unpack_roundtrip(self):
        p = init_feedforward([3, 4, 2], np.random.default_rng(12))
        vec = pack(p.arrays())
        q = init_feedforward([3, 4, 2], np.random.default_rng(99))
        unpack_into(vec, q.arrays())
        for x, y in zip(p.arrays(), q.arrays()):
            np.testing.assert_array_equal(x, y)
