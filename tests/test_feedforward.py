"""Feed-forward teacher: forward against a hand-rolled triple-loop
oracle, backward against central finite differences."""

import math

import numpy as np
import pytest

from kdtrain.distill import batch_soft_loss, one_hot_rows
from kdtrain.errors import ShapeError
from kdtrain.feedforward import (
    FeedForwardParams,
    ff_backward,
    ff_forward,
    init_feedforward,
    sigmoid,
)
from kdtrain.numeric import finite_diff_check
from kdtrain.params import pack, unpack_into


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

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        p = init_feedforward([4, 6, 3], rng)
        x = rng.normal(size=(10, 4))
        np.testing.assert_array_equal(ff_forward(p, x), ff_forward(p, x))

    def test_dimension_mismatch(self):
        p = init_feedforward([4, 6, 3], np.random.default_rng(4))
        with pytest.raises(ShapeError):
            ff_forward(p, np.zeros((5, 5)))


class TestBackward:
    def test_zero_logit_grads_give_zero_parameter_grads(self):
        rng = np.random.default_rng(5)
        p = init_feedforward([3, 4, 2], rng)
        g, dx = ff_backward(p, rng.normal(size=(6, 3)), np.zeros((6, 2)))
        for a in g.arrays():
            np.testing.assert_array_equal(a, np.zeros_like(a))
        np.testing.assert_array_equal(dx, np.zeros((6, 3)))

    def test_output_bias_gradient_is_column_sum(self):
        rng = np.random.default_rng(6)
        p = init_feedforward([3, 4, 2], rng, scale=0.5)
        lg = rng.normal(size=(6, 2))
        g, _ = ff_backward(p, rng.normal(size=(6, 3)), lg)
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
            grads, _ = ff_backward(p, x, grad_rows / len(labels))
            err = finite_diff_check(loss, pack(p.arrays()), pack(grads.arrays()), step=1e-4)
            assert err < 1e-6, f"seed {seed}: {err}"

    def test_input_gradients_pass_finite_differences(self):
        rng = np.random.default_rng(8)
        p = init_feedforward([3, 4, 2], rng, scale=0.6)
        x = rng.normal(size=(2, 3))
        lg = rng.normal(size=(2, 2))

        def loss(flat):
            return float((ff_forward(p, flat.reshape(2, 3)) * lg).sum())

        _, dx = ff_backward(p, x, lg)
        assert finite_diff_check(loss, x.ravel(), dx.ravel(), step=1e-4) < 1e-6

    def test_shape_validation(self):
        p = init_feedforward([3, 4, 2], np.random.default_rng(9))
        with pytest.raises(ShapeError):
            ff_backward(p, np.zeros((5, 3)), np.zeros((5, 3)))


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
