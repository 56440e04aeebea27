"""Numeric-core verification: the row-wise temperature softmax, the
per-frame cross entropy and logit-layer gradient of batch_soft_loss,
the squared logit distance of frame_objective, and the gradient checker.

Frozen expected values come from a 50-digit evaluation of the defining
formulas (mpmath); property tests run 10^4 seeded random cases each.
Single-vector cases are 1-row matrices.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from kdtrain.distill import DistillLossSpec, batch_soft_loss, frame_objective
from kdtrain.errors import InvalidArgumentError, NumericOverflowError, ShapeError
from kdtrain.numeric import softmax_rows
from param_vectors import finite_diff_check

# softmax([2, 1, 0]) at T = 1 and T = 2, 17 significant digits
SOFTMAX_210_T1 = [0.66524095577482189, 0.24472847105479765, 0.090030573170380458]
SOFTMAX_210_T2 = [0.50648039105565403, 0.30719588571849840, 0.18632372322584758]
# -ln(softmax([2,1,0])[0])
CE_ONEHOT_210 = 0.4076059644443803
# logits that put exactly all probability on one class: exp(-1000) is 0.0
CERTAIN_0 = [0.0, -1000.0]
CERTAIN_1 = [-1000.0, 0.0]


def softmax1(z, t):
    return softmax_rows([z], t)[0]


def ce_rows(targets, logits, t=1.0):
    """Per-row cross entropy of ``targets`` against softmax(logits / t)."""
    return batch_soft_loss(np.atleast_2d(logits), np.atleast_2d(targets), t, False)[0]


def entropy_rows(z, t):
    """Entropy of softmax(z / t) per row: the soft loss at its fixed point."""
    return batch_soft_loss(z, softmax_rows(z, t), t, False)[0]


def logit_match(z, v):
    z, v = np.atleast_2d(z).astype(float), np.atleast_2d(v).astype(float)
    losses, grads, _, _ = frame_objective(
        DistillLossSpec("logitmatch"), z, np.zeros(len(z), dtype=int), targets=v
    )
    return losses, grads


class TestSoftmaxTemperature:
    def test_constant_logits_give_uniform(self):
        """Symmetry forces the uniform distribution at any temperature."""
        for t in (0.5, 1.0, 7.0):
            np.testing.assert_allclose(softmax1([0, 0, 0], t), [1 / 3] * 3, rtol=1e-15)
        np.testing.assert_allclose(softmax1([4.2, 4.2], 1.0), [0.5, 0.5], rtol=1e-15)

    def test_known_values_t1(self):
        np.testing.assert_allclose(softmax1([2, 1, 0], 1.0), SOFTMAX_210_T1, rtol=1e-14)

    def test_known_values_t2_flatter_same_argmax(self):
        p1 = softmax1([2, 1, 0], 1.0)
        p2 = softmax1([2, 1, 0], 2.0)
        np.testing.assert_allclose(p2, SOFTMAX_210_T2, rtol=1e-14)
        assert p2.max() < p1.max()
        assert np.argmax(p2) == np.argmax(p1) == 0

    def test_normalization_and_range(self):
        """Outputs are probability vectors summing to 1 within 1e-9."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            k = int(rng.integers(2, 13))
            z = rng.uniform(-30, 30, size=(500, k))
            t = float(rng.uniform(0.1, 10))
            p = softmax_rows(z, t)
            assert np.all(p >= 0) and np.all(p <= 1)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_shift_invariance(self):
        """softmax(z + c) == softmax(z) within 1e-12, per row."""
        rng = np.random.default_rng(7)
        z = rng.uniform(-10, 10, size=(10_000, 5))
        c = rng.uniform(-100, 100, size=(10_000, 1))
        for t in rng.uniform(0.2, 8, size=5):
            np.testing.assert_allclose(softmax_rows(z + c, t), softmax_rows(z, t), atol=1e-12)

    def test_argmax_preserved(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(-10, 10, size=(10_000, 6))
        for t in (0.25, 1.0, 3.0, 50.0):
            p = softmax_rows(z, t)
            np.testing.assert_array_equal(np.argmax(p, axis=1), np.argmax(z, axis=1))

    def test_argmax_ties_break_low_index_at_both_levels(self):
        z = np.array([1.5, 3.0, 3.0, -2.0])
        p = softmax1(z, 2.0)
        assert p[1] == p[2]
        assert np.argmax(z) == np.argmax(p) == 1

    def test_temperature_monotonicity_of_max(self):
        """Raising T strictly lowers the winning probability."""
        rng = np.random.default_rng(13)
        z = rng.uniform(-10, 10, size=(10_000, 4))
        t1 = float(rng.uniform(0.25, 4))
        for ratio in (1.5, 2.5, 4.0):
            lo = softmax_rows(z, t1).max(axis=1)
            hi = softmax_rows(z, t1 * ratio).max(axis=1)
            assert np.all(hi < lo)

    def test_entropy_strictly_increases_with_temperature(self):
        rng = np.random.default_rng(17)
        z = rng.uniform(-10, 10, size=(10_000, 5))
        for t1 in (0.25, 1.0, 3.0):
            for ratio in (1.5, 4.0):
                assert np.all(entropy_rows(z, t1 * ratio) > entropy_rows(z, t1))

    def test_large_temperature_limit_is_uniform(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            k = int(rng.integers(2, 9))
            z = rng.uniform(-10, 10, size=k)
            p = softmax1(z, 1e6)
            assert np.abs(p - 1.0 / k).max() < 1e-3

    @pytest.mark.parametrize("case", ["random", "saturated"])
    def test_one_buffer_gives_the_expression_bits(self, case):
        """The result equals exp((z - max) / T) / sum, computed with a
        fresh array per op, bit for bit; saturated rows underflow to
        exact zeros."""
        rng = np.random.default_rng(43)
        z = rng.normal(0.0, 5.0, size=(2_000, 10))
        if case == "saturated":
            z[::3] *= 400.0
            z[1::3, 0] = 1e4
        for t in (0.3, 1.0, 2.0, 10.0):
            e = np.exp((z - z.max(axis=1, keepdims=True)) / t)
            want = e / e.sum(axis=1, keepdims=True)
            got = softmax_rows(z, t)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        if case == "saturated":
            assert (softmax_rows(z, 1.0) == 0.0).any()

    def test_rejects_bad_temperature(self):
        with pytest.raises(InvalidArgumentError):
            softmax1([1.0, 2.0], 0.0)
        with pytest.raises(InvalidArgumentError):
            softmax1([1.0, 2.0], -3.0)

    def test_rejects_non_finite_logits(self):
        with pytest.raises(NumericOverflowError):
            softmax1([1.0, np.nan], 1.0)
        with pytest.raises(NumericOverflowError):
            softmax1([np.inf, 0.0], 2.0)

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ShapeError):
            softmax_rows([1.0, 2.0], 1.0)
        with pytest.raises(ShapeError):
            softmax_rows([[[1.0, 2.0]]], 1.0)
        with pytest.raises(ShapeError):
            softmax_rows([[1.0]], 1.0)


class TestCrossEntropy:
    def test_one_hot_match_is_zero(self):
        assert ce_rows([1, 0], CERTAIN_0)[0] == 0.0

    def test_uniform_self_entropy_is_ln2(self):
        np.testing.assert_allclose(ce_rows([0.5, 0.5], [0.0, 0.0])[0], math.log(2), rtol=1e-15)

    def test_known_value_against_softmax(self):
        np.testing.assert_allclose(ce_rows([1, 0, 0], [2, 1, 0])[0], CE_ONEHOT_210, rtol=1e-14)

    def test_gibbs_inequality(self):
        """CE(t, y) >= CE(t, t) = H(t) for probability pairs."""
        rng = np.random.default_rng(23)
        for k in range(2, 8):
            a = rng.uniform(-4, 4, size=(300, k))
            b = rng.uniform(-4, 4, size=(300, k))
            t = softmax_rows(a, 1.0)
            assert np.all(ce_rows(t, b) >= ce_rows(t, a) - 1e-12)

    def test_clamping_prevents_infinite_loss(self):
        loss = ce_rows([1.0, 0.0], CERTAIN_1)[0]
        assert np.isfinite(loss)
        np.testing.assert_allclose(loss, -math.log(1e-12))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            ce_rows([1, 0], [1, 0, 0])


class TestLogitGradient:
    def test_zero_when_output_equals_target(self):
        z = np.array([[1.0, -1.0, 0.0]])
        _, grads, _ = batch_soft_loss(z, softmax_rows(z, 1.0), 1.0, False)
        np.testing.assert_array_equal(grads, np.zeros((1, 3)))

    def test_direct_subtraction(self):
        """The T = 1 gradient is output - target, computed directly."""
        t = np.array([[1.0, 0.0]])
        _, grads, q = batch_soft_loss(np.log([[0.7, 0.3]]), t, 1.0, False)
        np.testing.assert_array_equal(grads, q - t)
        np.testing.assert_allclose(grads, [[-0.3, 0.3]], rtol=1e-14)

    def test_sums_to_zero_for_probability_inputs(self):
        rng = np.random.default_rng(29)
        t = softmax_rows(rng.uniform(-5, 5, size=(2_000, 6)), 1.0)
        _, grads, _ = batch_soft_loss(rng.uniform(-5, 5, size=(2_000, 6)), t, 1.0, False)
        assert np.abs(grads.sum(axis=1)).max() < 1e-12

    def test_matches_finite_differences_of_composite(self):
        """(output - target) is the gradient of CE(t, softmax(z)) in z."""
        rng = np.random.default_rng(31)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            z = rng.uniform(-3, 3, size=k)
            t = softmax_rows(rng.uniform(-3, 3, size=(1, k)), 1.0)

            def loss(zv):
                return batch_soft_loss(zv[np.newaxis], t, 1.0, False)[0][0]

            grad = batch_soft_loss(z[np.newaxis], t, 1.0, False)[1][0]
            assert finite_diff_check(loss, z, grad, step=1e-5) < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            batch_soft_loss(np.zeros((1, 2)), np.array([[1.0, 0.0, 0.0]]), 1.0, False)


class TestL2DistanceSq:
    """The logit-matching loss is half the squared logit distance."""

    def test_identical_vectors(self):
        losses, grads = logit_match([3.0, -1.0, 2.5], [3.0, -1.0, 2.5])
        assert losses[0] == 0.0
        np.testing.assert_array_equal(grads, np.zeros((1, 3)))

    def test_hand_value(self):
        assert logit_match([1, 2], [0, 0])[0][0] == 2.5

    def test_matches_exact_summation_oracle(self):
        """Each row's loss is within the rounding bound of a 10-term
        positive sum of half the exact rational sum of the rounded
        squared differences."""
        rng = np.random.default_rng(37)
        a = rng.uniform(-100, 100, size=(500, 10))
        b = rng.uniform(-100, 100, size=(500, 10))
        losses, _ = logit_match(a, b)
        for row_a, row_b, got in zip(a, b, losses):
            exact = sum(Fraction((x - y) * (x - y)) for x, y in zip(row_a, row_b)) / 2
            assert abs(Fraction(got) - exact) <= 10 * 2.0**-53 * exact

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            logit_match([1, 2, 3], [1, 2])


class TestFiniteDiffCheck:
    def test_quadratic_is_exact_up_to_rounding(self):
        err = finite_diff_check(lambda x: float((x * x).sum()), [1.0, 2.0], [2.0, 4.0])
        assert err < 1e-8

    def test_detects_corrupted_gradient(self):
        err = finite_diff_check(lambda x: float((x * x).sum()), [1.0, 2.0], [2.0, 5.0])
        assert err > 0.1

    def test_non_finite_objective(self):
        with pytest.raises(NumericOverflowError):
            finite_diff_check(lambda x: float("nan"), [1.0], [0.0])

    def test_rejects_bad_step(self):
        with pytest.raises(InvalidArgumentError):
            finite_diff_check(lambda x: 0.0, [1.0], [0.0], step=0.0)
