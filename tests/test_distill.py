"""Distillation losses, the regime table and soft-target generation.

The per-frame objectives are checked against plain-numpy oracles
written in this module and against finite differences; single-frame
cases are 1-row matrices. Temperature-scaling behavior is pinned to
values from a 50-digit evaluation of the closed forms.
"""

import numpy as np
import pytest

from kdtrain import distill, formats
from kdtrain.datasets import SynthTaskSpec, generate_synth
from kdtrain.distill import (
    REGIMES,
    DistillLossSpec,
    SoftTargetSet,
    batch_soft_loss,
    export_soft_targets,
    frame_objective,
    one_hot_rows,
)
from kdtrain.errors import InvalidArgumentError, ShapeError
from kdtrain.feedforward import _BLOCK_ROWS, FeedForwardParams, ff_forward, init_feedforward
from kdtrain.formats import checkpoint_digest
from kdtrain.numeric import softmax_rows
from param_vectors import finite_diff_check
from test_training import traced_peak

# T^2-scaled soft gradient and loss for z=[.5,-.2,-.3], v=[1,0,-1]
# (teacher posteriors taken at the same T), from 50-digit evaluation
SCALED_T2_GRAD = [-0.17085840364313587, -0.0209722550066755, 0.19183065864981137]
SCALED_T2_LOSS = 4.1881956494133232
SCALED_T4_GRAD = [-0.17213121621745783, -0.042781354192733973, 0.2149125704101918]
SCALED_T4_LOSS = 17.370182661874406


def np_softmax(z, t):
    """Oracle: softmax of one logit vector at temperature t."""
    e = np.exp((np.asarray(z, dtype=float) - np.max(z)) / t)
    return e / e.sum()


def np_ce(target, q):
    """Oracle: -sum t ln q with q clamped to [1e-12, 1]."""
    return float(-(np.asarray(target) * np.log(np.clip(q, 1e-12, 1.0))).sum())


def np_entropy_rows(p):
    return -(p * np.log(p)).sum(axis=1)


def rows(*vectors):
    return np.array(vectors, dtype=float)


class TestDistillLossSpec:
    def test_alpha_bounds(self):
        with pytest.raises(InvalidArgumentError):
            DistillLossSpec("reg", alpha=1.5)
        with pytest.raises(InvalidArgumentError):
            DistillLossSpec("reg", alpha=-0.1)

    def test_unknown_mode(self):
        with pytest.raises(InvalidArgumentError):
            DistillLossSpec("kaldi")

    def test_t2_scaling_defaults_on_only_for_reg(self):
        """Soft-target use is a per-regime constant, and "soft" at T = 2
        is unscaled: of the soft objectives only "reg" multiplies by T^2
        (pinned by test_reg_mode_gradient_linearity)."""
        rng = np.random.default_rng(15)
        logits = rng.uniform(-3, 3, size=(6, 4))
        soft = softmax_rows(rng.uniform(-2, 2, size=(6, 4)), 2.0)
        losses, grads, _, _ = frame_objective(
            DistillLossSpec("soft", temperature=2.0), logits, rng.integers(0, 4, size=6), soft
        )
        want_losses, want_grads, _ = batch_soft_loss(logits, soft, 2.0, False)
        np.testing.assert_array_equal(losses, want_losses)
        np.testing.assert_array_equal(grads, want_grads)
        modes = tuple(REGIMES)
        assert [m for m in modes if REGIMES[m].soft_targets] == [
            "soft", "reg", "pretrain"
        ]
        assert modes == ("hard", "soft", "reg", "pretrain", "logitmatch")
        assert [REGIMES[m].phases for m in modes] == [
            ("hard",), ("soft",), ("reg",), ("soft", "hard"), ("logitmatch",)
        ]
        assert [m for m in modes if REGIMES[m].teacher_logits] == ["logitmatch"]


@pytest.mark.parametrize("t", [float("inf"), float("-inf"), float("nan"), 0.0])
def test_every_temperature_is_finite_and_positive(t):
    """The spec, a soft set and the softmax refuse one set of values."""
    rows = np.full((3, 2), 0.5)
    for build in (lambda: DistillLossSpec("soft", temperature=t),
                  lambda: SoftTargetSet(t, rows), lambda: softmax_rows(rows, t)):
        with pytest.raises(InvalidArgumentError, match="temperature must be positive and finite"):
            build()


class TestSoftenLogits:
    """Teacher softening is the row-wise softmax at the export temperature."""

    def test_uniform_for_constant_logits(self):
        for t in (0.5, 1.0, 10.0):
            np.testing.assert_allclose(softmax_rows(np.zeros((2, 3)), t), 1 / 3, rtol=1e-15)

    def test_known_values(self):
        np.testing.assert_allclose(
            softmax_rows(rows([2, 1, 0]), 2.0)[0],
            [0.50648039105565403, 0.30719588571849840, 0.18632372322584758],
            rtol=1e-14,
        )

    def test_rank_preserved_at_any_temperature(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-5, 5, size=(200, 6))
        for t in (0.3, 1.0, 4.0, 100.0):
            p = softmax_rows(z, t)
            np.testing.assert_array_equal(np.argsort(p, axis=1), np.argsort(z, axis=1))


class TestSoftCeLossAndGrad:
    def test_fixed_point_has_zero_gradient_and_entropy_loss(self):
        """When the student's softened output equals the soft target the
        gradient vanishes and the loss is the target's entropy."""
        v = rows([1.2, -0.4, 0.0, 0.7])
        p = softmax_rows(v, 2.0)
        loss, grad, _ = batch_soft_loss(v, p, 2.0, False)
        np.testing.assert_array_equal(grad, np.zeros((1, 4)))
        np.testing.assert_allclose(loss, np_entropy_rows(p), rtol=1e-12)

    def test_one_hot_at_t1_reduces_to_hard_loss(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-3, 3, size=(100, 5))
        labels = rng.integers(0, 5, size=100)
        t = one_hot_rows(labels, 5)
        losses, grads, _ = batch_soft_loss(z, t, 1.0, False)
        for i in range(100):
            q = np_softmax(z[i], 1.0)
            assert abs(losses[i] + np.log(q[labels[i]])) < 1e-12
            np.testing.assert_allclose(grads[i], q - t[i], atol=1e-12)

    def test_scaled_values_against_closed_form(self):
        z = rows([0.5, -0.2, -0.3])
        for t_val, want_grad, want_loss in (
            (2.0, SCALED_T2_GRAD, SCALED_T2_LOSS),
            (4.0, SCALED_T4_GRAD, SCALED_T4_LOSS),
        ):
            p = softmax_rows(rows([1.0, 0.0, -1.0]), t_val)
            loss, grad, _ = batch_soft_loss(z, p, t_val, True)
            np.testing.assert_allclose(grad[0], want_grad, rtol=1e-13)
            np.testing.assert_allclose(loss[0], want_loss, rtol=1e-13)

    def test_large_t_approaches_logit_matching(self):
        """With T large against the logit scale, the T^2-scaled gradient
        approaches (z - v)/K."""
        rng = np.random.default_rng(2)
        z, v = np.empty((50, 4)), np.empty((50, 4))
        for i in range(50):
            z[i] = rng.uniform(-1, 1, size=4)
            v[i] = rng.uniform(-1, 1, size=4)
        z -= z.mean(axis=1, keepdims=True)
        v -= v.mean(axis=1, keepdims=True)
        _, grad, _ = batch_soft_loss(z, softmax_rows(v, 1000.0), 1000.0, True)
        np.testing.assert_allclose(grad, (z - v) / 4.0, rtol=1e-2)

    def test_unscaled_gradient_vanishes_at_large_t(self):
        rng = np.random.default_rng(3)
        z = rng.uniform(-1, 1, size=(1, 4))
        v = rng.uniform(-1, 1, size=(1, 4))
        g1 = batch_soft_loss(z, softmax_rows(v, 1.0), 1.0, False)[1]
        g1000 = batch_soft_loss(z, softmax_rows(v, 1000.0), 1000.0, False)[1]
        assert np.linalg.norm(g1000) < 1e-2 * np.linalg.norm(g1)

    def test_gradient_passes_finite_differences(self):
        rng = np.random.default_rng(4)
        for scale in (False, True):
            z = rng.uniform(-2, 2, size=4)
            p = softmax_rows(rng.uniform(-2, 2, size=(1, 4)), 3.0)

            def loss(zv):
                return batch_soft_loss(zv[np.newaxis], p, 3.0, scale)[0][0]

            grad = batch_soft_loss(z[np.newaxis], p, 3.0, scale)[1][0]
            assert finite_diff_check(loss, z, grad, step=1e-5) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            batch_soft_loss(rows([1.0, 2.0]), rows([0.5, 0.25, 0.25]), 1.0, False)


class TestCombinedLossAndGrad:
    """The "reg" objective: alpha * hard cross entropy at T = 1 plus the
    T^2-scaled soft term."""

    def test_alpha_zero_equals_soft_only(self):
        z = rows([0.3, -0.8, 0.5])
        p = softmax_rows(rows([1.0, 0.5, -0.5]), 2.0)
        spec = DistillLossSpec("reg", alpha=0.0, temperature=2.0)
        loss_c, grad_c, _, _ = frame_objective(spec, z, np.array([1]), p)
        loss_s, grad_s, _ = batch_soft_loss(z, p, 2.0, True)
        np.testing.assert_array_equal(loss_c, loss_s)
        np.testing.assert_array_equal(grad_c, grad_s)

    def test_identical_targets_at_t1_scale_off(self):
        """soft == hard one-hot and T = 1 (so T^2 = 1): everything is
        just (1 + alpha) times the hard path."""
        z = rows([0.2, 1.1, -0.7])
        labels = np.array([0])
        spec = DistillLossSpec("reg", alpha=0.3, temperature=1.0)
        loss, grad, _, _ = frame_objective(spec, z, labels, one_hot_rows(labels, 3))
        q = np_softmax(z[0], 1.0)
        np.testing.assert_allclose(loss[0], 1.3 * -np.log(q[0]), rtol=1e-12)
        np.testing.assert_allclose(grad[0], 1.3 * (q - [1.0, 0.0, 0.0]), atol=1e-14)

    def test_matches_composition_of_validated_paths(self):
        """alpha = 0.5, T = 2, K = 3: equals hard + scaled-soft composed
        from the oracle softmax and cross entropy, to 1e-12."""
        z = np.array([0.5, -0.2, -0.3])
        t = np.array([0.0, 0.0, 1.0])
        p = np_softmax([1.0, 0.0, -1.0], 2.0)
        spec = DistillLossSpec("reg", alpha=0.5, temperature=2.0)
        loss, grad, _, _ = frame_objective(spec, z[np.newaxis], np.array([2]), p[np.newaxis])
        q1 = np_softmax(z, 1.0)
        q2 = np_softmax(z, 2.0)
        want_loss = 0.5 * np_ce(t, q1) + 4.0 * np_ce(p, q2)
        want_grad = 0.5 * (q1 - t) + 4.0 * (q2 - p) / 2.0
        np.testing.assert_allclose(loss[0], want_loss, atol=1e-12)
        np.testing.assert_allclose(grad[0], want_grad, atol=1e-12)

    def test_linearity_on_random_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            k = int(rng.integers(2, 7))
            z = rng.uniform(-3, 3, size=(1, k))
            labels = rng.integers(0, k, size=1)
            temp = float(rng.uniform(0.5, 5))
            alpha = float(rng.uniform(0, 1))
            p = softmax_rows(rng.uniform(-3, 3, size=(1, k)), temp)
            spec = DistillLossSpec("reg", alpha=alpha, temperature=temp)
            _, grad, _, _ = frame_objective(spec, z, labels, p)
            hard = np_softmax(z[0], 1.0) - one_hot_rows(labels, k)[0]
            soft = temp * (np_softmax(z[0], temp) - p[0])
            np.testing.assert_allclose(grad[0], alpha * hard + soft, atol=1e-12)

    def test_shape_mismatch(self):
        spec = DistillLossSpec("reg")
        with pytest.raises(ShapeError):
            frame_objective(spec, rows([1.0, 2.0]), np.array([0]), rows([0.25, 0.25, 0.5]))


class TestLogitMatching:
    def _match(self, z, v):
        losses, grads, _, _ = frame_objective(
            DistillLossSpec("logitmatch"), np.atleast_2d(z), np.zeros(1, dtype=int),
            targets=np.atleast_2d(v),
        )
        return losses[0], grads[0]

    def test_zero_at_match(self):
        loss, grad = self._match(rows([1.0, -2.0]), rows([1.0, -2.0]))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_hand_value(self):
        loss, grad = self._match(rows([1.0, 2.0]), rows([0.0, 0.0]))
        assert loss == 2.5
        np.testing.assert_array_equal(grad, [1.0, 2.0])

    def test_gradient_passes_finite_differences(self):
        rng = np.random.default_rng(6)
        z = rng.uniform(-3, 3, size=5)
        v = rng.uniform(-3, 3, size=5)

        def loss(zv):
            return self._match(zv, v)[0]

        _, grad = self._match(z, v)
        assert finite_diff_check(loss, z, grad, step=1e-5) < 1e-8


@pytest.fixture(scope="module")
def tiny_task():
    spec = SynthTaskSpec(
        num_classes=4, feature_dim=5, noise_scale=1.0, train_utterances=10, cv_utterances=3,
        test_utterances=3, min_frames=8, max_frames=15,
    )
    return generate_synth(spec, 99).train


class TestExportSoftTargets:
    def test_zero_teacher_gives_uniform_rows(self, tiny_task):
        teacher = FeedForwardParams(
            [np.zeros((6, 5)), np.zeros((4, 6))], [np.zeros(6), np.zeros(4)]
        )
        soft = next(export_soft_targets(teacher, tiny_task, [1.0]))
        np.testing.assert_allclose(soft.rows, 0.25, rtol=1e-15)

    def test_frame_count_and_temperature_recorded(self, tiny_task):
        teacher = init_feedforward([5, 8, 4], np.random.default_rng(7))
        soft = next(export_soft_targets(teacher, tiny_task, [2.0]))
        assert soft.frame_count == tiny_task.total_frames
        assert soft.temperature == 2.0
        assert soft.teacher_digest == checkpoint_digest(teacher)

    def test_rows_match_composed_oracle(self, tiny_task):
        """Rows equal the softmax of ff_forward logits, frame by frame."""
        teacher = init_feedforward([5, 6, 4], np.random.default_rng(8), scale=0.7)
        soft = next(export_soft_targets(teacher, tiny_task, [2.0]))
        logits = ff_forward(teacher, tiny_task.features)
        for idx in (0, 1, tiny_task.total_frames - 1):
            np.testing.assert_allclose(
                soft.rows[idx], np_softmax(logits[idx], 2.0), atol=1e-15
            )

    def test_one_forward_and_one_digest_for_every_temperature(self, tiny_task, monkeypatch):
        teacher = init_feedforward([5, 8, 8, 4], np.random.default_rng(11), scale=0.7)
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(distill, "ff_forward", counted(ff_forward))
        monkeypatch.setattr(formats, "checkpoint_digest", counted(checkpoint_digest))
        sets = export_soft_targets(teacher, tiny_task, [1.0, 2.0, 5.0, 10.0])
        assert [s.temperature for s in sets] == [1.0, 2.0, 5.0, 10.0]
        assert sorted(calls) == ["checkpoint_digest", "ff_forward"]

    def test_every_set_bit_equals_softmax_of_the_teacher_logits(self):
        """Each set holds the float32 rounding of the whole-split softmax,
        although it is softmaxed in near-equal row blocks."""
        spec = SynthTaskSpec(num_classes=4, feature_dim=5, noise_scale=1.0,
                             train_utterances=30, cv_utterances=1, test_utterances=1)
        split = generate_synth(spec, 12).train
        assert split.total_frames > 3 * _BLOCK_ROWS and split.total_frames % _BLOCK_ROWS
        teacher = init_feedforward([5, 8, 8, 4], np.random.default_rng(12), scale=0.7)
        temperatures = [1.0, 2.0, 5.0, 10.0]
        logits = ff_forward(teacher, split.features)
        sets = list(export_soft_targets(teacher, split, temperatures))
        assert len(sets) == len(temperatures)
        for t, soft in zip(temperatures, sets):
            assert soft.temperature == t
            np.testing.assert_array_equal(soft.rows, softmax_rows(logits, t).astype(np.float32))
            assert soft.teacher_digest == checkpoint_digest(teacher)

    def test_sets_dropped_one_at_a_time_hold_the_logits_and_one_set(self):
        """A consumer that drops each set before it asks for the next
        holds the teacher's logits and one float32 set at a time, besides
        one 512-row block of the softmax (its float64 rows, finiteness
        mask and two column vectors); not one set per temperature."""
        spec = SynthTaskSpec(num_classes=40, feature_dim=8, noise_scale=1.0,
                             train_utterances=100, cv_utterances=1, test_utterances=1)
        split = generate_synth(spec, 5).train
        teacher = init_feedforward([8, 16, 40], np.random.default_rng(13), scale=0.5)

        def drop_each(temperatures):
            sums = []
            for soft in export_soft_targets(teacher, split, temperatures):
                sums.append(float(soft.rows.sum()))
                del soft
            return sums

        sums, peak = traced_peak(drop_each, [1.0, 2.0, 5.0, 10.0])
        n = split.total_frames
        logits, one_set = n * 40 * 8, n * 40 * 4
        assert len(sums) == 4
        assert peak <= logits + one_set + _BLOCK_ROWS * (40 * 8 + 40 + 2 * 8) + 2**17

    def test_higher_temperature_rows_have_higher_entropy(self, tiny_task):
        teacher = init_feedforward([5, 8, 4], np.random.default_rng(9), scale=0.8)
        s1 = next(export_soft_targets(teacher, tiny_task, [1.0]))
        s2 = next(export_soft_targets(teacher, tiny_task, [2.0]))
        h1 = np_entropy_rows(s1.rows)
        h2 = np_entropy_rows(s2.rows)
        assert np.all(h2 >= h1)
        assert np.mean(h2) > np.mean(h1)

    def test_teacher_is_fixed_point_of_distillation(self, tiny_task):
        """Distilling at T = 1 and evaluating at the teacher's own logits
        gives exactly zero gradient."""
        teacher = init_feedforward([5, 8, 4], np.random.default_rng(10), scale=0.6)
        logits = ff_forward(teacher, tiny_task.features)
        _, grads, _, _ = frame_objective(
            DistillLossSpec("soft", temperature=1.0), logits, tiny_task.labels,
            softmax_rows(logits, 1.0),
        )
        np.testing.assert_array_equal(grads, np.zeros_like(grads))

    def test_soft_target_set_holds_float32_rows_as_given(self):
        """Float32 rows stay float32, without a copy; other rows are
        rounded to float32 once, as a DKST file stores them."""
        rows = np.full((3, 2), 0.5, dtype=np.float32)
        assert SoftTargetSet(1.0, rows).rows is rows
        third = np.full((3, 2), 1 / 3)
        assert SoftTargetSet(1.0, third).rows.tobytes() == third.astype(np.float32).tobytes()
        for given in ([[0.5, 0.5]], np.full((3, 2), 0.5, dtype=np.float16), np.ones((3, 2), int)):
            assert SoftTargetSet(1.0, given).rows.dtype == np.float32

    def test_soft_target_set_validation(self):
        with pytest.raises(ShapeError):
            SoftTargetSet(1.0, np.ones(5))
        with pytest.raises(InvalidArgumentError):
            SoftTargetSet(0.0, np.full((3, 2), 0.5))
        with pytest.raises(InvalidArgumentError):
            SoftTargetSet(1.0, np.full((3, 2), 0.5), b"short")


class TestBatchObjectives:
    """The vectorized trainer paths agree with per-frame numpy oracles."""

    def test_batch_soft_matches_per_frame_ops(self):
        rng = np.random.default_rng(11)
        logits = rng.uniform(-3, 3, size=(40, 5))
        targets = np.vstack([np_softmax(rng.uniform(-2, 2, size=5), 2.0) for _ in range(40)])
        losses, grads, _ = batch_soft_loss(logits, targets, 2.0, True)
        for i in range(40):
            q = np_softmax(logits[i], 2.0)
            assert abs(losses[i] - 4.0 * np_ce(targets[i], q)) < 1e-14
            np.testing.assert_allclose(grads[i], 4.0 * (q - targets[i]) / 2.0, atol=1e-15)

    def test_hard_mode_is_soft_mode_with_one_hots_bitwise(self):
        rng = np.random.default_rng(12)
        logits = rng.uniform(-3, 3, size=(30, 4))
        labels = rng.integers(0, 4, size=30)
        spec_h = DistillLossSpec("hard")
        spec_s = DistillLossSpec("soft", temperature=1.0)
        l_h, g_h, _, _ = frame_objective(spec_h, logits, labels)
        l_s, g_s, _, _ = frame_objective(spec_s, logits, labels, one_hot_rows(labels, 4))
        np.testing.assert_array_equal(l_h, l_s)
        np.testing.assert_array_equal(g_h, g_s)

    def test_reg_mode_gradient_linearity(self):
        rng = np.random.default_rng(13)
        logits = rng.uniform(-3, 3, size=(25, 4))
        labels = rng.integers(0, 4, size=25)
        soft = softmax_rows(rng.uniform(-2, 2, size=(25, 4)), 2.0)
        spec = DistillLossSpec("reg", alpha=0.5, temperature=2.0)
        _, grads, _, _ = frame_objective(spec, logits, labels, soft)
        _, g_hard, _, _ = frame_objective(DistillLossSpec("hard"), logits, labels)
        g_soft = batch_soft_loss(logits, soft, 2.0, True)[1]
        np.testing.assert_allclose(grads, 0.5 * g_hard + g_soft, atol=1e-12)

    def test_logitmatch_batch_matches_op(self):
        rng = np.random.default_rng(14)
        logits = rng.uniform(-2, 2, size=(10, 3))
        teacher = rng.uniform(-2, 2, size=(10, 3))
        losses, grads, _, _ = frame_objective(
            DistillLossSpec("logitmatch"), logits, rng.integers(0, 3, size=10),
            targets=teacher,
        )
        for i in range(10):
            d = logits[i] - teacher[i]
            assert abs(losses[i] - 0.5 * float(d @ d)) < 1e-12
            np.testing.assert_allclose(grads[i], d, atol=1e-15)

    def test_missing_inputs_rejected(self):
        logits = np.zeros((4, 3))
        labels = np.zeros(4, dtype=int)
        with pytest.raises(InvalidArgumentError):
            frame_objective(DistillLossSpec("soft"), logits, labels)
        with pytest.raises(InvalidArgumentError):
            frame_objective(DistillLossSpec("logitmatch"), logits, labels)
        with pytest.raises(InvalidArgumentError):
            frame_objective(DistillLossSpec("pretrain"), logits, labels, np.zeros((4, 3)))
