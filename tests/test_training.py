"""The training loop's documented equivalences between regimes, and its
refusal of missing or mismatched inputs, at tiny sizes through
run_training; length-ordered evaluation against a manifest-order
reference; and the gradient-variance report against a two-pass oracle."""

import dataclasses

import numpy as np
import pytest

from kdtrain.datasets import SynthTaskSpec, generate_synth
from kdtrain.distill import DistillLossSpec, SoftTargetSet, export_soft_targets, one_hot_rows
from kdtrain.errors import AlignmentError, InvalidArgumentError
from kdtrain.feedforward import init_feedforward
from kdtrain.formats import read_soft_targets, write_soft_targets
from kdtrain.lstm import init_lstm, lstm_forward_batch, zeros_state
from kdtrain.training import (
    TrainingSchedule,
    eval_logits,
    frame_accuracy,
    gradient_variance_report,
    run_training,
)


@pytest.fixture(scope="module")
def task():
    spec = SynthTaskSpec(
        num_classes=4, feature_dim=5, train_utterances=10, cv_utterances=4,
        test_utterances=2, min_frames=6, max_frames=14,
    )
    splits = generate_synth(spec, 21)
    student = init_lstm(5, 4, cells=6, projection=3, rng=np.random.default_rng(22))
    teacher = init_feedforward([5, 8, 4], np.random.default_rng(23), scale=0.5)
    return splits.train, splits.cv, student, teacher


def train(task, mode, temperature=1.0, switch=None, **inputs):
    train_set, cv_set, student, _ = task
    schedule = TrainingSchedule(max_epochs=3, streams=3, window=5, pretrain_switch_epoch=switch)
    return run_training(
        DistillLossSpec(mode, 0.5, temperature), student, train_set, cv_set,
        schedule=schedule, learning_rate=0.01, master_seed=7, **inputs,
    )


def assert_same_run(a, b):
    (rec_a, params_a), (rec_b, params_b) = a, b
    for x, y in zip(params_a.arrays(), params_b.arrays(), strict=True):
        np.testing.assert_array_equal(x, y)
    assert len(rec_a.epochs) == len(rec_b.epochs) > 0
    for ea, eb in zip(rec_a.epochs, rec_b.epochs):
        for f in dataclasses.fields(ea):
            if f.name != "wall_seconds":
                assert getattr(ea, f.name) == getattr(eb, f.name), f.name


def test_pretrain_switch_at_epoch_zero_reproduces_hard(task):
    soft = export_soft_targets(task[3], task[0], 2.0)
    assert_same_run(
        train(task, "pretrain", 2.0, switch=0, soft_targets=soft), train(task, "hard")
    )


def test_soft_on_stored_one_hots_at_t1_reproduces_hard(task, tmp_path):
    train_set = task[0]
    path = tmp_path / "one_hot.dkst"
    write_soft_targets(path, SoftTargetSet(1.0, one_hot_rows(train_set.labels, 4)))
    assert_same_run(
        train(task, "soft", soft_targets=read_soft_targets(path)), train(task, "hard")
    )


def test_logitmatch_without_teacher_rejected(task):
    with pytest.raises(InvalidArgumentError, match="teacher"):
        train(task, "logitmatch")


@pytest.mark.parametrize("mode", ["soft", "reg", "pretrain"])
def test_soft_regimes_without_targets_rejected(task, mode):
    with pytest.raises(InvalidArgumentError, match="soft targets"):
        train(task, mode)


def test_soft_targets_at_another_temperature_rejected(task):
    soft = export_soft_targets(task[3], task[0], 2.0)
    with pytest.raises(AlignmentError, match="T=2"):
        train(task, "soft", 1.0, soft_targets=soft)
    train(task, "soft", 2.0, soft_targets=soft)


def manifest_order_logits(params, dataset, group=32):
    """The reference evaluation: groups of ``group`` utterances taken in
    manifest order, each padded to its longest member."""
    out = np.empty((dataset.total_frames, params.output_dim))
    utts = dataset.utterances
    for start in range(0, len(utts), group):
        members = utts[start : start + group]
        feats = np.zeros((len(members), max(u.count for u in members), dataset.feature_dim))
        for s, u in enumerate(members):
            feats[s, : u.count] = dataset.features[u.offset : u.offset + u.count]
        logits, _, _ = lstm_forward_batch(params, feats, zeros_state(params, len(members)))
        for s, u in enumerate(members):
            out[u.offset : u.offset + u.count] = logits[s, : u.count]
    return out


@pytest.fixture(scope="module")
def ragged_split():
    """150 utterances of 1-80 frames: four whole groups of 32 and a last
    group of 22, a row count at which the K = 10 head rounds differently
    from a 32-row GEMM."""
    spec = SynthTaskSpec(
        num_classes=10, feature_dim=20, train_utterances=150, cv_utterances=1,
        test_utterances=1, min_frames=1, max_frames=80,
    )
    split = generate_synth(spec, 31).train
    assert len(split.utterances) % 32 == 22
    return split


@pytest.mark.parametrize("layers, cells, projection", [(1, 64, 32), (2, 32, 16)])
def test_length_ordered_eval_groups_keep_every_logit(ragged_split, layers, cells, projection):
    params = init_lstm(
        20, 10, layers=layers, cells=cells, projection=projection,
        rng=np.random.default_rng(32), scale=0.3,
    )
    reference = manifest_order_logits(params, ragged_split)
    np.testing.assert_array_equal(eval_logits(params, ragged_split), reference)
    expected = 100.0 * float(np.mean(np.argmax(reference, axis=1) == ragged_split.labels))
    assert frame_accuracy(params, ragged_split) == expected


def two_pass_variance(t, y):
    """Per class: mean((t - y)^2) - (mean t - mean y)^2, and its first term."""
    first = np.mean((t - y) ** 2, axis=0)
    gap = t.mean(axis=0) - y.mean(axis=0)
    return first - gap * gap, first


def test_variance_report_matches_two_pass_oracle(task):
    train_set, _, student, teacher = task
    logits = eval_logits(student, train_set)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)
    soft = export_soft_targets(teacher, train_set, 2.0)
    hard_t = one_hot_rows(train_set.labels, 4)
    reports = gradient_variance_report(student, train_set, [None, soft])
    for rep, t in zip(reports, [hard_t, soft.rows], strict=True):
        per_class, first = two_pass_variance(t, y)
        np.testing.assert_allclose(rep.per_class, per_class, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rep.first_term_per_class, first, rtol=0, atol=1e-12)
        assert rep.total == pytest.approx(per_class.sum(), rel=0, abs=1e-12)
        assert rep.first_term == pytest.approx(first.sum(), rel=0, abs=1e-12)
        assert rep.count == train_set.total_frames
    assert reports[0].total != reports[1].total


def test_one_variance_call_equals_one_call_per_target_set(task):
    train_set, _, student, teacher = task
    target_sets = [None] + [export_soft_targets(teacher, train_set, t) for t in (2.0, 5.0)]
    together = gradient_variance_report(student, train_set, target_sets)
    assert len(together) == 3
    for targets, rep in zip(target_sets, together):
        (alone,) = gradient_variance_report(student, train_set, [targets])
        for f in dataclasses.fields(rep):
            np.testing.assert_array_equal(getattr(rep, f.name), getattr(alone, f.name))
