"""The training loop's documented equivalences between regimes, and its
refusal of missing or mismatched inputs, at tiny sizes through
run_training."""

import dataclasses

import numpy as np
import pytest

from kdtrain.datasets import SynthTaskSpec, generate_synth
from kdtrain.distill import DistillLossSpec, SoftTargetSet, export_soft_targets, one_hot_rows
from kdtrain.errors import AlignmentError, InvalidArgumentError
from kdtrain.feedforward import init_feedforward
from kdtrain.formats import read_soft_targets, write_soft_targets
from kdtrain.lstm import init_lstm
from kdtrain.training import TrainingSchedule, run_training


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
