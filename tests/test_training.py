"""The training loop's documented equivalences between regimes, its
learning-rate and stopping rule, and its refusal of missing or
mismatched inputs, at tiny sizes through run_training; stream batching
against the frame partition; length-ordered, frame-blocked evaluation
against unblocked references, and its memory against block-derived
bounds; and the gradient-variance report against a two-pass oracle."""

import copy
import dataclasses
import importlib
import os
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest

from kdtrain import distill, feedforward, training
from kdtrain.datasets import FrameDataset, SynthTaskSpec, Utterance, generate_synth
from kdtrain.distill import DistillLossSpec, SoftTargetSet, export_soft_targets, one_hot_rows
from kdtrain.errors import AlignmentError, InvalidArgumentError, NumericOverflowError
from kdtrain.feedforward import _BLOCK_ROWS, ff_forward, init_feedforward, row_blocks
from kdtrain.formats import read_soft_targets, write_soft_targets
from kdtrain.lstm import init_lstm, lstm_forward_batch, zeros_state
from kdtrain.training import (
    TrainingSchedule,
    eval_logits,
    frame_accuracy,
    gradient_variance_report,
    iter_batches,
    run_training,
)


@pytest.fixture(scope="module")
def task():
    spec = SynthTaskSpec(
        num_classes=4, feature_dim=5, noise_scale=1.0, train_utterances=10, cv_utterances=4,
        test_utterances=2, min_frames=6, max_frames=14,
    )
    splits = generate_synth(spec, 21)
    student = init_lstm(5, 4, layers=1, cells=6, projection=3, rng=np.random.default_rng(22))
    teacher = init_feedforward([5, 8, 4], np.random.default_rng(23), scale=0.5)
    return splits.train, splits.cv, student, teacher


def train(task, mode, temperature=1.0, switch=None, **inputs):
    train_set, cv_set, student, _ = task
    schedule = TrainingSchedule(learning_rate=0.01, max_epochs=3, streams=3, window=5,
                                pretrain_switch_epoch=switch)
    return run_training(
        DistillLossSpec(mode, 0.5, temperature), student, train_set, cv_set,
        schedule=schedule, master_seed=7, **inputs,
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
    soft = next(export_soft_targets(task[3], task[0], [2.0]))
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
    soft = next(export_soft_targets(task[3], task[0], [2.0]))
    with pytest.raises(AlignmentError, match="T=2"):
        train(task, "soft", 1.0, soft_targets=soft)
    train(task, "soft", 2.0, soft_targets=soft)


def test_teacher_training_bit_equals_training_that_recomputes_activations(task, monkeypatch):
    """ff_backward on the activations the training forward kept and
    ff_backward on activations recomputed through ff_forward train the
    same teacher, bit for bit."""
    train_set, cv_set, _, _ = task
    teacher = init_feedforward([5, 8, 8, 4], np.random.default_rng(24), scale=0.5)
    schedule = TrainingSchedule(learning_rate=0.05, max_epochs=2,
                                improve_threshold=float("-inf"), streams=3, window=5)
    original = training.ff_backward
    recomputed_layers = []

    def run(backward):
        monkeypatch.setattr(training, "ff_backward", backward)
        return run_training(DistillLossSpec("hard"), teacher, train_set, cv_set,
                            schedule=schedule, master_seed=7)

    def recomputes(params, features, logit_grads, hidden):
        fresh = []
        ff_forward(params, features, fresh)
        recomputed_layers.append(len(fresh))
        return original(params, features, logit_grads, fresh)

    kept = run(original)
    recomputed = run(recomputes)
    assert recomputed_layers and set(recomputed_layers) == {2}
    assert len(kept[0].epochs) == 2
    assert_same_run(kept, recomputed)


def frame_indexed_split(counts, num_classes=3):
    """A split whose feature 0 holds each frame's index on the flat axis."""
    offsets = np.cumsum([0, *counts[:-1]])
    utts = [Utterance(uid, int(o), c) for uid, (o, c) in enumerate(zip(offsets, counts))]
    index = np.arange(sum(counts), dtype=np.float64)
    features = np.stack([index, -index], axis=1)
    return FrameDataset(utts, features, np.arange(index.size) % num_classes, num_classes)


@pytest.mark.parametrize("streams, window", [(1, 4), (3, 5), (4, 1), (2, 13), (9, 50)])
def test_iter_batches_covers_every_frame_once_within_utterances(streams, window):
    counts = [7, 1, 12, 3, 5, 9, 2, 11]  # ragged; window 50 exceeds every utterance
    split = frame_indexed_split(counts)
    order = np.random.default_rng(33).permutation(len(counts))
    rows = np.arange(split.total_frames)[:, None] * np.array([1.0, 10.0, 100.0])
    utt_of = np.repeat(np.arange(len(counts)), counts)
    seen = []
    slot_utts = [[] for _ in range(streams)]
    for batch in iter_batches(split, order, streams, window, rows):
        assert batch.features.shape == (streams, window, 2)
        for s in range(streams):
            real = int(batch.mask[s].sum())
            assert batch.mask[s, :real].all()  # real frames first, then padding
            for padded in (batch.features, batch.targets):
                np.testing.assert_array_equal(padded[s, real:], 0.0)
            if real == 0:
                assert not batch.resets[s]
                continue
            idx = batch.features[s, :real, 0].astype(np.int64)
            np.testing.assert_array_equal(idx, np.arange(idx[0], idx[0] + real))
            u = utt_of[idx[0]]
            assert utt_of[idx[-1]] == u  # never crosses an utterance boundary
            assert batch.resets[s] == (idx[0] == split.utterances[u].offset)
            if batch.resets[s]:
                slot_utts[s].append(u)
            np.testing.assert_array_equal(batch.labels[s, :real], split.labels[idx])
            np.testing.assert_array_equal(batch.targets[s, :real], rows[idx])
            seen.extend(idx)
    np.testing.assert_array_equal(np.sort(seen), np.arange(split.total_frames))
    for s in range(streams):
        assert slot_utts[s] == list(order[s::streams])


def test_iter_batches_of_an_empty_order_yields_nothing():
    split = frame_indexed_split([4, 2])
    assert list(iter_batches(split, np.array([], dtype=np.int64), 3, 5)) == []


def newbob_run(task, monkeypatch, mode="hard", threshold=0.1, max_halvings=2, switch=None,
               cv_script=None, max_epochs=8):
    """An FF model trained under the newbob rule. Returns the record and,
    per update, the optimizer state, its learning rate and whether its
    velocity is still unset."""
    train_set, cv_set, _, teacher = task
    if cv_script is not None:
        script = iter(cv_script)
        monkeypatch.setattr(training, "frame_accuracy", lambda params, dataset: next(script))
    updates = []
    step = training.sgd_momentum_step

    def recording_step(params, grads, opt):
        updates.append((opt, opt.learning_rate, opt.velocity is None))
        return step(params, grads, opt)

    monkeypatch.setattr(training, "sgd_momentum_step", recording_step)
    soft = next(export_soft_targets(teacher, train_set, [2.0]))
    schedule = TrainingSchedule(
        learning_rate=0.04, max_epochs=max_epochs, improve_threshold=threshold,
        max_halvings=max_halvings, streams=3, window=5, pretrain_switch_epoch=switch,
    )
    model = init_feedforward([5, 6, 4], np.random.default_rng(25), scale=0.5)
    record, _ = run_training(
        DistillLossSpec(mode, 0.5, 2.0), model, train_set, cv_set, soft_targets=soft,
        schedule=schedule, master_seed=5,
    )
    assert [e.epoch for e in record.epochs] == list(range(1, len(record.epochs) + 1))
    return record, updates


def rates(record):
    return [e.learning_rate for e in record.epochs]


def test_newbob_never_halves_while_every_epoch_improves(task, monkeypatch):
    record, _ = newbob_run(task, monkeypatch, threshold=float("-inf"), max_epochs=4)
    assert rates(record) == [0.04] * 4


def test_newbob_halves_on_each_failure_and_stops_after_max_halvings(task, monkeypatch):
    """No accuracy gain reaches 1000 points, so only the first epoch
    (measured against no best at all) counts as an improvement."""
    record, _ = newbob_run(task, monkeypatch, threshold=1000.0, max_halvings=3)
    assert rates(record) == [0.04, 0.04, 0.02, 0.01]


def test_newbob_stops_only_on_consecutive_failures(task, monkeypatch):
    """A kept improvement resets the failure count but not the halved
    learning rate."""
    cv = [50.0, 49.0, 51.0, 50.5, 50.0]
    record, _ = newbob_run(task, monkeypatch, cv_script=cv, max_halvings=2)
    assert [e.cv_accuracy for e in record.epochs] == cv
    assert rates(record) == [0.04, 0.04, 0.02, 0.02, 0.01]


@pytest.mark.parametrize("switch, soft_rates", [(2, [0.04, 0.04]), (None, [0.04, 0.04, 0.02])])
def test_pretrain_switch_resets_velocity_and_learning_rate(task, monkeypatch, switch,
                                                           soft_rates):
    """The soft phase ends after ``switch`` epochs, without halving, or
    at its plateau; the hard phase then starts from the initial
    learning rate with zero velocity, and runs to its own plateau."""
    record, updates = newbob_run(task, monkeypatch, "pretrain", threshold=1000.0, switch=switch)
    assert rates(record) == soft_rates + [0.04, 0.04, 0.02]
    phases = []
    for opt, rate, unset in updates:
        if not any(opt is o for o in phases):
            phases.append(opt)
            assert unset and rate == 0.04
        else:
            assert not unset
    assert len(phases) == 2


def grouped_logits(params, dataset, utts, group=32):
    """Groups of ``group`` utterances taken in the order of ``utts``,
    each padded to its longest member and run as one unblocked forward."""
    out = np.empty((dataset.total_frames, params.output_dim))
    for start in range(0, len(utts), group):
        members = utts[start : start + group]
        feats = np.zeros((len(members), max(u.count for u in members), dataset.feature_dim))
        for s, u in enumerate(members):
            feats[s, : u.count] = dataset.features[u.offset : u.offset + u.count]
        logits, _, _ = lstm_forward_batch(params, feats, zeros_state(params, len(members)))
        for s, u in enumerate(members):
            out[u.offset : u.offset + u.count] = logits[s, : u.count]
    return out


def manifest_order_logits(params, dataset, group=32):
    """The reference evaluation: groups of ``group`` utterances taken in
    manifest order, each padded to its longest member."""
    return grouped_logits(params, dataset, dataset.utterances, group)


@pytest.fixture(scope="module")
def ragged_split():
    """150 utterances of 1-80 frames: four whole groups of 32 and a last
    group of 22, a row count at which the K = 10 head rounds differently
    from a 32-row GEMM."""
    spec = SynthTaskSpec(
        num_classes=10, feature_dim=20, noise_scale=1.0, train_utterances=150, cv_utterances=1,
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


@pytest.fixture(scope="module")
def long_ragged_split():
    """40 utterances of 2B + 1 to 5B - 1 frames, B = _EVAL_BLOCK: each
    spans at least 3 frame blocks, and most end in a partial one; one
    whole group of 32 and a last group of 8."""
    b = training._EVAL_BLOCK
    spec = SynthTaskSpec(
        num_classes=10, feature_dim=20, noise_scale=1.0, train_utterances=40, cv_utterances=1,
        test_utterances=1, min_frames=2 * b + 1, max_frames=5 * b - 1,
    )
    split = generate_synth(spec, 33).train
    counts = [u.count for u in split.utterances]
    assert min(counts) > 2 * b and max(counts[:32]) % b and max(counts[32:]) % b
    return split


@pytest.mark.parametrize("layers, cells, projection", [(1, 64, 32), (2, 32, 16)])
def test_frame_blocks_keep_every_logit(long_ragged_split, layers, cells, projection):
    """Each length-ordered group runs in frame blocks with its state
    carried, and every logit equals one unblocked forward per group."""
    params = init_lstm(
        20, 10, layers=layers, cells=cells, projection=projection,
        rng=np.random.default_rng(34), scale=0.3,
    )
    utts = long_ragged_split.utterances
    ordered = sorted(utts[:32], key=lambda u: u.count) + utts[32:]
    reference = grouped_logits(params, long_ragged_split, ordered)
    np.testing.assert_array_equal(eval_logits(params, long_ragged_split), reference)


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes traced while it ran (numpy reports
    its buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_SLACK = 2**17  # bytes of small transients: states, one block's input and logits


def score_in(monkeypatch, processes):
    """Score on ``processes`` CPUs from here on: an LSTM in that many
    processes, however little a share costs, and a teacher on that many
    threads."""
    monkeypatch.setattr(training, "_scoring_cpus", lambda: processes)
    monkeypatch.setattr(feedforward, "_scoring_cpus", lambda: processes)
    monkeypatch.setattr(training, "_MIN_SHARE", 1)


_IN_THREADS = feedforward._in_threads


def thread_counts(monkeypatch, threads):
    """The list returned gathers, per teacher forward without ``hidden``,
    how many threads scored its blocks. Each thread's first block waits
    (10 s at most) until ``threads`` threads, or one per block if there
    are fewer blocks, hold one; so fewer threads fail the forward."""
    counts = []

    def recording(blocks, score, lock):
        barrier = threading.Barrier(min(threads, len(blocks)), timeout=10)
        seen = set()

        def first_waits(rows):
            if threading.get_ident() not in seen:  # only this thread adds its own ident
                seen.add(threading.get_ident())
                barrier.wait()
            score(rows)

        try:
            _IN_THREADS(blocks, first_waits, lock)
        finally:
            counts.append(len(seen))

    monkeypatch.setattr(feedforward, "_in_threads", recording)
    return counts


def shared_buffers(monkeypatch, processes):
    """Score on ``processes`` CPUs from here on (``score_in``); the list
    returned gathers the bytes of each child's shared buffer, which
    tracemalloc does not see, each checked to hold its share's logits
    and no more."""
    score_in(monkeypatch, processes)
    sizes = []
    fork = training._fork

    def recording(params, dataset, share):
        pid, read, logits = fork(params, dataset, share)
        rows = sum(u.count for group in share for u in group)
        assert logits.nbytes == rows * params.output_dim * 8 and rows < dataset.total_frames
        sizes.append(logits.nbytes)
        return pid, read, logits

    monkeypatch.setattr(training, "_fork", recording)
    return sizes


def test_lstm_eval_memory_is_bounded_by_the_frame_block(monkeypatch):
    """Eval keeps one frame's gates, c, tanh(c) and m, 7C * S doubles
    per layer, and one frame block's projected outputs, (B + 1) * P * S,
    besides the split's own logits and the group's padded input and
    logits; no block-long backward cache, nor the whole utterance's. One
    group is one piece, which no child shares."""
    s, frames, d, k, c, p = 4, 600, 20, 10, 64, 32
    rng = np.random.default_rng(35)
    split = FrameDataset(
        [Utterance(i, i * frames, frames) for i in range(s)],
        rng.normal(size=(s * frames, d)), np.zeros(s * frames, dtype=np.int64), k,
    )
    params = init_lstm(d, k, layers=2, cells=c, projection=p, rng=rng, scale=0.3)
    shared = shared_buffers(monkeypatch, 2)
    out, peak = traced_peak(eval_logits, params, split)
    layers = 2 * (7 * c + (training._EVAL_BLOCK + 1) * p) * s * 8
    assert peak <= out.nbytes + s * frames * (d + k) * 8 + layers + _SLACK
    assert shared == []


def test_teacher_eval_memory_is_bounded_by_the_row_block(monkeypatch):
    """A teacher eval over several row blocks holds two block-high
    hidden matrices at a time per thread, not two split-high ones,
    beside the split's logits; it forks no child, so no shared buffer
    holds more."""
    rows, width = 5 * _BLOCK_ROWS + 77, 128
    rng = np.random.default_rng(36)
    split = FrameDataset(
        [Utterance(0, 0, rows)], rng.normal(size=(rows, 20)),
        np.zeros(rows, dtype=np.int64), 10,
    )
    teacher = init_feedforward([20, width, width, 10], rng, scale=0.3)
    for threads in (1, 2, 3):
        shared, counts = shared_buffers(monkeypatch, threads), thread_counts(monkeypatch, threads)
        out, peak = traced_peak(eval_logits, teacher, split)
        assert peak <= out.nbytes + threads * (2 * _BLOCK_ROWS * width * 8 + _SLACK)
        assert shared == [] and counts == [threads]


def test_teacher_eval_makes_no_float64_copy_of_a_float32_split(monkeypatch):
    """The split holds float32 features; a teacher eval widens one row
    block at a time per thread, so it holds less than the split in
    float64, and it forks no child, so no shared buffer holds more."""
    rows, d, width = 5 * _BLOCK_ROWS + 77, 64, 8
    rng = np.random.default_rng(37)
    split = FrameDataset(
        [Utterance(0, 0, rows)], rng.normal(size=(rows, d)),
        np.zeros(rows, dtype=np.int64), 10,
    )
    assert split.features.dtype == np.float32
    teacher = init_feedforward([d, width, 10], rng, scale=0.3)
    for threads in (1, 2, 3):
        shared, counts = shared_buffers(monkeypatch, threads), thread_counts(monkeypatch, threads)
        out, peak = traced_peak(eval_logits, teacher, split)
        bound = out.nbytes + threads * (_BLOCK_ROWS * (d + 2 * width) * 8 + _SLACK)
        assert peak <= bound and peak < split.features.size * 8
        assert threads > 1 or bound < split.features.size * 8
        assert shared == [] and counts == [threads]


def reference_accuracy(params, dataset):
    return 100.0 * float(np.mean(np.argmax(eval_logits(params, dataset), axis=1)
                                 == dataset.labels))


def accuracy_cases(ragged_split):
    """A teacher over several near-equal row blocks and over one short
    block, and an LSTM on a ragged split whose last group is short."""
    rng = np.random.default_rng(39)
    teacher = init_feedforward([20, 16, 10], rng, scale=1.0)
    student = init_lstm(20, 10, layers=1, cells=16, projection=8, rng=rng, scale=0.5)
    return [(teacher, ragged_split), (teacher, split_prefix(ragged_split, 300)),
            (student, ragged_split)]


def split_prefix(split, frames):
    """The utterances of ``split`` that end within its first ``frames``."""
    utts = [u for u in split.utterances if u.offset + u.count <= frames]
    end = utts[-1].offset + utts[-1].count
    return FrameDataset(utts, split.features[:end], split.labels[:end], split.num_classes)


def test_frame_accuracy_equals_the_mean_over_the_split_logits(ragged_split):
    """The correct frames counted piece by piece give the bits of the
    mean over the whole split's logits, and the pieces ``each`` receives
    cover the split once with its logits."""
    cases = accuracy_cases(ragged_split)
    assert ragged_split.total_frames > 3 * _BLOCK_ROWS > 3 * cases[1][1].total_frames
    for params, split in cases:
        got = frame_accuracy(params, split)
        assert type(got) is float and got == reference_accuracy(params, split)
        pieces = np.full((split.total_frames, split.num_classes), np.nan)
        seen = np.zeros(split.total_frames, dtype=int)

        def keep(rows, logits):
            pieces[rows] = logits
            seen[rows] += 1

        assert eval_logits(params, split, keep) is None
        assert (seen == 1).all()
        assert pieces.tobytes() == eval_logits(params, split).tobytes()


def test_frame_accuracy_scores_inside_one_eval_logits_call(ragged_split, monkeypatch):
    """Every LSTM forward of a score runs inside its one
    ``training.eval_logits`` call, as bound in ``kdtrain.training``."""
    params = accuracy_cases(ragged_split)[2][0]
    real_eval, real_forward = training.eval_logits, training.lstm_forward_batch
    calls = {"eval": 0, "depth": 0, "forwards": 0}

    def counting_eval(*args, **kwargs):
        calls["eval"] += 1
        calls["depth"] += 1
        try:
            return real_eval(*args, **kwargs)
        finally:
            calls["depth"] -= 1

    def counting_forward(*args, **kwargs):
        assert calls["depth"] == 1
        calls["forwards"] += 1
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(training, "eval_logits", counting_eval)
    monkeypatch.setattr(training, "lstm_forward_batch", counting_forward)
    frame_accuracy(params, ragged_split)
    assert calls["eval"] == 1 and calls["forwards"] > 5


def test_frame_accuracy_holds_less_than_the_split_logits(monkeypatch):
    """A teacher's score holds one row block's input, hidden matrix
    and logits at a time per thread; an LSTM's one group's padded input
    and logits, and one frame block's logits twice (the forward's and
    their stream-major copy). The teacher forks no child; beside the
    LSTM's score, the child's shared buffer holds its share's logits;
    and neither score holds the split's."""
    rng = np.random.default_rng(40)
    d, k, frames, count = 5, 40, 30, 8 * training._EVAL_GROUP
    split = FrameDataset(
        [Utterance(i, i * frames, frames) for i in range(count)],
        rng.normal(size=(count * frames, d)), rng.integers(0, k, size=count * frames), k,
    )
    logits = split.total_frames * k * 8
    teacher = init_feedforward([d, 16, k], rng, scale=0.5)
    for threads in (1, 2, 3):
        shared, counts = shared_buffers(monkeypatch, threads), thread_counts(monkeypatch, threads)
        _, peak = traced_peak(frame_accuracy, teacher, split)
        assert peak <= threads * (_BLOCK_ROWS * (d + 16 + 2 * k) * 8 + _SLACK) < logits
        assert shared == [] and counts == [threads]
    shared = shared_buffers(monkeypatch, 2)
    student = init_lstm(d, k, layers=1, cells=16, projection=8, rng=rng, scale=0.5)
    _, peak = traced_peak(frame_accuracy, student, split)
    group = training._EVAL_GROUP * (frames * (d + k) + 2 * training._EVAL_BLOCK * k) * 8
    assert peak <= group + _SLACK < logits
    assert len(shared) == 1 and peak + shared.pop() < logits


def first_utterances(split, count):
    """The first ``count`` utterances of ``split``, as a split."""
    last = split.utterances[count - 1]
    return split_prefix(split, last.offset + last.count)


def split_cases(ragged_split):
    """(model, split, pieces): a teacher over one, two and three row
    blocks, and an LSTM over one group, two groups (the second short)
    and five, the last short."""
    rng = np.random.default_rng(41)
    teacher = init_feedforward([20, 16, 10], rng, scale=1.0)
    student = init_lstm(20, 10, layers=1, cells=16, projection=8, rng=rng, scale=0.5)
    return [(teacher, split_prefix(ragged_split, _BLOCK_ROWS), 1),
            (teacher, split_prefix(ragged_split, 2 * _BLOCK_ROWS), 2),
            (teacher, split_prefix(ragged_split, 3 * _BLOCK_ROWS), 3),
            (student, first_utterances(ragged_split, 20), 1),
            (student, first_utterances(ragged_split, 40), 2),
            (student, ragged_split, 5)]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_scores_have_the_bits(params, split, want):
    """``eval_logits`` gives ``want``'s bytes as an array, and piece by
    piece through ``each``, covering every frame once."""
    assert eval_logits(params, split).tobytes() == want.tobytes()
    pieces = np.full(want.shape, np.nan)
    seen = np.zeros(split.total_frames, dtype=int)

    def keep(rows, logits):
        pieces[rows] = logits
        seen[rows] += 1

    assert eval_logits(params, split, keep) is None
    assert (seen == 1).all() and pieces.tobytes() == want.tobytes()


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_scores_keep_their_bits_in_any_number_of_processes(ragged_split, monkeypatch, processes):
    """Scored on 1, 2 or 3 CPUs, a teacher and an LSTM give the bits of
    the serial score and of the references. A teacher forks no child:
    its blocks run on that many threads, or one per block if there are
    fewer, and so do its exported targets, with the serial rows. An
    LSTM's child scores a share whenever there is more than one process
    and more than one group, the caller takes the children's logits
    without scoring their shares again, and no child is left once a
    score returns."""
    cases = split_cases(ragged_split)
    score_in(monkeypatch, 1)
    serial = [eval_logits(params, split) for params, split, _ in cases]
    exported = {}
    for (params, split, pieces), want in zip(cases, serial):
        if training._is_lstm(params):
            assert len(training._shares(split, 99)) == pieces
            reference = manifest_order_logits(params, split)
        else:
            assert len(row_blocks(split.total_frames)) == pieces
            reference = ff_forward(params, split.features)
            exported[pieces] = [s.rows for s in export_soft_targets(params, split, [1.0, 2.0])]
        assert want.tobytes() == reference.tobytes()
    shared = shared_buffers(monkeypatch, processes)
    counts = thread_counts(monkeypatch, processes)
    caller, score, here = os.getpid(), training._score, []

    def counting(*args):
        here.extend([None] if os.getpid() == caller else [])
        return score(*args)

    monkeypatch.setattr(training, "_score", counting)
    for (params, split, pieces), want in zip(cases, serial):
        del shared[:], here[:], counts[:]
        assert_scores_have_the_bits(params, split, want)
        if training._is_lstm(params):
            assert len(shared) == 2 * (min(processes, pieces) - 1)
            assert len(here) == 2  # the caller's own share in each mode, no child's
            assert counts == []
        else:
            assert shared == [] and here == []
            assert_same_bits([s.rows for s in export_soft_targets(params, split, [1.0, 2.0])],
                             exported[pieces])
            assert counts == [min(processes, pieces)] * 3
        assert_no_child_left()


def test_each_piece_goes_to_the_least_loaded_process_costliest_first(ragged_split,
                                                                    monkeypatch):
    """Every group lands in one share; the first share, a child's, holds
    the costliest; and no share's last piece would have gone to a less
    loaded share when it was placed."""
    def cost(piece):
        return len(piece) * max(u.count for u in piece)

    monkeypatch.setattr(training, "_MIN_SHARE", 1)
    shares = training._shares(ragged_split, 3)
    pieces = sorted((p for share in shares for p in share), key=cost, reverse=True)
    assert len(shares) == 3 and len(pieces) == 5
    assert sorted(u.uid for p in pieces for u in p) == [u.uid for u in ragged_split.utterances]
    assert shares[0][0] is pieces[0]
    loads = [0, 0, 0]
    for piece in pieces:
        k = next(i for i, share in enumerate(shares) if any(p is piece for p in share))
        assert loads[k] == min(loads)
        loads[k] += cost(piece)


def test_a_child_that_sends_no_byte_changes_no_bit(ragged_split, monkeypatch):
    """A child that exits before its byte has its share scored by the
    caller, with the same bits. Only an LSTM forks a child."""
    cases = split_cases(ragged_split)[4:]
    score_in(monkeypatch, 1)
    serial = [eval_logits(params, split) for params, split, _ in cases]
    caller, score = os.getpid(), training._score

    def exiting_in_a_child(*args):
        if os.getpid() != caller:
            os._exit(1)
        return score(*args)

    monkeypatch.setattr(training, "_score", exiting_in_a_child)
    score_in(monkeypatch, 2)
    for (params, split, _), want in zip(cases, serial):
        assert_scores_have_the_bits(params, split, want)
        assert_no_child_left()


@pytest.mark.parametrize("case", [2, 5], ids=["teacher", "lstm"])
def test_non_finite_logits_in_a_childs_share_raise_the_serial_error(ragged_split, monkeypatch,
                                                                    case):
    """A NaN feature in an LSTM child's share: the child sends no byte,
    and scoring its share here raises the error a serial score raises.
    A teacher forks no child and raises that error here."""
    params, split, _ = split_cases(ragged_split)[case]
    monkeypatch.setattr(training, "_MIN_SHARE", 1)
    features = split.features.copy()
    lstm = training._is_lstm(params)
    features[training._shares(split, 2)[0][-1][-1].offset if lstm
             else row_blocks(split.total_frames)[-1].start] = np.nan
    bad = FrameDataset(split.utterances, features, split.labels, split.num_classes)
    errors = []
    for processes in (1, 2):
        shared = shared_buffers(monkeypatch, processes)
        with pytest.raises(NumericOverflowError) as raised:
            eval_logits(params, bad)
        errors.append(str(raised.value))
        assert len(shared) == (processes - 1 if lstm else 0)
        assert_no_child_left()
    assert errors[0] == errors[1] and "non-finite" in errors[0]


@pytest.mark.parametrize("threads", [2, 3])
def test_no_scoring_thread_outlives_a_teacher_error(ragged_split, monkeypatch, threads):
    """Non-finite logits in every block, each block on one of the
    threads, raise NumericOverflowError here, and an error in ``each``,
    also on other threads only, is raised here; no thread is left and
    none reported an unhandled error;
    and an LSTM score after them still forks its children and reaps
    them."""
    params, split, _ = split_cases(ragged_split)[2]
    features = split.features.copy()
    features[[rows.start for rows in row_blocks(split.total_frames)]] = np.nan
    bad = FrameDataset(split.utterances, features, split.labels, split.num_classes)
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    shared = shared_buffers(monkeypatch, threads)
    counts = thread_counts(monkeypatch, threads)
    before = threading.active_count()

    def failing(rows, logits):
        raise ValueError("stop")

    def failing_elsewhere(rows, logits):
        if threading.get_ident() != caller:
            raise ValueError("stop")

    caller = threading.get_ident()
    for call, error in [((params, bad), NumericOverflowError),
                        ((params, bad, failing), NumericOverflowError),
                        ((params, split, failing), ValueError),
                        ((params, split, failing_elsewhere), ValueError)]:
        with pytest.raises(error):
            eval_logits(*call)
        assert threading.active_count() == before
    assert counts == [threads] * 4 and unhandled == [] and shared == []
    student, lstm_split, _ = split_cases(ragged_split)[5]
    assert eval_logits(student, lstm_split).shape == (lstm_split.total_frames, 10)
    assert len(shared) == threads - 1
    assert_no_child_left()


@pytest.mark.parametrize("threads", [2, 3])
def test_every_traced_binding_runs_on_the_scoring_caller(ragged_split, monkeypatch, threads):
    """The benchmark's tracer keeps one span stack, so each binding it
    wraps (``PROBES`` of ``perfbench/tracing.py``) must be called on the
    thread that scores, never on a teacher's other threads: through
    eval_logits, frame_accuracy, export_soft_targets and the
    logit-matching targets of run_training, on 2 and 3 threads."""
    from test_probes import PROBES

    callers = []
    for probe in PROBES:
        def recording(*args, _fn=getattr(importlib.import_module(probe.module), probe.attr),
                      **kwargs):
            callers.append(threading.get_ident())
            return _fn(*args, **kwargs)

        monkeypatch.setattr(importlib.import_module(probe.module), probe.attr, recording)
    teacher, split, blocks = split_cases(ragged_split)[2]
    student = split_cases(ragged_split)[3][0]
    score_in(monkeypatch, threads)
    counts = thread_counts(monkeypatch, threads)
    training.eval_logits(teacher, split)
    training.frame_accuracy(teacher, split)
    list(distill.export_soft_targets(teacher, split, [1.0, 2.0]))
    schedule = TrainingSchedule(max_epochs=1, streams=8, window=20)
    run_training(DistillLossSpec("logitmatch", 0.5, 1.0), student, ragged_split,
                 split_prefix(ragged_split, 200), schedule, teacher=teacher)
    assert counts == [min(threads, blocks)] * 3 + [threads]
    assert len(callers) > 10 and set(callers) == {threading.get_ident()}


def test_an_error_here_kills_and_reaps_every_child(ragged_split, monkeypatch):
    """When ``each`` raises in the caller, each child, still busy, is
    killed and reaped before the error leaves eval_logits."""
    params, split, _ = split_cases(ragged_split)[5]
    caller, score = os.getpid(), training._score

    def sleeping_in_a_child(*args):
        if os.getpid() != caller:
            time.sleep(60)
        return score(*args)

    statuses = []
    waitpid = os.waitpid

    def recording_waitpid(pid, options):
        statuses.append(waitpid(pid, options)[1])
        return pid, statuses[-1]

    def failing(rows, logits):
        raise ValueError("stop")

    monkeypatch.setattr(training, "_score", sleeping_in_a_child)
    score_in(monkeypatch, 3)
    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    started = time.monotonic()
    with pytest.raises(ValueError, match="stop"):
        eval_logits(params, split, failing)
    assert time.monotonic() - started < 30
    monkeypatch.undo()
    assert len(statuses) == 2
    assert all(os.WIFSIGNALED(s) and os.WTERMSIG(s) == signal.SIGKILL for s in statuses)
    assert_no_child_left()


def test_a_child_that_hangs_has_its_share_scored_here(ragged_split, monkeypatch):
    """A child that sends no byte in time is taken as hung: its share is
    scored here with the same bits, and it is killed and reaped."""
    params, split, _ = split_cases(ragged_split)[5]
    score_in(monkeypatch, 1)
    want = eval_logits(params, split)
    caller, score = os.getpid(), training._score

    def hanging_in_a_child(*args):
        if os.getpid() != caller:
            time.sleep(60)
        return score(*args)

    monkeypatch.setattr(training, "_score", hanging_in_a_child)
    monkeypatch.setattr(training, "_HUNG", (0.2, 0.0))
    score_in(monkeypatch, 2)
    started = time.monotonic()
    assert_scores_have_the_bits(params, split, want)
    assert time.monotonic() - started < 30
    assert_no_child_left()


def test_no_share_costs_less_than_its_fork(monkeypatch):
    """A split shares out to no more processes than its cost (padded
    slots of utterance groups) holds _MIN_SHARE; a teacher split of
    4 x _MIN_SHARE + 400 rows, which forked when a teacher row cost half
    a slot, scores with no child; and a score uses at most
    _MAX_PROCESSES processes, however many CPUs there are."""
    rng = np.random.default_rng(42)
    teacher = init_feedforward([2, 4, 3], rng)
    floor = training._MIN_SHARE

    def split(counts):
        offsets = np.cumsum([0, *counts]).tolist()
        return FrameDataset([Utterance(i, o, c) for i, (o, c) in enumerate(zip(offsets, counts))],
                            np.zeros((offsets[-1], 2)), np.zeros(offsets[-1], dtype=np.int64), 3)

    small, large = split([floor // 32] * 32 + [floor // 32 - 1] * 32), split([floor // 32] * 64)
    assert len(training._shares(small, 2)) == 1
    assert len(training._shares(large, 2)) == 2
    assert len(training._shares(large, 3)) == 2
    monkeypatch.setattr(training, "_scoring_cpus", lambda: 2)
    fork, forks = training._fork, []
    monkeypatch.setattr(training, "_fork", lambda *args: forks.append(args) or fork(*args))
    eval_logits(teacher, split([4 * floor + 400]))
    assert forks == []
    monkeypatch.undo()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)), raising=False)
    assert training._scoring_cpus() == feedforward._MAX_PROCESSES == 2


def widened(split):
    """``split`` with the same feature values held as float64."""
    wide = copy.copy(split)
    wide.features = split.features.astype(np.float64)
    return wide


def assert_same_bits(got, want):
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_ff_forward_on_float32_features_gives_the_float64_bits():
    """The hidden path and a 3-block path, logits and activations."""
    rng = np.random.default_rng(38)
    x = rng.normal(size=(2 * _BLOCK_ROWS + 5, 5)).astype(np.float32)
    teacher = init_feedforward([5, 8, 8, 4], rng, scale=0.5)
    kept32, kept64 = [], []
    assert_same_bits([ff_forward(teacher, x, kept32), *kept32],
                     [ff_forward(teacher, x.astype(np.float64), kept64), *kept64])
    assert_same_bits([ff_forward(teacher, x)], [ff_forward(teacher, x.astype(np.float64))])


def _logitmatch_run(task):
    record, params = train(task, "logitmatch", teacher=task[3])
    stats = [[e.mean_loss, e.train_accuracy, e.cv_accuracy, e.grad_variance]
             for e in record.epochs]
    return [*params.arrays(), np.array(stats)]


FEATURE_PATHS = {
    "eval teacher": lambda task: [eval_logits(task[3], task[0])],
    "eval student": lambda task: [eval_logits(task[2], task[0])],
    "iter_batches": lambda task: [
        b.features for b in iter_batches(task[0], np.arange(len(task[0].utterances)), 3, 5)
    ],
    "export_soft_targets": lambda task: [
        s.rows for s in export_soft_targets(task[3], task[0], [1.0, 2.0])
    ],
    "logitmatch": _logitmatch_run,
}


@pytest.mark.parametrize("path", FEATURE_PATHS)
def test_float32_split_gives_the_float64_bits(task, path):
    """Each consumer of a split's features computes from its float32
    values exactly what it computes from the same values as float64."""
    train_set, cv_set, student, teacher = task
    assert train_set.features.dtype == np.float32
    held64 = (widened(train_set), cv_set, student, teacher)
    assert_same_bits(FEATURE_PATHS[path](task), FEATURE_PATHS[path](held64))


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
    soft = next(export_soft_targets(teacher, train_set, [2.0]))
    hard_t = one_hot_rows(train_set.labels, 4)
    reports = gradient_variance_report(student, train_set, [None, soft])
    for rep, t in zip(reports, [hard_t, soft.rows.astype(np.float64)], strict=True):
        per_class, first = two_pass_variance(t, y)
        np.testing.assert_allclose(rep.per_class, per_class, rtol=0, atol=1e-12)
        assert rep.total == pytest.approx(per_class.sum(), rel=0, abs=1e-12)
        assert rep.first_term == pytest.approx(first.sum(), rel=0, abs=1e-12)
    assert reports[0].total != reports[1].total


def test_one_variance_call_equals_one_call_per_target_set(task):
    train_set, _, student, teacher = task
    target_sets = [None, *export_soft_targets(teacher, train_set, [2.0, 5.0])]
    together = gradient_variance_report(student, train_set, target_sets)
    assert len(together) == 3
    for targets, rep in zip(target_sets, together):
        (alone,) = gradient_variance_report(student, train_set, [targets])
        for f in dataclasses.fields(rep):
            np.testing.assert_array_equal(getattr(rep, f.name), getattr(alone, f.name))


def test_float32_targets_give_the_bits_of_their_widened_values(task):
    """The accumulator sums float32 target rows in float64, so they give
    the report of the same values widened to float64."""
    train_set, _, _, teacher = task
    narrow = next(export_soft_targets(teacher, train_set, [2.0])).rows
    y = np.random.default_rng(38).dirichlet(np.ones(4), size=train_set.total_frames)
    narrow_acc = training.GradVarianceAccumulator.for_classes(4)
    wide_acc = training.GradVarianceAccumulator.for_classes(4)
    narrow_acc.add(narrow, y)
    wide_acc.add(narrow.astype(np.float64), y)
    narrow_rep, wide_rep = narrow_acc.report(), wide_acc.report()
    for f in dataclasses.fields(narrow_rep):
        a, b = np.asarray(getattr(narrow_rep, f.name)), np.asarray(getattr(wide_rep, f.name))
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name


def test_labels_give_the_bits_of_their_one_hot_rows(task, ragged_split):
    """The accumulator takes hard targets as labels: their counts and -y
    with 1 added at each label give the one-hot rows' report bit for bit."""
    for split, k in ((task[0], 4), (ragged_split, 10)):
        y = np.random.default_rng(43).dirichlet(np.ones(k), size=split.total_frames)
        reports = []
        for targets in (split.labels, one_hot_rows(split.labels, k)):
            acc = training.GradVarianceAccumulator.for_classes(k)
            acc.add(targets, y)
            reports.append(acc.report())
        for f in dataclasses.fields(reports[0]):
            a, b = (np.asarray(getattr(r, f.name)) for r in reports)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name


def test_accumulator_refuses_labels_of_another_frame_count():
    acc = training.GradVarianceAccumulator.for_classes(3)
    with pytest.raises(training.ShapeError):
        acc.add(np.zeros(4, dtype=np.int64), np.full((5, 3), 1 / 3))


def test_variance_report_holds_two_split_sized_arrays(monkeypatch):
    """The hard report forms no one-hot matrix: beside the posteriors y
    it holds their difference from the targets, two (frames x K)
    float64 arrays, and two frame-long vectors while it adds the 1s."""
    monkeypatch.setattr(training, "_scoring_cpus", lambda: 1)  # all logits where tracemalloc is
    rng = np.random.default_rng(44)
    frames, d, k = 16_000, 20, 10
    split = FrameDataset([Utterance(0, 0, frames)], rng.normal(size=(frames, d)),
                         rng.integers(0, k, size=frames), k)
    teacher = init_feedforward([d, 16, k], rng, scale=0.5)
    soft = SoftTargetSet(1.0, rng.dirichlet(np.ones(k), size=frames))
    for target_sets in ([None], [soft]):
        _, peak = traced_peak(gradient_variance_report, teacher, split, target_sets)
        assert peak <= 2 * frames * k * 8 + 2 * frames * 8 + _SLACK


def test_fresh_set_trains_the_student_of_its_file(task, tmp_path):
    """A student trained on a freshly exported set is, byte for byte,
    the one trained on that set written to its file and read back."""
    train_set, _, _, teacher = task
    fresh = next(export_soft_targets(teacher, train_set, [2.0]))
    path = tmp_path / "s.dkst"
    write_soft_targets(path, fresh)
    from_set, from_file = (
        train(task, "reg", 2.0, soft_targets=soft) for soft in (fresh, read_soft_targets(path))
    )
    assert_same_run(from_set, from_file)
    for a, b in zip(from_set[1].arrays(), from_file[1].arrays(), strict=True):
        assert a.tobytes() == b.tobytes()


SCHEDULE_OUT_OF_RANGE = {"max_epochs": 0, "streams": 0, "window": 0, "max_halvings": 0,
                         "pretrain_switch_epoch": -3, "improve_threshold": float("nan")}


@pytest.mark.parametrize("field, value", SCHEDULE_OUT_OF_RANGE.items(),
                         ids=list(SCHEDULE_OUT_OF_RANGE))
def test_schedule_below_one_rejected(field, value):
    """Below one for a count; a negative switch epoch would switch after
    one epoch, and a NaN threshold would halve every epoch."""
    with pytest.raises(InvalidArgumentError, match=field):
        TrainingSchedule(**{field: value})


@pytest.mark.parametrize("clip_norm", [0.0, -5.0])
def test_clip_norm_must_be_positive(clip_norm):
    """A negative clip norm would turn every clipped step into ascent."""
    with pytest.raises(InvalidArgumentError, match="clip_norm"):
        TrainingSchedule(clip_norm=clip_norm)


@pytest.mark.parametrize("rate", [float("inf"), float("nan")])
def test_learning_rate_must_be_finite_and_positive(rate):
    with pytest.raises(InvalidArgumentError, match="learning rate must be positive and finite"):
        TrainingSchedule(learning_rate=rate)


def misfit_soft_sets(train_set, teacher):
    """Soft-target sets that do not fit ``train_set``, each with the
    start of the violation validate_soft_targets reports for it."""
    soft = next(export_soft_targets(teacher, train_set, [2.0]))
    off_norm = soft.rows.copy()
    off_norm[3] *= 0.5
    wide = np.full((train_set.total_frames, 5), 0.2)
    return {
        "other frame count": (SoftTargetSet(2.0, soft.rows[:-1]), "frame count mismatch"),
        "other K": (SoftTargetSet(2.0, wide), "class count mismatch"),
        "off-normalised row": (SoftTargetSet(2.0, off_norm), "row 3 sums to 0.5"),
    }


@pytest.mark.parametrize("case", ["other frame count", "other K", "off-normalised row"])
def test_misfit_soft_targets_rejected_before_any_work(task, monkeypatch, case):
    train_set, _, student, teacher = task
    bad, message = misfit_soft_sets(train_set, teacher)[case]

    def no_work(*args, **kwargs):
        raise AssertionError("work started on soft targets that do not fit")

    monkeypatch.setattr(training, "_train_epoch", no_work)
    monkeypatch.setattr(training, "eval_logits", no_work)
    for mode in ("soft", "reg", "pretrain"):
        with pytest.raises(AlignmentError, match=message):
            train(task, mode, 2.0, soft_targets=bad)
    with pytest.raises(AlignmentError, match=message):
        gradient_variance_report(student, train_set, [None, bad])
