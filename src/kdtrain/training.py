"""The optimization loop: SGD with momentum and global-norm clipping,
multi-stream truncated-BPTT batching, the training regimes (including
the soft-then-hard pretraining schedule), the newbob-style learning-rate
policy, and gradient-variance instrumentation.

Everything is deterministic given (config, master seed): the master seed
splits into per-purpose seeds through numpy SeedSequence, utterances are
shuffled once per epoch by an epoch-indexed generator, and gradients are
reduced in a fixed order. A score uses up to ``_scoring_cpus()`` CPUs:
a large LSTM split is shared between forked processes, and a teacher's
row blocks between threads (``eval_logits``); the bits do not depend on
the process or thread count.
"""

import gc
import math
import mmap
import os
import select
import signal
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .datasets import FrameDataset, validate_soft_targets
from .distill import REGIMES, DistillLossSpec, SoftTargetSet, frame_objective
from .errors import (
    AlignmentError,
    InvalidArgumentError,
    NumericOverflowError,
    ShapeError,
)
from .feedforward import (
    FeedForwardParams,
    _scoring_cpus,
    ff_backward,
    ff_forward,
    score_serially,
)
from .formats import EpochStats, RunRecord
from .lstm import LstmProjParams, lstm_backward_batch, lstm_forward_batch, zeros_state
from .numeric import softmax_rows

# Fixed purpose codes for splitting one master seed into independent
# streams; documented so runs are reproducible from the master seed alone.
_SEED_PURPOSES = {"init": 1, "shuffle": 2}

# Utterances per forward group during evaluation. Groups are filled in
# length order, so each pads little, except the short last group, which
# keeps its manifest-order members. An utterance's logits depend on the
# row count S of the GEMMs it runs in, not on its row position or its
# neighbours, and this rule keeps every utterance in a group of the same
# S as in manifest-order grouping; so its logits stay bit-identical.
# A group runs in _EVAL_BLOCK-frame scoring forwards, state carried, so
# only its projected outputs are block-long; the split identity keeps every bit.
# Groups are the pieces eval_logits shares out to processes: a group's
# logits depend only on its rows and its S.
_EVAL_GROUP = 32
_EVAL_BLOCK = 16
# A child's share costs at least _MIN_SHARE padded slots of the desk
# student, about 35 ms of scoring; only LSTM groups fork (a teacher's
# blocks did not repay it). A fork costs about 10 ms: 4 ms to fork, exit
# and reap, then a fault at the caller's first write to each page, in
# this call and the next. Measured on 2 CPUs only. The process count is
# capped by feedforward._MAX_PROCESSES, which a teacher's threads share.
_MIN_SHARE = 8192
# A child that sends no byte within 1 s + 4 x the caller's own scoring
# time after the caller is done is taken as hung; its share is about as big.
_HUNG = (1.0, 4.0)


def derive_rng(master_seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """PCG64 generator for one purpose ('init' | 'shuffle') and
    index (e.g. epoch number), derived from the master seed."""
    code = _SEED_PURPOSES[purpose]
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=[master_seed, code, index]))
    )


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class OptimizerState:
    """SGD-with-momentum state of one training phase, built from a
    TrainingSchedule, which checks its values; velocity buffers are
    allocated on first use and always mirror the parameter shapes."""

    learning_rate: float
    momentum: float
    clip_norm: float
    velocity: list[np.ndarray] | None = None


def global_norm(arrays: list[np.ndarray]) -> float:
    """L2 norm over all entries of all arrays."""
    return math.sqrt(sum(float((a * a).sum()) for a in arrays))


def sgd_momentum_step(params, grads, opt: OptimizerState) -> float:
    """One update: v <- momentum*v - lr*g, p <- p + v, with g first
    clipped to ``opt.clip_norm`` global L2 norm.

    Mutates params and opt in place and returns the pre-clip global
    gradient norm. Non-finite gradients abort with NumericOverflowError.
    """
    p_arrays = params.arrays()
    g_arrays = grads.arrays()
    if len(p_arrays) != len(g_arrays) or any(
        p.shape != g.shape for p, g in zip(p_arrays, g_arrays)
    ):
        raise ShapeError("gradient shapes do not match parameter shapes")
    norm = global_norm(g_arrays)
    if not np.isfinite(norm):
        raise NumericOverflowError("non-finite gradient norm; aborting update")
    if opt.velocity is None:
        opt.velocity = [np.zeros_like(p) for p in p_arrays]
    elif any(v.shape != p.shape for v, p in zip(opt.velocity, p_arrays)):
        raise ShapeError("velocity shapes do not match parameter shapes")
    scale = opt.learning_rate
    if norm > opt.clip_norm:
        scale *= opt.clip_norm / norm
    for p, g, v in zip(p_arrays, g_arrays, opt.velocity):
        v *= opt.momentum
        v -= scale * g
        p += v
    return norm


# ---------------------------------------------------------------------------
# Multi-stream batching


@dataclass
class Batch:
    """S parallel windows of F frames. ``mask`` marks real frames (the
    zero-padded tail of a short final window is False). ``resets`` marks
    slots whose window starts a new utterance, i.e. whose recurrent
    state must be zeroed before the forward pass. ``targets`` holds the
    rows the regime reads for these frames: the teacher's soft targets
    for "soft" and "reg" (and pretrain's soft phase), the teacher's
    logits for "logitmatch", None for a hard phase."""

    features: np.ndarray  # (S, F, D)
    labels: np.ndarray  # (S, F)
    mask: np.ndarray  # (S, F) bool
    resets: np.ndarray  # (S,) bool
    targets: np.ndarray | None = None  # (S, F, K)


def iter_batches(
    dataset: FrameDataset,
    order: np.ndarray,
    streams: int,
    window: int,
    targets: np.ndarray | None = None,
) -> Iterator[Batch]:
    """Yield stream batches covering every frame of ``dataset`` exactly
    once, following ``order`` (a permutation of utterance indices).

    Slot s consumes order[s::streams] in sequence; windows never span an
    utterance boundary, and an utterance's final short window is
    zero-padded with its mask cleared. ``targets``, when given, is a
    (total_frames x K) matrix cut into windows alongside the features;
    float32 rows, as a soft-target file holds them, are widened into the
    batch's float64 rows.
    """
    # slot s's windows in order, each (first frame, frame count, starts an utterance)
    plans = [
        [(u.offset + lo, min(window, u.count - lo), lo == 0)
         for u in (dataset.utterances[int(i)] for i in order[s::streams])
         for lo in range(0, u.count, window)]
        for s in range(streams)
    ]
    d = dataset.feature_dim
    k = dataset.num_classes
    for b in range(max(map(len, plans), default=0)):
        feats = np.zeros((streams, window, d))
        labels = np.zeros((streams, window), dtype=np.int64)
        mask = np.zeros((streams, window), dtype=bool)
        resets = np.zeros(streams, dtype=bool)
        rows = None if targets is None else np.zeros((streams, window, k))
        for s, plan in enumerate(plans):
            if b >= len(plan):
                continue
            lo, take, resets[s] = plan[b]
            feats[s, :take] = dataset.features[lo : lo + take]
            labels[s, :take] = dataset.labels[lo : lo + take]
            mask[s, :take] = True
            if rows is not None:
                rows[s, :take] = targets[lo : lo + take]
        yield Batch(feats, labels, mask, resets, rows)


def _require_valid(soft_set: SoftTargetSet, dataset: FrameDataset) -> None:
    """Raise AlignmentError with the first violation that
    validate_soft_targets finds in the pairing, if any."""
    violations = validate_soft_targets(soft_set, dataset)
    if violations:
        raise AlignmentError(f"soft targets do not fit the split: {violations[0]}")


# ---------------------------------------------------------------------------
# Evaluation


def _is_lstm(params) -> bool:
    return isinstance(params, LstmProjParams)


def _shares(dataset: FrameDataset, processes: int) -> list[list]:
    """An LSTM's utterance groups of the split shared between at most
    ``processes``, and no more than the split's cost holds
    ``_MIN_SHARE``: costliest first (a group costs its padded slots),
    each to the least loaded. The first share, a child's, gets the
    costliest; the last is the caller's."""
    utts = dataset.utterances
    whole = len(utts) - len(utts) % _EVAL_GROUP
    ordered = sorted(utts[:whole], key=lambda u: u.count) + utts[whole:]
    groups = [ordered[i : i + _EVAL_GROUP] for i in range(0, len(ordered), _EVAL_GROUP)]
    costs = [len(group) * max(u.count for u in group) for group in groups]
    processes = max(1, min(processes, len(groups), sum(costs) // _MIN_SHARE))
    shares, loads = [[] for _ in range(processes)], [0] * processes
    for cost, group in sorted(zip(costs, groups), key=lambda c: c[0], reverse=True):
        k = loads.index(min(loads))
        shares[k].append(group)
        loads[k] += cost
    return shares


def _score(params, dataset: FrameDataset, share, each) -> None:
    """``each(rows, logits)`` for every utterance of ``share``'s LSTM
    groups, one group's forward at a time, in ``_EVAL_BLOCK``-frame
    blocks."""
    for group in share:
        frames = max(u.count for u in group)
        feats = np.zeros((len(group), frames, dataset.feature_dim))
        for s, u in enumerate(group):
            feats[s, : u.count] = dataset.features[u.offset : u.offset + u.count]
        logits = np.empty((len(group), frames, params.output_dim))
        state = zeros_state(params, len(group))
        for lo in range(0, frames, _EVAL_BLOCK):
            block = slice(lo, lo + _EVAL_BLOCK)
            logits[:, block], state, _ = lstm_forward_batch(params, feats[:, block], state,
                                                            cache=False)
        for s, u in enumerate(group):
            each(slice(u.offset, u.offset + u.count), logits[s, : u.count])


def _layout(share) -> np.ndarray:
    """(first row, row past the last, row past the last in a child's
    buffer) per utterance of ``share``'s groups, in row order: the
    buffer holds their logits end to end."""
    spans = np.array(sorted((u.offset, u.offset + u.count) for group in share for u in group))
    return np.column_stack([spans, np.cumsum(spans[:, 1] - spans[:, 0])])


def _fork(params, dataset: FrameDataset, share):
    """(pid, the read end of its pipe, ``_layout``, logits) of a child that
    scores ``share`` into a shared buffer sized to it, sends one byte and
    leaves by ``os._exit``, which flushes none of this process's buffers."""
    layout = _layout(share)
    logits = np.frombuffer(mmap.mmap(-1, int(layout[-1, 2]) * params.output_dim * 8))
    logits = logits.reshape(-1, params.output_dim)

    def place(rows, z):
        end = layout[np.searchsorted(layout[:, 0], rows.start), 2]
        logits[end - len(z) : end] = z

    read, write = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            try:
                gc.disable()  # a collection could run a finalizer of the parent's objects
                _score(params, dataset, share, place)
                os.write(write, b"\1")
            finally:
                os._exit(0)
    except OSError:
        os.close(read)
        raise
    finally:
        os.close(write)
    return pid, read, layout, logits


def eval_logits(params, dataset: FrameDataset, each=None) -> np.ndarray | None:
    """Per-frame logits over a whole dataset, with recurrent state zeroed
    at each utterance start; an LSTM runs each utterance group in
    ``_EVAL_BLOCK``-frame blocks (see ``_EVAL_GROUP``). With ``each``,
    each piece goes to ``each(rows, logits)`` in no set order (an LSTM's
    utterances, a teacher's ``row_blocks``) and no split-sized array is
    made; without it, the split's logits are returned. A model whose
    input or output width is not the split's is AlignmentError.

    A teacher scores its row blocks in one ``ff_forward`` call, on a
    thread per CPU (``_scoring_cpus``), this one among them; ``each``
    runs on the thread that scored the block, under a lock of that call,
    so no two calls overlap. An LSTM's pieces go to ``each`` on this
    thread. Its groups are shared out: a forked child per further CPU
    scores a share when the split costs enough (``_shares``); one that
    sends no byte (a crash, a kill, non-finite logits) or none in time
    (``_HUNG``) has it scored here, so an error is the serial one. Every
    thread is joined and every child reaped before this returns or
    raises. The bits do not depend on the thread or process count."""
    if dataset.total_frames == 0:
        raise InvalidArgumentError("empty split")
    if (params.input_dim, params.output_dim) != (dataset.feature_dim, dataset.num_classes):
        raise AlignmentError(f"model of D={params.input_dim}, K={params.output_dim} does not "
                             f"fit a split of D={dataset.feature_dim}, K={dataset.num_classes}")
    if not _is_lstm(params):
        return ff_forward(params, dataset.features, each=each)
    out = np.empty((dataset.total_frames, params.output_dim)) if each is None else None
    each = each or out.__setitem__
    *shares, mine = _shares(dataset, _scoring_cpus())
    children = []
    try:
        for share in shares:
            try:
                children.append((*_fork(params, dataset, share), share))
            except OSError:  # no process to spare: score the share here
                mine += share
        started = time.perf_counter()
        _score(params, dataset, mine, each)
        hung = time.perf_counter() + _HUNG[0] + _HUNG[1] * (time.perf_counter() - started)
        for _, read, layout, logits, share in children:
            poll = select.poll()
            poll.register(read, select.POLLIN)
            if poll.poll(max(0.0, hung - time.perf_counter()) * 1e3) and os.read(read, 1) == b"\1":
                for start, stop, end in layout.tolist():
                    each(slice(start, stop), logits[end - stop + start : end])
            else:  # no byte from the child in time: score its share here
                _score(params, dataset, share, each)
    finally:  # a child that sent its byte has nothing left to do
        for pid, read, *_ in children:
            os.kill(pid, signal.SIGKILL)
            os.close(read)
            os.waitpid(pid, 0)
    return out


def frame_accuracy(params, dataset: FrameDataset) -> float:
    """Percent of frames whose argmax logit (T = 1) matches the label,
    counted over the pieces ``eval_logits`` hands over, from whichever
    process or thread scored them."""
    correct = []
    eval_logits(params, dataset, lambda rows, logits: correct.append(
        int(np.count_nonzero(np.argmax(logits, axis=1) == dataset.labels[rows]))))
    return 100.0 * (sum(correct) / dataset.total_frames)


# ---------------------------------------------------------------------------
# Gradient-variance instrumentation


@dataclass
class GradVarianceAccumulator:
    """Running per-class sums of targets t, outputs y, and (t - y)^2
    over frames, enough to evaluate the accumulated gradient variance
    sum_i { E(t_i - y_i)^2 - (E t_i - E y_i)^2 } in one pass."""

    sum_t: np.ndarray
    sum_y: np.ndarray
    sum_sq_diff: np.ndarray
    count: int = 0

    @classmethod
    def for_classes(cls, k: int) -> "GradVarianceAccumulator":
        return cls(np.zeros(k), np.zeros(k), np.zeros(k), 0)

    def add(self, t_rows: np.ndarray, y_rows: np.ndarray) -> None:
        """Accumulate (frames x K) targets and float64 outputs; float32
        targets, as a soft-target file holds them, sum in float64 to the
        bits of their widened values. Hard targets may come as each
        frame's label: the one-hot rows are never formed, and -y with 1
        added at the label has the bits of t - y."""
        if t_rows.shape != y_rows.shape[: t_rows.ndim] or y_rows.shape[1:] != self.sum_t.shape:
            raise ShapeError("target/output rows disagree with accumulator width")
        if t_rows.ndim == 1:
            self.sum_t += np.bincount(t_rows, minlength=self.sum_t.size)
            d = np.negative(y_rows)
            d[np.arange(len(t_rows)), t_rows] += 1.0
        else:
            self.sum_t += t_rows.sum(axis=0, dtype=np.float64)
            d = t_rows - y_rows
        self.sum_y += y_rows.sum(axis=0)
        d *= d
        self.sum_sq_diff += d.sum(axis=0)
        self.count += t_rows.shape[0]

    def report(self) -> "VarianceReport":
        if self.count < 2:
            raise InvalidArgumentError(f"need at least 2 frames, have {self.count}")
        n = float(self.count)
        first = self.sum_sq_diff / n
        mean_gap = self.sum_t / n - self.sum_y / n
        per_class = first - mean_gap * mean_gap
        return VarianceReport(
            per_class=per_class,
            total=float(per_class.sum()),
            first_term=float(first.sum()),
        )


@dataclass
class VarianceReport:
    """Accumulated gradient variance, per class and total, plus the
    total of the reduced first-term form sum_i E(t_i - y_i)^2."""

    per_class: np.ndarray
    total: float
    first_term: float


def gradient_variance_report(
    params, dataset: FrameDataset, target_sets: Sequence[SoftTargetSet | None]
) -> list[VarianceReport]:
    """Gradient variance of ``params`` over a split, one report per entry
    of ``target_sets``: against hard one-hot targets for None, else
    against that soft-target set.

    The model output y is its T = 1 posterior per frame, computed once
    for all reports; the expectation runs over all frames of the split.
    Every set is checked against the split before the forward pass.
    """
    if dataset.total_frames < 2:
        raise InvalidArgumentError(f"need at least 2 frames, have {dataset.total_frames}")
    for targets in target_sets:
        if targets is not None:
            _require_valid(targets, dataset)
    y = softmax_rows(eval_logits(params, dataset), 1.0)
    reports = []
    for targets in target_sets:
        acc = GradVarianceAccumulator.for_classes(dataset.num_classes)
        acc.add(dataset.labels if targets is None else targets.rows, y)
        reports.append(acc.report())
    return reports


# ---------------------------------------------------------------------------
# The training loop


@dataclass
class TrainingSchedule:
    """The whole recipe of one training run: SGD with momentum and
    global-norm clipping, the batching, and the stopping and
    learning-rate policy. The defaults are the config's train section:
    ``config.DEFAULTS`` reads them from here.

    Each phase starts at ``learning_rate`` with zero velocity. The rate
    halves whenever CV frame accuracy fails to improve on the best seen
    so far by at least ``improve_threshold`` points; ``max_halvings``
    consecutive failures end the run (or the pretrain phase).
    ``pretrain_switch_epoch`` forces the soft-to-hard switch after
    exactly that many epochs instead of waiting for the plateau.
    """

    learning_rate: float = 0.003
    momentum: float = 0.9
    clip_norm: float = 5.0
    max_epochs: int = 40
    improve_threshold: float = 0.1
    max_halvings: int = 3
    streams: int = 4
    window: int = 20
    pretrain_switch_epoch: int | None = None

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise InvalidArgumentError(f"learning rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidArgumentError(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.clip_norm > 0:
            raise InvalidArgumentError(f"clip_norm must be positive, got {self.clip_norm}")
        minimums = {"max_epochs": 1, "max_halvings": 1, "streams": 1, "window": 1,
                    "pretrain_switch_epoch": 0}
        for name, minimum in minimums.items():
            value = getattr(self, name)
            if value is not None and value < minimum:
                raise InvalidArgumentError(f"{name} must be at least {minimum}, got {value}")
        if math.isnan(self.improve_threshold):
            raise InvalidArgumentError("improve_threshold must not be NaN")


class TrainingAborted(NumericOverflowError):
    """Raised when an update produced non-finite values; carries the
    last good parameters and the record of completed epochs."""

    def __init__(self, message: str, record: RunRecord, params):
        super().__init__(message)
        self.record = record
        self.params = params


def _forward_training(params, batch: Batch, state):
    """(logits, state out, backward) for one batch, where
    ``backward(logit_grads)`` returns the parameter gradients; an LSTM
    starts from a zero state when ``state`` is None."""
    if _is_lstm(params):
        if state is None:
            state = zeros_state(params, len(batch.resets))
        for c, r in zip(state.cells, state.projected):
            c[batch.resets] = 0.0
            r[batch.resets] = 0.0
        logits, state, cache = lstm_forward_batch(params, batch.features, state)
        return logits, state, lambda grads: lstm_backward_batch(params, cache, grads)
    s, f, d = batch.features.shape
    x, hidden = batch.features.reshape(s * f, d), []
    logits = ff_forward(params, x, hidden).reshape(s, f, -1)
    return logits, None, lambda grads: ff_backward(params, x, grads.reshape(s * f, -1), hidden)


def _train_epoch(
    spec: DistillLossSpec,
    params,
    train_set: FrameDataset,
    targets: np.ndarray | None,
    schedule: TrainingSchedule,
    opt: OptimizerState,
    shuffle_rng: np.random.Generator,
):
    order = shuffle_rng.permutation(len(train_set.utterances))
    state = None
    k = train_set.num_classes
    loss_sum = 0.0
    n_frames = 0
    n_correct = 0
    var_acc = GradVarianceAccumulator.for_classes(k)
    for batch in iter_batches(train_set, order, schedule.streams, schedule.window, targets):
        logits, state, backward = _forward_training(params, batch, state)
        flat_logits = logits.reshape(-1, k)
        flat_labels = batch.labels.ravel()
        flat_mask = batch.mask.ravel()
        losses, grads, t_inst, y_inst = frame_objective(
            spec,
            flat_logits,
            flat_labels,
            None if batch.targets is None else batch.targets.reshape(-1, k),
        )
        grads[~flat_mask] = 0.0
        loss_sum += float(losses[flat_mask].sum())
        n_frames += int(flat_mask.sum())
        pred = np.argmax(flat_logits, axis=1)
        n_correct += int(((pred == flat_labels) & flat_mask).sum())
        var_acc.add(t_inst[flat_mask], y_inst[flat_mask])
        sgd_momentum_step(params, backward(grads.reshape(logits.shape)), opt)
    return loss_sum / max(n_frames, 1), 100.0 * n_correct / max(n_frames, 1), var_acc.report()


def run_training(
    spec: DistillLossSpec,
    init_params,
    train_set: FrameDataset,
    cv_set: FrameDataset,
    schedule: TrainingSchedule,
    soft_targets: SoftTargetSet | None = None,
    teacher: FeedForwardParams | None = None,
    master_seed: int = 0,
    config_digest: str = "",
    model_tag: str = "student",
    log=None,
):
    """Train ``init_params`` (left untouched; a copy is trained) under
    the given regime and ``schedule`` until the stopping rule fires.

    "pretrain" runs a soft-target phase followed by a hard-target phase;
    the optimizer velocity and learning rate reset at the switch, and
    epoch numbering (and hence per-epoch shuffling) continues across it,
    so a switch at epoch 0 reproduces a plain hard run exactly.

    A soft regime's targets must pass validate_soft_targets against
    ``train_set`` (frame count, K, entries in [0, 1], rows summing to 1)
    and carry the regime's T; otherwise AlignmentError is raised before
    any epoch runs. "logitmatch" trains on the teacher's logits.

    Returns (RunRecord, trained params). On numeric overflow raises
    TrainingAborted carrying the record and the last epoch's parameters.
    """
    params = init_params.copy()
    regime = REGIMES[spec.mode]
    targets = None
    if regime.soft_targets:
        if soft_targets is None:
            raise InvalidArgumentError(f"regime {spec.mode!r} requires soft targets")
        _require_valid(soft_targets, train_set)
        if soft_targets.temperature != spec.temperature:
            raise AlignmentError(
                f"soft targets were recorded at T={soft_targets.temperature:g}, "
                f"regime {spec.mode!r} trains at T={spec.temperature:g}"
            )
        targets = soft_targets.rows
    elif regime.teacher_logits:
        if teacher is None:
            raise InvalidArgumentError(f"regime {spec.mode!r} requires the teacher model")
        targets = ff_forward(teacher, train_set.features)
    phases = [
        (
            DistillLossSpec(mode, spec.alpha, spec.temperature),
            schedule.pretrain_switch_epoch if n < len(regime.phases) - 1 else None,
        )
        for n, mode in enumerate(regime.phases)
    ]

    record = RunRecord(
        model=model_tag,
        regime=spec.mode,
        temperature=spec.temperature,
        alpha=spec.alpha,
        seed=master_seed,
        config_digest=config_digest,
    )
    epoch_global = 0
    last_good = params.copy()
    for phase_spec, forced_epochs in phases:
        if forced_epochs == 0:
            continue
        opt = OptimizerState(schedule.learning_rate, schedule.momentum, schedule.clip_norm)
        best_cv = -np.inf
        consecutive = 0
        reads = REGIMES[phase_spec.mode]
        phase_targets = targets if reads.soft_targets or reads.teacher_logits else None
        phase_epochs = 0
        while phase_epochs < schedule.max_epochs:
            started = time.perf_counter()
            shuffle_rng = derive_rng(master_seed, "shuffle", epoch_global)
            try:
                # a diverging update reaches require_finite or the norm check
                # in sgd_momentum_step, which report it; numpy need not warn first
                with np.errstate(over="ignore", invalid="ignore"):
                    mean_loss, tr_fa, var = _train_epoch(
                        phase_spec, params, train_set, phase_targets, schedule, opt,
                        shuffle_rng,
                    )
                    cv_fa = frame_accuracy(params, cv_set)
            except NumericOverflowError as exc:
                raise TrainingAborted(
                    f"numeric overflow in epoch {epoch_global + 1} "
                    f"(phase {phase_spec.mode!r}): {exc}",
                    record,
                    last_good,
                ) from exc
            record.epochs.append(
                EpochStats(
                    epoch=epoch_global + 1,
                    learning_rate=opt.learning_rate,
                    mean_loss=mean_loss,
                    train_accuracy=tr_fa,
                    cv_accuracy=cv_fa,
                    grad_variance=var.total,
                    grad_variance_first_term=var.first_term,
                    wall_seconds=time.perf_counter() - started,
                )
            )
            if log is not None:
                log(
                    f"[{model_tag}/{spec.mode} seed {master_seed}] epoch {epoch_global + 1}: "
                    f"loss {mean_loss:.4f} tr_fa {tr_fa:.2f} cv_fa {cv_fa:.2f} "
                    f"lr {opt.learning_rate:g}"
                )
            last_good = params.copy()
            epoch_global += 1
            phase_epochs += 1
            if forced_epochs is not None and phase_epochs >= forced_epochs:
                break
            if cv_fa - best_cv >= schedule.improve_threshold:
                best_cv = cv_fa
                consecutive = 0
            else:
                opt.learning_rate *= 0.5
                consecutive += 1
                if forced_epochs is None and consecutive >= schedule.max_halvings:
                    break
    return record, params
