"""The optimization loop: SGD with momentum and global-norm clipping,
multi-stream truncated-BPTT batching, the training regimes (including
the soft-then-hard pretraining schedule), the newbob-style learning-rate
policy, and gradient-variance instrumentation.

Everything is deterministic given (config, master seed): the master seed
splits into per-purpose seeds through numpy SeedSequence, utterances are
shuffled once per epoch by an epoch-indexed generator, and gradients are
reduced in a fixed order.
"""

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .datasets import FrameDataset
from .distill import REGIMES, DistillLossSpec, SoftTargetSet, frame_objective, one_hot_rows
from .errors import (
    AlignmentError,
    InvalidArgumentError,
    NumericOverflowError,
    ShapeError,
)
from .feedforward import FeedForwardParams, ff_backward, ff_forward
from .formats import EpochStats, RunRecord
from .lstm import LstmProjParams, lstm_backward_batch, lstm_forward_batch, zeros_state
from .numeric import softmax_rows
from .params import global_norm

# Fixed purpose codes for splitting one master seed into independent
# streams; documented so runs are reproducible from the master seed alone.
_SEED_PURPOSES = {"init": 1, "shuffle": 2, "aux": 3}

# Utterances per forward group during evaluation (any value gives the
# same accuracies; fixed for reproducibility).
_EVAL_GROUP = 32


def derive_rng(master_seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """PCG64 generator for one purpose ('init' | 'shuffle' | 'aux') and
    index (e.g. epoch number), derived from the master seed."""
    code = _SEED_PURPOSES[purpose]
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=[master_seed, code, index]))
    )


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class OptimizerState:
    """SGD-with-momentum state; velocity buffers are allocated on first
    use and always mirror the parameter shapes."""

    learning_rate: float = 0.0001
    momentum: float = 0.9
    clip_norm: float = 5.0
    velocity: list[np.ndarray] | None = None

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise InvalidArgumentError(f"learning rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidArgumentError(f"momentum must be in [0, 1), got {self.momentum}")


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
    state must be zeroed before the forward pass."""

    features: np.ndarray  # (S, F, D)
    labels: np.ndarray  # (S, F)
    mask: np.ndarray  # (S, F) bool
    resets: np.ndarray  # (S,) bool
    soft: np.ndarray | None = None  # (S, F, K)
    teacher_logits: np.ndarray | None = None  # (S, F, K)


def iter_batches(
    dataset: FrameDataset,
    order: np.ndarray,
    streams: int,
    window: int,
    soft_rows: np.ndarray | None = None,
    teacher_logits: np.ndarray | None = None,
) -> Iterator[Batch]:
    """Yield stream batches covering every frame of ``dataset`` exactly
    once, following ``order`` (a permutation of utterance indices).

    Slot s consumes order[s::streams] in sequence; windows never span an
    utterance boundary, and an utterance's final short window is
    zero-padded with its mask cleared.
    """
    queues = [order[s::streams] for s in range(streams)]
    position = [0] * streams
    cursor = [0] * streams
    d = dataset.feature_dim
    k = dataset.num_classes
    while True:
        feats = np.zeros((streams, window, d))
        labels = np.zeros((streams, window), dtype=np.int64)
        mask = np.zeros((streams, window), dtype=bool)
        resets = np.zeros(streams, dtype=bool)
        soft = None if soft_rows is None else np.zeros((streams, window, k))
        tlog = None if teacher_logits is None else np.zeros((streams, window, k))
        emitted = False
        for s in range(streams):
            if position[s] >= len(queues[s]):
                continue
            u = dataset.utterances[int(queues[s][position[s]])]
            if cursor[s] == 0:
                resets[s] = True
            take = min(window, u.count - cursor[s])
            lo = u.offset + cursor[s]
            feats[s, :take] = dataset.features[lo : lo + take]
            labels[s, :take] = dataset.labels[lo : lo + take]
            mask[s, :take] = True
            if soft is not None:
                soft[s, :take] = soft_rows[lo : lo + take]
            if tlog is not None:
                tlog[s, :take] = teacher_logits[lo : lo + take]
            cursor[s] += take
            if cursor[s] >= u.count:
                position[s] += 1
                cursor[s] = 0
            emitted = True
        if not emitted:
            return
        yield Batch(feats, labels, mask, resets, soft, tlog)


def check_alignment(dataset: FrameDataset, soft_set: SoftTargetSet) -> None:
    """Raise AlignmentError unless the soft-target set describes exactly
    the frames of ``dataset``."""
    if soft_set.class_count != dataset.num_classes:
        raise AlignmentError(
            f"soft targets have {soft_set.class_count} classes, dataset has "
            f"{dataset.num_classes}"
        )
    if soft_set.frame_count == dataset.total_frames:
        return
    covered = soft_set.frame_count
    for u in dataset.utterances:
        if u.offset + u.count > covered:
            raise AlignmentError(
                f"soft targets cover {covered} frames but utterance {u.uid} needs "
                f"frames [{u.offset}, {u.offset + u.count}); dataset total is "
                f"{dataset.total_frames}"
            )
    raise AlignmentError(
        f"soft targets cover {covered} frames, dataset has only {dataset.total_frames}"
    )


# ---------------------------------------------------------------------------
# Evaluation


def _is_lstm(params) -> bool:
    return isinstance(params, LstmProjParams)


def eval_logits(params, dataset: FrameDataset) -> np.ndarray:
    """Per-frame logits over a whole dataset in manifest order, with
    recurrent state zeroed at each utterance start."""
    if dataset.total_frames == 0:
        raise InvalidArgumentError("empty split")
    if not _is_lstm(params):
        return ff_forward(params, dataset.features)
    out = np.empty((dataset.total_frames, params.output_dim))
    utts = dataset.utterances
    for start in range(0, len(utts), _EVAL_GROUP):
        group = utts[start : start + _EVAL_GROUP]
        frames = max(u.count for u in group)
        feats = np.zeros((len(group), frames, dataset.feature_dim))
        for s, u in enumerate(group):
            feats[s, : u.count] = dataset.features[u.offset : u.offset + u.count]
        logits, _, _ = lstm_forward_batch(params, feats, zeros_state(params, len(group)))
        for s, u in enumerate(group):
            out[u.offset : u.offset + u.count] = logits[s, : u.count]
    return out


def frame_accuracy(params, dataset: FrameDataset) -> float:
    """Percent of frames whose argmax logit (T = 1) matches the label."""
    logits = eval_logits(params, dataset)
    pred = np.argmax(logits, axis=1)
    return 100.0 * float(np.mean(pred == dataset.labels))


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
        if t_rows.shape != y_rows.shape or t_rows.shape[1] != self.sum_t.size:
            raise ShapeError("target/output rows disagree with accumulator width")
        self.sum_t += t_rows.sum(axis=0)
        self.sum_y += y_rows.sum(axis=0)
        d = t_rows - y_rows
        self.sum_sq_diff += (d * d).sum(axis=0)
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
            first_term_per_class=first,
            first_term=float(first.sum()),
            count=self.count,
        )


@dataclass
class VarianceReport:
    """Accumulated gradient variance, per class and total, plus the
    reduced first-term form sum_i E(t_i - y_i)^2."""

    per_class: np.ndarray
    total: float
    first_term_per_class: np.ndarray
    first_term: float
    count: int


def gradient_variance_report(
    params, dataset: FrameDataset, targets: SoftTargetSet | None = None
) -> VarianceReport:
    """Gradient variance of ``params`` over a split, against hard one-hot
    targets (targets=None) or a soft-target set.

    The model output y is its T = 1 posterior per frame; the expectation
    runs over all frames of the split.
    """
    if dataset.total_frames < 2:
        raise InvalidArgumentError(f"need at least 2 frames, have {dataset.total_frames}")
    y = softmax_rows(eval_logits(params, dataset), 1.0)
    if targets is None:
        t = one_hot_rows(dataset.labels, dataset.num_classes)
    else:
        check_alignment(dataset, targets)
        t = targets.rows
    acc = GradVarianceAccumulator.for_classes(dataset.num_classes)
    acc.add(t, y)
    return acc.report()


# ---------------------------------------------------------------------------
# The training loop


@dataclass
class TrainingSchedule:
    """Stopping and learning-rate policy.

    The learning rate halves whenever CV frame accuracy fails to improve
    on the best seen so far by at least ``improve_threshold`` points;
    ``max_halvings`` consecutive failures end the run (or the pretrain
    phase). ``pretrain_switch_epoch`` forces the soft-to-hard switch
    after exactly that many epochs instead of waiting for the plateau.
    """

    max_epochs: int = 40
    improve_threshold: float = 0.1
    max_halvings: int = 3
    streams: int = 4
    window: int = 20
    pretrain_switch_epoch: int | None = None


class TrainingAborted(NumericOverflowError):
    """Raised when an update produced non-finite values; carries the
    last good parameters and the record of completed epochs."""

    def __init__(self, message: str, record: RunRecord, params):
        super().__init__(message)
        self.record = record
        self.params = params


def _forward_training(params, batch: Batch, state):
    if _is_lstm(params):
        if state is not None:
            for c, r in zip(state.cells, state.projected):
                c[batch.resets] = 0.0
                r[batch.resets] = 0.0
        logits, state_out, cache = lstm_forward_batch(params, batch.features, state)
        return logits, state_out, cache
    s, f, d = batch.features.shape
    logits = ff_forward(params, batch.features.reshape(s * f, d)).reshape(s, f, -1)
    return logits, None, None


def _backward_training(params, batch: Batch, cache, logit_grads: np.ndarray):
    if _is_lstm(params):
        grads, _ = lstm_backward_batch(params, cache, logit_grads)
        return grads
    s, f, d = batch.features.shape
    grads, _ = ff_backward(
        params, batch.features.reshape(s * f, d), logit_grads.reshape(s * f, -1)
    )
    return grads


def _train_epoch(
    spec: DistillLossSpec,
    params,
    train_set: FrameDataset,
    soft_rows: np.ndarray | None,
    teacher_logits: np.ndarray | None,
    schedule: TrainingSchedule,
    opt: OptimizerState,
    shuffle_rng: np.random.Generator,
):
    order = shuffle_rng.permutation(len(train_set.utterances))
    state = zeros_state(params, schedule.streams) if _is_lstm(params) else None
    k = train_set.num_classes
    loss_sum = 0.0
    n_frames = 0
    n_correct = 0
    var_acc = GradVarianceAccumulator.for_classes(k)
    for batch in iter_batches(
        train_set, order, schedule.streams, schedule.window, soft_rows, teacher_logits
    ):
        logits, state, cache = _forward_training(params, batch, state)
        flat_logits = logits.reshape(-1, k)
        flat_labels = batch.labels.ravel()
        flat_mask = batch.mask.ravel()
        losses, grads, t_inst, y_inst = frame_objective(
            spec,
            flat_logits,
            flat_labels,
            None if batch.soft is None else batch.soft.reshape(-1, k),
            None if batch.teacher_logits is None else batch.teacher_logits.reshape(-1, k),
        )
        grads[~flat_mask] = 0.0
        loss_sum += float(losses[flat_mask].sum())
        n_frames += int(flat_mask.sum())
        pred = np.argmax(flat_logits, axis=1)
        n_correct += int(((pred == flat_labels) & flat_mask).sum())
        var_acc.add(t_inst[flat_mask], y_inst[flat_mask])
        param_grads = _backward_training(params, batch, cache, grads.reshape(logits.shape))
        sgd_momentum_step(params, param_grads, opt)
    return loss_sum / max(n_frames, 1), 100.0 * n_correct / max(n_frames, 1), var_acc.report()


def run_training(
    spec: DistillLossSpec,
    init_params,
    train_set: FrameDataset,
    cv_set: FrameDataset,
    soft_targets: SoftTargetSet | None = None,
    teacher: FeedForwardParams | None = None,
    schedule: TrainingSchedule | None = None,
    learning_rate: float = 0.0001,
    momentum: float = 0.9,
    clip_norm: float = 5.0,
    master_seed: int = 0,
    config_digest: str = "",
    model_tag: str = "student",
    log=None,
):
    """Train ``init_params`` (left untouched; a copy is trained) under
    the given regime until the stopping rule fires.

    "pretrain" runs a soft-target phase followed by a hard-target phase;
    the optimizer velocity and learning rate reset at the switch, and
    epoch numbering (and hence per-epoch shuffling) continues across it,
    so a switch at epoch 0 reproduces a plain hard run exactly.

    Returns (RunRecord, trained params). On numeric overflow raises
    TrainingAborted carrying the record and the last epoch's parameters.
    """
    schedule = schedule or TrainingSchedule()
    params = init_params.copy()
    regime = REGIMES[spec.mode]
    soft_rows = None
    if regime.soft_targets:
        if soft_targets is None:
            raise InvalidArgumentError(f"regime {spec.mode!r} requires soft targets")
        check_alignment(train_set, soft_targets)
        if soft_targets.temperature != spec.temperature:
            raise AlignmentError(
                f"soft targets were recorded at T={soft_targets.temperature:g}, "
                f"regime {spec.mode!r} trains at T={spec.temperature:g}"
            )
        soft_rows = soft_targets.rows
    teacher_logits = None
    if regime.teacher_logits:
        if teacher is None:
            raise InvalidArgumentError(f"regime {spec.mode!r} requires the teacher model")
        teacher_logits = ff_forward(teacher, train_set.features)
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
        opt = OptimizerState(learning_rate, momentum, clip_norm)
        best_cv = -np.inf
        consecutive = 0
        phase_rows = soft_rows if phase_spec.uses_soft_targets else None
        phase_epochs = 0
        while phase_epochs < schedule.max_epochs:
            started = time.perf_counter()
            shuffle_rng = derive_rng(master_seed, "shuffle", epoch_global)
            try:
                # a diverging update reaches require_finite or the norm check
                # in sgd_momentum_step, which report it; numpy need not warn first
                with np.errstate(over="ignore", invalid="ignore"):
                    mean_loss, tr_fa, var = _train_epoch(
                        phase_spec, params, train_set, phase_rows, teacher_logits, schedule,
                        opt, shuffle_rng,
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
