"""Knowledge transfer from a feed-forward teacher to a student: the
regime table, temperature-softened target generation, and the per-frame
objectives (soft cross entropy with its logit gradient, the combined
hard+soft objective with T^2 gradient compensation, and squared-distance
logit matching) over (frames x K) matrices.

Temperature is applied to both the teacher (at soft-target generation)
and the student (inside the soft loss term); the hard term and all
accuracy scoring always use T = 1.
"""

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import InvalidArgumentError, ShapeError
from .feedforward import FeedForwardParams, ff_forward, row_blocks
from .numeric import PROB_CLAMP_MIN, softmax_rows


@dataclass(frozen=True)
class Regime:
    """What a training regime reads and how it trains.

    ``label`` is the regime's Table-1 "Targets" entry. ``soft_targets``
    means it reads the teacher's soft targets at its temperature T (so
    it is trained once per T); ``teacher_logits`` means it needs the
    teacher's raw logits. ``phases`` are the per-frame objectives run in
    order (see ``frame_objective``); every phase but the last ends after
    the schedule's switch epoch.
    """

    label: str
    soft_targets: bool
    teacher_logits: bool
    phases: tuple[str, ...]


# The training regimes, in report order. "hard" is the plain supervised
# baseline; "pretrain" runs "soft" epochs first and then switches to "hard".
REGIMES = {
    "hard": Regime("Hard", False, False, ("hard",)),
    "soft": Regime("Soft", True, False, ("soft",)),
    "reg": Regime("Soft + Hard", True, False, ("reg",)),
    "pretrain": Regime("Soft, Hard", True, False, ("soft", "hard")),
    "logitmatch": Regime("Logits", False, True, ("logitmatch",)),
}


@dataclass
class DistillLossSpec:
    """Which objective drives training, and with what knobs.

    ``alpha`` weights the hard term of the combined objective; every
    other property of ``mode`` comes from its row in REGIMES.
    """

    mode: str = "hard"
    alpha: float = 0.5
    temperature: float = 1.0

    def __post_init__(self):
        if self.mode not in REGIMES:
            raise InvalidArgumentError(
                f"unknown mode {self.mode!r}, expected one of {tuple(REGIMES)}"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidArgumentError(f"alpha must be in [0, 1], got {self.alpha}")
        if not self.temperature > 0:
            raise InvalidArgumentError(f"temperature must be positive, got {self.temperature}")


@dataclass
class SoftTargetSet:
    """Per-frame teacher posteriors recorded at a fixed temperature.

    ``rows`` (frame_count x K) holds the float32 values a DKST file stores,
    rounding other dtypes once, so a set and its file train one student.
    ``teacher_digest`` is the SHA-256 of the teacher checkpoint behind them.
    """

    temperature: float
    rows: np.ndarray
    teacher_digest: bytes = field(repr=False, default=b"\x00" * 32)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float32)
        if self.rows.ndim != 2 or self.rows.shape[1] < 2:
            raise ShapeError(f"rows must be (frames x K), K >= 2; got {self.rows.shape}")
        if not self.temperature > 0:
            raise InvalidArgumentError(f"temperature must be positive, got {self.temperature}")
        if len(self.teacher_digest) != 32:
            raise InvalidArgumentError("teacher digest must be 32 bytes")

    @property
    def frame_count(self) -> int:
        return self.rows.shape[0]

    @property
    def class_count(self) -> int:
        return self.rows.shape[1]


def export_soft_targets(
    teacher: FeedForwardParams, dataset, temperatures: list[float]
) -> Iterator[SoftTargetSet]:
    """Run the teacher once over every frame of ``dataset`` (manifest
    order) and yield its temperature-softened posteriors, one set per
    entry of ``temperatures``, in that order.

    The teacher runs when the first set is requested, and each set is
    made only when it is requested, and not held here once yielded; so
    a caller that drops each set holds the logits and one set at a time.
    """
    from .formats import checkpoint_digest  # local import; formats imports this module

    logits = ff_forward(teacher, dataset.features)
    digest = checkpoint_digest(teacher)
    for t in temperatures:
        yield SoftTargetSet(t, _float32_softmax(logits, t), digest)


def _float32_softmax(logits: np.ndarray, t: float) -> np.ndarray:
    """``softmax_rows(logits, t)`` as float32, in ``row_blocks``: the same bits."""
    rows = np.empty(logits.shape, dtype=np.float32)
    for block in row_blocks(len(rows)):
        rows[block] = softmax_rows(logits[block], t)
    return rows


# ---------------------------------------------------------------------------
# Per-frame objectives used by the training loop. The hard path is
# literally the soft path fed one-hot rows at T = 1, so a soft-target file
# holding exact one-hots reproduces hard training bit for bit.


def one_hot_rows(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise InvalidArgumentError("label outside [0, K)")
    rows = np.zeros((labels.size, num_classes))
    rows[np.arange(labels.size), labels.ravel()] = 1.0
    return rows


def batch_soft_loss(
    logits: np.ndarray, target_rows: np.ndarray, temperature: float, scale_by_t2: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame soft losses/gradients over (N x K) matrices.

    Returns (losses (N,), logit gradients (N x K), student posteriors q).
    """
    if logits.shape != target_rows.shape:
        raise ShapeError(f"logits {logits.shape} vs targets {target_rows.shape}")
    q = softmax_rows(logits, temperature)
    losses = -(target_rows * np.log(np.clip(q, PROB_CLAMP_MIN, 1.0))).sum(axis=1)
    grads = (q - target_rows) / temperature
    if scale_by_t2:
        t2 = temperature * temperature
        losses = losses * t2
        grads = grads * t2
    return losses, grads, q


def frame_objective(
    spec: DistillLossSpec,
    logits: np.ndarray,
    labels: np.ndarray,
    targets: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame loss and logit gradient for one regime over a flat
    (N x K) logits matrix.

    ``targets`` is the (N x K) matrix the regime reads: the teacher's
    soft targets at ``spec.temperature`` for "soft" and "reg", the
    teacher's logits for "logitmatch", and None for "hard". Soft rows
    are used as given; run_training refuses a set with a row outside
    [0, 1] or one that does not sum to 1 before it gets here. Only "reg"
    multiplies its soft term by T^2, which keeps the soft gradient's
    magnitude beside the hard term's comparable across temperatures.

    Also returns the (target, output) pair fed to the gradient-variance
    instrumentation: the hard pair for "hard", the soft pair for "soft"
    and "reg" (the component the smoothing argument is about), and the
    (teacher, student) logits for "logitmatch".
    """
    regime = REGIMES[spec.mode]
    if (regime.soft_targets or regime.teacher_logits) and targets is None:
        what = "soft targets" if regime.soft_targets else "teacher logits"
        raise InvalidArgumentError(f"{what} required for mode {spec.mode!r}")
    k = logits.shape[1]
    if spec.mode == "hard":
        t_rows = one_hot_rows(labels, k)
        losses, grads, q = batch_soft_loss(logits, t_rows, 1.0, False)
        return losses, grads, t_rows, q
    if spec.mode == "soft":
        losses, grads, q = batch_soft_loss(logits, targets, spec.temperature, False)
        return losses, grads, targets, q
    if spec.mode == "reg":
        t_rows = one_hot_rows(labels, k)
        hard_losses, hard_grads, _ = batch_soft_loss(logits, t_rows, 1.0, False)
        soft_losses, soft_grads, q = batch_soft_loss(logits, targets, spec.temperature, True)
        return (
            spec.alpha * hard_losses + soft_losses,
            spec.alpha * hard_grads + soft_grads,
            targets,
            q,
        )
    if spec.mode == "logitmatch":
        if targets.shape != logits.shape:
            raise ShapeError(f"teacher logits {targets.shape} vs student {logits.shape}")
        diff = logits - targets
        return 0.5 * (diff * diff).sum(axis=1), diff, targets, logits
    raise InvalidArgumentError(
        f"mode {spec.mode!r} has no per-frame objective; it is a schedule over {regime.phases}"
    )
