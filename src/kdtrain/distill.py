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

import numpy as np

from .errors import InvalidArgumentError, ShapeError
from .feedforward import FeedForwardParams, ff_forward
from .numeric import PROB_CLAMP_MIN, softmax_rows


@dataclass(frozen=True)
class Regime:
    """What a training regime reads and how it trains.

    ``label`` is the regime's Table-1 "Targets" entry. ``soft_targets``
    means it reads the teacher's soft targets at its temperature T (so
    it is trained once per T); ``teacher_logits`` means it needs the
    teacher's raw logits. ``scale_t2`` multiplies the soft loss and its
    gradient by T^2, keeping soft-gradient magnitudes comparable across
    temperatures. ``phases`` are the per-frame objectives run in order;
    every phase but the last ends after the schedule's switch epoch.
    """

    label: str
    soft_targets: bool
    teacher_logits: bool
    scale_t2: bool
    phases: tuple[str, ...]


# The training regimes, in report order. "hard" is the plain supervised
# baseline; "pretrain" runs "soft" epochs first and then switches to "hard".
REGIMES = {
    "hard": Regime("Hard", False, False, False, ("hard",)),
    "soft": Regime("Soft", True, False, False, ("soft",)),
    "reg": Regime("Soft + Hard", True, False, True, ("reg",)),
    "pretrain": Regime("Soft, Hard", True, False, False, ("soft", "hard")),
    "logitmatch": Regime("Logits", False, True, False, ("logitmatch",)),
}
MODES = tuple(REGIMES)


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
            raise InvalidArgumentError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidArgumentError(f"alpha must be in [0, 1], got {self.alpha}")
        if not self.temperature > 0:
            raise InvalidArgumentError(f"temperature must be positive, got {self.temperature}")

    @property
    def scale_resolved(self) -> bool:
        return REGIMES[self.mode].scale_t2

    @property
    def uses_soft_targets(self) -> bool:
        return REGIMES[self.mode].soft_targets


@dataclass
class SoftTargetSet:
    """Per-frame teacher posteriors recorded at a fixed temperature.

    ``rows`` is (frame_count x K). ``teacher_digest`` is the SHA-256 of
    the teacher checkpoint that generated the rows. Freshly generated
    rows normalize to 1e-9; rows loaded from 32-bit storage are only
    guaranteed to 1e-6.
    """

    temperature: float
    rows: np.ndarray
    teacher_digest: bytes = field(repr=False, default=b"\x00" * 32)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
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


def export_soft_targets(teacher: FeedForwardParams, dataset, temperature: float) -> SoftTargetSet:
    """Run the teacher over every frame of ``dataset`` (manifest order)
    and record the temperature-softened posteriors."""
    from .formats import checkpoint_digest  # local import; formats imports this module

    logits = ff_forward(teacher, dataset.features)
    rows = softmax_rows(logits, temperature)
    return SoftTargetSet(temperature, rows, checkpoint_digest(teacher))


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
    soft_rows: np.ndarray | None = None,
    teacher_logits: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame loss and logit gradient for one regime over a flat
    (N x K) logits matrix.

    Also returns the (target, output) pair fed to the gradient-variance
    instrumentation: the hard pair for "hard", the soft pair for "soft"
    and "reg" (the component the smoothing argument is about), and the
    (teacher, student) logits for "logitmatch".
    """
    regime = REGIMES[spec.mode]
    if regime.soft_targets and soft_rows is None:
        raise InvalidArgumentError(f"soft targets required for mode {spec.mode!r}")
    if regime.teacher_logits and teacher_logits is None:
        raise InvalidArgumentError(f"teacher logits required for mode {spec.mode!r}")
    k = logits.shape[1]
    if spec.mode == "hard":
        t_rows = one_hot_rows(labels, k)
        losses, grads, q = batch_soft_loss(logits, t_rows, 1.0, False)
        return losses, grads, t_rows, q
    if spec.mode == "soft":
        losses, grads, q = batch_soft_loss(
            logits, soft_rows, spec.temperature, spec.scale_resolved
        )
        return losses, grads, soft_rows, q
    if spec.mode == "reg":
        t_rows = one_hot_rows(labels, k)
        hard_losses, hard_grads, _ = batch_soft_loss(logits, t_rows, 1.0, False)
        soft_losses, soft_grads, q = batch_soft_loss(
            logits, soft_rows, spec.temperature, spec.scale_resolved
        )
        return (
            spec.alpha * hard_losses + soft_losses,
            spec.alpha * hard_grads + soft_grads,
            soft_rows,
            q,
        )
    if spec.mode == "logitmatch":
        if teacher_logits.shape != logits.shape:
            raise ShapeError(
                f"teacher logits {teacher_logits.shape} vs student {logits.shape}"
            )
        diff = logits - teacher_logits
        return 0.5 * (diff * diff).sum(axis=1), diff, teacher_logits, logits
    raise InvalidArgumentError(
        f"mode {spec.mode!r} has no per-frame objective; it is a schedule over {regime.phases}"
    )
