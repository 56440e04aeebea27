"""Exception hierarchy shared by all kdtrain modules.

Every error a public operation can raise is one of these classes, so
callers (and the CLI exit-code mapping) can dispatch on type alone.
"""


class KdtrainError(Exception):
    """Base class for all library errors."""


class ShapeError(KdtrainError):
    """Operand dimensions do not match the operation's contract."""


class InvalidArgumentError(KdtrainError):
    """A scalar argument is outside its legal range."""


class NumericOverflowError(KdtrainError):
    """A computation produced NaN or infinity."""


class InvalidStateError(KdtrainError):
    """An object was used out of sequence (e.g. a stale backward cache)."""


class AlignmentError(KdtrainError):
    """Soft targets or a model do not fit the split or regime they are
    paired with. A model, a "logitmatch" teacher too, fits a split of its
    D and K: the one rule, ``FrameDataset.require_fit``, checked before any
    forward. Soft targets fit a split of their frame count and K, with
    entries in [0, 1] and rows that sum to 1 within 1e-6, and a regime of
    their temperature."""


class FormatError(KdtrainError):
    """A binary or text artifact is malformed.

    ``offset`` is the byte offset (or record index, see message) at which
    the problem was detected, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (at byte offset {offset})")
        self.offset = offset


class ConfigError(KdtrainError):
    """Experiment configuration is missing, malformed, or has unknown keys."""
