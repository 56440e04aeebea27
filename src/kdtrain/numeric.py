"""Dense numerics: the row-wise temperature softmax and the finiteness
guard.

All public functions accept array-likes, compute in float64, and either
return finite values or raise a typed error. They are pure and safe to
call concurrently.
"""

import numpy as np

from .errors import InvalidArgumentError, NumericOverflowError, ShapeError

# Probabilities are clamped to this floor before any logarithm so a
# saturated softmax cannot produce -inf loss.
PROB_CLAMP_MIN = 1e-12


def require_finite(a: np.ndarray, what: str) -> np.ndarray:
    """Raise NumericOverflowError unless every entry of ``a`` is finite."""
    if not np.all(np.isfinite(a)):
        raise NumericOverflowError(f"non-finite values in {what}")
    return a


def softmax_rows(logits, temperature: float) -> np.ndarray:
    """Temperature-scaled softmax of each row of a (frames x K) matrix:
    p_i = exp(z_i/T) / sum_j exp(z_j/T).

    Stabilized by max subtraction, so each row is invariant to adding a
    constant to its logits. Larger T flattens the distribution; the
    argmax is preserved for every T > 0.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] < 2:
        raise ShapeError(f"expected a frames x K matrix with K >= 2, got shape {z.shape}")
    if not temperature > 0:
        raise InvalidArgumentError(f"temperature must be positive, got {temperature}")
    require_finite(z, "logits")
    # the ops of exp((z - max) / T) / sum, in that order, in one buffer
    e = z - z.max(axis=1, keepdims=True)
    e /= temperature
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e
