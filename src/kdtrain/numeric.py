"""Dense numerics: the row-wise temperature softmax, the finiteness
guard, and the finite-difference gradient checker that backstops every
hand-derived backward pass in the library.

All public functions accept array-likes, compute in float64, and either
return finite values or raise a typed error. They are pure and safe to
call concurrently.
"""

import numpy as np

from .errors import InvalidArgumentError, NumericOverflowError, ShapeError

# Probabilities are clamped to this floor before any logarithm so a
# saturated softmax cannot produce -inf loss.
PROB_CLAMP_MIN = 1e-12


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be a 1-D vector, got shape {v.shape}")
    return v


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
    e = np.exp((z - z.max(axis=1, keepdims=True)) / temperature)
    return e / e.sum(axis=1, keepdims=True)


def finite_diff_check(f, params, analytic_grad, step: float = 1e-5) -> float:
    """Max relative error between central differences of ``f`` and
    ``analytic_grad`` at ``params``.

    Per-coordinate error is |g_fd - g_an| / max(1e-8, |g_fd| + |g_an|).
    ``f`` must evaluate to a finite scalar at params +/- step in each
    coordinate.
    """
    p = _as_vector(params, "params").copy()
    g_an = _as_vector(analytic_grad, "analytic_grad")
    if p.shape != g_an.shape:
        raise ShapeError(f"params/gradient length mismatch: {p.size} vs {g_an.size}")
    if not step > 0:
        raise InvalidArgumentError(f"step must be positive, got {step}")
    worst = 0.0
    for i in range(p.size):
        saved = p[i]
        p[i] = saved + step
        f_plus = float(f(p))
        p[i] = saved - step
        f_minus = float(f(p))
        p[i] = saved
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericOverflowError(f"non-finite objective at coordinate {i}")
        g_fd = (f_plus - f_minus) / (2.0 * step)
        err = abs(g_fd - g_an[i]) / max(1e-8, abs(g_fd) + abs(g_an[i]))
        worst = max(worst, err)
    return worst
