"""Parameter sets as flat vectors, and the finite-difference gradient
checker that backstops every hand-derived backward pass.

Every parameter container exposes ``arrays()``, a list of ndarrays in a
fixed canonical order; ``pack`` and ``unpack_into`` operate on such
lists.
"""

import numpy as np

from kdtrain.errors import InvalidArgumentError, NumericOverflowError, ShapeError


def pack(arrays: list[np.ndarray]) -> np.ndarray:
    """Concatenate arrays (canonical order, row-major) into one vector."""
    return np.concatenate([a.ravel() for a in arrays])


def unpack_into(vector: np.ndarray, arrays: list[np.ndarray]) -> None:
    """Write ``vector`` back into ``arrays`` in canonical order, in place."""
    total = sum(a.size for a in arrays)
    if vector.size != total:
        raise ShapeError(f"vector has {vector.size} entries, parameters need {total}")
    pos = 0
    for a in arrays:
        a.flat[:] = vector[pos : pos + a.size]
        pos += a.size


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be a 1-D vector, got shape {v.shape}")
    return v


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
