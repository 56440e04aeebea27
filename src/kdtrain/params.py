"""Helpers shared by both architectures: flattening parameter sets to
vectors (for the gradient checker), the global gradient norm, and
in-place accumulation.

Every parameter container exposes ``arrays()``, a list of ndarrays in a
fixed canonical order; all utilities here operate on such lists.
"""

import math

import numpy as np

from .errors import ShapeError


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


def global_norm(arrays: list[np.ndarray]) -> float:
    """L2 norm over all entries of all arrays."""
    return math.sqrt(sum(float((a * a).sum()) for a in arrays))


def add_scaled(into: list[np.ndarray], from_: list[np.ndarray], scale: float = 1.0) -> None:
    """into[i] += scale * from_[i], elementwise."""
    for dst, src in zip(into, from_):
        if scale == 1.0:
            dst += src
        else:
            dst += scale * src
