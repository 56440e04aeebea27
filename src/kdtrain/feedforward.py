"""Feed-forward teacher network: sigmoid hidden layers, raw logits out.

Forward and backward are exact, deterministic, and validated against the
finite-difference checker in the test suite.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .numeric import require_finite

def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)), evaluated as
    0.5 * (1 + tanh(x / 2)).

    tanh saturates at +-1 instead of overflowing, so there is no branch
    on the sign: the result is exactly 0 or 1 far out in the tails and
    never NaN for finite input.
    """
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


@dataclass
class FeedForwardParams:
    """Weights (out x in) and biases (out) per layer, input to output.

    Hidden layers apply sigmoid; the final layer emits raw logits.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ShapeError("need one (weight, bias) pair per layer")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ShapeError(f"layer {i}: weight {w.shape} and bias {b.shape} disagree")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ShapeError(
                    f"layer {i} expects {w.shape[1]} inputs but layer {i - 1} "
                    f"emits {self.weights[i - 1].shape[0]}"
                )

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def layer_dims(self) -> list[int]:
        return [self.input_dim] + [w.shape[0] for w in self.weights]

    def arrays(self) -> list[np.ndarray]:
        """Canonical order: W0, b0, W1, b1, ..."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "FeedForwardParams":
        return FeedForwardParams(
            [w.copy() for w in self.weights], [b.copy() for b in self.biases]
        )


def init_feedforward(
    layer_dims: list[int], rng: np.random.Generator, scale: float = 0.05
) -> FeedForwardParams:
    """Weights uniform in [-scale, scale], biases zero.

    Draws happen in canonical array order so the result is reproducible
    from the generator state alone.
    """
    if len(layer_dims) < 2:
        raise ShapeError("need at least input and output dims")
    weights, biases = [], []
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(rng.uniform(-scale, scale, size=(d_out, d_in)))
        biases.append(np.zeros(d_out))
    return FeedForwardParams(weights, biases)


def zeros_like_ff(params: FeedForwardParams) -> FeedForwardParams:
    return FeedForwardParams(
        [np.zeros_like(w) for w in params.weights],
        [np.zeros_like(b) for b in params.biases],
    )


def ff_forward(params: FeedForwardParams, features: np.ndarray) -> np.ndarray:
    """Per-frame logits for a (frames x input_dim) feature matrix."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeError(
            f"features shape {x.shape} does not match input dim {params.input_dim}"
        )
    h = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = sigmoid(h @ w.T + b)
    logits = h @ params.weights[-1].T + params.biases[-1]
    return require_finite(logits, "feed-forward logits")


def ff_backward(
    params: FeedForwardParams, features: np.ndarray, logit_grads: np.ndarray
) -> tuple[FeedForwardParams, np.ndarray]:
    """Gradients of the scalar loss whose logit-layer gradient is
    ``logit_grads``, with respect to all parameters and to the input.

    Returns (parameter gradients in a FeedForwardParams container,
    input gradients with the shape of ``features``).
    """
    x = np.asarray(features, dtype=np.float64)
    g = np.asarray(logit_grads, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeError(f"features shape {x.shape} mismatches input dim {params.input_dim}")
    if g.shape != (x.shape[0], params.output_dim):
        raise ShapeError(
            f"logit_grads shape {g.shape} should be ({x.shape[0]}, {params.output_dim})"
        )

    acts = [x]
    h = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = sigmoid(h @ w.T + b)
        acts.append(h)

    grads = zeros_like_ff(params)
    delta = g
    for layer in range(len(params.weights) - 1, -1, -1):
        grads.weights[layer][:] = delta.T @ acts[layer]
        grads.biases[layer][:] = delta.sum(axis=0)
        down = delta @ params.weights[layer]
        if layer > 0:
            a = acts[layer]
            delta = down * a * (1.0 - a)
    return grads, down
