"""Feed-forward teacher network: sigmoid hidden layers, raw logits out.

Forward and backward are exact, deterministic, and validated against the
finite-difference checker in the test suite. The forward keeps no
full-size temporaries: each layer's product, bias and sigmoid are formed
in one buffer, the same values in the same order as
``sigmoid(h @ w.T + b)``, so the same bits. The backward takes the
activations that forward recorded and returns the parameter gradients
only; the teacher's input is data, so no gradient is formed for it.

A forward that records no activations runs in near-equal row blocks of
at most ``_BLOCK_ROWS`` rows (``row_blocks``), so its hidden matrices
are block-high, not split-high: more than 512 rows run as blocks of 256
to 512 rows. It never runs a full block plus a short tail. The blocks
are dealt to one thread per scoring CPU (``_scoring_cpus``), the caller
among them; a block's GEMMs and tanh release the interpreter lock, and
its arithmetic does not depend on the thread, so neither do its bits. A
teacher's scoring (``training.eval_logits``), export and logit-matching
targets all run this forward. On OpenBLAS, blocks of 128 rows or more
gave the bits of 2048-row blocks on the three desk splits, for a trained
and a random 20-128-128-10 teacher; blocks of 96 rows or fewer differed
by up to 1.2e-14 (measured).
"""

import os
import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .numeric import require_finite

_BLOCK_ROWS = 512  # the most rows a forward without ``hidden`` runs at once
# The most CPUs one score uses: a teacher's threads here, an LSTM's forked
# processes in ``training.eval_logits``. Measured on 2 CPUs only.
_MAX_PROCESSES = 2  # 1 after score_serially


def score_serially() -> None:
    """Score on one CPU: ``train-student --parallel`` workers fill the CPUs."""
    global _MAX_PROCESSES
    _MAX_PROCESSES = 1


def _scoring_cpus() -> int:
    """Threads or processes a score may use: this process's CPUs
    (``taskset``), at most ``_MAX_PROCESSES``; 1 with no affinity."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(_MAX_PROCESSES, cpus)


def row_blocks(n: int) -> list[slice]:
    """Near-equal slices of at most ``_BLOCK_ROWS`` rows covering ``n`` rows, in order."""
    blocks = -(-n // _BLOCK_ROWS)
    return [slice(k * n // blocks, (k + 1) * n // blocks) for k in range(blocks)]


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)), evaluated as
    0.5 * (1 + tanh(x / 2)), into ``out`` when given (``out=x`` works
    in place) and into a new array otherwise.

    tanh saturates at +-1 instead of overflowing, so there is no branch
    on the sign: the result is exactly 0 or 1 far out in the tails and
    never NaN for finite input.
    """
    return _logistic(x, out)


def _logistic(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The body of ``sigmoid``. Scoring threads call it, not ``sigmoid``:
    ``perfbench/tracing.py`` wraps ``sigmoid`` in a tracer of one thread."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


@dataclass
class FeedForwardParams:
    """Weights (out x in) and biases (out) per layer, input to output.

    Hidden layers apply sigmoid; the final layer emits raw logits.
    """

    ARCH_TAG = 0  # checkpoint architecture tag

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

    def shape(self) -> tuple[int, ...]:
        """Checkpoint header: the layer count, then every layer width."""
        return (len(self.weights), *self.layer_dims)

    @staticmethod
    def header_dims(n_layers: int) -> int:
        """How many integers follow the layer count in ``shape()``."""
        return n_layers + 1

    @staticmethod
    def array_shapes(shape):
        """The shapes of ``arrays()`` for a ``shape()`` header, lazily."""
        dims = shape[1:]
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            yield from [(d_out, d_in), (d_out,)]

    def arrays(self) -> list[np.ndarray]:
        """Canonical order: W0, b0, W1, b1, ..."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    @classmethod
    def from_arrays(cls, arrays: list[np.ndarray]) -> "FeedForwardParams":
        """The inverse of ``arrays()``; it shares the given buffers."""
        return cls(list(arrays[0::2]), list(arrays[1::2]))

    def copy(self) -> "FeedForwardParams":
        return self.from_arrays([a.copy() for a in self.arrays()])


def init_arrays(shapes, rng: np.random.Generator, scale: float) -> list[np.ndarray]:
    """One array per shape, in order: a matrix drawn uniform in
    [-scale, scale], a vector (a bias) zero. Drawing in canonical array
    order makes a model reproducible from the generator state alone."""
    return [rng.uniform(-scale, scale, size=s) if len(s) == 2 else np.zeros(s) for s in shapes]


def init_feedforward(
    layer_dims: list[int], rng: np.random.Generator, scale: float = 0.05
) -> FeedForwardParams:
    """Weights uniform in [-scale, scale], biases zero (``init_arrays``)."""
    shapes = FeedForwardParams.array_shapes((len(layer_dims) - 1, *layer_dims))
    return FeedForwardParams.from_arrays(init_arrays(shapes, rng, scale))


def ff_forward(
    params: FeedForwardParams,
    features: np.ndarray,
    hidden: list[np.ndarray] | None = None,
    each=None,
) -> np.ndarray | None:
    """Per-frame logits for a (frames x input_dim) feature matrix.

    When ``hidden`` is a list, the rows run as one block and each hidden
    layer's (frames x width) output is appended to it, input side first:
    the activations ``ff_backward`` needs. Otherwise they run in
    near-equal blocks of 256 to 512 rows, or as one block of fewer rows,
    on up to ``_scoring_cpus()`` threads (see the module docstring); with
    ``each``, each block's logits go to ``each(rows, logits)`` in no set
    order, on the thread that scored the block and under a lock of this
    call, so no two calls overlap, and None is returned. Every thread is
    joined before this returns or raises. The features may be float32,
    as a dataset holds them: each block is widened to float64 on its
    own, so no float64 copy of the whole matrix is made. The arithmetic
    is float64 either way, and the features are never written to.
    """
    x = np.asarray(features)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeError(
            f"features shape {x.shape} does not match input dim {params.input_dim}"
        )
    if hidden is not None:
        return require_finite(_layers(params, x, sigmoid, hidden), "feed-forward logits")
    logits = np.empty((x.shape[0], params.output_dim)) if each is None else None
    lock = threading.Lock()

    def score(rows):
        z = _layers(params, x[rows], _logistic, out=None if logits is None else logits[rows])
        require_finite(z, "feed-forward logits")
        if each is not None:
            with lock:
                each(rows, z)

    _in_threads(row_blocks(x.shape[0]), score, lock)
    return logits


def _layers(params: FeedForwardParams, x: np.ndarray, activation, hidden=None, out=None):
    """The logits of the rows ``x`` as one block, into ``out`` when given;
    each hidden layer's output is appended to ``hidden`` when given."""
    h = x.astype(np.float64, copy=False)
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.matmul(h, w.T)
        h += b
        activation(h, out=h)
        if hidden is not None:
            hidden.append(h)
    out = np.matmul(h, params.weights[-1].T, out=out)
    out += params.biases[-1]
    return out


def _in_threads(blocks: list[slice], score, lock: threading.Lock) -> None:
    """``score(rows)`` for each of ``blocks``, dealt in order under
    ``lock`` to ``min(_scoring_cpus(), len(blocks))`` threads, this one
    among them. After an error no further block starts; every thread is
    joined before this returns or raises, and this thread's own error,
    or else another thread's first, is raised here."""
    pending, errors = iter(blocks), []

    def deal():
        while True:
            with lock:
                rows = next(pending, None)
            if rows is None:
                return
            score(rows)

    def worker():
        try:
            deal()
        except BaseException as exc:  # raised in the caller, below
            with lock:
                errors.append(exc)
                deque(pending, maxlen=0)

    threads = []
    try:
        for _ in range(min(_scoring_cpus(), len(blocks)) - 1):
            thread = threading.Thread(target=worker)
            try:
                thread.start()
            except RuntimeError:  # no thread to spare: the others score its blocks
                break
            threads.append(thread)
        deal()
    finally:
        with lock:
            deque(pending, maxlen=0)  # after an error here, no further block starts
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def ff_backward(
    params: FeedForwardParams,
    features: np.ndarray,
    logit_grads: np.ndarray,
    hidden: list[np.ndarray],
) -> FeedForwardParams:
    """Parameter gradients of the scalar loss whose logit-layer gradient
    is ``logit_grads``, in a FeedForwardParams container.

    ``hidden`` is the list ``ff_forward`` filled for these features and
    parameters; ShapeError if its shapes do not fit them.
    """
    x = np.asarray(features, dtype=np.float64)
    g = np.asarray(logit_grads, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeError(f"features shape {x.shape} mismatches input dim {params.input_dim}")
    if g.shape != (x.shape[0], params.output_dim):
        raise ShapeError(
            f"logit_grads shape {g.shape} should be ({x.shape[0]}, {params.output_dim})"
        )
    if [h.shape for h in hidden] != [(x.shape[0], w.shape[0]) for w in params.weights[:-1]]:
        raise ShapeError("hidden activations do not match the features and layers")

    acts = [x, *hidden]
    n_layers = len(params.weights)
    weight_grads: list = [None] * n_layers
    bias_grads: list = [None] * n_layers
    delta = g
    for layer in range(n_layers - 1, -1, -1):
        weight_grads[layer] = delta.T @ acts[layer]
        bias_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            a = acts[layer]
            delta = delta @ params.weights[layer]
            delta *= a
            delta *= 1.0 - a
    return FeedForwardParams(weight_grads, bias_grads)
