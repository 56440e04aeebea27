"""Unidirectional LSTM with a recurrent projection layer.

Each layer keeps a cell state of size C but feeds back (and emits) a
projected output of size P <= C; the recurrent weights act on the
projected output, never on the raw cell output. Gates use sigmoid, the
cell input and cell output use tanh, the projection is linear, and
there are no peephole connections. A linear head maps the last layer's
projected output to K logits.

Backward is truncated BPTT: gradients flow frame to frame inside a
window and stop at every window boundary, so it takes no gradient at a
window's final state and returns none for its incoming state. Forward
runs one fixed sequence of operations per frame, on operands whose
shapes and layout do not depend on the window length F, so splitting a
window at any frame boundary and carrying the state reproduces the
unsplit logits and state bit for bit.

At desk sizes (S = 4 streams, C = 64 cells) a numpy call costs more
than its arithmetic, so a step makes few calls per frame:

- A window is transposed once to time-major (F, S, .), so frame t of
  every stream is one contiguous block. A training forward preallocates
  each layer's cache time-major and its time loop writes into it with
  ``out=``; a scoring forward (``cache=False``) rewrites one frame of
  gates, c, tanh(c) and m per layer and keeps only the projected
  outputs whole. A frame keeps tanh of its g slice, then one in-place
  sigmoid call covers its whole (S, 4C) gate block, and the kept tanh
  goes back into the g slice.
- A training forward's input projection is one stacked ``np.matmul`` of
  the (F, S, D_in) sequence by the 2-D weight into the gate cache before
  the time loop; a scoring forward's is one S-row product per frame.
  The logit head is one stacked ``np.matmul`` after the last layer.
  numpy runs a stacked product as one S-row GEMM per frame slice, which
  rounds exactly like a per-frame product, so both give the same bits.
  It is never one GEMM over the stacked (F * S) rows: that rounds a row
  differently on some BLAS builds (OpenBLAS at D = 32 by about 1e-14)
  and would break the bitwise split identity. Nor does the projection
  go through a separate (F, S, 4C) buffer: adding it back in the loop
  made a step slower than per-frame products at every shape measured.
  The recurrent and projection products, needing the frame before, stay in the loop.
- Backward forms the gate-derivative factors for the whole window
  before its time loop, which then carries only the recurrence. After
  the loop, each weight gradient is one GEMM (one sum for the bias)
  over the stacked (F * S) frame rows.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError, ShapeError
from .feedforward import init_arrays, sigmoid
from .numeric import require_finite


@dataclass
class LstmLayerParams:
    w_x: np.ndarray  # (4C, D_in) input weights, gates stacked [i, f, g, o]
    w_r: np.ndarray  # (4C, P) recurrent weights on the projected output
    bias: np.ndarray  # (4C,)
    w_p: np.ndarray  # (P, C) projection

    def __post_init__(self):
        four_c = self.w_x.shape[0]
        if four_c % 4 != 0:
            raise ShapeError(f"gate axis {four_c} is not a multiple of 4")
        c = four_c // 4
        p = self.w_p.shape[0]
        if p > c:
            raise ShapeError(f"projection dim {p} exceeds cell dim {c}")
        if self.w_r.shape != (four_c, p) or self.bias.shape != (four_c,):
            raise ShapeError("recurrent weight/bias shapes disagree with gate axis")
        if self.w_p.shape != (p, c):
            raise ShapeError(f"projection shape {self.w_p.shape} should be ({p}, {c})")

    @property
    def cell_dim(self) -> int:
        return self.w_x.shape[0] // 4

    @property
    def proj_dim(self) -> int:
        return self.w_p.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[1]


@dataclass
class LstmProjParams:
    """Stacked projection-LSTM layers plus the linear logit head."""

    ARCH_TAG = 1  # checkpoint architecture tag

    layers: list[LstmLayerParams]
    w_out: np.ndarray  # (K, P)
    b_out: np.ndarray  # (K,)

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("need at least one LSTM layer")
        for i in range(1, len(self.layers)):
            if self.layers[i].input_dim != self.layers[i - 1].proj_dim:
                raise ShapeError(
                    f"layer {i} expects {self.layers[i].input_dim} inputs but layer "
                    f"{i - 1} projects to {self.layers[i - 1].proj_dim}"
                )
        if self.w_out.shape[1] != self.layers[-1].proj_dim:
            raise ShapeError("logit head width disagrees with final projection dim")
        if self.b_out.shape != (self.w_out.shape[0],):
            raise ShapeError("logit head bias shape mismatch")

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.w_out.shape[0]

    def shape(self) -> tuple[int, ...]:
        """Checkpoint header: layer count, input dim D, cells C,
        projection P and classes K; every layer has the first's C and P."""
        first = self.layers[0]
        return (len(self.layers), self.input_dim, first.cell_dim, first.proj_dim, self.output_dim)

    @staticmethod
    def header_dims(n_layers: int) -> int:
        """How many integers follow the layer count in ``shape()``."""
        return 4

    @staticmethod
    def array_shapes(shape):
        """The shapes of ``arrays()`` for a ``shape()`` header, lazily, so
        a reader stops at the first array a short file lacks however
        many layers its header claims."""
        n_layers, d_in, c, p, k = shape
        for i in range(n_layers):
            yield from [(4 * c, d_in if i == 0 else p), (4 * c, p), (4 * c,), (p, c)]
        yield from [(k, p), (k,)]

    def arrays(self) -> list[np.ndarray]:
        """Canonical order: per layer w_x, w_r, bias, w_p; then head."""
        out = []
        for layer in self.layers:
            out.extend([layer.w_x, layer.w_r, layer.bias, layer.w_p])
        out.extend([self.w_out, self.b_out])
        return out

    @classmethod
    def from_arrays(cls, arrays: list[np.ndarray]) -> "LstmProjParams":
        """The inverse of ``arrays()``; it shares the given buffers."""
        *body, w_out, b_out = arrays
        return cls([LstmLayerParams(*body[i : i + 4]) for i in range(0, len(body), 4)],
                   w_out, b_out)

    def copy(self) -> "LstmProjParams":
        return self.from_arrays([a.copy() for a in self.arrays()])


def init_lstm(
    input_dim: int,
    num_classes: int,
    *,
    layers: int,
    cells: int,
    projection: int,
    rng: np.random.Generator,
    scale: float = 0.05,
) -> LstmProjParams:
    """Weights uniform in [-scale, scale] and biases zero (``init_arrays``),
    except the forget gate's bias, which starts at 1 to keep early
    gradients alive."""
    shapes = LstmProjParams.array_shapes((layers, input_dim, cells, projection, num_classes))
    params = LstmProjParams.from_arrays(init_arrays(shapes, rng, scale))
    for layer in params.layers:
        layer.bias[cells : 2 * cells] = 1.0
    return params


@dataclass
class RecurrentState:
    """Per-layer cell state and projected output, carried across windows.

    Arrays are (S, C) / (S, P) for a batch of S streams (S = 1 for a
    single stream). Zero-initialized at the start of every utterance.
    """

    cells: list[np.ndarray]
    projected: list[np.ndarray]


def zeros_state(params: LstmProjParams, batch: int) -> RecurrentState:
    return RecurrentState(
        [np.zeros((batch, l.cell_dim)) for l in params.layers],
        [np.zeros((batch, l.proj_dim)) for l in params.layers],
    )


@dataclass
class _LayerCache:
    """One layer's activations over a window, time-major: frame t of
    stream s sits at [t, s], so each frame is one contiguous (S, .)
    block. The state arrays hold F + 1 frames; frame 0 is the incoming
    state, so ``c_seq[t]`` is the cell state before frame t. A scoring
    forward's holds one frame of all but ``x`` and ``r_seq``."""

    x: np.ndarray  # (F, S, D_in) layer input sequence
    gates: np.ndarray  # (F, S, 4C) activated gates [i, f, g, o]
    c_seq: np.ndarray  # (F + 1, S, C) cell states
    tc: np.ndarray  # (F, S, C) tanh(c)
    m: np.ndarray  # (F, S, C) cell output o * tanh(c), the projection's input
    r_seq: np.ndarray  # (F + 1, S, P) projected outputs

    @property
    def r(self) -> np.ndarray:
        return self.r_seq[1:]


@dataclass
class LstmCache:
    """Activations needed by lstm_backward_batch; valid only for the exact
    parameter object that produced it."""

    params_ref: LstmProjParams = field(repr=False)
    layers: list[_LayerCache] = field(repr=False)
    batch: int = 0
    frames: int = 0


def _check_state(params: LstmProjParams, state: RecurrentState, batch: int) -> None:
    if len(state.cells) != len(params.layers) or len(state.projected) != len(params.layers):
        raise ShapeError("state layer count disagrees with parameters")
    for layer, c, r in zip(params.layers, state.cells, state.projected):
        if c.shape != (batch, layer.cell_dim) or r.shape != (batch, layer.proj_dim):
            raise ShapeError(
                f"state shapes {c.shape}/{r.shape} disagree with layer "
                f"dims C={layer.cell_dim}, P={layer.proj_dim}, batch={batch}"
            )


def _layer_forward(layer: LstmLayerParams, seq: np.ndarray, c0, r0, cache=True) -> _LayerCache:
    """Run one layer over a time-major (F, S, D_in) sequence from the
    incoming state (c0, r0); without ``cache``, only ``r_seq`` is whole."""
    frames, s = seq.shape[:2]
    c_dim = layer.cell_dim
    i_, f_, g_, o_ = (slice(k * c_dim, (k + 1) * c_dim) for k in range(4))
    held = frames if cache else 1
    lc = _LayerCache(
        x=seq,
        gates=np.empty((held, s, 4 * c_dim)),
        c_seq=np.empty((held + cache, s, c_dim)),
        tc=np.empty((held, s, c_dim)),
        m=np.empty((held, s, c_dim)),
        r_seq=np.empty((frames + 1, s, layer.proj_dim)),
    )
    gates, c_seq, r_seq, tc, m = lc.gates, lc.c_seq, lc.r_seq, lc.tc, lc.m
    c_seq[0] = c0
    r_seq[0] = r0
    w_xt, w_rt, w_pt, bias = layer.w_x.T, layer.w_r.T, layer.w_p.T, layer.bias
    if cache:
        # the input projection of every frame, one S-row GEMM per frame slice
        np.matmul(seq, w_xt, out=gates)
    for t in range(frames):
        h = t if cache else 0  # the row of frame t; c after it is c_seq[h + cache]
        a = gates[h]
        if not cache:
            np.matmul(seq[t], w_xt, out=a)
        a += r_seq[t] @ w_rt
        a += bias
        np.tanh(a[:, g_], out=tc[h])
        sigmoid(a, out=a)
        a[:, g_] = tc[h]
        c_t = c_seq[h + cache]
        np.multiply(a[:, f_], c_seq[h], out=c_t)
        np.multiply(a[:, i_], tc[h], out=m[h])
        c_t += m[h]
        np.tanh(c_t, out=tc[h])
        np.multiply(a[:, o_], tc[h], out=m[h])
        np.matmul(m[h], w_pt, out=r_seq[t + 1])
    return lc


def lstm_forward_batch(
    params: LstmProjParams, windows: np.ndarray, state_in: RecurrentState, cache: bool = True
) -> tuple[np.ndarray, RecurrentState, LstmCache | None]:
    """Forward S parallel streams over an (S, F, input_dim) window batch.

    Returns (logits (S, F, K), state_out, cache). Each frame is processed
    with the identical operation sequence regardless of F, preserving the
    frame-split identity. ``cache=False`` (scoring) returns no cache
    and gives the same bits.
    """
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 3 or x.shape[2] != params.input_dim:
        raise ShapeError(f"windows shape {x.shape} should be (S, F, {params.input_dim})")
    s, frames = x.shape[0], x.shape[1]
    if frames < 1:
        raise ShapeError("window must contain at least one frame")
    _check_state(params, state_in, s)

    layer_caches = []
    seq = np.ascontiguousarray(x.transpose(1, 0, 2))
    for li, layer in enumerate(params.layers):
        lc = _layer_forward(layer, seq, state_in.cells[li], state_in.projected[li], cache)
        layer_caches.append(lc)
        seq = lc.r

    # the logit head, one S-row GEMM per frame slice
    logits = np.matmul(seq, params.w_out.T)
    logits += params.b_out
    require_finite(logits, "LSTM logits")
    out_cells = [lc.c_seq[-1].copy() for lc in layer_caches]
    out_proj = [lc.r_seq[-1].copy() for lc in layer_caches]
    for c, r in zip(out_cells, out_proj):
        require_finite(c, "LSTM cell state")
        require_finite(r, "LSTM projected state")
    state_out = RecurrentState(out_cells, out_proj)
    logits = np.ascontiguousarray(logits.transpose(1, 0, 2))
    return logits, state_out, LstmCache(params, layer_caches, s, frames) if cache else None


def _layer_backward(layer: LstmLayerParams, lc: _LayerCache, d_seq: np.ndarray, want_dx: bool):
    """Backward through one layer given d_seq, the (F, S, P) gradient
    arriving at its projected outputs from above; no gradient arrives at
    its final state. Returns (weight gradients, dx (F, S, D_in) or None)."""
    frames, s, four_c = lc.gates.shape
    c_dim = four_c // 4
    # one copy makes each gate a contiguous (F, S, C) block
    i_t, f_t, g_t, o_t = np.moveaxis(lc.gates.reshape(frames, s, 4, c_dim), 2, 0).copy()
    tc = lc.tc

    # per-frame factors of the recurrence, as whole-window ops
    d_ifg = np.empty((frames, s, 3, c_dim))  # d a_{i,f,g} = d_ifg * dc
    np.multiply(g_t, i_t * (1.0 - i_t), out=d_ifg[:, :, 0])
    np.multiply(lc.c_seq[:-1], f_t * (1.0 - f_t), out=d_ifg[:, :, 1])
    np.multiply(i_t, 1.0 - g_t * g_t, out=d_ifg[:, :, 2])
    d_o = tc * o_t * (1.0 - o_t)  # d a_o = d_o * dm
    dm_dc = o_t * (1.0 - tc * tc)  # dc gains dm * dm_dc

    da = np.empty((frames, s, 4, c_dim))
    dr = np.empty((frames, s, layer.proj_dim))
    dc_next, dr_carry = np.zeros((s, c_dim)), np.zeros((s, layer.proj_dim))
    w_p, w_r = layer.w_p, layer.w_r
    for t in range(frames - 1, -1, -1):
        np.add(d_seq[t], dr_carry, out=dr[t])
        dm = dr[t] @ w_p
        dc = dm * dm_dc[t]
        dc += dc_next
        np.multiply(d_ifg[t], dc[:, np.newaxis], out=da[t, :, :3])
        np.multiply(dm, d_o[t], out=da[t, :, 3])
        if t:  # frame 0 passes nothing on: the window's incoming state takes no gradient
            dr_carry = da[t].reshape(s, four_c) @ w_r
            dc_next = dc * f_t[t]

    # weight gradients as one GEMM over the stacked (F * S) frame rows
    da_rows = da.reshape(frames * s, four_c)
    grads = LstmLayerParams(
        da_rows.T @ lc.x.reshape(frames * s, -1),
        da_rows.T @ lc.r_seq[:-1].reshape(frames * s, -1),
        da_rows.sum(axis=0),
        dr.reshape(frames * s, -1).T @ lc.m.reshape(frames * s, c_dim),
    )
    dx = (da_rows @ layer.w_x).reshape(frames, s, -1) if want_dx else None
    return grads, dx


def lstm_backward_batch(
    params: LstmProjParams, cache: LstmCache, logit_grads: np.ndarray
) -> LstmProjParams:
    """Exact truncated-BPTT parameter gradients, in an LstmProjParams
    container, for the window whose forward built ``cache``.

    The gradient stops at both ends of the window: none arrives at its
    final state and none is returned for its incoming state.
    """
    if cache.params_ref is not params:
        raise InvalidStateError("cache was produced by a different parameter object")
    g_logits = np.asarray(logit_grads, dtype=np.float64)
    s, frames = cache.batch, cache.frames
    if g_logits.shape != (s, frames, params.output_dim):
        raise ShapeError(
            f"logit_grads shape {g_logits.shape} should be ({s}, {frames}, {params.output_dim})"
        )

    flat_g = np.ascontiguousarray(g_logits.transpose(1, 0, 2)).reshape(frames * s, -1)
    top = cache.layers[-1].r
    w_out_grad = flat_g.T @ top.reshape(frames * s, -1)
    d_seq = (flat_g @ params.w_out).reshape(frames, s, -1)

    layer_grads = []
    for li in range(len(params.layers) - 1, -1, -1):
        lg, d_seq = _layer_backward(params.layers[li], cache.layers[li], d_seq, li > 0)
        layer_grads.append(lg)
    return LstmProjParams(layer_grads[::-1], w_out_grad, flat_g.sum(axis=0))
