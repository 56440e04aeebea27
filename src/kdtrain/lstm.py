"""Unidirectional LSTM with a recurrent projection layer.

Each layer keeps a cell state of size C but feeds back (and emits) a
projected output of size P <= C; the recurrent weights act on the
projected output, never on the raw cell output. Gates use sigmoid, the
cell input and cell output use tanh, the projection is linear, and
there are no peephole connections. A linear head maps the last layer's
projected output to K logits.

Backward is truncated BPTT: gradients flow frame to frame inside a
window but stop at window boundaries unless the caller threads explicit
state gradients. Forward runs one fixed sequence of operations per
frame, on operands whose shapes and layout do not depend on the window
length F, so splitting a window at any frame boundary and carrying the
state reproduces the unsplit logits and state bit for bit.

At desk sizes (S = 4 streams, C = 64 cells) a numpy call costs more
than its arithmetic, so a step makes few calls per frame:

- A window is transposed once to time-major (F, S, .), so frame t of
  every stream is one contiguous block. Each layer's cache is
  preallocated time-major and the time loop writes into it with
  ``out=``. One sigmoid call covers a frame's whole (S, 4C) gate block;
  the g slice is then overwritten with tanh.
- Backward forms the gate-derivative factors for the whole window
  before its time loop, which then carries only the recurrence. After
  the loop, each weight gradient is one GEMM (one sum for the bias)
  over the stacked (F * S) frame rows, so gradients of a split window
  match the unsplit ones to rounding, not bitwise.
- The matmuls of forward (input, recurrent, projection, logit head)
  stay per frame. A GEMM over the stacked (F * S) rows rounds a row
  differently from the per-frame S-row GEMM on some BLAS builds
  (OpenBLAS at D = 32 by about 1e-14), which would break the bitwise
  split identity.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidStateError, ShapeError
from .feedforward import sigmoid
from .numeric import require_finite

DEFAULT_LAYERS = 1
DEFAULT_CELLS = 64
DEFAULT_PROJECTION = 32


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

    def arrays(self) -> list[np.ndarray]:
        """Canonical order: per layer w_x, w_r, bias, w_p; then head."""
        out = []
        for layer in self.layers:
            out.extend([layer.w_x, layer.w_r, layer.bias, layer.w_p])
        out.extend([self.w_out, self.b_out])
        return out

    def copy(self) -> "LstmProjParams":
        return LstmProjParams(
            [
                LstmLayerParams(l.w_x.copy(), l.w_r.copy(), l.bias.copy(), l.w_p.copy())
                for l in self.layers
            ],
            self.w_out.copy(),
            self.b_out.copy(),
        )


def init_lstm(
    input_dim: int,
    num_classes: int,
    layers: int = DEFAULT_LAYERS,
    cells: int = DEFAULT_CELLS,
    projection: int = DEFAULT_PROJECTION,
    rng: np.random.Generator | None = None,
    scale: float = 0.05,
    forget_bias: float = 1.0,
) -> LstmProjParams:
    """Weights uniform in [-scale, scale]; biases zero except the forget
    gate, which starts at ``forget_bias`` to keep early gradients alive.

    Draws happen in canonical array order.
    """
    rng = rng or np.random.default_rng()
    layer_list = []
    d_in = input_dim
    for _ in range(layers):
        w_x = rng.uniform(-scale, scale, size=(4 * cells, d_in))
        w_r = rng.uniform(-scale, scale, size=(4 * cells, projection))
        bias = np.zeros(4 * cells)
        bias[cells : 2 * cells] = forget_bias
        w_p = rng.uniform(-scale, scale, size=(projection, cells))
        layer_list.append(LstmLayerParams(w_x, w_r, bias, w_p))
        d_in = projection
    w_out = rng.uniform(-scale, scale, size=(num_classes, projection))
    return LstmProjParams(layer_list, w_out, np.zeros(num_classes))


@dataclass
class RecurrentState:
    """Per-layer cell state and projected output, carried across windows.

    Arrays are (S, C) / (S, P) for a batch of S streams (S = 1 for a
    single stream). Zero-initialized at the start of every utterance.
    """

    cells: list[np.ndarray]
    projected: list[np.ndarray]

    def copy(self) -> "RecurrentState":
        return RecurrentState([c.copy() for c in self.cells], [r.copy() for r in self.projected])


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
    state, so ``c_seq[t]`` is the cell state before frame t."""

    x: np.ndarray  # (F, S, D_in) layer input sequence
    gates: np.ndarray  # (F, S, 4C) activated gates [i, f, g, o]
    c_seq: np.ndarray  # (F + 1, S, C) cell states
    tc: np.ndarray  # (F, S, C) tanh(c)
    m: np.ndarray  # (F, S, C) cell output o * tanh(c), the projection's input
    r_seq: np.ndarray  # (F + 1, S, P) projected outputs

    @property
    def c(self) -> np.ndarray:
        return self.c_seq[1:]

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


def _layer_forward(layer: LstmLayerParams, seq: np.ndarray, c0, r0) -> _LayerCache:
    """Run one layer over a time-major (F, S, D_in) sequence from the
    incoming state (c0, r0)."""
    frames, s = seq.shape[:2]
    c_dim = layer.cell_dim
    i_, f_, g_, o_ = (slice(k * c_dim, (k + 1) * c_dim) for k in range(4))
    lc = _LayerCache(
        x=seq,
        gates=np.empty((frames, s, 4 * c_dim)),
        c_seq=np.empty((frames + 1, s, c_dim)),
        tc=np.empty((frames, s, c_dim)),
        m=np.empty((frames, s, c_dim)),
        r_seq=np.empty((frames + 1, s, layer.proj_dim)),
    )
    c_seq, r_seq, tc, m = lc.c_seq, lc.r_seq, lc.tc, lc.m
    c_seq[0] = c0
    r_seq[0] = r0
    gate_i, gate_f, gate_g, gate_o = (lc.gates[:, :, k] for k in (i_, f_, g_, o_))
    w_xt, w_rt, w_pt, bias = layer.w_x.T, layer.w_r.T, layer.w_p.T, layer.bias
    for t in range(frames):
        a = seq[t] @ w_xt
        a += r_seq[t] @ w_rt
        a += bias
        lc.gates[t] = sigmoid(a)
        np.tanh(a[:, g_], out=gate_g[t])
        c_t = c_seq[t + 1]
        np.multiply(gate_f[t], c_seq[t], out=c_t)
        c_t += gate_i[t] * gate_g[t]
        np.tanh(c_t, out=tc[t])
        np.multiply(gate_o[t], tc[t], out=m[t])
        np.matmul(m[t], w_pt, out=r_seq[t + 1])
    return lc


def lstm_forward_batch(
    params: LstmProjParams, windows: np.ndarray, state_in: RecurrentState
) -> tuple[np.ndarray, RecurrentState, LstmCache]:
    """Forward S parallel streams over an (S, F, input_dim) window batch.

    Returns (logits (S, F, K), state_out, cache). Each frame is processed
    with the identical operation sequence regardless of F, preserving the
    frame-split identity.
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
        lc = _layer_forward(layer, seq, state_in.cells[li], state_in.projected[li])
        layer_caches.append(lc)
        seq = lc.r

    logits = np.empty((frames, s, params.output_dim))
    w_out_t = params.w_out.T
    for t in range(frames):
        np.matmul(seq[t], w_out_t, out=logits[t])
    logits += params.b_out
    require_finite(logits, "LSTM logits")
    out_cells = [lc.c_seq[-1].copy() for lc in layer_caches]
    out_proj = [lc.r_seq[-1].copy() for lc in layer_caches]
    for c, r in zip(out_cells, out_proj):
        require_finite(c, "LSTM cell state")
        require_finite(r, "LSTM projected state")
    state_out = RecurrentState(out_cells, out_proj)
    logits = np.ascontiguousarray(logits.transpose(1, 0, 2))
    return logits, state_out, LstmCache(params, layer_caches, s, frames)


def _layer_backward(
    layer: LstmLayerParams,
    lc: _LayerCache,
    d_seq: np.ndarray,
    dc_next: np.ndarray,
    dr_carry: np.ndarray,
    want_dx: bool,
):
    """Backward through one layer given d_seq, the (F, S, P) gradient
    arriving at its projected outputs from above, and the gradients at
    its final state. Returns (weight gradients, dx (F, S, D_in) or None,
    d cell state in, d projection in)."""
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
    w_p, w_r = layer.w_p, layer.w_r
    for t in range(frames - 1, -1, -1):
        np.add(d_seq[t], dr_carry, out=dr[t])
        dm = dr[t] @ w_p
        dc = dm * dm_dc[t]
        dc += dc_next
        np.multiply(d_ifg[t], dc[:, np.newaxis], out=da[t, :, :3])
        np.multiply(dm, d_o[t], out=da[t, :, 3])
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
    return grads, dx, dc_next, dr_carry


def lstm_backward_batch(
    params: LstmProjParams,
    cache: LstmCache,
    logit_grads: np.ndarray,
    state_grad_in: RecurrentState | None = None,
) -> tuple[LstmProjParams, RecurrentState]:
    """Exact truncated-BPTT gradients for the window that built ``cache``.

    ``state_grad_in`` carries gradients arriving at the window's final
    state from later windows; it defaults to zero (truncation at the
    boundary). Returns (parameter gradients, gradients with respect to
    the incoming state).
    """
    if cache.params_ref is not params:
        raise InvalidStateError("cache was produced by a different parameter object")
    g_logits = np.asarray(logit_grads, dtype=np.float64)
    s, frames = cache.batch, cache.frames
    if g_logits.shape != (s, frames, params.output_dim):
        raise ShapeError(
            f"logit_grads shape {g_logits.shape} should be ({s}, {frames}, {params.output_dim})"
        )
    if state_grad_in is not None:
        _check_state(params, state_grad_in, s)

    flat_g = np.ascontiguousarray(g_logits.transpose(1, 0, 2)).reshape(frames * s, -1)
    top = cache.layers[-1].r
    w_out_grad = flat_g.T @ top.reshape(frames * s, -1)
    d_seq = (flat_g @ params.w_out).reshape(frames, s, -1)

    layer_grads, grad_cells, grad_proj = [], [], []
    for li in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[li]
        if state_grad_in is not None:
            dc_next, dr_carry = state_grad_in.cells[li], state_grad_in.projected[li]
        else:
            dc_next, dr_carry = np.zeros((s, layer.cell_dim)), np.zeros((s, layer.proj_dim))
        lg, d_seq, dc_in, dr_in = _layer_backward(
            layer, cache.layers[li], d_seq, dc_next, dr_carry, li > 0
        )
        layer_grads.append(lg)
        grad_cells.append(dc_in)
        grad_proj.append(dr_in)

    for out in (layer_grads, grad_cells, grad_proj):
        out.reverse()
    grads = LstmProjParams(layer_grads, w_out_grad, flat_g.sum(axis=0))
    return grads, RecurrentState(grad_cells, grad_proj)
