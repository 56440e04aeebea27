"""Unidirectional LSTM with a recurrent projection layer.

Each layer keeps a cell state of size C but feeds back (and emits) a
projected output of size P <= C; the recurrent weights act on the
projected output, never on the raw cell output. Gates use sigmoid, the
cell input and cell output use tanh, the projection is linear, and
there are no peephole connections. A linear head maps the last layer's
projected output to K logits.

Backward is truncated BPTT: gradients flow frame to frame inside a
window but stop at window boundaries unless the caller threads explicit
state gradients. All per-frame arithmetic uses one fixed sequence of
operations, so splitting a window at any frame boundary and carrying
the state reproduces the unsplit results bit for bit.
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


def zeros_like_lstm(params: LstmProjParams) -> LstmProjParams:
    return LstmProjParams(
        [
            LstmLayerParams(
                np.zeros_like(l.w_x),
                np.zeros_like(l.w_r),
                np.zeros_like(l.bias),
                np.zeros_like(l.w_p),
            )
            for l in params.layers
        ],
        np.zeros_like(params.w_out),
        np.zeros_like(params.b_out),
    )


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
    x: np.ndarray  # (S, F, D_in) layer input sequence
    i: np.ndarray  # (S, F, C)
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray  # (S, F, C)
    tc: np.ndarray  # tanh(c)
    r: np.ndarray  # (S, F, P)
    c0: np.ndarray  # (S, C)
    r0: np.ndarray  # (S, P)


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
    out_cells, out_proj = [], []
    seq = x
    for li, layer in enumerate(params.layers):
        c_dim, p_dim = layer.cell_dim, layer.proj_dim
        cache = _LayerCache(
            x=seq,
            i=np.empty((s, frames, c_dim)),
            f=np.empty((s, frames, c_dim)),
            g=np.empty((s, frames, c_dim)),
            o=np.empty((s, frames, c_dim)),
            c=np.empty((s, frames, c_dim)),
            tc=np.empty((s, frames, c_dim)),
            r=np.empty((s, frames, p_dim)),
            c0=state_in.cells[li].copy(),
            r0=state_in.projected[li].copy(),
        )
        c_prev = cache.c0
        r_prev = cache.r0
        for t in range(frames):
            # contiguous per-frame slice: every matmul below then has an
            # F-independent shape and layout, which keeps window splits
            # bit-exact (BLAS kernels vary with operand shape)
            x_t = np.ascontiguousarray(seq[:, t])
            a = x_t @ layer.w_x.T + r_prev @ layer.w_r.T + layer.bias
            i_t = sigmoid(a[:, :c_dim])
            f_t = sigmoid(a[:, c_dim : 2 * c_dim])
            g_t = np.tanh(a[:, 2 * c_dim : 3 * c_dim])
            o_t = sigmoid(a[:, 3 * c_dim :])
            c_t = f_t * c_prev + i_t * g_t
            tc_t = np.tanh(c_t)
            r_t = (o_t * tc_t) @ layer.w_p.T
            cache.i[:, t] = i_t
            cache.f[:, t] = f_t
            cache.g[:, t] = g_t
            cache.o[:, t] = o_t
            cache.c[:, t] = c_t
            cache.tc[:, t] = tc_t
            cache.r[:, t] = r_t
            c_prev = c_t
            r_prev = r_t
        layer_caches.append(cache)
        out_cells.append(c_prev.copy())
        out_proj.append(r_prev.copy())
        seq = cache.r

    logits = np.empty((s, frames, params.output_dim))
    top = layer_caches[-1]
    for t in range(frames):
        logits[:, t] = np.ascontiguousarray(top.r[:, t]) @ params.w_out.T + params.b_out
    require_finite(logits, "LSTM logits")
    for c, r in zip(out_cells, out_proj):
        require_finite(c, "LSTM cell state")
        require_finite(r, "LSTM projected state")
    state_out = RecurrentState(out_cells, out_proj)
    return logits, state_out, LstmCache(params, layer_caches, s, frames)


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

    grads = zeros_like_lstm(params)
    top = cache.layers[-1].r
    flat_g = g_logits.reshape(s * frames, -1)
    grads.w_out[:] = flat_g.T @ top.reshape(s * frames, -1)
    grads.b_out[:] = flat_g.sum(axis=0)
    d_seq = g_logits @ params.w_out  # (S, F, P) gradient wrt top projected outputs

    grad_cells, grad_proj = [], []
    for li in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[li]
        lc = cache.layers[li]
        c_dim = layer.cell_dim
        lg = grads.layers[li]
        dc_next = (
            state_grad_in.cells[li].copy()
            if state_grad_in is not None
            else np.zeros((s, c_dim))
        )
        dr_carry = (
            state_grad_in.projected[li].copy()
            if state_grad_in is not None
            else np.zeros((s, layer.proj_dim))
        )
        dx_seq = np.empty_like(lc.x)
        da = np.empty((s, 4 * c_dim))
        for t in range(frames - 1, -1, -1):
            i_t, f_t, g_t, o_t = lc.i[:, t], lc.f[:, t], lc.g[:, t], lc.o[:, t]
            tc_t = lc.tc[:, t]
            c_prev = lc.c[:, t - 1] if t > 0 else lc.c0
            r_prev = lc.r[:, t - 1] if t > 0 else lc.r0

            dr = d_seq[:, t] + dr_carry
            lg.w_p += dr.T @ (o_t * tc_t)
            dm = dr @ layer.w_p
            dc = dc_next + dm * o_t * (1.0 - tc_t * tc_t)
            da[:, :c_dim] = dc * g_t * i_t * (1.0 - i_t)
            da[:, c_dim : 2 * c_dim] = dc * c_prev * f_t * (1.0 - f_t)
            da[:, 2 * c_dim : 3 * c_dim] = dc * i_t * (1.0 - g_t * g_t)
            da[:, 3 * c_dim :] = dm * tc_t * o_t * (1.0 - o_t)
            lg.w_x += da.T @ lc.x[:, t]
            lg.w_r += da.T @ r_prev
            lg.bias += da.sum(axis=0)
            dx_seq[:, t] = da @ layer.w_x
            dr_carry = da @ layer.w_r
            dc_next = dc * f_t
        grad_cells.append(dc_next)
        grad_proj.append(dr_carry)
        d_seq = dx_seq

    grad_cells.reverse()
    grad_proj.reverse()
    return grads, RecurrentState(grad_cells, grad_proj)
