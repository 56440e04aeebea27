"""Projection-LSTM verification.

Forward is checked against an independently coded per-frame recurrence,
against hand-forced gate configurations and with the window-splitting
identity (carrying the state across a split must reproduce the unsplit
logits bit for bit); backward is checked with central finite
differences over every parameter and against a per-frame oracle. A
single stream is a batch of S = 1: windows are (1, F, D) and logits
(1, F, K).
"""

import numpy as np
import pytest

from kdtrain.distill import batch_soft_loss, one_hot_rows
from kdtrain.errors import InvalidStateError, ShapeError
from kdtrain.lstm import (
    LstmLayerParams,
    LstmProjParams,
    init_lstm,
    lstm_backward_batch,
    lstm_forward_batch,
    zeros_state,
)
from param_vectors import finite_diff_check, pack, unpack_into


def naive_single_layer(params, window):
    """Independent per-frame recurrence for a 1-layer model."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    layer = params.layers[0]
    c_dim = layer.cell_dim
    c = np.zeros(c_dim)
    r = np.zeros(layer.proj_dim)
    logits = []
    for x in window:
        a = layer.w_x @ x + layer.w_r @ r + layer.bias
        i = sig(a[:c_dim])
        f = sig(a[c_dim : 2 * c_dim])
        g = np.tanh(a[2 * c_dim : 3 * c_dim])
        o = sig(a[3 * c_dim :])
        c = f * c + i * g
        r = layer.w_p @ (o * np.tanh(c))
        logits.append(params.w_out @ r + params.b_out)
    return np.array(logits)


def per_frame_oracle_grads(params, windows, logit_grads, state):
    """Truncated-BPTT gradients over an (S, F, D) window whose forward
    starts from ``state``, as the plain per-frame recurrence:
    stream-major activations and one rank-S update of every weight
    gradient per frame."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    s, frames, _ = windows.shape
    seq, layer_acts = windows, []
    for layer, c, r in zip(params.layers, state.cells, state.projected):
        c_dim = layer.cell_dim
        acts = []
        for t in range(frames):
            a = seq[:, t] @ layer.w_x.T + r @ layer.w_r.T + layer.bias
            i, f = sig(a[:, :c_dim]), sig(a[:, c_dim : 2 * c_dim])
            g, o = np.tanh(a[:, 2 * c_dim : 3 * c_dim]), sig(a[:, 3 * c_dim :])
            c_prev, r_prev = c, r
            c = f * c + i * g
            r = (o * np.tanh(c)) @ layer.w_p.T
            acts.append((seq[:, t], c_prev, r_prev, i, f, g, o, np.tanh(c), r))
        layer_acts.append(acts)
        seq = np.stack([frame[-1] for frame in acts], axis=1)

    grads = params.copy()
    for a in grads.arrays():
        a[:] = 0.0
    for t in range(frames):
        grads.w_out += logit_grads[:, t].T @ seq[:, t]
        grads.b_out += logit_grads[:, t].sum(axis=0)
    d_seq = logit_grads @ params.w_out
    for layer, acts, lg in zip(params.layers[::-1], layer_acts[::-1], grads.layers[::-1]):
        dc_next, dr_carry = np.zeros((s, layer.cell_dim)), np.zeros((s, layer.proj_dim))
        dx = np.zeros((s, frames, layer.input_dim))
        for t in range(frames - 1, -1, -1):
            x, c_prev, r_prev, i, f, g, o, tc, _ = acts[t]
            dr = d_seq[:, t] + dr_carry
            lg.w_p += dr.T @ (o * tc)
            dm = dr @ layer.w_p
            dc = dc_next + dm * o * (1.0 - tc * tc)
            da = np.concatenate(
                [dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f), dc * i * (1.0 - g * g),
                 dm * tc * o * (1.0 - o)],
                axis=1,
            )
            lg.w_x += da.T @ x
            lg.w_r += da.T @ r_prev
            lg.bias += da.sum(axis=0)
            dx[:, t] = da @ layer.w_x
            dr_carry = da @ layer.w_r
            dc_next = dc * f
        d_seq = dx
    return grads


def assert_split_anywhere_is_bit_identical(p, windows):
    """Every cut of the window, with the state carried across it,
    reproduces the unsplit logits and final state bit for bit."""
    s, frames = windows.shape[:2]
    full, state_full, _ = lstm_forward_batch(p, windows, zeros_state(p, s))
    for cut in range(1, frames):
        a, mid, _ = lstm_forward_batch(p, windows[:, :cut], zeros_state(p, s))
        b, end, _ = lstm_forward_batch(p, windows[:, cut:], mid)
        np.testing.assert_array_equal(np.concatenate([a, b], axis=1), full)
        for got, want in zip(end.cells + end.projected, state_full.cells + state_full.projected):
            np.testing.assert_array_equal(got, want)


def small_lstm(seed, layers=1, cells=3, projection=2, d=3, k=3, scale=0.5):
    return init_lstm(
        d, k, layers=layers, cells=cells, projection=projection,
        rng=np.random.default_rng(seed), scale=scale,
    )


class TestForward:
    def test_zero_parameters_give_zero_everything(self):
        p = small_lstm(0)
        for a in p.arrays():
            a[:] = 0.0
        window = np.random.default_rng(1).normal(size=(1, 4, 3))
        logits, state, _ = lstm_forward_batch(p, window, zeros_state(p, 1))
        np.testing.assert_array_equal(logits, np.zeros((1, 4, 3)))
        for c, r in zip(state.cells, state.projected):
            np.testing.assert_array_equal(c, np.zeros_like(c))
            np.testing.assert_array_equal(r, np.zeros_like(r))

    def test_forced_gates_reduce_to_tanh_of_input_projection(self):
        """Input gate 1, forget gate 0, output gate 1, unit projection:
        the cell state is tanh(w_g . x) at every step."""
        w_g = np.array([[0.7, -0.3]])
        w_x = np.zeros((4, 2))
        w_x[2] = w_g[0]
        bias = np.array([500.0, -500.0, 0.0, 500.0])  # saturate i=1, f=0, o=1
        layer = LstmLayerParams(w_x, np.zeros((4, 1)), bias, np.ones((1, 1)))
        p = LstmProjParams([layer], np.eye(1), np.zeros(1))
        window = np.random.default_rng(2).normal(size=(1, 6, 2))
        logits, state, cache = lstm_forward_batch(p, window, zeros_state(p, 1))
        expected_cells = np.tanh(window[0] @ w_g[0])
        np.testing.assert_allclose(cache.layers[0].c_seq[1:, 0, 0], expected_cells, atol=1e-12)
        np.testing.assert_allclose(logits[0, :, 0], np.tanh(expected_cells), atol=1e-12)

    def test_matches_naive_recurrence(self):
        p = small_lstm(3, cells=4, projection=2, d=3, k=5)
        window = np.random.default_rng(4).normal(size=(7, 3))
        logits, _, _ = lstm_forward_batch(p, window[np.newaxis], zeros_state(p, 1))
        np.testing.assert_allclose(logits[0], naive_single_layer(p, window), atol=1e-12)

    def test_split_window_is_bit_identical(self):
        """F=1 windows with carried state equal one F=2 window exactly."""
        p = small_lstm(5, layers=2)
        w = np.random.default_rng(6).normal(size=(1, 2, 3))
        l1, s1, _ = lstm_forward_batch(p, w[:, :1], zeros_state(p, 1))
        l2, s2, _ = lstm_forward_batch(p, w[:, 1:], s1)
        full, sf, _ = lstm_forward_batch(p, w, zeros_state(p, 1))
        np.testing.assert_array_equal(np.concatenate([l1, l2], axis=1), full)
        for a, b in zip(s2.cells + s2.projected, sf.cells + sf.projected):
            np.testing.assert_array_equal(a, b)

    def test_split_anywhere_is_bit_identical(self):
        p = small_lstm(7)
        w = np.random.default_rng(8).normal(size=(1, 9, 3))
        full, _, _ = lstm_forward_batch(p, w, zeros_state(p, 1))
        for cut in range(1, 9):
            a, s, _ = lstm_forward_batch(p, w[:, :cut], zeros_state(p, 1))
            b, _, _ = lstm_forward_batch(p, w[:, cut:], s)
            np.testing.assert_array_equal(np.concatenate([a, b], axis=1), full)

    @pytest.mark.parametrize(
        "streams, layers, cells, projection",
        [(4, 1, 64, 32), (4, 2, 256, 128), (32, 1, 64, 32)],
        ids=["desk-train", "two-layer-256", "eval-group"],
    )
    def test_split_anywhere_is_bit_identical_at_benchmark_shapes(
        self, streams, layers, cells, projection
    ):
        """The shapes the benchmark runs: D = 20, K = 10, F = 20."""
        rng = np.random.default_rng(streams + layers)
        p = init_lstm(20, 10, layers=layers, cells=cells, projection=projection, rng=rng,
                      scale=0.2)
        assert_split_anywhere_is_bit_identical(p, rng.normal(size=(streams, 20, 20)))

    @pytest.mark.parametrize("layers, cells, projection", [(1, 64, 32), (2, 32, 16), (2, 256, 128)])
    @pytest.mark.parametrize("streams", [1, 4, 12, 32])
    @pytest.mark.parametrize("frames", [1, 5, 16])
    def test_scoring_forward_gives_the_bits_of_the_training_forward(
        self, layers, cells, projection, streams, frames
    ):
        """``cache=False`` returns no cache and the logits and state of
        ``cache=True``, bit for bit, from a carried non-zero state."""
        d = 20
        rng = np.random.default_rng(streams * frames + layers)
        p = init_lstm(d, 10, layers=layers, cells=cells, projection=projection, rng=rng,
                      scale=0.2)
        _, state, _ = lstm_forward_batch(p, rng.normal(size=(streams, 3, d)),
                                         zeros_state(p, streams))
        windows = rng.normal(size=(streams, frames, d))
        want, want_state, cache = lstm_forward_batch(p, windows, state)
        got, got_state, none = lstm_forward_batch(p, windows, state, cache=False)
        assert cache is not None and none is None
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
        for a, b in zip(got_state.cells + got_state.projected,
                        want_state.cells + want_state.projected, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_batch_matches_single_streams(self):
        p = small_lstm(9, cells=5, projection=3)
        rng = np.random.default_rng(10)
        windows = rng.normal(size=(4, 6, 3))
        batch_logits, batch_state, _ = lstm_forward_batch(p, windows, zeros_state(p, 4))
        for s in range(4):
            logits, state, _ = lstm_forward_batch(p, windows[s : s + 1], zeros_state(p, 1))
            np.testing.assert_allclose(batch_logits[s], logits[0], atol=1e-12)
            np.testing.assert_allclose(batch_state.cells[0][s], state.cells[0][0], atol=1e-12)

    def test_deterministic(self):
        p = small_lstm(11)
        w = np.random.default_rng(12).normal(size=(1, 5, 3))
        a, _, _ = lstm_forward_batch(p, w, zeros_state(p, 1))
        b, _, _ = lstm_forward_batch(p, w, zeros_state(p, 1))
        np.testing.assert_array_equal(a, b)

    def test_shape_validation(self):
        p = small_lstm(13)
        with pytest.raises(ShapeError):  # wrong input dim
            lstm_forward_batch(p, np.zeros((1, 4, 5)), zeros_state(p, 1))
        with pytest.raises(ShapeError):  # no stream axis
            lstm_forward_batch(p, np.zeros((4, 3)), zeros_state(p, 1))
        with pytest.raises(ShapeError):  # state for a different stream count
            lstm_forward_batch(p, np.zeros((1, 4, 3)), zeros_state(p, 2))
        bad_state = zeros_state(p, 1)
        bad_state.cells[0] = np.zeros((1, 7))
        with pytest.raises(ShapeError):
            lstm_forward_batch(p, np.zeros((1, 4, 3)), bad_state)

    def test_projection_wider_than_cells_rejected(self):
        with pytest.raises(ShapeError):
            init_lstm(3, 2, layers=1, cells=2, projection=4, rng=np.random.default_rng(14))


class TestBackward:
    def test_zero_grads_in_zero_grads_out(self):
        p = small_lstm(15)
        w = np.random.default_rng(16).normal(size=(1, 5, 3))
        _, _, cache = lstm_forward_batch(p, w, zeros_state(p, 1))
        grads = lstm_backward_batch(p, cache, np.zeros((1, 5, 3)))
        for a in grads.arrays():
            np.testing.assert_array_equal(a, np.zeros_like(a))

    def test_all_parameters_pass_finite_differences(self):
        """1-layer, 3-cell, projection-2 model over a 5-frame window:
        max relative error below 1e-4, 20 seeds."""
        for seed in range(20):
            self._check_grads(small_lstm(200 + seed), seed)

    def test_two_layer_model_passes_finite_differences(self):
        # a larger step: gradients reaching layer-0 weights are tiny, so
        # difference noise must be kept below the checker's 1e-8 floor
        for seed in range(5):
            self._check_grads(
                small_lstm(300 + seed, layers=2, cells=4, projection=2), seed, step=3e-4
            )

    @staticmethod
    def _check_grads(p, seed, step=1e-4):
        rng = np.random.default_rng(1000 + seed)
        w = rng.normal(size=(1, 5, 3))
        labels = rng.integers(0, 3, size=5)
        targets = one_hot_rows(labels, 3)

        def loss(vec):
            trial = p.copy()
            unpack_into(vec, trial.arrays())
            logits, _, _ = lstm_forward_batch(trial, w, zeros_state(trial, 1))
            losses, _, _ = batch_soft_loss(logits[0], targets, 1.0, False)
            return losses.mean()

        logits, _, cache = lstm_forward_batch(p, w, zeros_state(p, 1))
        _, grad_rows, _ = batch_soft_loss(logits[0], targets, 1.0, False)
        grads = lstm_backward_batch(p, cache, grad_rows[np.newaxis] / len(labels))
        err = finite_diff_check(loss, pack(p.arrays()), pack(grads.arrays()), step=step)
        assert err < 1e-4, f"seed {seed}: {err}"

    def test_projection_gradient_reachable(self):
        """Nonzero logit gradients with nonzero cell output must reach
        the projection matrix."""
        p = small_lstm(17)
        w = np.random.default_rng(18).normal(size=(1, 5, 3)) + 1.0
        logits, _, cache = lstm_forward_batch(p, w, zeros_state(p, 1))
        grads = lstm_backward_batch(p, cache, np.ones_like(logits))
        assert np.abs(grads.layers[0].w_p).max() > 0

    def test_matches_per_frame_accumulation_at_benchmark_shape(self):
        """Weight gradients formed after the time loop over the stacked
        (S * F) rows equal per-frame rank-S accumulation within 1e-12."""
        rng = np.random.default_rng(29)
        p = init_lstm(20, 10, layers=2, cells=64, projection=32, rng=rng, scale=0.2)
        w = rng.normal(size=(4, 20, 20))
        g = rng.normal(size=(4, 20, 10))
        _, _, cache = lstm_forward_batch(p, w, zeros_state(p, 4))
        grads = lstm_backward_batch(p, cache, g)
        want = per_frame_oracle_grads(p, w, g, zeros_state(p, 4))
        for got, exp in zip(grads.arrays(), want.arrays(), strict=True):
            np.testing.assert_allclose(got, exp, rtol=0, atol=1e-12)

    def test_matches_per_frame_accumulation_after_a_carried_state(self):
        """A window whose forward starts from the state a previous window
        left, as every window but an utterance's first does in training:
        the incoming state enters the forget-gate and recurrent-weight
        gradients."""
        rng = np.random.default_rng(30)
        p = init_lstm(20, 10, layers=2, cells=64, projection=32, rng=rng, scale=0.2)
        _, state, _ = lstm_forward_batch(p, rng.normal(size=(4, 7, 20)), zeros_state(p, 4))
        w = rng.normal(size=(4, 20, 20))
        g = rng.normal(size=(4, 20, 10))
        _, _, cache = lstm_forward_batch(p, w, state)
        grads = lstm_backward_batch(p, cache, g)
        want = per_frame_oracle_grads(p, w, g, state)
        zero_start = per_frame_oracle_grads(p, w, g, zeros_state(p, 4))
        assert np.abs(want.layers[0].w_r - zero_start.layers[0].w_r).max() > 1e-6
        for got, exp in zip(grads.arrays(), want.arrays(), strict=True):
            np.testing.assert_allclose(got, exp, rtol=0, atol=1e-12)

    def test_stale_cache_rejected(self):
        p = small_lstm(21)
        w = np.random.default_rng(22).normal(size=(1, 4, 3))
        _, _, cache = lstm_forward_batch(p, w, zeros_state(p, 1))
        other = p.copy()
        with pytest.raises(InvalidStateError):
            lstm_backward_batch(other, cache, np.zeros((1, 4, 3)))

    def test_logit_grad_shape_rejected(self):
        p = small_lstm(23)
        w = np.random.default_rng(24).normal(size=(1, 4, 3))
        _, _, cache = lstm_forward_batch(p, w, zeros_state(p, 1))
        with pytest.raises(ShapeError):
            lstm_backward_batch(p, cache, np.zeros((1, 5, 3)))
        with pytest.raises(ShapeError):  # no stream axis
            lstm_backward_batch(p, cache, np.zeros((4, 3)))


class TestInit:
    def test_forget_bias_and_bounds(self):
        p = init_lstm(6, 4, layers=1, cells=8, projection=4, rng=np.random.default_rng(25))
        layer = p.layers[0]
        np.testing.assert_array_equal(layer.bias[8:16], np.ones(8))
        np.testing.assert_array_equal(layer.bias[:8], np.zeros(8))
        np.testing.assert_array_equal(layer.bias[16:], np.zeros(16))
        for a in (layer.w_x, layer.w_r, layer.w_p, p.w_out):
            assert np.all(np.abs(a) <= 0.05)

    def test_reproducible_from_seed(self):
        a = init_lstm(4, 3, layers=1, cells=64, projection=32, rng=np.random.default_rng(26))
        b = init_lstm(4, 3, layers=1, cells=64, projection=32, rng=np.random.default_rng(26))
        for x, y in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(x, y)

    def test_generator_is_required_by_keyword(self):
        """No unseeded default: every init is reproducible from its rng."""
        with pytest.raises(TypeError, match="rng"):
            init_lstm(4, 3, layers=1, cells=8, projection=4)
        with pytest.raises(TypeError):
            init_lstm(4, 3, 1, 8, 4, np.random.default_rng(26))

    def test_stacked_layer_dims_chain(self):
        p = init_lstm(6, 4, layers=3, cells=8, projection=4, rng=np.random.default_rng(27))
        assert p.layers[0].input_dim == 6
        assert p.layers[1].input_dim == 4
        assert p.layers[2].input_dim == 4
