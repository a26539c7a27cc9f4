"""Tests for LSTM and SimpleRNN recurrences."""

import numpy as np
import pytest

from repro.nn.rnn import GRU, LSTM, SimpleRNN
from repro.nn.tensor import Tensor, where
from tests.gradcheck import assert_grad_matches

RNG = np.random.default_rng(11)


class TestLSTM:
    def test_output_shapes(self):
        lstm = LSTM(input_dim=3, hidden_dim=5)
        h, c = lstm(Tensor(RNG.normal(size=(2, 7, 3))))
        assert h.shape == (2, 5)
        assert c.shape == (2, 5)

    def test_wrong_input_dim(self):
        lstm = LSTM(3, 4)
        with pytest.raises(ValueError):
            lstm(Tensor(RNG.normal(size=(1, 5, 2))))

    def test_forget_bias_initialized_to_one(self):
        lstm = LSTM(2, 3)
        np.testing.assert_allclose(lstm.bias.data[3:6], 1.0)

    def test_mask_freezes_state_at_padding(self):
        lstm = LSTM(2, 4)
        x = RNG.normal(size=(1, 6, 2))
        mask_full = np.ones((1, 6), dtype=bool)
        mask_short = mask_full.copy()
        mask_short[0, 3:] = False
        h_short, _ = lstm(Tensor(x), mask=mask_short)
        h_trunc, _ = lstm(Tensor(x[:, :3, :]))
        np.testing.assert_allclose(h_short.data, h_trunc.data, atol=1e-12)

    def test_gradcheck_input(self):
        lstm = LSTM(2, 3)
        assert_grad_matches(lambda t: lstm(t)[0], RNG.normal(size=(2, 4, 2)), atol=1e-5)

    def test_gradcheck_with_mask(self):
        lstm = LSTM(2, 3)
        mask = np.array([[True, True, False], [True, True, True]])
        assert_grad_matches(lambda t: lstm(t, mask=mask)[0], RNG.normal(size=(2, 3, 2)), atol=1e-5)

    def test_hidden_bounded(self):
        lstm = LSTM(2, 3)
        h, _ = lstm(Tensor(RNG.normal(size=(4, 10, 2)) * 5))
        assert np.all(np.abs(h.data) <= 1.0)

    def test_deterministic_given_seed(self):
        a = LSTM(2, 3, rng=np.random.default_rng(5))
        b = LSTM(2, 3, rng=np.random.default_rng(5))
        x = Tensor(RNG.normal(size=(1, 4, 2)))
        np.testing.assert_array_equal(a(x)[0].data, b(x)[0].data)


class TestSimpleRNN:
    def test_output_shape(self):
        rnn = SimpleRNN(3, 4)
        assert rnn(Tensor(RNG.normal(size=(2, 5, 3)))).shape == (2, 4)

    def test_invalid_activation(self):
        with pytest.raises(ValueError):
            SimpleRNN(2, 2, activation="softplus")

    def test_wrong_input_dim(self):
        rnn = SimpleRNN(3, 2)
        with pytest.raises(ValueError):
            rnn(Tensor(RNG.normal(size=(1, 4, 2))))

    @pytest.mark.parametrize("act", ["tanh", "sigmoid", "relu"])
    def test_gradcheck_activations(self, act):
        rnn = SimpleRNN(2, 3, activation=act)
        x = RNG.normal(size=(1, 4, 2)) + 0.3  # offset avoids relu kink
        assert_grad_matches(lambda t: rnn(t), x, atol=1e-5)

    def test_mask_freezes_state(self):
        rnn = SimpleRNN(2, 3)
        x = RNG.normal(size=(1, 5, 2))
        mask = np.ones((1, 5), dtype=bool)
        mask[0, 2:] = False
        h = rnn(Tensor(x), mask=mask)
        h_trunc = rnn(Tensor(x[:, :2, :]))
        np.testing.assert_allclose(h.data, h_trunc.data, atol=1e-12)

    def test_single_step_matches_formula(self):
        rnn = SimpleRNN(2, 1, activation="tanh")
        rnn.w_x.data = np.array([[1.0, 2.0]])
        rnn.w_h.data = np.array([[0.5]])
        rnn.bias.data = np.array([0.1])
        x = Tensor(np.array([[[1.0, 1.0]]]))
        h = rnn(x)
        np.testing.assert_allclose(h.data, np.tanh([[3.1]]))


# ---------------------------------------------------------------------------
# live-step truncation parity
#
# LSTM/GRU stop their time loop after the last column in which any row is
# real.  The two functions below are the loops as they were before that
# change, running every column; the truncated loops must reproduce their
# states and gradients bitwise.
# ---------------------------------------------------------------------------

def full_loop_lstm(lstm, x, mask):
    batch, seq_len, dim = x.shape
    hid = lstm.hidden_dim
    h = Tensor(np.zeros((batch, hid)))
    c = Tensor(np.zeros((batch, hid)))
    wx_t = lstm.w_x.transpose()
    wh_t = lstm.w_h.transpose()
    x_proj = x.reshape(batch * seq_len, dim) @ wx_t
    x_proj = x_proj.reshape(batch, seq_len, 4 * hid)
    for t in range(seq_len):
        gates = x_proj[:, t, :] + h @ wh_t + lstm.bias
        i = gates[:, :hid].sigmoid()
        f = gates[:, hid : 2 * hid].sigmoid()
        g = gates[:, 2 * hid : 3 * hid].tanh()
        o = gates[:, 3 * hid :].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        if mask is not None:
            step = mask[:, t][:, None]
            c = where(step, c_new, c)
            h = where(step, h_new, h)
        else:
            c, h = c_new, h_new
    return h, c


def full_loop_gru(gru, x, mask):
    batch, seq_len, dim = x.shape
    hid = gru.hidden_dim
    h = Tensor(np.zeros((batch, hid)))
    wx_t = gru.w_x.transpose()
    wh_t = gru.w_h.transpose()
    x_proj = x.reshape(batch * seq_len, dim) @ wx_t
    x_proj = x_proj.reshape(batch, seq_len, 3 * hid)
    for t in range(seq_len):
        xp = x_proj[:, t, :]
        hp = h @ wh_t
        z = (xp[:, :hid] + hp[:, :hid] + gru.bias[:hid]).sigmoid()
        r = (xp[:, hid : 2 * hid] + hp[:, hid : 2 * hid] + gru.bias[hid : 2 * hid]).sigmoid()
        n = (xp[:, 2 * hid :] + r * hp[:, 2 * hid :] + gru.bias[2 * hid :]).tanh()
        h_new = (Tensor(np.ones((batch, hid))) - z) * n + z * h
        if mask is not None:
            step = mask[:, t][:, None]
            h = where(step, h_new, h)
        else:
            h = h_new
    return (h,)


def states_and_grads(forward, module, x_data, mask):
    """Final states, input gradient and parameter gradients of a fixed loss."""
    module.zero_grad()
    x = Tensor(x_data, requires_grad=True)
    states = forward(x, mask)
    weights = np.random.default_rng(3).normal(size=(len(states),) + states[0].shape)
    loss = (states[0] * weights[0]).sum()
    for state, weight in zip(states[1:], weights[1:]):
        loss = loss + (state * weight).sum()
    loss.backward()
    return (
        [s.data for s in states],
        x.grad,
        [p.grad.copy() for p in module.parameters()],
    )


def length_mask(lengths, seq_len):
    return np.arange(seq_len)[None, :] < np.asarray(lengths)[:, None]


SEQ_LEN = 9
PARITY_MASKS = [
    # every length 1..T on a ragged batch whose longest row is that length
    *(length_mask([n, max(1, n // 2), 1], SEQ_LEN) for n in range(1, SEQ_LEN + 1)),
    # every row ends well before T
    length_mask([2, 5, 3], SEQ_LEN),
    # an all-padding row next to a full one, and an all-padding batch
    length_mask([0, SEQ_LEN, 4], SEQ_LEN),
    length_mask([0, 0, 0], SEQ_LEN),
    None,
]


@pytest.mark.parametrize(
    "module_cls, full_loop",
    [
        (LSTM, full_loop_lstm),
        (GRU, full_loop_gru),
    ],
    ids=["lstm", "gru"],
)
@pytest.mark.parametrize("mask_index", range(len(PARITY_MASKS)))
def test_live_step_loop_matches_full_loop_bitwise(module_cls, full_loop, mask_index):
    mask = PARITY_MASKS[mask_index]
    module = module_cls(4, 5, rng=np.random.default_rng(7))
    x_data = np.random.default_rng(mask_index).normal(size=(3, SEQ_LEN, 4))

    def live(x, m):
        out = module(x, mask=m)
        return out if isinstance(out, tuple) else (out,)

    got = states_and_grads(live, module, x_data, mask)
    want = states_and_grads(lambda x, m: full_loop(module, x, m), module, x_data, mask)
    for got_state, want_state in zip(got[0], want[0]):
        np.testing.assert_array_equal(got_state, want_state)
    np.testing.assert_array_equal(got[1], want[1])
    for got_grad, want_grad in zip(got[2], want[2]):
        np.testing.assert_array_equal(got_grad, want_grad)
