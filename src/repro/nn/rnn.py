"""Recurrent layers: LSTM and a simple (Elman) RNN.

The LSTM follows Hochreiter & Schmidhuber (1997) with a single fused gate
matrix for efficiency.  Variable-length documents are handled with a boolean
mask: at padded positions the hidden and cell states are carried through
unchanged, so the final state equals the state at each sequence's true end.

:class:`SimpleRNN` also supports the scalar-hidden configuration of the
paper's Theorem 2 (one-dimensional hidden state, concave non-decreasing
activation, positive recurrent weight) — see
:class:`repro.models.theory_models.ScalarRNN`.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init as init_
from repro.nn.layers import Module, Parameter
from repro.nn.tensor import Tensor, where

__all__ = ["LSTM", "GRU", "SimpleRNN"]


def _live_steps(mask: np.ndarray | None, seq_len: int) -> int:
    """Timesteps up to the last column in which any row is real.

    Past that column every row carries its state through unchanged, so
    stopping there gives bitwise the same state and the same gradients,
    without the Python-level autograd steps (``embedding_gradient`` pads to
    ``max_len``, so most of its columns are dead).  The input projection
    stays one GEMM over all ``seq_len`` rows: trimming its row count would
    change the BLAS blocking and hence the last bits.  An all-padding batch
    still runs one step, which keeps the output connected to the input.
    """
    if mask is None:
        return seq_len
    live = np.flatnonzero(np.asarray(mask, dtype=bool).any(axis=0))
    return int(live[-1]) + 1 if live.size else min(seq_len, 1)


class LSTM(Module):
    """Single-layer LSTM over ``(B, T, D)`` inputs.

    Gates are computed jointly: ``[i, f, g, o] = x W_x^T + h W_h^T + b``
    with sigmoid on i/f/o and tanh on g.  The forget-gate bias is
    initialized to 1.0, the standard trick for gradient flow.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = Parameter(init_.xavier_uniform((4 * hidden_dim, input_dim), rng), name="lstm_wx")
        self.w_h = Parameter(init_.xavier_uniform((4 * hidden_dim, hidden_dim), rng), name="lstm_wh")
        bias = init_.zeros((4 * hidden_dim,))
        bias[hidden_dim : 2 * hidden_dim] = 1.0  # forget gate
        self.bias = Parameter(bias, name="lstm_bias")

    def forward(
        self, x: Tensor, mask: np.ndarray | None = None
    ) -> tuple[Tensor, Tensor]:
        """Run the recurrence.

        Parameters
        ----------
        x:
            Input of shape ``(B, T, D)``.
        mask:
            Optional boolean array ``(B, T)``; False marks padding.

        Returns
        -------
        (final_hidden, final_cell):
            Each of shape ``(B, H)`` — the state at each sequence's last
            *real* timestep when a mask is given.
        """
        batch, seq_len, dim = x.shape
        if dim != self.input_dim:
            raise ValueError(f"expected input dim {self.input_dim}, got {dim}")
        hid = self.hidden_dim
        h = Tensor(np.zeros((batch, hid)))
        c = Tensor(np.zeros((batch, hid)))
        wx_t = self.w_x.transpose()
        wh_t = self.w_h.transpose()
        # Pre-compute all input projections in one batched matmul.
        x_proj = x.reshape(batch * seq_len, dim) @ wx_t
        x_proj = x_proj.reshape(batch, seq_len, 4 * hid)
        for t in range(_live_steps(mask, seq_len)):
            gates = x_proj[:, t, :] + h @ wh_t + self.bias
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


class GRU(Module):
    """Single-layer GRU over ``(B, T, D)`` inputs (Cho et al., 2014).

    Update/reset gates are computed jointly; the candidate state uses the
    reset-gated hidden state.  Same masking semantics as :class:`LSTM`.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = Parameter(init_.xavier_uniform((3 * hidden_dim, input_dim), rng), name="gru_wx")
        self.w_h = Parameter(init_.xavier_uniform((3 * hidden_dim, hidden_dim), rng), name="gru_wh")
        self.bias = Parameter(init_.zeros((3 * hidden_dim,)), name="gru_bias")

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Return the final hidden state ``(B, H)``."""
        batch, seq_len, dim = x.shape
        if dim != self.input_dim:
            raise ValueError(f"expected input dim {self.input_dim}, got {dim}")
        hid = self.hidden_dim
        h = Tensor(np.zeros((batch, hid)))
        wx_t = self.w_x.transpose()
        wh_t = self.w_h.transpose()
        x_proj = x.reshape(batch * seq_len, dim) @ wx_t
        x_proj = x_proj.reshape(batch, seq_len, 3 * hid)
        for t in range(_live_steps(mask, seq_len)):
            xp = x_proj[:, t, :]
            hp = h @ wh_t
            z = (xp[:, :hid] + hp[:, :hid] + self.bias[:hid]).sigmoid()
            r = (xp[:, hid : 2 * hid] + hp[:, hid : 2 * hid] + self.bias[hid : 2 * hid]).sigmoid()
            n = (xp[:, 2 * hid :] + r * hp[:, 2 * hid :] + self.bias[2 * hid :]).tanh()
            h_new = (Tensor(np.ones((batch, hid))) - z) * n + z * h
            if mask is not None:
                step = mask[:, t][:, None]
                h = where(step, h_new, h)
            else:
                h = h_new
        return h


class SimpleRNN(Module):
    """Elman RNN: ``h_t = φ(w_h h_{t-1} + x_t W_x^T + b)``.

    ``activation`` may be ``"tanh"``, ``"sigmoid"`` or ``"relu"``.  The tanh
    and sigmoid choices are concave on the non-negative orthant, which is
    the regime Theorem 2 uses.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        activation: str = "tanh",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng(0)
        if activation not in ("tanh", "sigmoid", "relu"):
            raise ValueError(f"unsupported activation {activation!r}")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.activation = activation
        self.w_x = Parameter(init_.xavier_uniform((hidden_dim, input_dim), rng), name="rnn_wx")
        self.w_h = Parameter(init_.xavier_uniform((hidden_dim, hidden_dim), rng), name="rnn_wh")
        self.bias = Parameter(init_.zeros((hidden_dim,)), name="rnn_bias")

    def _phi(self, x: Tensor) -> Tensor:
        if self.activation == "tanh":
            return x.tanh()
        if self.activation == "sigmoid":
            return x.sigmoid()
        return x.relu()

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Return the final hidden state ``(B, H)``."""
        batch, seq_len, dim = x.shape
        if dim != self.input_dim:
            raise ValueError(f"expected input dim {self.input_dim}, got {dim}")
        h = Tensor(np.zeros((batch, self.hidden_dim)))
        wx_t = self.w_x.transpose()
        wh_t = self.w_h.transpose()
        for t in range(seq_len):
            h_new = self._phi(x[:, t, :] @ wx_t + h @ wh_t + self.bias)
            if mask is not None:
                step = mask[:, t][:, None]
                h = where(step, h_new, h)
            else:
                h = h_new
        return h
