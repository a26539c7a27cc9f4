"""Graph-free fused inference kernels.

Every ``predict_proba`` call used to walk the reverse-mode autograd
machinery in :mod:`repro.nn.tensor` — one Python-level :class:`Tensor`
allocation per op, per timestep of the recurrent loops — even under
``no_grad()``.  For the attack workload (thousands of small candidate
batches) that Python overhead dominates the actual FLOPs.

This module provides pure-NumPy *fused* forward kernels that read weights
straight out of the trained ``Module`` parameters: a single fused gate
matmul per LSTM/GRU timestep, conv-as-matmul for the WCNN, and a NumPy
softmax replicating the exact op sequence of
:func:`repro.nn.functional.softmax`.  Each kernel performs bit-for-bit the
same floating-point operations in the same order as the autograd path, so
fused and reference probabilities agree exactly (the kernel parity tests
assert bitwise equality, the model-level ones ``<= 1e-12``).

Where the time goes, and what the kernels do about it:

- the conv gathers its windows with a contiguous ``np.take``, so the
  im2col matrix is written once and reshaped as a view;
- the recurrent step loop runs over preallocated buffers: gate
  activations in one contiguous ``(lanes, B, H)`` array with a single
  in-place sigmoid pass over its sigmoid lanes, new state swapped in
  rather than allocated, and masked carry-through only on columns that
  hold padding;
- the autograd LSTM/GRU (the gradient path) stop at the last column in
  which any row is real.  ``embedding_gradient`` keeps padding its single
  document to ``max_len``: trimming it would change the GEMM row count,
  and the BLAS result depends on that at the ulp level.

Model classes opt in through :func:`register_fused_kernel`; dispatch
happens in :meth:`repro.models.base.TextClassifier.predict_proba` whenever
no gradient is needed and scoring is deterministic.  That is the one
scoring path: every attack query, serial or in a pool worker, is a
``predict_proba`` call on the victim in the calling process.  The autograd forward
is kept untouched as the reference implementation — gradient-guided attacks
still use it for the gradient step, and ``fused_inference = False`` (or an
unregistered model class) falls back to it.

Layering: this module depends on nothing but NumPy.  Model modules import
it to register their kernels; it never imports ``repro.models``.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np

__all__ = [
    "register_fused_kernel",
    "fused_kernel_for",
    "softmax_np",
    "sigmoid_np",
    "dense_np",
    "conv1d_np",
    "max_over_time_np",
    "lstm_forward_np",
    "gru_forward_np",
    "rnn_forward_np",
]

# kernel signature: (model, token_ids (B, T) int, mask (B, T) bool) -> logits (B, C)
FusedKernel = Callable[[object, np.ndarray, np.ndarray], np.ndarray]

_REGISTRY: dict[type, FusedKernel] = {}

M = TypeVar("M", bound=type)


def register_fused_kernel(model_cls: type, kernel: FusedKernel) -> None:
    """Register a graph-free forward for ``model_cls``.

    Lookup is by *exact* type, never by subclass: a subclass overriding
    ``forward_from_embeddings`` must not silently inherit a kernel that
    computes something else.  Subclasses that keep the forward unchanged
    can re-register the parent's kernel explicitly.
    """
    _REGISTRY[model_cls] = kernel


def fused_kernel_for(model: object) -> FusedKernel | None:
    """The registered kernel for ``type(model)``, or None (reference path)."""
    return _REGISTRY.get(type(model))


# ---------------------------------------------------------------------------
# primitives — each replicates the autograd op sequence exactly
# ---------------------------------------------------------------------------

def softmax_np(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """``softmax`` with the exact op order of :func:`repro.nn.functional.softmax`.

    That implementation computes ``exp(shifted - log(sum(exp(shifted))))``
    with ``shifted = x - max(x)``; reproducing the same sequence keeps the
    fused probabilities bitwise equal to the reference ones.
    """
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return np.exp(shifted - np.log(e.sum(axis=axis, keepdims=True)))


def sigmoid_np(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``Tensor.sigmoid`` semantics: ``1 / (1 + exp(-clip(x, -60, 60)))``.

    The clip is spelled ``minimum(maximum(x, -60), 60)``: the same values
    (NaN included) without ``np.clip``'s Python-level dispatch, which cost
    as much as the arithmetic on the small per-timestep gate blocks.
    ``out`` may alias ``x``.
    """
    if out is None:
        return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -60.0), 60.0)))
    np.maximum(x, -60.0, out=out)
    np.minimum(out, 60.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out


def dense_np(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """Affine head ``x W^T + b`` on raw arrays."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def conv1d_np(
    emb: np.ndarray, weight: np.ndarray, bias: np.ndarray, kernel_size: int, stride: int = 1
) -> np.ndarray:
    """Conv-as-matmul over ``(B, T, D)``: im2col + one 2-D GEMM.

    Gathers the same ``(B, n_win, h*D)`` windows as
    :meth:`repro.nn.layers.Conv1d.forward` but collapses the batch and
    window axes into a single 2-D GEMM (a 3-D ``matmul`` degrades to ``B``
    small per-document GEMMs).  The per-output-element dot products run
    over the identical ``h*D`` contraction in the same order, so the
    result stays bitwise equal to the autograd path.

    The windows are gathered with ``np.take``, which writes them straight
    into a C-ordered array; fancy indexing (``emb[:, win_idx, :]``) returns
    a strided one that the reshape would copy a second time.
    """
    batch, seq_len, dim = emb.shape
    n_filt = weight.shape[0]
    starts = np.arange(0, seq_len - kernel_size + 1, stride)
    n_win = len(starts)
    win_idx = starts[:, None] + np.arange(kernel_size)[None, :]
    flat = np.take(emb, win_idx, axis=1).reshape(batch * n_win, kernel_size * dim)
    return (flat @ weight.T).reshape(batch, n_win, n_filt) + bias


def max_over_time_np(feats: np.ndarray, window_mask: np.ndarray, neg: float = -1e30) -> np.ndarray:
    """Masked max-over-time pooling, matching :class:`repro.nn.layers.MaxOverTime`."""
    penalty = np.where(np.asarray(window_mask, dtype=bool), 0.0, neg)[:, :, None]
    return (feats + penalty).max(axis=1)


def _full_columns(mask: np.ndarray | None, seq_len: int) -> np.ndarray:
    """Per timestep: whether every row is real there (no carry-through needed)."""
    if mask is None:
        return np.ones(seq_len, dtype=bool)
    return np.asarray(mask, dtype=bool).all(axis=0)


def lstm_forward_np(
    emb: np.ndarray,
    mask: np.ndarray | None,
    w_x: np.ndarray,
    w_h: np.ndarray,
    bias: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fused LSTM recurrence over ``(B, T, D)``; returns ``(h, c)`` of ``(B, H)``.

    One fused gate matmul per timestep (all input projections precomputed in
    a single batched GEMM).  The arithmetic mirrors
    :meth:`repro.nn.rnn.LSTM.forward` operation for operation:
    ``gates = (x_proj_t + h W_h^T) + b``, sigmoid/tanh splits, masked state
    carry-through.  Each step writes into preallocated buffers.  The gate
    activations live in one contiguous ``(4, B, H)`` array ordered i, f, o,
    g, so the three sigmoid lanes take one in-place sigmoid pass and every
    later elementwise op runs over whole contiguous blocks, as the
    reference's fresh arrays do.  The new state goes to a second pair of
    state buffers that is swapped with the current one.  A column in which
    every row is real takes the new state as is; any other column merges it
    with ``np.copyto(..., where=)``, which selects exactly what
    ``np.where`` would.
    """
    batch, seq_len, dim = emb.shape
    hid = w_h.shape[1]
    h = np.zeros((batch, hid))
    c = np.zeros((batch, hid))
    wx_t = w_x.T
    wh_t = w_h.T
    x_proj = (emb.reshape(batch * seq_len, dim) @ wx_t).reshape(batch, seq_len, 4 * hid)
    full_cols = _full_columns(mask, seq_len)
    gates = np.empty((batch, 4 * hid))
    lanes = gates.reshape(batch, 4, hid).transpose(1, 0, 2)  # i, f, g, o views
    act = np.empty((4, batch, hid))
    sig = act[:3]
    i, f, o, g = act
    c_new = np.empty((batch, hid))
    h_new = np.empty((batch, hid))
    tmp = np.empty((batch, hid))
    for t in range(seq_len):
        np.matmul(h, wh_t, out=gates)
        gates += x_proj[:, t, :]
        gates += bias
        # sigmoid_np over the i, f, o lanes; its lower clip gathers them
        np.maximum(lanes[:2], -60.0, out=act[:2])
        np.maximum(lanes[3], -60.0, out=o)
        np.minimum(sig, 60.0, out=sig)
        np.negative(sig, out=sig)
        np.exp(sig, out=sig)
        sig += 1.0
        np.divide(1.0, sig, out=sig)
        np.tanh(lanes[2], out=g)
        np.multiply(f, c, out=c_new)
        np.multiply(i, g, out=tmp)
        c_new += tmp
        np.tanh(c_new, out=h_new)
        h_new *= o
        if full_cols[t]:
            c, c_new = c_new, c
            h, h_new = h_new, h
        else:
            step = mask[:, t][:, None]
            np.copyto(c, c_new, where=step)
            np.copyto(h, h_new, where=step)
    return h, c


def gru_forward_np(
    emb: np.ndarray,
    mask: np.ndarray | None,
    w_x: np.ndarray,
    w_h: np.ndarray,
    bias: np.ndarray,
) -> np.ndarray:
    """Fused GRU recurrence; returns the final hidden state ``(B, H)``.

    Mirrors :meth:`repro.nn.rnn.GRU.forward`: joint update/reset projection,
    reset-gated candidate, ``h = (1 - z) n + z h`` with masked carry-through.
    Same buffered step loop as :func:`lstm_forward_np`.
    """
    batch, seq_len, dim = emb.shape
    hid = w_h.shape[1]
    h = np.zeros((batch, hid))
    wx_t = w_x.T
    wh_t = w_h.T
    x_proj = (emb.reshape(batch * seq_len, dim) @ wx_t).reshape(batch, seq_len, 3 * hid)
    # (T, 3, B, H) / (3, B, H) views: the z, r, n lanes of each step
    x_lanes = x_proj.reshape(batch, seq_len, 3, hid).transpose(1, 2, 0, 3)
    full_cols = _full_columns(mask, seq_len)
    hp = np.empty((batch, 3 * hid))
    hp_lanes = hp.reshape(batch, 3, hid).transpose(1, 0, 2)
    b_lanes = bias.reshape(3, 1, hid)
    zr = np.empty((2, batch, hid))
    z, r = zr
    n = np.empty((batch, hid))
    h_new = np.empty((batch, hid))
    tmp = np.empty((batch, hid))
    for t in range(seq_len):
        xp = x_lanes[t]
        np.matmul(h, wh_t, out=hp)
        np.add(xp[:2], hp_lanes[:2], out=zr)
        zr += b_lanes[:2]
        sigmoid_np(zr, out=zr)
        np.multiply(r, hp_lanes[2], out=n)
        np.add(xp[2], n, out=n)
        n += b_lanes[2]
        np.tanh(n, out=n)
        np.subtract(1.0, z, out=tmp)
        tmp *= n
        np.multiply(z, h, out=h_new)
        np.add(tmp, h_new, out=h_new)
        if full_cols[t]:
            h, h_new = h_new, h
        else:
            np.copyto(h, h_new, where=mask[:, t][:, None])
    return h


_RNN_ACTIVATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "tanh": np.tanh,
    "sigmoid": sigmoid_np,
    "relu": lambda x: np.maximum(x, 0.0),
}


def rnn_forward_np(
    emb: np.ndarray,
    mask: np.ndarray | None,
    w_x: np.ndarray,
    w_h: np.ndarray,
    bias: np.ndarray,
    activation: str = "tanh",
) -> np.ndarray:
    """Fused Elman recurrence matching :meth:`repro.nn.rnn.SimpleRNN.forward`."""
    phi = _RNN_ACTIVATIONS[activation]
    batch, seq_len, _ = emb.shape
    hid = w_h.shape[1]
    h = np.zeros((batch, hid))
    wx_t = w_x.T
    wh_t = w_h.T
    for t in range(seq_len):
        h_new = phi(emb[:, t, :] @ wx_t + h @ wh_t + bias)
        if mask is not None:
            step = mask[:, t][:, None]
            h = np.where(step, h_new, h)
        else:
            h = h_new
    return h
