"""Parity tests: graph-free fused kernels vs the autograd reference path.

The fused kernels (repro.nn.inference) must reproduce the reference
probabilities to <= 1e-12 on every registered architecture, across the
length-bucketed batching edge cases: mixed-length batches, masked padding,
empty batches, single-token documents, and documents at exactly ``max_len``.
"""

import numpy as np
import pytest

from repro.models import GRUClassifier, TrainConfig, fit
from repro.models.wcnn import WCNN
from repro.nn.inference import (
    conv1d_np,
    fused_kernel_for,
    gru_forward_np,
    lstm_forward_np,
    register_fused_kernel,
    softmax_np,
)
from repro.nn.tensor import Tensor, no_grad

TOL = 1e-12


@pytest.fixture(scope="module")
def trained_gru(tiny_corpus, tiny_vocab, tiny_embeddings):
    model = GRUClassifier(
        tiny_vocab, 72, pretrained_embeddings=tiny_embeddings, hidden_dim=16, seed=0
    )
    fit(model, tiny_corpus.train, TrainConfig(epochs=3, seed=0))
    return model


def both_paths(model, docs, **kwargs):
    """(fused, reference) probabilities, restoring the model's flag."""
    prev = model.fused_inference
    try:
        model.fused_inference = True
        fused = model.predict_proba(docs, **kwargs)
        model.fused_inference = False
        ref = model.predict_proba(docs, **kwargs)
    finally:
        model.fused_inference = prev
    return fused, ref


class TestKernelParity:
    def test_wcnn_mixed_lengths(self, trained_wcnn, tiny_corpus):
        docs = tiny_corpus.documents("test")
        assert trained_wcnn._fused_active()
        fused, ref = both_paths(trained_wcnn, docs)
        assert np.abs(fused - ref).max() <= TOL

    def test_lstm_mixed_lengths(self, trained_lstm, tiny_corpus):
        docs = tiny_corpus.documents("test")
        assert trained_lstm._fused_active()
        fused, ref = both_paths(trained_lstm, docs)
        assert np.abs(fused - ref).max() <= TOL

    def test_gru_mixed_lengths(self, trained_gru, tiny_corpus):
        docs = tiny_corpus.documents("test")
        assert trained_gru._fused_active()
        fused, ref = both_paths(trained_gru, docs)
        assert np.abs(fused - ref).max() <= TOL

    def test_unbucketed_path_parity(self, trained_wcnn, tiny_corpus):
        # pad-to-max_len also dispatches to the kernel; parity must hold there
        docs = tiny_corpus.documents("test")[:16]
        fused, ref = both_paths(trained_wcnn, docs, bucketed=False)
        assert np.abs(fused - ref).max() <= TOL

    def test_masked_padding_is_inert(self, trained_lstm, tiny_corpus):
        # a document scored alone vs padded inside a max_len batch must agree:
        # the kernels carry state through padding timesteps via the mask
        doc = min(tiny_corpus.documents("test"), key=len)
        alone = trained_lstm.predict_proba([doc])
        padded = trained_lstm.predict_proba([doc], bucketed=False)
        np.testing.assert_allclose(alone, padded, atol=TOL, rtol=0.0)

    def test_empty_batch(self, trained_wcnn):
        probs = trained_wcnn.predict_proba([])
        assert probs.shape == (0, trained_wcnn.num_classes)

    def test_length_one_documents(self, trained_wcnn, trained_lstm, tiny_vocab):
        docs = [[tiny_vocab.word(2)], [tiny_vocab.word(3)]]
        for model in (trained_wcnn, trained_lstm):
            fused, ref = both_paths(model, docs)
            assert np.abs(fused - ref).max() <= TOL

    def test_exactly_max_len_and_truncation(self, trained_wcnn, tiny_vocab):
        words = [tiny_vocab.word(2 + i % 20) for i in range(trained_wcnn.max_len)]
        exact = words
        overlong = words + ["extra"] * 9
        fused, ref = both_paths(trained_wcnn, [exact, overlong])
        assert np.abs(fused - ref).max() <= TOL
        # truncation happens before the kernel: overlong == exact after capping
        probs = trained_wcnn.predict_proba([exact, overlong])
        np.testing.assert_allclose(probs[0], probs[1], atol=TOL, rtol=0.0)

    def test_out_of_vocabulary_tokens(self, trained_wcnn):
        fused, ref = both_paths(trained_wcnn, [["zzz-not-a-word", "also-unknown"]])
        assert np.abs(fused - ref).max() <= TOL


class TestDispatchRules:
    def test_training_mode_falls_back(self, trained_wcnn):
        trained_wcnn.train()
        try:
            assert not trained_wcnn._fused_active()
        finally:
            trained_wcnn.eval()
        assert trained_wcnn._fused_active()

    def test_inference_dropout_falls_back(self, trained_wcnn, tiny_corpus):
        # Bayesian dropout draws from the model's own RNG stream, which only
        # the reference path reproduces — the fused path must step aside
        trained_wcnn.inference_dropout = 0.2
        try:
            assert not trained_wcnn._fused_active()
        finally:
            trained_wcnn.inference_dropout = 0.0
        assert trained_wcnn._fused_active()

    def test_flag_off_falls_back(self, trained_wcnn):
        trained_wcnn.fused_inference = False
        try:
            assert not trained_wcnn._fused_active()
        finally:
            trained_wcnn.fused_inference = True

    def test_subclass_does_not_inherit_kernel(self, tiny_vocab, tiny_embeddings):
        # registry lookup is by exact type: a subclass that might override
        # forward_from_embeddings must not silently get the parent's kernel
        class CustomWCNN(WCNN):
            pass

        model = CustomWCNN(
            tiny_vocab, 72, pretrained_embeddings=tiny_embeddings, num_filters=8, seed=0
        )
        model.eval()
        assert fused_kernel_for(model) is None
        assert not model._fused_active()
        # the reference path still serves it
        probs = model.predict_proba([[tiny_vocab.word(2)]])
        assert probs.shape == (1, 2)

    def test_register_and_lookup(self):
        class Dummy:
            pass

        marker = object()
        register_fused_kernel(Dummy, lambda model, ids, mask: marker)
        assert fused_kernel_for(Dummy()) is not None
        assert fused_kernel_for(object()) is None


def test_softmax_np_matches_functional():
    from repro.nn.functional import softmax

    rng = np.random.default_rng(0)
    logits = rng.normal(scale=4.0, size=(7, 3))
    expected = softmax(Tensor(logits), axis=-1).data
    np.testing.assert_array_equal(softmax_np(logits), expected)


@pytest.mark.parametrize(
    "batch, seq_len, dim, kernel_size, stride",
    [(128, 60, 16, 3, 1), (1, 3, 8, 3, 1), (5, 17, 12, 4, 2), (3, 10, 6, 1, 1)],
)
def test_conv1d_np_matches_strided_gather_bitwise(batch, seq_len, dim, kernel_size, stride):
    rng = np.random.default_rng(batch + seq_len)
    emb = rng.normal(size=(batch, seq_len, dim))
    weight = rng.normal(size=(24, kernel_size * dim))
    bias = rng.normal(size=24)
    # the im2col formula before the contiguous ``np.take`` gather
    starts = np.arange(0, seq_len - kernel_size + 1, stride)
    win_idx = starts[:, None] + np.arange(kernel_size)[None, :]
    flat = emb[:, win_idx, :].reshape(batch * len(starts), kernel_size * dim)
    expected = (flat @ weight.T).reshape(batch, len(starts), 24) + bias
    np.testing.assert_array_equal(
        conv1d_np(emb, weight, bias, kernel_size, stride), expected
    )


def recurrent_batch(shape, vocab, docs):
    """(ids, mask) for one of four batch shapes, trimmed to its longest row."""
    if shape == "all_real":
        shortest = min(len(d) for d in docs[:6])
        batch = [d[:shortest] for d in docs[:6]]
    elif shape == "ragged":
        batch = docs[:12]
    elif shape == "single_row":
        batch = docs[:1]
    else:  # length_one
        batch = [[vocab.word(2)], [vocab.word(3)], [vocab.word(4)]]
    return vocab.encode_batch(batch, max(len(d) for d in batch))


@pytest.mark.parametrize("shape", ["all_real", "ragged", "single_row", "length_one"])
def test_fused_recurrences_match_autograd_bitwise(
    shape, trained_lstm, trained_gru, tiny_vocab, tiny_corpus
):
    ids, mask = recurrent_batch(shape, tiny_vocab, tiny_corpus.documents("test"))
    if shape == "all_real":
        assert mask.all()
    elif shape == "ragged":
        assert not mask.all()
    cases = [
        (trained_lstm, trained_lstm.lstm, lstm_forward_np),
        (trained_gru, trained_gru.gru, gru_forward_np),
    ]
    for model, rnn, kernel in cases:
        emb = model.embedding.weight.data[ids]
        with no_grad():
            reference = rnn(Tensor(emb), mask=mask)
        fused = kernel(emb, mask, rnn.w_x.data, rnn.w_h.data, rnn.bias.data)
        if not isinstance(fused, tuple):  # GRU: hidden state only
            fused, reference = (fused,), (reference,)
        for got, want in zip(fused, reference):
            np.testing.assert_array_equal(got, want.data)
