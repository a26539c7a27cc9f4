"""Tests for the randomized synonym-smoothing defense."""

import numpy as np
import pytest

from repro.attacks import ObjectiveGreedyWordAttack
from repro.data.lexicon import sentiment_lexicon
from repro.defense.smoothing import SmoothedClassifier


@pytest.fixture(scope="module")
def smoothed(victim, atk_lexicon):
    return SmoothedClassifier(victim, atk_lexicon, n_samples=7, substitution_prob=0.3, seed=0)


class TestConstruction:
    def test_invalid_samples(self, victim, atk_lexicon):
        with pytest.raises(ValueError):
            SmoothedClassifier(victim, atk_lexicon, n_samples=0)

    def test_invalid_prob(self, victim, atk_lexicon):
        with pytest.raises(ValueError):
            SmoothedClassifier(victim, atk_lexicon, substitution_prob=1.5)

    def test_gradient_blocked(self, smoothed):
        with pytest.raises(NotImplementedError):
            smoothed.embedding_gradient(["great"], 1)

    def test_passthroughs(self, smoothed, victim):
        assert smoothed.vocab is victim.vocab
        assert smoothed.max_len == victim.max_len
        assert smoothed.embedding is victim.embedding


class TestSmoothing:
    def test_proba_simplex(self, smoothed, atk_corpus):
        probs = smoothed.predict_proba(atk_corpus.documents("test")[:4])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_deterministic_per_document(self, smoothed, atk_corpus):
        doc = atk_corpus.documents("test")[0]
        a = smoothed.predict_proba([doc])
        b = smoothed.predict_proba([doc])
        np.testing.assert_array_equal(a, b)

    def test_single_sample_equals_base_model(self, victim, atk_lexicon, atk_corpus):
        smooth1 = SmoothedClassifier(victim, atk_lexicon, n_samples=1)
        docs = atk_corpus.documents("test")[:5]
        np.testing.assert_allclose(
            smooth1.predict_proba(docs), victim.predict_proba(docs), atol=1e-12
        )

    def test_clean_accuracy_mostly_preserved(self, smoothed, victim, atk_corpus):
        docs = atk_corpus.documents("test")
        labels = atk_corpus.labels("test")
        base = victim.accuracy(docs, labels)
        smooth = smoothed.accuracy(docs, labels)
        assert smooth >= base - 0.1

    def test_accuracy_empty_raises(self, smoothed):
        with pytest.raises(ValueError):
            smoothed.accuracy([], np.array([]))


class TestSmoothingAsDefense:
    def test_reduces_attack_success(self, victim, smoothed, word_paraphraser, attackable_docs):
        base_attack = ObjectiveGreedyWordAttack(victim, word_paraphraser, 0.2)
        smooth_attack = ObjectiveGreedyWordAttack(smoothed, word_paraphraser, 0.2)
        base_wins = sum(base_attack.attack(d, t).success for d, t in attackable_docs)
        smooth_wins = sum(smooth_attack.attack(d, t).success for d, t in attackable_docs)
        # smoothing should not make the attack strictly easier
        assert smooth_wins <= base_wins + 1


class _RecordingModel:
    """Stands in for the victim and records the ensemble it is asked to score."""

    vocab = None
    max_len = 0
    embedding = None

    def __init__(self):
        self.seen = []

    def predict_proba(self, docs, batch_size=128):
        self.seen.append([" ".join(d) for d in docs])
        return np.tile([0.5, 0.5], (len(docs), 1))


PIN_DOCS = [
    "the food was great and the service was friendly but slow".split(),
    "we visited the place for dinner , the pizza was bland and overpriced".split(),
]

# Frozen ensembles (n_samples=4, substitution_prob=0.4) for PIN_DOCS.  A
# refactor of the sampler must keep the RNG draws in this order: one
# ``rng.random()`` per synonym-bearing slot, then one ``rng.integers`` when
# that slot is substituted.
PINNED_ENSEMBLES = {
    0: [
        "the food was great and the service was friendly but slow",
        "the dish was marvelous and the service was friendly but unhurried",
        "the cuisine was great and the service was courteous but slow",
        "the food was superb and the service was friendly but slow",
        "we visited the place for dinner , the pizza was bland and overpriced",
        "we visited the place for dinner , the pasta was bland and costly",
        "we visited the venue for dinner , the pizza was bland and overpriced",
        "we stopped the place for dinner , the burger was unseasoned and costly",
    ],
    3: [
        "the food was great and the service was friendly but slow",
        "the food was great and the service was welcoming but slow",
        "the food was superb and the staff was welcoming but slow",
        "the food was great and the waiters was friendly but dawdling",
        "we visited the place for dinner , the pizza was bland and overpriced",
        "we stopped the place for dinner , the pizza was flavorless and costly",
        "we stopped the place for dinner , the pizza was flavorless and overpriced",
        "we visited the place for lunch , the pizza was tasteless and overpriced",
    ],
}


@pytest.mark.parametrize("seed", sorted(PINNED_ENSEMBLES))
def test_ensemble_rng_stream_pinned(seed):
    model = _RecordingModel()
    SmoothedClassifier(
        model, sentiment_lexicon(), n_samples=4, substitution_prob=0.4, seed=seed
    ).predict_proba(PIN_DOCS)
    assert model.seen == [PINNED_ENSEMBLES[seed]]
