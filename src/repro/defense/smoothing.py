"""Randomized synonym-smoothing defense.

Adversarial training (Table 5) hardens the model's parameters; synonym
smoothing instead hardens *inference*: classify an ensemble of randomized
synonym-substituted copies of the input and take the majority vote.  Since
the attack's candidate transformations live inside the same synonym
clusters the smoother samples from, a successful attack must move the
*expected* prediction over the synonym neighborhood, not just a single
point — the discrete analog of randomized smoothing (and of SAFER-style
certified defenses for word substitutions).

This is an extension beyond the paper, benchmarked in
``benchmarks/test_extension_smoothing.py``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.lexicon import DomainLexicon
from repro.models.base import TextClassifier

__all__ = ["SmoothedClassifier"]

class SmoothedClassifier:
    """Majority-vote wrapper over randomized synonym substitutions.

    Exposes the :class:`~repro.models.base.TextClassifier` prediction
    surface (``predict_proba`` / ``predict`` / ``accuracy`` /
    ``target_probability``) so the attacks can target it directly, plus
    the ``vocab`` / ``max_len`` / ``embedding`` passthroughs they need.
    Gradient access deliberately raises: smoothing is a black-box defense,
    so only score-based attacks apply (use ``objective-greedy``).
    """

    def __init__(
        self,
        model: TextClassifier,
        lexicon: DomainLexicon,
        n_samples: int = 9,
        substitution_prob: float = 0.25,
        seed: int = 0,
    ) -> None:
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if not 0.0 <= substitution_prob <= 1.0:
            raise ValueError("substitution_prob must be in [0, 1]")
        self.model = model
        self.lexicon = lexicon
        self.n_samples = n_samples
        self.substitution_prob = substitution_prob
        self.seed = seed

    # -- passthroughs the attack interface relies on -------------------------
    @property
    def vocab(self):
        return self.model.vocab

    @property
    def max_len(self) -> int:
        return self.model.max_len

    @property
    def embedding(self):
        return self.model.embedding

    def embedding_gradient(self, doc, target_label):  # pragma: no cover - guard
        raise NotImplementedError(
            "smoothed inference is non-differentiable; use a score-based attack"
        )

    # -- smoothing ---------------------------------------------------------
    def _randomize(
        self,
        doc: list[str],
        slots: list[tuple[int, tuple[str, ...]]],
        rng: np.random.Generator,
    ) -> list[str]:
        # one rng.random() per synonym-bearing slot, in document order, then
        # one rng.integers() per substitution: the ensemble depends on it
        out = list(doc)
        for i, syns in slots:
            if rng.random() < self.substitution_prob:
                out[i] = str(syns[rng.integers(len(syns))])
        return out

    def _doc_rng(self, doc: Sequence[str]) -> np.random.Generator:
        # deterministic per document so repeated queries agree (otherwise
        # greedy attacks could average out the defense by re-querying)
        import zlib

        key = zlib.crc32(" ".join(doc).encode()) % 1_000_000
        return np.random.default_rng(self.seed + key)

    def predict_proba(self, docs: Sequence[Sequence[str]], batch_size: int = 128) -> np.ndarray:
        """Mean class probabilities over the randomized ensemble."""
        ensemble: list[list[str]] = []
        synonyms = self.lexicon.synonyms
        for doc in docs:
            doc = list(doc)
            rng = self._doc_rng(doc)
            slots = [(i, syns) for i, word in enumerate(doc) if (syns := synonyms(word))]
            ensemble.append(doc)  # always include the original
            ensemble.extend(
                self._randomize(doc, slots, rng) for _ in range(self.n_samples - 1)
            )
        probs = self.model.predict_proba(ensemble, batch_size=batch_size)
        return probs.reshape(len(docs), self.n_samples, -1).mean(axis=1)

    def predict(self, docs: Sequence[Sequence[str]], batch_size: int = 128) -> np.ndarray:
        return self.predict_proba(docs, batch_size).argmax(axis=1)

    def accuracy(self, docs, labels, batch_size: int = 128) -> float:
        if len(docs) == 0:
            raise ValueError("accuracy over an empty set is undefined")
        return float((self.predict(docs, batch_size) == np.asarray(labels)).mean())

    def target_probability(self, doc: Sequence[str], target_label: int) -> float:
        return float(self.predict_proba([list(doc)])[0, target_label])
