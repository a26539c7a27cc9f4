"""Candidate sources — the "what can change" axis of Problem 1.

The paper's framework is compositional: pick a candidate set (synonym
paraphrases, sentence paraphrases, character flips, ...), then maximize
the attack objective over subsets of it with some search procedure.  This
module owns the first axis.  A :class:`CandidateSource` indexes one
document into a :class:`Proposal` — a uniform view of the per-position
moves (the ``W_i`` of Alg. 1 step 7 or the ``S_i`` of step 3) plus the
``m``-constraint budget — which any :mod:`repro.attacks.search` strategy
can then consume.  Word-level and sentence-level transformations differ
only in what a "unit" is and whether a replaced position is consumed
(words: yes, the budget counts distinct positions; sentences: no, a
sentence restored to its original refunds its budget), so every strategy
is written once against the :class:`Proposal` interface.

Sources never touch the victim model directly; anything that needs
forwards or gradients (e.g. :class:`GradientRankedSource`) goes through
the engine's accounting helpers so queries and traces stay correct.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.attacks.base import reseed_object
from repro.attacks.charflip import CharFlipCandidates
from repro.text.sentence import join_sentences
from repro.text.transformations import apply_word_substitutions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.attacks.engine import AttackEngine

__all__ = [
    "Proposal",
    "WordProposal",
    "GumbelWordProposal",
    "SentenceProposal",
    "CandidateSource",
    "WordParaphraseSource",
    "CharFlipSource",
    "SentenceParaphraseSource",
    "GradientRankedSource",
    "GumbelSource",
]


class Proposal:
    """One document, indexed: per-position candidate moves + budget.

    ``state`` objects are opaque to search strategies — they are created by
    :meth:`initial_state`, advanced with :meth:`apply`/:meth:`apply_many`,
    and rendered to scoreable tokens with :meth:`tokens`.  Strategies track
    the transformation support (the ``supp(l)`` charged against ``budget``)
    as a plain set of positions, updated through :meth:`update_support`.
    """

    #: stage tag recorded on AttackResult.stages / greedy_iteration events
    stage: str = "word"
    #: True when a changed position is consumed (word attacks: one
    #: paraphrase per position); False when a later move may restore the
    #: original unit and refund the budget (sentence attacks)
    consumes_positions: bool = True
    #: the m-constraint: max positions in the transformation support
    budget: int = 0

    def initial_state(self):
        raise NotImplementedError

    def positions(self) -> list[int]:
        """Attackable positions, in scan order."""
        raise NotImplementedError

    def moves_at(self, position: int) -> list:
        """Candidate moves for one position (Alg. 1's ``W_i`` / ``S_i``)."""
        raise NotImplementedError

    def unit(self, state, position: int):
        """The current unit (word / sentence) at ``position``."""
        raise NotImplementedError

    def apply(self, state, position: int, move):
        """A new state with ``move`` applied at ``position``."""
        raise NotImplementedError

    def apply_many(self, state, substitutions: dict):
        """A new state with ``{position: move}`` applied."""
        out = state
        for position in sorted(substitutions):
            out = self.apply(out, position, substitutions[position])
        return out

    def tokens(self, state) -> list[str]:
        """The state as a flat token list — the form the victim scores."""
        raise NotImplementedError

    def move_key(self, move):
        """Hashable identity of a move (for dedup in beam search)."""
        raise NotImplementedError

    def admissible_moves(self, state, support: set[int]) -> list[tuple[int, object]]:
        """All (position, move) pairs extending the incumbent, in scan order."""
        out: list[tuple[int, object]] = []
        for j in self.positions():
            if self.consumes_positions and j in support:
                continue
            for move in self.moves_at(j):
                if move != self.unit(state, j):
                    out.append((j, move))
        return out

    def update_support(self, support: set[int], state, position: int) -> None:
        """Account a just-applied move at ``position`` against the budget."""
        support.add(position)


class WordProposal(Proposal):
    """Word substitutions over :class:`~repro.text.transformations.WordNeighborSets`."""

    stage = "word"
    consumes_positions = True

    def __init__(self, doc: Sequence[str], neighbor_sets, budget: int) -> None:
        self.doc = list(doc)
        self.neighbor_sets = neighbor_sets
        self.budget = budget

    def initial_state(self) -> list[str]:
        return list(self.doc)

    def positions(self) -> list[int]:
        return self.neighbor_sets.attackable_positions

    def moves_at(self, position: int) -> list[str]:
        return self.neighbor_sets[position]

    def unit(self, state: list[str], position: int) -> str:
        return state[position]

    def apply(self, state: list[str], position: int, move: str) -> list[str]:
        return apply_word_substitutions(state, {position: move})

    def apply_many(self, state: list[str], substitutions: dict[int, str]) -> list[str]:
        return apply_word_substitutions(state, substitutions)

    def tokens(self, state: list[str]) -> list[str]:
        return state

    def move_key(self, move: str) -> str:
        return move


class GumbelWordProposal(WordProposal):
    """A :class:`WordProposal` restricted to a sampled position subset.

    Produced by :class:`GumbelSource`: the full neighbor sets are kept (so
    moves at a sampled position are unchanged) but :meth:`positions` only
    exposes the positions the fitted distribution sampled, shrinking every
    downstream search space.
    """

    def __init__(
        self,
        doc: Sequence[str],
        neighbor_sets,
        budget: int,
        sampled_positions: Sequence[int],
    ) -> None:
        super().__init__(doc, neighbor_sets, budget)
        self.sampled_positions = list(sampled_positions)

    def positions(self) -> list[int]:
        return self.sampled_positions


class SentenceProposal(Proposal):
    """Whole-sentence paraphrases; a state is a list of sentences.

    Positions are *not* consumed: re-paraphrasing a sentence back to its
    original refunds the budget, mirroring Alg. 2's ``λ_s · l`` constraint
    on *currently paraphrased* sentences.
    """

    stage = "sentence"
    consumes_positions = False

    def __init__(self, sentences: list[list[str]], neighbor_sets, budget: int) -> None:
        self.original = [list(s) for s in sentences]
        self.neighbor_sets = neighbor_sets
        self.budget = budget

    def initial_state(self) -> list[list[str]]:
        return [list(s) for s in self.original]

    def positions(self) -> list[int]:
        return self.neighbor_sets.attackable_sentences

    def moves_at(self, position: int) -> list[list[str]]:
        return self.neighbor_sets[position]

    def unit(self, state: list[list[str]], position: int) -> list[str]:
        return state[position]

    def apply(self, state: list[list[str]], position: int, move: list[str]) -> list[list[str]]:
        return state[:position] + [list(move)] + state[position + 1 :]

    def tokens(self, state: list[list[str]]) -> list[str]:
        return join_sentences(state)

    def move_key(self, move: list[str]) -> tuple[str, ...]:
        return tuple(move)

    def update_support(self, support: set[int], state, position: int) -> None:
        if state[position] == self.original[position]:
            support.discard(position)
        else:
            support.add(position)


class CandidateSource:
    """Builds a :class:`Proposal` for one document.

    ``kind`` names the transformation family in the registry / CLI.
    Sources are picklable (plain attributes only) so attack specs cross
    the fork pool, and carry the ``_reseed_recurse`` marker so the
    engine's introspective :meth:`~repro.attacks.base.Attack.reseed`
    resets any RNG streams they own.
    """

    kind = "source"
    _reseed_recurse = True

    def index(self, engine: "AttackEngine", doc: list[str]) -> Proposal:
        raise NotImplementedError

    def reseed(self, seed: int) -> None:
        reseed_object(self, seed)


class WordParaphraseSource(CandidateSource):
    """Synonym word paraphrases (Alg. 1 step 7) from a ``WordParaphraser``.

    Any object with ``neighbor_sets(tokens) -> WordNeighborSets`` works —
    the same duck typing the attack constructors always accepted.
    """

    kind = "word-paraphrase"

    def __init__(self, paraphraser, word_budget_ratio: float = 0.2) -> None:
        if not 0.0 <= word_budget_ratio <= 1.0:
            raise ValueError("word_budget_ratio must be in [0, 1]")
        self.paraphraser = paraphraser
        self.word_budget_ratio = word_budget_ratio

    def index(self, engine: "AttackEngine", doc: list[str]) -> WordProposal:
        with engine.span("candidate-gen"):
            neighbor_sets = self.paraphraser.neighbor_sets(doc)
        return WordProposal(doc, neighbor_sets, int(self.word_budget_ratio * len(doc)))


class CharFlipSource(WordParaphraseSource):
    """Character-edit candidates (paper Remark 2, HotFlip-style).

    A :class:`~repro.attacks.charflip.CharFlipCandidates` generator in
    source clothing; pass one to customize operations/caps.
    """

    kind = "char-flip"

    def __init__(self, generator=None, word_budget_ratio: float = 0.2) -> None:
        super().__init__(generator or CharFlipCandidates(), word_budget_ratio)


class SentenceParaphraseSource(CandidateSource):
    """Sentence paraphrases (Alg. 1 step 3) from a ``SentenceParaphraser``."""

    kind = "sentence-paraphrase"

    def __init__(self, paraphraser, sentence_budget_ratio: float = 0.2) -> None:
        if not 0.0 <= sentence_budget_ratio <= 1.0:
            raise ValueError("sentence_budget_ratio must be in [0, 1]")
        self.paraphraser = paraphraser
        self.sentence_budget_ratio = sentence_budget_ratio

    def index(self, engine: "AttackEngine", doc: list[str]) -> SentenceProposal:
        with engine.span("candidate-gen"):
            sentences, neighbor_sets = self.paraphraser.neighbor_sets(doc)
        budget = int(round(self.sentence_budget_ratio * len(sentences)))
        return SentenceProposal([list(s) for s in sentences], neighbor_sets, budget)


class GradientRankedSource(CandidateSource):
    """A word source whose positions are ranked by first-order scores.

    Wraps an inner word-level source and adds :meth:`rank_positions` — the
    Gauss–Southwell position selection of Alg. 3 step 4 — for strategies
    that preselect where to search (:class:`~repro.attacks.search.GaussSouthwellSearch`).

    Three selection rules (ablated in the benchmarks):

    - ``"modular"`` (default): the Proposition-2 weight
      ``w_i = max_t (V(x_i^{(t)}) − V(x_i)) · ∇_i`` — the first-order
      estimate of the gain *realizable by the actual candidates*;
    - ``"gs_norm"``: the raw Gauss–Southwell score ``‖∇_i C_y‖₂`` as
      written in Alg. 3 step 4, which measures sensitivity in *any*
      direction, including ones no candidate realizes;
    - ``"random"``: uniformly random positions (the no-gradient control
      from the Gauss–Southwell literature).
    """

    kind = "gradient-ranked"

    def __init__(self, inner: WordParaphraseSource, selection: str = "modular") -> None:
        if selection not in ("modular", "gs_norm", "random"):
            raise ValueError("selection must be 'modular', 'gs_norm' or 'random'")
        self.inner = inner
        self.selection = selection
        self._selection_rng = np.random.default_rng(0)

    def index(self, engine: "AttackEngine", doc: list[str]) -> WordProposal:
        return self.inner.index(engine, doc)

    def rank_positions(
        self,
        engine: "AttackEngine",
        proposal: WordProposal,
        current: list[str],
        target_label: int,
        changed: set[int],
        remaining_budget: int,
        words_per_iteration: int,
        skip: int = 0,
    ) -> tuple[list[int], dict[int, list[str]]]:
        """N attackable positions by first-order score, after ``skip``.

        ``skip`` implements the fallback: when the top-N batch produced no
        improvement, the caller retries with the next batch down the
        gradient ranking instead of giving up (positions the greedy scan
        would eventually reach anyway).  Returns the selected positions
        plus, for ``"modular"``, per-position candidate lists ranked by
        estimated gain (keeps the joint product small without losing the
        best moves).
        """
        model = engine.model
        n = min(len(current), model.max_len)
        candidate_order: dict[int, list[str]] = {}
        if self.selection == "random":
            scores = self._selection_rng.random(n)
        else:
            gradient = engine.gradient(current, target_label)
            if self.selection == "gs_norm":
                scores = np.linalg.norm(gradient, axis=1)
            else:  # modular
                emb = model.embedding.weight.data
                vocab = model.vocab
                scores = np.zeros(n)
                for i in range(n):
                    orig = emb[vocab.id(current[i])]
                    gains = [
                        (float((emb[vocab.id(cand)] - orig) @ gradient[i]), cand)
                        for cand in proposal.moves_at(i)
                    ]
                    if gains:
                        gains.sort(key=lambda gc: -gc[0])
                        scores[i] = max(0.0, gains[0][0])
                        candidate_order[i] = [c for _, c in gains]
        attackable = [i for i in proposal.positions() if i < len(scores)]
        # Unchanged positions consume budget; already-changed positions may
        # be re-paraphrased for free. Prefer high-gradient positions either way.
        ranked = sorted(attackable, key=lambda i: -scores[i])[skip:]
        selected: list[int] = []
        budget_left = remaining_budget - len(changed)
        for i in ranked:
            if len(selected) >= words_per_iteration:
                break
            if i in changed:
                selected.append(i)
            elif budget_left > 0:
                selected.append(i)
                budget_left -= 1
        return selected, candidate_order


class GumbelSource(CandidateSource):
    """Learned parameterized position sampler — the Gumbel attack source
    (Yang, Chen et al., arXiv:1805.12316).

    Instead of searching every attackable position, fit a sampling
    distribution over positions from a handful of *probe* forwards, then
    draw a subset via the Gumbel-top-k trick and hand downstream search a
    :class:`GumbelWordProposal` restricted to it:

    1. **Probe** — perturb ``n_probes`` randomly chosen positions (one
       random candidate each) and score them in one batch through the
       engine, so the forwards are counted, cached and traced like any
       other query.
    2. **Fit** — per-position logits are the observed objective gains over
       the unperturbed score, divided by ``temperature``; unprobed
       positions get the mean probed gain as a neutral prior.
    3. **Sample** — add i.i.d. Gumbel noise to the logits and keep the
       top ``ceil(keep_ratio · n_attackable)`` positions (Gumbel-top-k is
       exactly sampling-without-replacement from the softmax).

    ``needs_target`` routes the target label through
    :meth:`AttackEngine.index`; the probe RNG is a ``Generator`` attribute,
    so per-document reseeding gives bitwise 1-vs-N-worker parity.
    """

    kind = "gumbel-word"
    needs_target = True

    def __init__(
        self,
        paraphraser,
        word_budget_ratio: float = 0.2,
        n_probes: int = 8,
        temperature: float = 0.1,
        keep_ratio: float = 0.5,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= word_budget_ratio <= 1.0:
            raise ValueError("word_budget_ratio must be in [0, 1]")
        if n_probes < 0:
            raise ValueError("n_probes must be >= 0")
        if temperature <= 0.0:
            raise ValueError("temperature must be > 0")
        if not 0.0 < keep_ratio <= 1.0:
            raise ValueError("keep_ratio must be in (0, 1]")
        self.paraphraser = paraphraser
        self.word_budget_ratio = word_budget_ratio
        self.n_probes = n_probes
        self.temperature = temperature
        self.keep_ratio = keep_ratio
        self._rng = np.random.default_rng(seed)

    def index(
        self,
        engine: "AttackEngine",
        doc: list[str],
        target_label: int | None = None,
    ) -> GumbelWordProposal:
        with engine.span("candidate-gen"):
            neighbor_sets = self.paraphraser.neighbor_sets(doc)
        budget = int(self.word_budget_ratio * len(doc))
        proposal = WordProposal(doc, neighbor_sets, budget)
        positions = [j for j in proposal.positions() if proposal.moves_at(j)]
        keep = max(1, int(np.ceil(self.keep_ratio * len(positions)))) if positions else 0
        if target_label is None or self.n_probes == 0 or len(positions) <= keep:
            return GumbelWordProposal(doc, neighbor_sets, budget, positions)
        # probe: one random candidate at each of n_probes random positions
        probe_order = self._rng.permutation(len(positions))[: self.n_probes]
        probe_positions = [positions[int(i)] for i in probe_order]
        probes = [
            proposal.apply(list(doc), j, str(self._rng.choice(proposal.moves_at(j))))
            for j in probe_positions
        ]
        base = engine.score(list(doc), target_label)
        probe_scores = engine.score_batch(probes, target_label)
        gains = {j: s - base for j, s in zip(probe_positions, probe_scores)}
        prior = float(np.mean(list(gains.values()))) if gains else 0.0
        logits = (
            np.array([gains.get(j, prior) for j in positions]) / self.temperature
        )
        noisy = logits + self._rng.gumbel(size=len(positions))
        order = np.argsort(-noisy, kind="stable")
        sampled = sorted(positions[int(i)] for i in order[:keep])
        return GumbelWordProposal(doc, neighbor_sets, budget, sampled)
