"""Search strategies — the "how to search" axis of Problem 1.

Each strategy maximizes the attack objective ``C_y`` over transformations
drawn from a :class:`~repro.attacks.proposals.Proposal`, under the
proposal's ``m``-constraint and the engine's τ / query-budget termination.
Strategies are model-agnostic: every forward goes through the engine's
scoring choke point (:meth:`~repro.attacks.engine.AttackEngine.score_batch`)
and every gradient through :meth:`~repro.attacks.engine.AttackEngine.gradient`,
so caching, query accounting, spans and trace events are uniform across
all source × strategy combinations.

The greedy variants delegate stale-bound bookkeeping to
:class:`repro.submodular.greedy.LazyMarginalHeap` — the same CELF/Minoux
machinery the set-function layer uses — instead of duplicating it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.attacks.base import reseed_object
from repro.submodular.greedy import LazyMarginalHeap
from repro.submodular.modular import modular_relaxation_word2vec
from repro.text.transformations import apply_word_substitutions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.attacks.engine import AttackEngine
    from repro.attacks.proposals import CandidateSource

__all__ = [
    "SearchStrategy",
    "GreedySearch",
    "LazyGreedySearch",
    "BeamSearch",
    "RandomSearch",
    "ParticleSwarmSearch",
    "HeuristicRankSearch",
    "FirstOrderSearch",
    "GaussSouthwellSearch",
    "StagedSearch",
]


def _validate_tau(tau: float) -> float:
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must be in (0, 1]")
    return tau


class SearchStrategy:
    """Maximizes ``C_y`` over one proposal's transformation space.

    ``run`` returns ``(adversarial tokens, stage tags)`` — exactly what
    :meth:`Attack._run` contracts to produce.  Strategies are picklable
    (plain attributes only) and carry the ``_reseed_recurse`` marker so
    per-document reseeding reaches any RNG streams they own.
    """

    kind = "search"
    _reseed_recurse = True

    def run(
        self,
        engine: "AttackEngine",
        source: "CandidateSource",
        doc: list[str],
        target_label: int,
    ) -> tuple[list[str], list[str]]:
        raise NotImplementedError

    def reseed(self, seed: int) -> None:
        reseed_object(self, seed)


class GreedySearch(SearchStrategy):
    """Exhaustive greedy: full rescan of admissible moves every round.

    One unit per iteration — apply the single move that most increases
    ``C_y``, repeat until τ, budget exhaustion, or no improving move.
    Greedy maximization of the attack set function with the inner maximum
    restricted to extending the incumbent (Alg. 2 for sentences; the
    Kuleshov [19] baseline for words).
    """

    kind = "greedy"

    def __init__(self, tau: float = 0.7) -> None:
        self.tau = _validate_tau(tau)

    def run(self, engine, source, doc, target_label):
        proposal = engine.index(source, doc, target_label)
        state = proposal.initial_state()
        score = engine.score(proposal.tokens(state), target_label)
        support: set[int] = set()
        stages: list[str] = []
        while (
            score < self.tau
            and len(support) < proposal.budget
            and not engine.out_of_queries()
        ):
            moves = proposal.admissible_moves(state, support)
            if not moves:
                break
            states = [proposal.apply(state, j, move) for j, move in moves]
            candidates = [proposal.tokens(s) for s in states]
            with engine.span("greedy-select"):
                scores = engine.score_batch(candidates, target_label)
                if not scores:  # budget truncated the whole batch
                    break
                best = max(range(len(scores)), key=scores.__getitem__)
            if scores[best] <= score + 1e-12:
                break
            j = moves[best][0]
            engine.trace_iteration(
                stage=proposal.stage,
                iteration=len(stages),
                positions=[j],
                n_candidates=len(candidates),
                best_objective=scores[best],
                marginal_gain=scores[best] - score,
                rescans=0,
            )
            state = states[best]
            score = scores[best]
            proposal.update_support(support, state, j)
            stages.append(proposal.stage)
        return proposal.tokens(state), stages


class LazyGreedySearch(SearchStrategy):
    """CELF/Minoux lazy greedy via :class:`LazyMarginalHeap`.

    The first round scores every admissible move in one batch (identical
    to :class:`GreedySearch`); later rounds re-evaluate only moves whose
    stale upper bound reaches the top of the heap.  Exact when the attack
    objective is submodular (the regime of Thms. 1-2, which
    ``submodular.empirical`` verifies on these victims); in general a fast
    approximation of the full rescan with the same budget/τ semantics.
    Stale bounds are only upper bounds under submodularity, so an
    apparently exhausted heap is confirmed with one batched rescan before
    terminating.
    """

    kind = "lazy-greedy"

    def __init__(self, tau: float = 0.7) -> None:
        self.tau = _validate_tau(tau)

    def run(self, engine, source, doc, target_label):
        proposal = engine.index(source, doc, target_label)
        state = proposal.initial_state()
        score = engine.score(proposal.tokens(state), target_label)
        support: set[int] = set()
        stages: list[str] = []
        if proposal.budget == 0 or score >= self.tau:
            return proposal.tokens(state), stages
        # moves are indexed, not hashed by content (sentence moves are lists)
        moves = [(j, move) for j in proposal.positions() for move in proposal.moves_at(j)]

        def rebuild_heap() -> LazyMarginalHeap | None:
            """Exact gains for every admissible move, in one batched scan."""
            admissible = [
                i
                for i, (j, move) in enumerate(moves)
                if not (proposal.consumes_positions and j in support)
                and move != proposal.unit(state, j)
            ]
            if not admissible:
                return None
            scores = engine.score_batch(
                [
                    proposal.tokens(proposal.apply(state, moves[i][0], moves[i][1]))
                    for i in admissible
                ],
                target_label,
            )
            heap = LazyMarginalHeap()
            heap.push_all((i, s - score) for i, s in zip(admissible, scores))
            return heap

        # round 1 = scan: seed the heap with exact gains from one batch
        heap = rebuild_heap()
        fresh_heap = True
        while (
            heap is not None
            and score < self.tau
            and len(support) < proposal.budget
            and not engine.out_of_queries()
        ):
            rescans = 0

            def fresh_gain(idx: int) -> float | None:
                nonlocal rescans
                rescans += 1
                j, move = moves[idx]
                if (proposal.consumes_positions and j in support) or move == proposal.unit(
                    state, j
                ):
                    return None  # position consumed / move already applied
                candidate = proposal.tokens(proposal.apply(state, j, move))
                fresh = engine.score_batch([candidate], target_label)
                if not fresh:  # budget exhausted mid-select
                    return None
                return fresh[0] - score

            with engine.span("greedy-select"):
                n_candidates = len(heap)
                picked = heap.select(fresh_gain, tolerance=1e-12)
            if picked is None:
                # stale bounds are exact only under submodularity: confirm
                # exhaustion with one batched rescan before terminating
                if fresh_heap:
                    break
                heap = rebuild_heap()
                fresh_heap = True
                continue
            idx, gain = picked
            j, move = moves[idx]
            state = proposal.apply(state, j, move)
            score += gain
            engine.trace_iteration(
                stage=proposal.stage,
                iteration=len(stages),
                positions=[j],
                n_candidates=n_candidates,
                best_objective=score,
                marginal_gain=gain,
                rescans=rescans,
            )
            proposal.update_support(support, state, j)
            stages.append(proposal.stage)
            fresh_heap = False
        return proposal.tokens(state), stages


class BeamSearch(SearchStrategy):
    """Width-B beam over substitution sets.

    Greedy keeps a single incumbent; beam search keeps the ``beam_width``
    best partial substitution sets and expands each with every
    single-position move per round.  ``beam_width = 1`` reduces to greedy;
    wider beams trade model queries for a better-explored search space.
    """

    kind = "beam"

    def __init__(self, tau: float = 0.7, beam_width: int = 3) -> None:
        self.tau = _validate_tau(tau)
        if beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        self.beam_width = beam_width

    def run(self, engine, source, doc, target_label):
        proposal = engine.index(source, doc, target_label)
        origin = proposal.initial_state()
        base_score = engine.score(proposal.tokens(origin), target_label)
        # beam entries: (score, substitutions dict)
        beam: list[tuple[float, dict]] = [(base_score, {})]
        best_score, best_subs = base_score, {}
        for round_index in range(proposal.budget):
            if best_score >= self.tau or engine.out_of_queries():
                break
            candidates: list[dict] = []
            seen: set[tuple] = set()
            for _, subs in beam:
                for j in proposal.positions():
                    if j in subs:
                        continue
                    for move in proposal.moves_at(j):
                        if move == proposal.unit(origin, j):
                            continue
                        extended = {**subs, j: move}
                        key = tuple(
                            sorted((p, proposal.move_key(m)) for p, m in extended.items())
                        )
                        if key not in seen:
                            seen.add(key)
                            candidates.append(extended)
            if not candidates:
                break
            docs = [proposal.tokens(proposal.apply_many(origin, subs)) for subs in candidates]
            with engine.span("greedy-select"):
                scores = engine.score_batch(docs, target_label)
                if not scores:  # budget truncated the whole batch
                    break
                ranked = sorted(zip(scores, candidates), key=lambda sc: -sc[0])
            beam = [(s, c) for s, c in ranked[: self.beam_width]]
            if beam[0][0] <= best_score + 1e-12:
                break
            previous_best = best_score
            best_score, best_subs = beam[0]
            engine.trace_iteration(
                stage=proposal.stage,
                iteration=round_index,
                positions=sorted(best_subs),
                n_candidates=len(candidates),
                best_objective=best_score,
                marginal_gain=best_score - previous_best,
                rescans=0,
            )
        adversarial = proposal.apply_many(origin, best_subs)
        return proposal.tokens(adversarial), [proposal.stage] * len(best_subs)


class RandomSearch(SearchStrategy):
    """Uniformly random moves within the budget — the ablation baseline.

    Its gap to the guided strategies quantifies how much the search
    matters.  Requires scalar (string) moves, i.e. word-level sources.

    Each ``run`` draws from a fresh child stream derived from
    ``(seed, call counter)``, so repeated runs on one instance
    (multi-restart loops, staged pipelines) explore different moves
    instead of replaying identical draws.  The first call after a
    ``reseed`` uses the bare ``seed`` stream, which keeps the
    per-document reseeding contract — and the frozen goldens, which are
    recorded one document per reseed — bitwise-intact.
    """

    kind = "random"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._call_count = 0

    def reseed(self, seed: int) -> None:
        reseed_object(self, seed)
        self._call_count = 0

    def run(self, engine, source, doc, target_label):
        proposal = engine.index(source, doc, target_label)
        state = proposal.initial_state()
        if self._call_count == 0:
            rng = np.random.default_rng(self.seed)
        else:
            rng = np.random.default_rng((self.seed, self._call_count))
        self._call_count += 1
        positions = proposal.positions()
        if not positions or proposal.budget == 0:
            return proposal.tokens(state), []
        chosen = rng.choice(
            positions, size=min(proposal.budget, len(positions)), replace=False
        )
        substitutions = {int(i): str(rng.choice(proposal.moves_at(int(i)))) for i in chosen}
        stages = [proposal.stage] * len(substitutions)
        return proposal.tokens(proposal.apply_many(state, substitutions)), stages


class ParticleSwarmSearch(SearchStrategy):
    """Discrete particle-swarm population search (Zang et al., arXiv:1910.12196).

    A swarm of ``n_particles`` candidate substitution sets evolves for
    ``iterations`` rounds: each round scores every particle in one batch
    through the engine, updates personal bests (``pbest``) and the global
    best (``gbest``), then moves each particle position-wise — keep its own
    move with probability ``inertia``, adopt the ``pbest`` move with
    probability ``cognitive``, else adopt the ``gbest`` move — with a
    ``mutation_rate`` chance of one fresh random substitution.  Particles
    never exceed the proposal's ``m``-constraint (oversized particles are
    randomly pruned back to the budget).

    Population search trades many queries per round for global exploration
    that single-incumbent greedy cannot do — the frontier benchmark
    measures exactly that trade.  Requires scalar (string) moves, i.e.
    word-level sources.  Like :class:`RandomSearch`, each ``run`` draws
    from a ``(seed, call counter)`` child stream with the counter reset on
    ``reseed``, so per-document reseeding keeps 1-vs-N-worker runs
    bitwise identical.
    """

    kind = "pso"

    def __init__(
        self,
        tau: float = 0.7,
        n_particles: int = 8,
        iterations: int = 10,
        inertia: float = 0.5,
        cognitive: float = 0.3,
        mutation_rate: float = 0.2,
        seed: int = 0,
    ) -> None:
        self.tau = _validate_tau(tau)
        if n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 <= inertia <= 1.0 or not 0.0 <= cognitive <= 1.0:
            raise ValueError("inertia and cognitive must be in [0, 1]")
        if inertia + cognitive > 1.0:
            raise ValueError("inertia + cognitive must be <= 1 (rest is social)")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        self.n_particles = n_particles
        self.iterations = iterations
        self.inertia = inertia
        self.cognitive = cognitive
        self.mutation_rate = mutation_rate
        self.seed = seed
        self._call_count = 0

    def reseed(self, seed: int) -> None:
        reseed_object(self, seed)
        self._call_count = 0

    def run(self, engine, source, doc, target_label):
        proposal = engine.index(source, doc, target_label)
        state = proposal.initial_state()
        positions = [j for j in proposal.positions() if proposal.moves_at(j)]
        budget = proposal.budget
        if self._call_count == 0:
            rng = np.random.default_rng(self.seed)
        else:
            rng = np.random.default_rng((self.seed, self._call_count))
        self._call_count += 1
        if not positions or budget == 0:
            return proposal.tokens(state), []
        base_tokens = proposal.tokens(state)
        base_score = engine.score(base_tokens, target_label)
        best_tokens, best_score, gbest = base_tokens, base_score, {}
        if base_score >= self.tau:
            return best_tokens, []

        def random_particle() -> dict[int, str]:
            k = int(rng.integers(1, min(budget, len(positions)) + 1))
            chosen = rng.choice(positions, size=k, replace=False)
            return {int(j): str(rng.choice(proposal.moves_at(int(j)))) for j in chosen}

        particles = [random_particle() for _ in range(self.n_particles)]
        pbest = [dict(p) for p in particles]
        pbest_scores = [-np.inf] * self.n_particles
        for iteration in range(self.iterations):
            if engine.out_of_queries():
                break
            docs = [proposal.tokens(proposal.apply_many(state, p)) for p in particles]
            with engine.span("greedy-select"):
                scores = engine.score_batch(docs, target_label)
            if not scores:  # budget truncated the whole batch
                break
            previous_best = best_score
            for i, s in enumerate(scores):  # may be a budget-truncated prefix
                if s > pbest_scores[i]:
                    pbest_scores[i] = s
                    pbest[i] = dict(particles[i])
                if s > best_score:
                    best_score, gbest, best_tokens = s, dict(particles[i]), docs[i]
            engine.trace_iteration(
                stage=proposal.stage,
                iteration=iteration,
                positions=sorted(gbest),
                n_candidates=len(docs),
                best_objective=best_score,
                marginal_gain=best_score - previous_best,
                rescans=0,
            )
            if best_score >= self.tau:
                break
            moved: list[dict[int, str]] = []
            for i, particle in enumerate(particles):
                child: dict[int, str] = {}
                for j in sorted(set(particle) | set(pbest[i]) | set(gbest)):
                    r = rng.random()
                    if r < self.inertia:
                        if j in particle:
                            child[j] = particle[j]
                    elif r < self.inertia + self.cognitive:
                        if j in pbest[i]:
                            child[j] = pbest[i][j]
                    elif j in gbest:
                        child[j] = gbest[j]
                if rng.random() < self.mutation_rate:
                    j = int(rng.choice(positions))
                    child[j] = str(rng.choice(proposal.moves_at(j)))
                if len(child) > budget:
                    keep = rng.choice(sorted(child), size=budget, replace=False)
                    child = {int(j): child[int(j)] for j in keep}
                moved.append(child if child else random_particle())
            particles = moved
        return best_tokens, [proposal.stage] * len(gbest)


class HeuristicRankSearch(SearchStrategy):
    """Saliency-rank-then-replace, no search — the Berger et al. yardstick
    (arXiv:2109.07926).

    Two fixed passes, deliberately simple: (1) mask every attackable
    position with ``mask_token`` and score the masked documents in one
    batch — the objective gain under masking is the position's saliency;
    (2) walk positions once in descending saliency and substitute, never
    revisiting a position or re-ranking.  ``candidate_rule`` picks how a
    replacement is chosen at each position: ``"best"`` scores all
    candidates in one batch and keeps the best improving one; ``"first"``
    scores candidates one by one and keeps the first that improves (fewer
    queries, weaker).  The gap between this baseline and the search
    strategies is the benchmark's measure of how much search matters.
    Requires scalar (string) moves, i.e. word-level sources.
    """

    kind = "heuristic-rank"

    def __init__(
        self,
        tau: float = 0.7,
        candidate_rule: str = "best",
        mask_token: str = "<unk>",
    ) -> None:
        self.tau = _validate_tau(tau)
        if candidate_rule not in ("best", "first"):
            raise ValueError("candidate_rule must be 'best' or 'first'")
        self.candidate_rule = candidate_rule
        self.mask_token = mask_token

    def run(self, engine, source, doc, target_label):
        proposal = engine.index(source, doc, target_label)
        state = proposal.initial_state()
        score = engine.score(proposal.tokens(state), target_label)
        positions = [j for j in proposal.positions() if proposal.moves_at(j)]
        stages: list[str] = []
        if not positions or proposal.budget == 0 or score >= self.tau:
            return proposal.tokens(state), stages
        # pass 1 — saliency: objective gain when each position is masked
        masked = [
            proposal.tokens(proposal.apply(state, j, self.mask_token)) for j in positions
        ]
        with engine.span("greedy-select"):
            saliency_scores = engine.score_batch(masked, target_label)
        saliency = {j: s - score for j, s in zip(positions, saliency_scores)}
        ranked = sorted(saliency, key=lambda j: (-saliency[j], j))
        # pass 2 — replace in rank order, one visit per position
        support: set[int] = set()
        for j in ranked:
            if (
                score >= self.tau
                or len(support) >= proposal.budget
                or engine.out_of_queries()
            ):
                break
            moves = [m for m in proposal.moves_at(j) if m != proposal.unit(state, j)]
            if not moves:
                continue
            picked = None
            if self.candidate_rule == "best":
                candidates = [proposal.apply(state, j, m) for m in moves]
                with engine.span("greedy-select"):
                    scores = engine.score_batch(
                        [proposal.tokens(c) for c in candidates], target_label
                    )
                if not scores:  # budget truncated the whole batch
                    break
                best = max(range(len(scores)), key=scores.__getitem__)
                if scores[best] > score + 1e-12:
                    picked = (candidates[best], scores[best], len(scores))
            else:  # first improving candidate
                for n_tried, move in enumerate(moves, start=1):
                    candidate = proposal.apply(state, j, move)
                    scores = engine.score_batch([proposal.tokens(candidate)], target_label)
                    if not scores:
                        break
                    if scores[0] > score + 1e-12:
                        picked = (candidate, scores[0], n_tried)
                        break
            if picked is None:
                continue
            state, new_score, n_candidates = picked
            engine.trace_iteration(
                stage=proposal.stage,
                iteration=len(stages),
                positions=[j],
                n_candidates=n_candidates,
                best_objective=new_score,
                marginal_gain=new_score - score,
                rescans=0,
            )
            score = new_score
            proposal.update_support(support, state, j)
            stages.append(proposal.stage)
        return proposal.tokens(state), stages


class FirstOrderSearch(SearchStrategy):
    """One-shot first-order relaxation — the Gong [18] gradient baseline.

    Solves Problem 2 / Proposition 2 in closed form: linearize ``C_y`` at
    the current embeddings, score every candidate by
    ``(V(x_i^{(t)}) − V(x_i)) · ĝ_i``, and apply the top-``budget``
    positive replacements in one shot.  Fast (one gradient per iteration,
    no candidate scoring) but weak: the linearization ignores that synonym
    embeddings are not infinitesimally close (paper Sec. 4.1, Table 3).
    Word-level only (gradients align with token positions).
    """

    kind = "first-order"

    def __init__(self, iterations: int = 1) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.iterations = iterations

    def run(self, engine, source, doc, target_label):
        proposal = engine.index(source, doc, target_label)
        model = engine.model

        def embedding_of(word: str) -> np.ndarray:
            return model.embedding.weight.data[model.vocab.id(word)]

        current = proposal.initial_state()
        changed: set[int] = set()
        stages: list[str] = []
        for _ in range(self.iterations):
            remaining = proposal.budget - len(changed)
            if remaining <= 0 or engine.out_of_queries():
                break
            # gradient is only defined over the model's window
            n = min(len(current), model.max_len)
            gradient = engine.gradient(current, target_label)
            original_vectors = np.stack([embedding_of(w) for w in current[:n]])
            candidate_vectors = [
                [embedding_of(c) for c in proposal.moves_at(i)] for i in range(n)
            ]
            relaxation = modular_relaxation_word2vec(
                original_vectors, candidate_vectors, gradient
            )
            # never re-count already-changed positions against the budget
            weights = relaxation.weights.copy()
            weights[[i for i in range(n) if i in changed]] = 0.0
            order = np.argsort(-weights)
            substitutions: dict[int, str] = {}
            for i in order[:remaining]:
                if weights[i] <= 0:
                    break
                substitutions[int(i)] = proposal.moves_at(int(i))[
                    relaxation.best_choice[i] - 1
                ]
            if not substitutions:
                break
            current = proposal.apply_many(current, substitutions)
            changed.update(substitutions)
            stages.extend([proposal.stage] * len(substitutions))
        return proposal.tokens(current), stages


class GaussSouthwellSearch(SearchStrategy):
    """Gradient-guided greedy — the paper's Algorithm 3.

    Each iteration asks the source (a
    :class:`~repro.attacks.proposals.GradientRankedSource`) for the ``N``
    highest first-order-score positions, builds the *joint* candidate set
    ``M`` over them (steps 7-15: starting from ``{x}``, extend every
    member with every candidate word, keeping partials), and moves to the
    best-scoring member.  The joint set captures interaction effects that
    one-word-at-a-time greedy misses, while the gradient preselection
    keeps the search space small (Table 3).

    Because ``|M| = Π (1 + |W_j|)`` grows exponentially in ``N``, the set
    is beam-limited to ``max_candidates`` members (candidate lists per
    position are capped at ``per_position_cap``).  When a batch of
    positions yields no improvement the search falls back to the next
    batch down the gradient ranking (``skip``) instead of giving up.
    """

    kind = "gauss-southwell"

    def __init__(
        self,
        tau: float = 0.7,
        words_per_iteration: int = 5,
        max_candidates: int = 128,
        per_position_cap: int = 2,
        max_iterations: int = 50,
    ) -> None:
        self.tau = _validate_tau(tau)
        if words_per_iteration < 1:
            raise ValueError("words_per_iteration must be >= 1")
        self.words_per_iteration = words_per_iteration
        self.max_candidates = max_candidates
        self.per_position_cap = per_position_cap
        self.max_iterations = max_iterations

    def run(self, engine, source, doc, target_label):
        proposal = engine.index(source, doc, target_label)
        current = proposal.initial_state()
        score = engine.score(proposal.tokens(current), target_label)
        changed: set[int] = set()
        stages: list[str] = []
        skip = 0
        for _ in range(self.max_iterations):
            if (
                score >= self.tau
                or len(changed) >= proposal.budget
                or engine.out_of_queries()
            ):
                break
            selected, candidate_order = source.rank_positions(
                engine,
                proposal,
                current,
                target_label,
                changed,
                proposal.budget,
                self.words_per_iteration,
                skip=skip,
            )
            if not selected:
                break
            # steps 7-15: joint candidate product over the selected positions
            frontier: list[dict[int, str]] = [{}]
            for j in selected:
                ordered = candidate_order.get(j, proposal.moves_at(j))
                extensions: list[dict[int, str]] = []
                for partial in frontier:
                    for word in ordered[: self.per_position_cap]:
                        if word == current[j]:
                            continue
                        extensions.append({**partial, j: word})
                        if len(frontier) + len(extensions) >= self.max_candidates:
                            break
                    if len(frontier) + len(extensions) >= self.max_candidates:
                        break
                frontier = frontier + extensions
            frontier = [f for f in frontier if f]
            if not frontier:
                break
            candidates = [proposal.apply_many(current, subs) for subs in frontier]
            with engine.span("greedy-select"):
                scores = engine.score_batch(
                    [proposal.tokens(c) for c in candidates], target_label
                )
                if not scores:  # budget truncated the whole batch
                    break
                best = max(range(len(scores)), key=scores.__getitem__)
            if scores[best] <= score + 1e-12:
                # This batch of positions cannot improve; fall back to the
                # next batch down the gradient ranking.
                skip += self.words_per_iteration
                continue
            skip = 0
            subs = self.prune(engine, frontier[best], current, scores[best], target_label)
            engine.trace_iteration(
                stage=proposal.stage,
                iteration=len(stages),
                positions=sorted(subs),
                n_candidates=len(candidates),
                best_objective=scores[best],
                marginal_gain=scores[best] - score,
                rescans=0,
            )
            current = proposal.apply_many(current, subs)
            score = scores[best]
            for pos in subs:
                if current[pos] != doc[pos]:
                    changed.add(pos)
                else:
                    changed.discard(pos)
            stages.extend([proposal.stage] * len(subs))
        return proposal.tokens(current), stages

    def prune(
        self,
        engine: "AttackEngine",
        substitutions: dict[int, str],
        current: list[str],
        best_score: float,
        target_label: int,
    ) -> dict[int, str]:
        """Backward pruning: drop substitutions that don't pay their way.

        The joint candidate search can include replacements contributing
        only epsilon to the combined score; each such replacement still
        consumes a unit of the distinct-word budget.  Removing each
        substitution in turn and keeping the removal whenever the score
        does not drop refunds that budget at a cost of |combo| extra
        queries.
        """
        if len(substitutions) <= 1:
            return substitutions
        kept = dict(substitutions)
        for pos in sorted(substitutions):
            if len(kept) == 1:
                break
            trial = {p: w for p, w in kept.items() if p != pos}
            trial_scores = engine.score_batch(
                [apply_word_substitutions(current, trial)], target_label
            )
            if not trial_scores:  # budget exhausted mid-prune
                break
            score = trial_scores[0]
            if score >= best_score - 1e-12:
                kept = trial
                best_score = score
        return kept


class StagedSearch(SearchStrategy):
    """Sequential composition of (source, strategy) stages — Algorithm 1.

    Runs each stage's search on the previous stage's output through the
    *same* engine, so all stages share one ScoreCache (scores paid in the
    sentence stage are hits when the word stage starts), one query
    counter, and one trace.  Between stages the incumbent is scored once
    and the pipeline stops early when τ is already reached — exactly
    Alg. 1's "if C_y ≥ τ return" between steps 5 and 6.
    """

    kind = "staged"

    def __init__(
        self,
        stages: list[tuple["CandidateSource", "SearchStrategy"]],
        tau: float = 0.7,
    ) -> None:
        if not stages:
            raise ValueError("StagedSearch needs at least one stage")
        self.stages = list(stages)
        self.tau = _validate_tau(tau)

    def reseed(self, seed: int) -> None:
        reseed_object(self, seed)
        for stage_source, stage_search in self.stages:
            stage_source.reseed(seed)
            stage_search.reseed(seed)

    def run(self, engine, source, doc, target_label):
        # `source` is unused: each stage carries its own source.  The
        # engine passes its configured source through for interface
        # uniformity (it is the first stage's source).
        current = list(doc)
        tags: list[str] = []
        for index, (stage_source, stage_search) in enumerate(self.stages):
            tokens, stage_tags = stage_search.run(engine, stage_source, current, target_label)
            current = tokens
            tags = tags + stage_tags
            if index < len(self.stages) - 1:
                if engine.score(current, target_label) >= self.tau:
                    return current, tags
        return current, tags
