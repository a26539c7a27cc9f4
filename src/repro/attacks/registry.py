"""Declarative attack registry: name → (source × strategy) spec.

Problem 1 is a two-axis space — what can change × how to search — and
every attack in the repo is one point in it.  This table makes that
explicit: :data:`ATTACKS` maps stable names to :class:`AttackSpec`\\ s, and
:func:`build_attack` instantiates one against a victim model.  The
experiment drivers (:mod:`repro.experiments.common`), the parallel corpus
runner and the ``list-attacks`` CLI verb all resolve attacks by these
names, and novel combinations (char-flip × beam, sentence × lazy, ...)
are one ``AttackEngine(model, source, strategy)`` away — see
``docs/architecture.md`` for a worked example.

Specs and builders are plain module-level objects, so they pickle across
the fork pool.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.attacks.base import Attack
from repro.attacks.beam import BeamSearchWordAttack
from repro.attacks.charflip import CharFlipCandidates
from repro.attacks.engine import AttackEngine
from repro.attacks.gradient_guided import GradientGuidedGreedyAttack
from repro.attacks.gradient_word import GradientWordAttack
from repro.attacks.greedy_word import ObjectiveGreedyWordAttack
from repro.attacks.joint import JointParaphraseAttack
from repro.attacks.proposals import GumbelSource, WordParaphraseSource
from repro.attacks.random_attack import RandomWordAttack
from repro.attacks.search import GreedySearch, HeuristicRankSearch, ParticleSwarmSearch
from repro.attacks.sentence import GreedySentenceAttack

__all__ = ["AttackSpec", "ATTACKS", "build_attack"]


@dataclass(frozen=True)
class AttackSpec:
    """One named point in the source × strategy space.

    ``needs`` declares which paraphrasers the builder consumes
    (``"word"`` / ``"sentence"``); ``params`` the constructor keywords it
    forwards.  Callers like :meth:`ExperimentContext.make_attack` use both
    to assemble arguments declaratively instead of per-attack branches.
    """

    name: str
    source: str  # candidate-source axis, e.g. "word-paraphrase"
    strategy: str  # search-strategy axis, e.g. "greedy scan"
    paper: str  # paper reference, e.g. "Alg. 3"
    summary: str
    builder: Callable[..., Attack]
    needs: tuple[str, ...] = ("word",)
    params: tuple[str, ...] = field(default_factory=tuple)


# -- builders (module-level for picklability) -------------------------------

def _build_greedy_word(model, word_paraphraser=None, **kwargs):
    return ObjectiveGreedyWordAttack(model, word_paraphraser, **kwargs)


def _build_lazy_greedy_word(model, word_paraphraser=None, **kwargs):
    return ObjectiveGreedyWordAttack(model, word_paraphraser, strategy="lazy", **kwargs)


def _build_greedy_sentence(model, sentence_paraphraser=None, **kwargs):
    return GreedySentenceAttack(model, sentence_paraphraser, **kwargs)


def _build_gradient_guided(model, word_paraphraser=None, **kwargs):
    return GradientGuidedGreedyAttack(model, word_paraphraser, **kwargs)


def _build_gradient_word(model, word_paraphraser=None, **kwargs):
    return GradientWordAttack(model, word_paraphraser, **kwargs)


def _build_random_word(model, word_paraphraser=None, **kwargs):
    return RandomWordAttack(model, word_paraphraser, **kwargs)


def _build_beam_word(model, word_paraphraser=None, **kwargs):
    return BeamSearchWordAttack(model, word_paraphraser, **kwargs)


def _build_charflip_greedy(model, **kwargs):
    return ObjectiveGreedyWordAttack(model, CharFlipCandidates(), **kwargs)


def _build_joint(model, word_paraphraser=None, sentence_paraphraser=None, **kwargs):
    return JointParaphraseAttack(model, word_paraphraser, sentence_paraphraser, **kwargs)


def _build_joint_greedy(model, word_paraphraser=None, sentence_paraphraser=None, **kwargs):
    return JointParaphraseAttack(
        model,
        word_paraphraser,
        sentence_paraphraser,
        word_attack="objective-greedy",
        **kwargs,
    )


def _build_gumbel_word(
    model,
    word_paraphraser=None,
    *,
    word_budget_ratio=0.2,
    tau=0.7,
    n_probes=8,
    temperature=0.1,
    keep_ratio=0.5,
    seed=0,
    use_cache=True,
    cache_max_entries=None,
    max_queries=None,
):
    source = GumbelSource(
        word_paraphraser,
        word_budget_ratio=word_budget_ratio,
        n_probes=n_probes,
        temperature=temperature,
        keep_ratio=keep_ratio,
        seed=seed,
    )
    return AttackEngine(
        model,
        source,
        GreedySearch(tau),
        name="gumbel-word",
        use_cache=use_cache,
        cache_max_entries=cache_max_entries,
        max_queries=max_queries,
    )


def _build_pso_word(
    model,
    word_paraphraser=None,
    *,
    word_budget_ratio=0.2,
    tau=0.7,
    n_particles=8,
    iterations=10,
    inertia=0.5,
    cognitive=0.3,
    mutation_rate=0.2,
    seed=0,
    use_cache=True,
    cache_max_entries=None,
    max_queries=None,
):
    search = ParticleSwarmSearch(
        tau=tau,
        n_particles=n_particles,
        iterations=iterations,
        inertia=inertia,
        cognitive=cognitive,
        mutation_rate=mutation_rate,
        seed=seed,
    )
    return AttackEngine(
        model,
        WordParaphraseSource(word_paraphraser, word_budget_ratio),
        search,
        name="pso-word",
        use_cache=use_cache,
        cache_max_entries=cache_max_entries,
        max_queries=max_queries,
    )


def _build_heuristic_saliency(
    model,
    word_paraphraser=None,
    *,
    word_budget_ratio=0.2,
    tau=0.7,
    candidate_rule="best",
    mask_token="<unk>",
    use_cache=True,
    cache_max_entries=None,
    max_queries=None,
):
    search = HeuristicRankSearch(
        tau=tau, candidate_rule=candidate_rule, mask_token=mask_token
    )
    return AttackEngine(
        model,
        WordParaphraseSource(word_paraphraser, word_budget_ratio),
        search,
        name="heuristic-saliency",
        use_cache=use_cache,
        cache_max_entries=cache_max_entries,
        max_queries=max_queries,
    )


_COMMON = ("word_budget_ratio", "tau", "use_cache", "cache_max_entries")

ATTACKS: dict[str, AttackSpec] = {
    "greedy_word": AttackSpec(
        name="greedy_word",
        source="word-paraphrase",
        strategy="greedy scan",
        paper="Kuleshov [19] baseline",
        summary="one best word substitution per round, full rescan",
        builder=_build_greedy_word,
        needs=("word",),
        params=_COMMON + ("strategy",),
    ),
    "lazy_greedy_word": AttackSpec(
        name="lazy_greedy_word",
        source="word-paraphrase",
        strategy="CELF lazy greedy",
        paper="Kuleshov [19] + Minoux/CELF",
        summary="greedy via stale-bound heap; identical picks under submodularity",
        builder=_build_lazy_greedy_word,
        needs=("word",),
        params=_COMMON,
    ),
    "greedy_sentence": AttackSpec(
        name="greedy_sentence",
        source="sentence-paraphrase",
        strategy="greedy scan",
        paper="Alg. 2",
        summary="greedy whole-sentence paraphrasing",
        builder=_build_greedy_sentence,
        needs=("sentence",),
        params=("sentence_budget_ratio", "tau", "strategy", "use_cache", "cache_max_entries"),
    ),
    "gradient_guided": AttackSpec(
        name="gradient_guided",
        source="gradient-ranked word-paraphrase",
        strategy="Gauss-Southwell joint greedy",
        paper="Alg. 3",
        summary="gradient position preselection + joint candidate product",
        builder=_build_gradient_guided,
        needs=("word",),
        params=_COMMON + ("words_per_iteration", "selection"),
    ),
    "gradient_word": AttackSpec(
        name="gradient_word",
        source="word-paraphrase",
        strategy="first-order one-shot",
        paper="Gong [18] baseline",
        summary="closed-form linearized substitution, no candidate scoring",
        builder=_build_gradient_word,
        needs=("word",),
        params=("word_budget_ratio", "iterations"),
    ),
    "random_word": AttackSpec(
        name="random_word",
        source="word-paraphrase",
        strategy="random",
        paper="random baseline",
        summary="uniformly random substitutions within the budget",
        builder=_build_random_word,
        needs=("word",),
        params=("word_budget_ratio", "seed"),
    ),
    "beam_word": AttackSpec(
        name="beam_word",
        source="word-paraphrase",
        strategy="beam",
        paper="search-effort upper reference",
        summary="width-B beam over substitution sets",
        builder=_build_beam_word,
        needs=("word",),
        params=_COMMON + ("beam_width",),
    ),
    "charflip_greedy": AttackSpec(
        name="charflip_greedy",
        source="char-flip",
        strategy="greedy scan",
        paper="Remark 2 (HotFlip-style)",
        summary="greedy over character-edit candidates",
        builder=_build_charflip_greedy,
        needs=(),
        params=("word_budget_ratio", "tau", "strategy", "use_cache", "cache_max_entries"),
    ),
    "joint": AttackSpec(
        name="joint",
        source="sentence-paraphrase → gradient-ranked word-paraphrase",
        strategy="staged: greedy then Gauss-Southwell",
        paper="Alg. 1 (headline, 'ours')",
        summary="sentence stage then Alg. 3 word stage, one shared cache",
        builder=_build_joint,
        needs=("word", "sentence"),
        params=(
            "word_budget_ratio",
            "sentence_budget_ratio",
            "tau",
            "words_per_iteration",
            "strategy",
            "use_cache",
            "cache_max_entries",
        ),
    ),
    "gumbel_word": AttackSpec(
        name="gumbel_word",
        source="gumbel word-paraphrase",
        strategy="greedy scan over sampled positions",
        paper="Yang & Chen et al., arXiv:1805.12316",
        summary="probe forwards fit a position distribution; Gumbel-top-k restricts the scan",
        builder=_build_gumbel_word,
        needs=("word",),
        params=_COMMON + ("n_probes", "temperature", "keep_ratio", "seed", "max_queries"),
    ),
    "pso_word": AttackSpec(
        name="pso_word",
        source="word-paraphrase",
        strategy="particle swarm",
        paper="Zang et al., arXiv:1910.12196",
        summary="population of substitution sets evolved by pbest/gbest crossover",
        builder=_build_pso_word,
        needs=("word",),
        params=_COMMON
        + ("n_particles", "iterations", "inertia", "cognitive", "mutation_rate", "seed", "max_queries"),
    ),
    "heuristic_saliency": AttackSpec(
        name="heuristic_saliency",
        source="word-paraphrase",
        strategy="saliency rank-then-replace",
        paper="Berger et al., arXiv:2109.07926",
        summary="mask-saliency ranking, one substitution pass, no search",
        builder=_build_heuristic_saliency,
        needs=("word",),
        params=_COMMON + ("candidate_rule", "max_queries"),
    ),
    "joint_greedy": AttackSpec(
        name="joint_greedy",
        source="sentence-paraphrase → word-paraphrase",
        strategy="staged: greedy then greedy",
        paper="Alg. 1 variant",
        summary="sentence stage then objective-greedy word stage",
        builder=_build_joint_greedy,
        needs=("word", "sentence"),
        params=(
            "word_budget_ratio",
            "sentence_budget_ratio",
            "tau",
            "strategy",
            "use_cache",
            "cache_max_entries",
        ),
    ),
}


def build_attack(
    name: str,
    model,
    *,
    word_paraphraser=None,
    sentence_paraphraser=None,
    **kwargs,
) -> Attack:
    """Instantiate a registry attack by name.

    Paraphrasers are forwarded only when the spec needs them; unknown
    names raise ``KeyError`` with the available choices, unknown keyword
    arguments raise ``TypeError`` (from the constructor) as usual.
    """
    try:
        spec = ATTACKS[name]
    except KeyError:
        raise KeyError(
            f"unknown attack {name!r}; choose from {sorted(ATTACKS)}"
        ) from None
    call_kwargs = dict(kwargs)
    if "word" in spec.needs:
        if word_paraphraser is None:
            raise ValueError(f"attack {name!r} needs word_paraphraser")
        call_kwargs["word_paraphraser"] = word_paraphraser
    if "sentence" in spec.needs:
        if sentence_paraphraser is None:
            raise ValueError(f"attack {name!r} needs sentence_paraphraser")
        call_kwargs["sentence_paraphraser"] = sentence_paraphraser
    return spec.builder(model, **call_kwargs)
