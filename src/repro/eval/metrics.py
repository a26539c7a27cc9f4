"""Attack evaluation metrics.

Two views used by the paper:

- *success rate* (Table 3, Fig. 4): fraction of correctly-classified test
  documents whose prediction the attack flips to the target label;
- *adversarial accuracy* (Tables 2, 5): the classifier's accuracy on the
  adversarially perturbed test set (documents it already misclassifies stay
  unperturbed and remain errors).

Every attacked document runs through the fault-tolerant
:class:`~repro.eval.parallel.ParallelAttackRunner` — the serial branch is
the runner's 1-worker path, so serial and pooled runs share the same
per-document reseeding and the documented 1-vs-N-worker determinism
guarantee holds for stochastic attacks too.  A document whose attack
raises (or repeatedly kills its worker) becomes a structured
:class:`~repro.attacks.base.AttackFailure` in
:attr:`AttackEvaluation.failures` instead of aborting the run; it is
conservatively scored as *not flipped* (it stays unperturbed and still
correct in adversarial accuracy) and excluded from the per-result means.

``journal_path`` makes a run durable: each completed document is appended
to a JSONL :class:`~repro.eval.journal.RunJournal` as it lands, and
re-running with the same journal resumes — already-journaled documents
are never attacked twice, and because the remaining documents keep their
original seed indices the final :class:`AttackEvaluation` is identical to
an uninterrupted run's.

``trace_dir`` turns on the observability layer for the run: per-document
attack traces (:mod:`repro.obs.trace`), a run-level
:class:`~repro.obs.registry.MetricsRegistry` of outcome counters and
latency histograms, a ``failures.jsonl`` of structured failure records,
and a ``metrics.json`` consumed by ``python -m repro.experiments report``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.attacks.base import Attack, AttackFailure, AttackResult
from repro.data.datasets import Example
from repro.eval.journal import RunJournal, corpus_fingerprint
from repro.eval.parallel import ParallelAttackRunner
from repro.eval.progress import HeartbeatMonitor
from repro.eval.run_config import RunConfig
from repro.models.base import TextClassifier
from repro.obs.registry import MetricsRegistry
from repro.obs.report import append_failure, write_run_metrics
from repro.obs.trace import TraceRecorder

#: power-of-two bounds for query-count histograms (1 .. 65536 forwards/doc)
_QUERY_BOUNDS = [float(2**e) for e in range(17)]

__all__ = ["AttackEvaluation", "evaluate_attack"]


@dataclass
class AttackEvaluation:
    """Aggregate outcome of attacking a set of examples."""

    clean_accuracy: float
    adversarial_accuracy: float
    success_rate: float
    n_examples: int
    n_attacked: int
    mean_time: float
    mean_queries: float
    mean_word_changes: float
    results: list[AttackResult] = field(default_factory=list)
    adversarial_examples: list[Example] = field(default_factory=list)
    #: documents whose attack did not complete (exception or worker crash);
    #: scored as unperturbed survivors, reported rather than silently lost
    failures: list[AttackFailure] = field(default_factory=list)

    @property
    def n_failures(self) -> int:
        return len(self.failures)

    def summary(self) -> dict[str, float]:
        return {
            "clean_accuracy": self.clean_accuracy,
            "adversarial_accuracy": self.adversarial_accuracy,
            "success_rate": self.success_rate,
            "mean_time": self.mean_time,
            "mean_queries": self.mean_queries,
            "mean_word_changes": self.mean_word_changes,
        }


def evaluate_attack(
    model: TextClassifier,
    attack: Attack,
    examples: list[Example],
    max_examples: int | None = None,
    seed: int = 0,
    run: RunConfig | None = None,
    journal_path: str | os.PathLike | None = None,
    progress=None,
    trace_dir: str | os.PathLike | None = None,
) -> AttackEvaluation:
    """Attack every correctly-classified example and aggregate the outcome.

    The target label is always the flip of the true label (binary,
    untargeted-as-targeted, the paper's setting).

    ``run`` carries the resolved :class:`~repro.eval.run_config.RunConfig`
    (``None`` resolves one from the environment).  ``run.n_workers`` > 1
    shards the per-document attack loop across forked processes via
    :class:`~repro.eval.parallel.ParallelAttackRunner` (results are
    deterministic in the worker count; the serial path is the same
    runner with one worker).

    ``journal_path`` appends each completed document to a JSONL run
    journal and resumes from it if it already exists (see module
    docstring).  ``progress`` receives a
    :class:`~repro.eval.progress.Heartbeat` per completed document.

    ``trace_dir`` writes per-document attack traces, ``failures.jsonl``
    and ``metrics.json`` into that directory; ``run.trace_every_n``
    samples the traces (every n-th document).
    """
    if not examples:
        raise ValueError("cannot evaluate an attack on zero examples")
    if run is None:
        run = RunConfig.from_env()
    if max_examples is not None and len(examples) > max_examples:
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(examples), size=max_examples, replace=False)
        examples = [examples[i] for i in sorted(idx)]

    docs = [list(ex.tokens) for ex in examples]
    labels = np.array([ex.label for ex in examples])
    preds = model.predict(docs)
    correct = preds == labels
    clean_accuracy = float(correct.mean())

    attacked = [
        (i, docs[i], 1 - examples[i].label)
        for i in range(len(examples))
        if correct[i]
        # misclassified examples are already errors; they stay unperturbed
        # and remain errors in adversarial accuracy
    ]

    # -- journal: load completed outcomes, schedule only the remainder ------
    journal: RunJournal | None = None
    done: dict[int, AttackResult | AttackFailure] = {}
    if journal_path is not None:
        journal = RunJournal(
            journal_path,
            header={
                "seed": seed,
                "attack": attack.name,
                "n_examples": len(examples),
                "corpus_sha1": corpus_fingerprint(
                    [doc for _, doc, _ in attacked], [t for _, _, t in attacked]
                ),
            },
        )
        done = journal.outcomes()

    # seed index j = position in the attacked sublist of the *full* run, so
    # a resumed remainder reproduces the uninterrupted run's per-doc seeds
    todo = [
        (j, i, doc, target)
        for j, (i, doc, target) in enumerate(attacked)
        if i not in done
    ]
    run_registry = MetricsRegistry()
    context_registry: MetricsRegistry | None = attack.metrics
    monitor = HeartbeatMonitor(
        total=len(attacked),
        callback=progress,
        done=len(done),
        n_failures=sum(1 for o in done.values() if isinstance(o, AttackFailure)),
        registry=run_registry,
    )
    seed_to_corpus = {j: i for j, i, _, _ in todo}

    def on_result(j: int, outcome: AttackResult | AttackFailure) -> None:
        if journal is not None:
            journal.record(seed_to_corpus[j], outcome, seed_index=j)
        run_registry.inc("attack/docs")
        if isinstance(outcome, AttackFailure):
            run_registry.inc("attack/failures")
            if trace_dir is not None:
                append_failure(trace_dir, outcome.to_dict())
        else:
            run_registry.inc("attack/successes", float(outcome.success))
            run_registry.inc("attack/n_queries", outcome.n_queries)
            run_registry.inc("attack/cache_hits", outcome.n_cache_hits)
            run_registry.inc("attack/cache_evictions", outcome.n_cache_evictions)
            run_registry.observe("attack/wall_time_seconds", outcome.wall_time)
            run_registry.observe(
                "attack/queries", outcome.n_queries, bounds=_QUERY_BOUNDS
            )
        monitor.update(outcome)

    fresh: dict[int, AttackResult | AttackFailure] = {}
    prior_tracer = attack.tracer
    if trace_dir is not None:
        attack.tracer = TraceRecorder(trace_dir, trace_every_n=run.trace_every_n)
    try:
        if todo:
            runner = ParallelAttackRunner(
                attack,
                n_workers=run.n_workers,
                base_seed=seed,
                on_result=on_result,
            )
            outcomes = runner.run(
                [doc for _, _, doc, _ in todo],
                [target for _, _, _, target in todo],
                indices=[j for j, _, _, _ in todo],
            )
            fresh = {i: outcome for (_, i, _, _), outcome in zip(todo, outcomes)}
    finally:
        attack.tracer = prior_tracer
    monitor.finish()
    if trace_dir is not None:
        write_run_metrics(
            trace_dir,
            run_registry.snapshot(),
            context_snapshot=(
                context_registry.snapshot() if context_registry is not None else None
            ),
        )

    results: list[AttackResult] = []
    failures: list[AttackFailure] = []
    adv_examples: list[Example] = []
    still_correct = 0
    for i, doc, _ in attacked:
        outcome = done[i] if i in done else fresh[i]
        if isinstance(outcome, AttackFailure):
            # the attack produced nothing: the document stands unperturbed
            # and the (correctly classified) prediction survives
            failures.append(outcome)
            adv_examples.append(Example(tuple(doc), examples[i].label))
            still_correct += 1
            continue
        results.append(outcome)
        adv_examples.append(Example(tuple(outcome.adversarial), examples[i].label))
        if not outcome.success:
            still_correct += 1

    n_attacked = len(results)
    adversarial_accuracy = still_correct / len(examples)
    success_rate = (
        float(np.mean([r.success for r in results])) if results else 0.0
    )
    return AttackEvaluation(
        clean_accuracy=clean_accuracy,
        adversarial_accuracy=float(adversarial_accuracy),
        success_rate=success_rate,
        n_examples=len(examples),
        n_attacked=n_attacked,
        mean_time=float(np.mean([r.wall_time for r in results])) if results else 0.0,
        mean_queries=float(np.mean([r.n_queries for r in results])) if results else 0.0,
        mean_word_changes=float(np.mean([r.n_word_changes for r in results])) if results else 0.0,
        results=results,
        adversarial_examples=adv_examples,
        failures=failures,
    )
