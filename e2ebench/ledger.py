"""The layer ledger: exclusive (self) time per layer, measured from outside.

The ledger wraps public functions and methods of the ``repro`` modules in
place — nothing under ``src/`` changes — and records, on the main thread,
each call's duration, the part of it that nested wrapped calls covered,
and a few counts.  A layer's *self time* is its calls' durations minus
their children's, so the self times of every span telescope to the summed
duration of the outermost spans; whatever the run spends outside any
span is ``trace.unattributed_s``.

Spans recorded in forked pool workers stay in the workers: only the
parent's ledger is read.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict


class Ledger:
    """Accumulates per-span calls, self time and counters for one traced run."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: inclusive time, meaningful only for spans that never nest in
        #: themselves (the runner, the grid)
        self.total_s: dict[str, float] = defaultdict(float)
        #: perf_counter at which each span last closed
        self.last_end: dict[str, float] = {}
        self.counts: dict[str, float] = defaultdict(float)
        #: summed duration of spans entered with no enclosing span
        self.root_s = 0.0
        # each open span: [name, start, seconds covered by child spans,
        # whether a memo miss was seen inside it]
        self._stack: list[list] = []
        self._main = threading.main_thread().ident
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def wrap(self, fn, name, on_call=None):
        """``fn`` timed as span ``name`` (a string, or ``name(args)``).

        ``on_call(ledger, args, kwargs)`` runs before the call to record
        counts.  Calls from other threads pass through unrecorded.
        """
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != ledger._main:
                return fn(*args, **kwargs)
            span = name(args) if callable(name) else name
            if on_call is not None:
                on_call(ledger, args, kwargs)
            frame = [span, time.perf_counter(), 0.0, False]
            ledger._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                duration = end - frame[1]
                ledger._stack.pop()
                ledger.calls[span] += 1
                ledger.self_s[span] += duration - frame[2]
                ledger.total_s[span] += duration
                ledger.last_end[span] = end
                if ledger._stack:
                    ledger._stack[-1][2] += duration
                else:
                    ledger.root_s += duration

        wrapper.__wrapped_by_ledger__ = True
        return wrapper

    # -- installation --------------------------------------------------------
    def patch(self, owner, attr: str, name, on_call=None) -> None:
        """Replace ``owner.attr`` with its wrapped form.

        For a module-level function, every loaded ``repro`` module that
        imported the same object by name is patched too, so calls through
        ``from x import f`` bindings are seen.
        """
        original = owner.__dict__[attr]
        wrapped = self.wrap(original, name, on_call)
        owners = [owner]
        if not isinstance(owner, type):
            owners += [
                module
                for mod_name, module in sorted(sys.modules.items())
                if mod_name.startswith("repro")
                and module is not owner
                and module.__dict__.get(attr) is original
            ]
        for target in owners:
            setattr(target, attr, wrapped)
            self._patches.append((target, attr, original))

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)


def _rows(ledger: Ledger, args, kwargs) -> None:
    ledger.counts["models.predict_proba.rows"] += len(args[1])


def _smoothing_rows(ledger: Ledger, args, kwargs) -> None:
    ledger.counts["defense.smoothing.rows"] += len(args[1]) * args[0].n_samples


def _candidate_call(ledger: Ledger, args, kwargs) -> None:
    ledger.counts["attacks.paraphrase.word.candidate_calls"] += 1


def _similarity_call(ledger: Ledger, args, kwargs) -> None:
    # a word_similarity call inside candidates_for_word marks that call as
    # a memo miss (counted once per open candidates_for_word span)
    stack = ledger._stack
    if stack and stack[-1][0] == "attacks.paraphrase.word" and not stack[-1][3]:
        stack[-1][3] = True
        ledger.counts["attacks.paraphrase.word.memo_misses"] += 1


def install(ledger: Ledger) -> Ledger:
    """Wrap every layer boundary the benchmark reports on."""
    from repro.attacks.base import Attack
    from repro.attacks.paraphrase import SentenceParaphraser, WordParaphraser
    from repro.defense.smoothing import SmoothedClassifier
    from repro.eval import metrics
    from repro.eval.parallel import ParallelAttackRunner
    from repro.experiments.grid import GridRunner
    from repro.models.base import TextClassifier
    from repro.text.ngram_lm import NGramLM
    from repro.text.vocab import Vocabulary

    # ``repro.text`` re-exports a function named ``wmd`` over the submodule
    wmd = importlib.import_module("repro.text.wmd")

    def by_arch(args) -> str:
        return f"models.predict_proba.{type(args[0]).__name__.lower().replace('classifier', '')}"

    ledger.patch(TextClassifier, "predict_proba", by_arch, _rows)
    ledger.patch(TextClassifier, "embedding_gradient", "models.embedding_gradient")
    ledger.patch(Vocabulary, "encode_batch", "text.encode_batch")
    ledger.patch(wmd, "word_similarity", "text.word_similarity", _similarity_call)
    for method in ("token_log_prob", "log_prob"):
        ledger.patch(NGramLM, method, "text.ngram_lm")
    ledger.patch(Attack, "attack", "attacks.attack")
    ledger.patch(WordParaphraser, "candidates_for_word", "attacks.paraphrase.word", _candidate_call)
    ledger.patch(WordParaphraser, "neighbor_sets", "attacks.paraphrase.word")
    ledger.patch(SentenceParaphraser, "paraphrases", "attacks.paraphrase.sentence")
    ledger.patch(SentenceParaphraser, "neighbor_sets", "attacks.paraphrase.sentence")
    ledger.patch(SmoothedClassifier, "predict_proba", "defense.smoothing", _smoothing_rows)
    ledger.patch(metrics, "evaluate_attack", "eval.evaluate_attack")
    ledger.patch(ParallelAttackRunner, "run", "eval.runner")
    ledger.patch(GridRunner, "run", "experiments.grid")
    return ledger
