"""Tests for the JSONL run journal and evaluate_attack checkpoint/resume.

The load-bearing property is *resume equality*: interrupting a journaled
run and resuming it must yield an AttackEvaluation identical (modulo wall
clock) to a fresh uninterrupted run, with no document attacked twice —
even for a stochastic attack, because remaining documents keep the seed
indices of the uninterrupted schedule.
"""

import json
from collections import Counter

import pytest

from repro.attacks import AttackFailure, AttackResult, RandomWordAttack
from repro.eval.journal import (
    JournalError,
    JournalMismatchError,
    RunJournal,
    corpus_fingerprint,
)
from repro.eval.metrics import evaluate_attack
from repro.eval.run_config import RunConfig

N_EXAMPLES = 8


def make_result(**overrides):
    payload = dict(
        original=["a", "b"],
        adversarial=["a", "c"],
        target_label=1,
        original_prob=0.1234567891234567,
        adversarial_prob=0.7654321987654321,
        success=True,
        n_word_changes=1,
        n_sentence_changes=0,
        n_queries=17,
        n_cache_hits=4,
        wall_time=0.03125,
        stages=["word"],
    )
    payload.update(overrides)
    return AttackResult(**payload)


class CountingRandomAttack(RandomWordAttack):
    """Random attack that records every document it actually attacks.

    The log is a file with one line per attacked document, so documents
    attacked in forked pool workers are counted too.
    """

    def __init__(self, *args, log_path, **kwargs):
        super().__init__(*args, **kwargs)
        self.log_path = log_path
        self.log_path.touch()

    @property
    def attack_log(self) -> list[tuple[str, ...]]:
        lines = self.log_path.read_text().splitlines()
        return [tuple(json.loads(line)) for line in lines]

    def attack(self, doc, target_label):
        with open(self.log_path, "a") as fh:
            fh.write(json.dumps(list(doc)) + "\n")
        return super().attack(doc, target_label)


class TestSerialization:
    def test_result_round_trips_bitwise_through_json(self):
        result = make_result()
        restored = AttackResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result

    def test_failure_round_trips_through_json(self):
        failure = AttackFailure(
            doc_index=3,
            target_label=0,
            error_type="RuntimeError",
            error_message="boom",
            traceback="Traceback ...",
            seed=3_000_009,
            original=["x", "y"],
        )
        restored = AttackFailure.from_dict(json.loads(json.dumps(failure.to_dict())))
        assert restored == failure

    def test_fingerprint_depends_on_docs_and_targets(self):
        base = corpus_fingerprint([["a", "b"], ["c"]], [0, 1])
        assert base == corpus_fingerprint([["a", "b"], ["c"]], [0, 1])
        assert base != corpus_fingerprint([["a", "b"], ["d"]], [0, 1])
        assert base != corpus_fingerprint([["a", "b"], ["c"]], [0, 0])


class TestRunJournal:
    def test_outcomes_survive_reload(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path, header={"seed": 0, "attack": "x"})
        result = make_result()
        failure = AttackFailure(1, 0, "RuntimeError", "boom", "tb", 7, ["a"])
        journal.record(4, result, seed_index=0)
        journal.record(9, failure, seed_index=1)

        reloaded = RunJournal(path, header={"seed": 0, "attack": "x"})
        assert reloaded.completed_indices() == {4, 9}
        assert reloaded.outcomes() == {4: result, 9: failure}

    def test_header_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal(path, header={"seed": 0, "attack": "x"})
        with pytest.raises(JournalMismatchError, match="seed"):
            RunJournal(path, header={"seed": 1, "attack": "x"})
        with pytest.raises(JournalMismatchError, match="attack"):
            RunJournal(path, header={"seed": 0, "attack": "y"})

    def test_truncated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path, header={"seed": 0})
        journal.record(0, make_result(), seed_index=0)
        with open(path, "a") as fh:
            fh.write('{"kind": "result", "doc_index": 1, "resu')  # crash mid-append
        reloaded = RunJournal(path, header={"seed": 0})
        assert reloaded.completed_indices() == {0}

    def test_corruption_before_final_line_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path, header={"seed": 0})
        journal.record(0, make_result(), seed_index=0)
        text = path.read_text()
        path.write_text("garbage not json\n" + text)
        with pytest.raises(JournalError, match="undecodable"):
            RunJournal(path)


class TestEvaluateAttackResume:
    @pytest.fixture()
    def run_kwargs(self, atk_corpus):
        return dict(examples=atk_corpus.test, max_examples=N_EXAMPLES, seed=3)

    def test_journaled_run_writes_one_record_per_document(
        self, victim, word_paraphraser, run_kwargs, tmp_path
    ):
        attack = RandomWordAttack(victim, word_paraphraser, 0.3, seed=5)
        path = tmp_path / "run.jsonl"
        ev = evaluate_attack(victim, attack, journal_path=path, **run_kwargs)
        journal = RunJournal(path)
        assert len(journal.outcomes()) == ev.n_attacked
        kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
        assert kinds[0] == "header"
        assert kinds.count("result") == ev.n_attacked
        assert "perf" not in kinds

    def test_interrupt_then_resume_matches_fresh_run(
        self, victim, word_paraphraser, run_kwargs, tmp_path
    ):
        # stochastic attack: resume equality only holds if the remaining
        # documents keep their original seed indices
        fresh_attack = CountingRandomAttack(
            victim, word_paraphraser, 0.3, seed=5, log_path=tmp_path / "fresh.log"
        )
        fresh = evaluate_attack(victim, fresh_attack, **run_kwargs)
        assert fresh.n_attacked > 3

        path = tmp_path / "run.jsonl"
        interrupted_attack = CountingRandomAttack(
            victim, word_paraphraser, 0.3, seed=5, log_path=tmp_path / "interrupted.log"
        )

        def interrupt_after_three(beat):
            if beat.done >= 3:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            evaluate_attack(
                victim,
                interrupted_attack,
                journal_path=path,
                progress=interrupt_after_three,
                **run_kwargs,
            )
        journaled = RunJournal(path).completed_indices()
        assert 0 < len(journaled) < fresh.n_attacked
        journaled_docs = Counter(
            tuple(outcome.original) for outcome in RunJournal(path).outcomes().values()
        )
        assert journaled_docs <= Counter(interrupted_attack.attack_log)

        resumed_attack = CountingRandomAttack(
            victim, word_paraphraser, 0.3, seed=5, log_path=tmp_path / "resumed.log"
        )
        resumed = evaluate_attack(
            victim, resumed_attack, journal_path=path, **run_kwargs
        )

        # the resume attacks exactly the documents missing from the journal
        assert Counter(resumed_attack.attack_log) == (
            Counter(fresh_attack.attack_log) - journaled_docs
        )
        # no document attacked twice across interrupt + resume.  Under the
        # pool, chunks in flight when the interrupt lands are attacked but
        # never journaled, so only the serial run can pin the total
        total_attacked = len(interrupted_attack.attack_log) + len(
            resumed_attack.attack_log
        )
        if RunConfig.from_env().n_workers == 1:
            assert total_attacked == fresh.n_attacked
        assert len(RunJournal(path).completed_indices()) == fresh.n_attacked

        # the resumed evaluation is the fresh evaluation (modulo wall clock)
        assert resumed.n_examples == fresh.n_examples
        assert resumed.n_attacked == fresh.n_attacked
        assert resumed.clean_accuracy == fresh.clean_accuracy
        assert resumed.adversarial_accuracy == fresh.adversarial_accuracy
        assert resumed.success_rate == fresh.success_rate
        assert resumed.mean_queries == fresh.mean_queries
        assert resumed.mean_word_changes == fresh.mean_word_changes
        assert resumed.adversarial_examples == fresh.adversarial_examples
        assert resumed.failures == fresh.failures == []
        for got, want in zip(resumed.results, fresh.results):
            assert got.original == want.original
            assert got.adversarial == want.adversarial
            assert got.success == want.success
            assert got.original_prob == want.original_prob
            assert got.adversarial_prob == want.adversarial_prob
            assert got.n_queries == want.n_queries
            assert got.stages == want.stages

    def test_completed_journal_resumes_without_attacking(
        self, victim, word_paraphraser, run_kwargs, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        attack = CountingRandomAttack(
            victim, word_paraphraser, 0.3, seed=5, log_path=tmp_path / "first.log"
        )
        first = evaluate_attack(victim, attack, journal_path=path, **run_kwargs)
        assert len(attack.attack_log) == first.n_attacked
        replay_attack = CountingRandomAttack(
            victim, word_paraphraser, 0.3, seed=5, log_path=tmp_path / "replay.log"
        )
        replay = evaluate_attack(
            victim, replay_attack, journal_path=path, **run_kwargs
        )
        assert replay_attack.attack_log == []
        assert replay.results == first.results
        assert replay.summary() == first.summary()

    def test_old_journal_with_perf_records_resumes_bitwise(
        self, victim, word_paraphraser, run_kwargs, tmp_path
    ):
        """Older versions appended forward-counter ``perf`` lines; a journal
        holding them still resumes without re-attacking anything."""
        path = tmp_path / "run.jsonl"
        attack = CountingRandomAttack(
            victim, word_paraphraser, 0.3, seed=5, log_path=tmp_path / "first.log"
        )
        first = evaluate_attack(victim, attack, journal_path=path, **run_kwargs)
        assert len(attack.attack_log) == first.n_attacked
        perf_line = {"kind": "perf", "snapshot": {"n_forward_docs": 3, "buckets": {}}}
        lines = path.read_text().splitlines()
        lines.insert(2, json.dumps(perf_line))
        path.write_text("\n".join([*lines, json.dumps(perf_line)]) + "\n")

        replay_attack = CountingRandomAttack(
            victim, word_paraphraser, 0.3, seed=5, log_path=tmp_path / "replay.log"
        )
        replay = evaluate_attack(victim, replay_attack, journal_path=path, **run_kwargs)
        assert replay_attack.attack_log == []
        assert replay.results == first.results
        assert replay.failures == first.failures
        assert replay.adversarial_examples == first.adversarial_examples
        assert replay.summary() == first.summary()

    def test_journal_refuses_different_run(
        self, victim, word_paraphraser, run_kwargs, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        attack = RandomWordAttack(victim, word_paraphraser, 0.3, seed=5)
        evaluate_attack(victim, attack, journal_path=path, **run_kwargs)
        other = dict(run_kwargs, seed=4)
        with pytest.raises(JournalMismatchError):
            evaluate_attack(victim, attack, journal_path=path, **other)
