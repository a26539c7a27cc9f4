"""Tests for the command-line entry point."""

import json
import shutil

import pytest

from repro.attacks import ATTACKS
from repro.experiments.__main__ import _ARTIFACTS, main
from repro.obs.registry import MetricsRegistry
from repro.obs.report import METRICS_FILENAME, write_run_metrics
from repro.obs.trace import DocumentTrace, TraceSchemaError


class TestCli:
    def test_artifact_registry_complete(self):
        assert set(_ARTIFACTS) == {
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "figure1",
            "figure4",
            "appendix",
        }

    def test_runs_cheap_artifact(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["table6"]) == 0
        out = capsys.readouterr().out
        assert "Spam filtering" in out
        assert "table6 done" in out

    def test_save_writes_artifacts(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        results = tmp_path / "results"
        assert main(["table6", "--save", str(results)]) == 0
        assert (results / "table6.json").exists()
        assert (results / "table6.csv").exists()

    def test_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_requires_at_least_one(self):
        with pytest.raises(SystemExit):
            main([])


class TestListAttacksCli:
    def test_lists_every_registry_attack(self, capsys):
        assert main(["list-attacks"]) == 0
        out = capsys.readouterr().out
        for name in ATTACKS:
            assert name in out
        assert f"{len(ATTACKS)} attacks" in out

    def test_shows_both_axes_and_paper_refs(self, capsys):
        assert main(["list-attacks"]) == 0
        out = capsys.readouterr().out
        # header names the two axes of the compositional space
        assert "source" in out and "strategy" in out
        assert "Alg. 1" in out  # the headline attack is attributed
        assert "CELF lazy greedy" in out

    def test_rejects_extra_arguments(self):
        with pytest.raises(SystemExit):
            main(["list-attacks", "--bogus"])

    def test_json_dump_is_machine_readable(self, capsys):
        assert main(["list-attacks", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in payload} == set(ATTACKS)
        for entry in payload:
            spec = ATTACKS[entry["name"]]
            assert entry["source"] == spec.source
            assert entry["strategy"] == spec.strategy
            assert entry["needs"] == list(spec.needs)
            assert entry["params"] == list(spec.params)


class TestListDefensesCli:
    def test_lists_every_registry_defense(self, capsys):
        from repro.defense import DEFENSES

        assert main(["list-defenses"]) == 0
        out = capsys.readouterr().out
        for name in DEFENSES:
            assert name in out
        assert f"{len(DEFENSES)} defenses" in out

    def test_shows_kind_and_black_box_columns(self, capsys):
        assert main(["list-defenses"]) == 0
        out = capsys.readouterr().out
        assert "kind" in out and "black box" in out
        assert "training" in out and "inference" in out

    def test_rejects_extra_arguments(self):
        with pytest.raises(SystemExit):
            main(["list-defenses", "--bogus"])

    def test_json_dump_is_machine_readable(self, capsys):
        from repro.defense import DEFENSES

        assert main(["list-defenses", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["name"] for entry in payload} == set(DEFENSES)
        for entry in payload:
            spec = DEFENSES[entry["name"]]
            assert entry["kind"] == spec.kind
            assert entry["black_box"] == spec.black_box
            assert entry["params"] == list(spec.params)
            assert entry["needs"] == list(spec.needs)
            assert entry["reference"] == spec.reference


@pytest.fixture
def traced_run(tmp_path):
    """A minimal but schema-valid run directory for the report verb."""
    trace = DocumentTrace(tmp_path / "trace-000000.jsonl", doc_index=0)
    trace.emit("attack_start", attack="greedy", target_label=1, n_tokens=5, seed=0)
    trace.emit("forward", op="score", n_docs=2, n_forwards=2, n_cache_hits=0)
    trace.emit(
        "attack_end",
        success=True,
        n_queries=2,
        n_cache_hits=0,
        wall_time=0.01,
        n_word_changes=1,
        adversarial_prob=0.9,
    )
    trace.close()
    reg = MetricsRegistry()
    reg.inc("attack/docs")
    write_run_metrics(tmp_path, reg.snapshot())
    return tmp_path


class TestReportCli:
    def test_report_prints_markdown(self, capsys, traced_run):
        assert main(["report", str(traced_run)]) == 0
        out = capsys.readouterr().out
        assert "# Attack run report" in out
        assert "| documents traced | 1 |" in out

    def test_report_validate_counts_lines(self, capsys, traced_run):
        assert main(["report", str(traced_run), "--validate"]) == 0
        assert "[validated 3 trace lines]" in capsys.readouterr().err

    def test_report_validate_rejects_bad_trace(self, traced_run):
        (traced_run / "trace-000001.jsonl").write_text('{"v": 1, "kind": "bogus"}\n')
        with pytest.raises(TraceSchemaError):
            main(["report", str(traced_run), "--validate"])

    def test_report_out_writes_file(self, capsys, traced_run, tmp_path):
        out_file = tmp_path / "report.md"
        assert main(["report", str(traced_run), "--out", str(out_file)]) == 0
        assert out_file.read_text().startswith("# Attack run report")
        assert capsys.readouterr().out == ""  # markdown went to the file

    def test_report_requires_run_dir(self):
        with pytest.raises(SystemExit):
            main(["report"])

    def test_report_missing_dir_exits_2(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "does not exist" in err

    def test_report_empty_dir_exits_2(self, capsys, tmp_path):
        assert main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no run artifacts" in err


@pytest.fixture
def comparable_run(tmp_path):
    """A run dir with enough metrics for the compare verb to gate on."""
    run_dir = tmp_path / "baseline"
    run_dir.mkdir()
    reg = MetricsRegistry()
    for _ in range(4):
        reg.inc("attack/docs")
    reg.inc("attack/successes", 3)
    reg.inc("attack/n_queries", 200)
    reg.set_gauge("run/docs_per_second", 2.5)
    write_run_metrics(run_dir, reg.snapshot())
    return run_dir


class TestCompareCli:
    def test_identical_runs_pass(self, capsys, comparable_run, tmp_path):
        copy = tmp_path / "candidate"
        shutil.copytree(comparable_run, copy)
        assert main(["compare", str(comparable_run), str(copy)]) == 0
        out = capsys.readouterr().out
        assert "# Run comparison" in out
        assert "**PASS**" in out

    def test_doctored_regression_fails(self, capsys, comparable_run, tmp_path):
        copy = tmp_path / "candidate"
        shutil.copytree(comparable_run, copy)
        payload = json.loads((copy / METRICS_FILENAME).read_text())
        payload["run"]["gauges"]["run/docs_per_second"] *= 0.7  # -30% throughput
        (copy / METRICS_FILENAME).write_text(json.dumps(payload))
        assert main(["compare", str(comparable_run), str(copy)]) == 1
        captured = capsys.readouterr()
        assert "**FAIL**" in captured.out
        assert "docs_per_second" in captured.err

    def test_gate_override_can_disable(self, comparable_run, tmp_path):
        copy = tmp_path / "candidate"
        shutil.copytree(comparable_run, copy)
        payload = json.loads((copy / METRICS_FILENAME).read_text())
        payload["run"]["gauges"]["run/docs_per_second"] *= 0.7
        (copy / METRICS_FILENAME).write_text(json.dumps(payload))
        assert main(["compare", str(comparable_run), str(copy), "--gate", "docs_per_second=1"]) == 0

    def test_missing_dir_exits_2(self, capsys, comparable_run, tmp_path):
        assert main(["compare", str(comparable_run), str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_bad_gate_spec_rejected(self, comparable_run):
        with pytest.raises(SystemExit):
            main(["compare", str(comparable_run), str(comparable_run), "--gate", "oops"])

    def test_out_writes_markdown(self, capsys, comparable_run, tmp_path):
        copy = tmp_path / "candidate"
        shutil.copytree(comparable_run, copy)
        out_file = tmp_path / "compare.md"
        assert main(["compare", str(comparable_run), str(copy), "--out", str(out_file)]) == 0
        assert out_file.read_text().startswith("# Run comparison")
        assert capsys.readouterr().out == ""


class TestCompareTournamentGates:
    """The compare verb gates tournament leaderboard gauges directionally."""

    ADV_ACC = "tournament/yelp/wcnn/adv_training/joint/adversarial_accuracy"
    TRANSFER = "tournament/transfer/yelp/joint/wcnn_to_lstm/success_rate"

    @pytest.fixture
    def tournament_run(self, tmp_path):
        run_dir = tmp_path / "baseline"
        reg = MetricsRegistry()
        reg.set_gauge(self.ADV_ACC, 0.8)
        reg.set_gauge(self.TRANSFER, 0.2)
        write_run_metrics(run_dir / "tournament_summary", reg.snapshot())
        return run_dir

    def _doctor(self, run_dir, name, factor):
        path = run_dir / "tournament_summary" / METRICS_FILENAME
        payload = json.loads(path.read_text())
        payload["run"]["gauges"][name] *= factor
        path.write_text(json.dumps(payload))

    def test_identical_tournaments_pass(self, tournament_run, tmp_path):
        copy = tmp_path / "candidate"
        shutil.copytree(tournament_run, copy)
        assert main(["compare", str(tournament_run), str(copy)]) == 0

    def test_weakened_defense_exits_1(self, capsys, tournament_run, tmp_path):
        copy = tmp_path / "candidate"
        shutil.copytree(tournament_run, copy)
        self._doctor(copy, self.ADV_ACC, 0.5)  # defense got weaker
        assert main(["compare", str(tournament_run), str(copy)]) == 1
        captured = capsys.readouterr()
        assert "**FAIL**" in captured.out
        assert self.ADV_ACC in captured.err

    def test_increased_transfer_exits_1(self, capsys, tournament_run, tmp_path):
        copy = tmp_path / "candidate"
        shutil.copytree(tournament_run, copy)
        self._doctor(copy, self.TRANSFER, 3.0)  # attacks transfer more
        assert main(["compare", str(tournament_run), str(copy)]) == 1
        assert self.TRANSFER in capsys.readouterr().err

