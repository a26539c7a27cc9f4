"""Unit tests for cross-run regression comparison."""

import json

import pytest

from repro.obs.compare import (
    DEFAULT_REL_TOL,
    compare_runs,
    metric_direction,
    render_compare_report,
    summarize_run_dir,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.report import METRICS_FILENAME, write_run_metrics


def _make_run(
    run_dir,
    docs=4,
    successes=3,
    queries=200,
    docs_per_second=2.5,
    bench=None,
):
    run_dir.mkdir(parents=True, exist_ok=True)
    reg = MetricsRegistry()
    reg.inc("attack/docs", docs)
    reg.inc("attack/successes", successes)
    reg.inc("attack/n_queries", queries)
    reg.inc("attack/cache_hits", 50)
    reg.observe("attack/wall_time_seconds", 0.2)
    reg.set_gauge("run/docs_per_second", docs_per_second)
    write_run_metrics(run_dir, reg.snapshot())
    if bench:
        (run_dir / "BENCH_demo.json").write_text(json.dumps(bench))
    return run_dir


class TestMetricDirection:
    @pytest.mark.parametrize(
        ("name", "direction"),
        [
            ("success_rate", "higher"),
            ("docs_per_second", "higher"),
            ("cache_hit_rate", "higher"),
            ("mean_queries_per_doc", "lower"),
            ("wall_time_per_doc_p95_seconds", "lower"),
            ("failures", "lower"),
            ("bench/demo/speedup", "higher"),
            ("docs", "info"),
        ],
    )
    def test_directions(self, name, direction):
        assert metric_direction(name) == direction

    def test_lower_patterns_win_over_rate(self):
        # "failure_rate" must not be caught by any higher-is-better pattern
        assert metric_direction("failure_rate") == "lower"


class TestSummarize:
    def test_flattens_metrics_and_bench(self, tmp_path):
        run = _make_run(
            tmp_path / "run",
            bench={"throughput": {"value": 12.5}, "note": {"value": "text"}},
        )
        summary = summarize_run_dir(run)
        assert summary["docs"] == 4
        assert summary["success_rate"] == pytest.approx(0.75)
        assert summary["mean_queries_per_doc"] == pytest.approx(50.0)
        assert summary["cache_hit_rate"] == pytest.approx(50 / 250)
        assert summary["docs_per_second"] == 2.5
        assert summary["wall_time_per_doc_p50_seconds"] > 0
        assert summary["bench/BENCH_demo/throughput"] == 12.5
        assert "bench/BENCH_demo/note" not in summary  # non-scalar skipped


class TestCompareRuns:
    def test_identical_runs_pass(self, tmp_path):
        a = _make_run(tmp_path / "a")
        b = _make_run(tmp_path / "b")
        comparison = compare_runs(a, b)
        assert comparison.ok
        assert comparison.rel_tol == DEFAULT_REL_TOL
        report = render_compare_report(comparison)
        assert "**PASS**" in report

    def test_throughput_regression_fails(self, tmp_path):
        a = _make_run(tmp_path / "a", docs_per_second=2.5)
        b = _make_run(tmp_path / "b", docs_per_second=2.5 * 0.7)  # -30%
        comparison = compare_runs(a, b)
        assert not comparison.ok
        assert [d.name for d in comparison.regressions] == ["docs_per_second"]
        report = render_compare_report(comparison)
        assert "**FAIL**" in report
        assert "REGRESSED (↑ better)" in report

    def test_improvement_is_not_a_regression(self, tmp_path):
        a = _make_run(tmp_path / "a", docs_per_second=2.5)
        b = _make_run(tmp_path / "b", docs_per_second=5.0)
        assert compare_runs(a, b).ok

    def test_lower_better_regression(self, tmp_path):
        a = _make_run(tmp_path / "a", queries=200)
        b = _make_run(tmp_path / "b", queries=300)  # +50% queries/doc
        comparison = compare_runs(a, b)
        names = [d.name for d in comparison.regressions]
        assert "mean_queries_per_doc" in names

    def test_within_tolerance_passes(self, tmp_path):
        a = _make_run(tmp_path / "a", docs_per_second=2.5)
        b = _make_run(tmp_path / "b", docs_per_second=2.5 * 0.95)  # -5% < 10%
        assert compare_runs(a, b).ok

    def test_gate_override_disables(self, tmp_path):
        a = _make_run(tmp_path / "a", docs_per_second=2.5)
        b = _make_run(tmp_path / "b", docs_per_second=1.0)
        assert not compare_runs(a, b).ok
        assert compare_runs(a, b, gate_overrides={"docs_per_second": 1.0}).ok

    def test_gate_override_tightens(self, tmp_path):
        a = _make_run(tmp_path / "a", docs_per_second=2.5)
        b = _make_run(tmp_path / "b", docs_per_second=2.5 * 0.95)
        comparison = compare_runs(a, b, gate_overrides={"docs_per_second": 0.01})
        assert not comparison.ok

    def test_missing_metric_is_informational(self, tmp_path):
        a = _make_run(tmp_path / "a", bench={"speedup": {"value": 3.0}})
        b = _make_run(tmp_path / "b")
        comparison = compare_runs(a, b)
        assert comparison.ok
        delta = next(d for d in comparison.deltas if d.name == "bench/BENCH_demo/speedup")
        assert delta.candidate is None
        assert delta.rel_change is None
        assert "missing" in render_compare_report(comparison)

    def test_zero_baseline_yields_infinite_change(self, tmp_path):
        a = _make_run(tmp_path / "a")
        b = _make_run(tmp_path / "b")
        for run, failures in ((a, 0), (b, 2)):
            payload = json.loads((run / METRICS_FILENAME).read_text())
            payload["run"]["counters"]["attack/failures"] = failures
            (run / METRICS_FILENAME).write_text(json.dumps(payload))
        comparison = compare_runs(a, b)
        delta = next(d for d in comparison.deltas if d.name == "failures")
        assert delta.rel_change == float("inf")
        assert delta.regressed

    def test_negative_rel_tol_rejected(self, tmp_path):
        a = _make_run(tmp_path / "a")
        with pytest.raises(ValueError):
            compare_runs(a, a, rel_tol=-0.1)

    def test_report_sections(self, tmp_path):
        a = _make_run(tmp_path / "a", bench={"speedup": {"value": 3.0}})
        b = _make_run(tmp_path / "b", bench={"speedup": {"value": 3.0}})
        report = render_compare_report(compare_runs(a, b))
        assert "## Run metrics" in report
        assert "## BENCH files" in report


ADV_ACC = "tournament/yelp/wcnn/adv_training/joint/adversarial_accuracy"
TRANSFER = "tournament/transfer/yelp/joint/wcnn_to_lstm/success_rate"


def _make_tournament_run(run_dir, adv_acc=0.8, transfer=0.2):
    """A run dir whose tournament_summary cell carries leaderboard gauges."""
    reg = MetricsRegistry()
    reg.set_gauge(ADV_ACC, adv_acc)
    reg.set_gauge("tournament/yelp/wcnn/none/joint/success_rate", 0.9)
    reg.set_gauge(TRANSFER, transfer)
    write_run_metrics(run_dir / "tournament_summary", reg.snapshot())
    return run_dir


class TestTournamentGates:
    @pytest.mark.parametrize(
        ("name", "direction"),
        [
            (ADV_ACC, "higher"),
            ("tournament/yelp/wcnn/none/joint/success_rate", "higher"),
            ("tournament/yelp/wcnn/none/joint/mean_queries", "lower"),
            ("tournament/yelp/wcnn/smoothing/gradient_word/failures", "lower"),
            # transfer success is the attacker's win: lower is better, and
            # the "transfer" pattern must beat the generic "success" one
            (TRANSFER, "lower"),
            ("frontier/joint/q100/success_rate", "higher"),
        ],
    )
    def test_directions(self, name, direction):
        assert metric_direction(name) == direction

    def test_summarize_flattens_tournament_gauges(self, tmp_path):
        run = _make_tournament_run(tmp_path / "run")
        summary = summarize_run_dir(run)
        assert summary[ADV_ACC] == pytest.approx(0.8)
        assert summary[TRANSFER] == pytest.approx(0.2)

    def test_weakened_defense_is_a_regression(self, tmp_path):
        a = _make_tournament_run(tmp_path / "a", adv_acc=0.8)
        b = _make_tournament_run(tmp_path / "b", adv_acc=0.5)
        comparison = compare_runs(a, b)
        assert not comparison.ok
        assert ADV_ACC in [d.name for d in comparison.regressions]

    def test_increased_transfer_is_a_regression(self, tmp_path):
        a = _make_tournament_run(tmp_path / "a", transfer=0.2)
        b = _make_tournament_run(tmp_path / "b", transfer=0.6)
        comparison = compare_runs(a, b)
        assert not comparison.ok
        assert TRANSFER in [d.name for d in comparison.regressions]

    def test_improvements_pass_both_directions(self, tmp_path):
        a = _make_tournament_run(tmp_path / "a", adv_acc=0.5, transfer=0.6)
        b = _make_tournament_run(tmp_path / "b", adv_acc=0.8, transfer=0.1)
        assert compare_runs(a, b).ok
