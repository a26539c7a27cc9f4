"""Self-test of the benchmark's layer ledger and output checks.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest e2ebench/test_ledger.py -q

It attacks a few yelp documents through the tournament driver (smoothing
defense and the expected-failure path included), once untraced and once
traced, and checks that tracing changes no output, that the ledger's
self times close on the traced wall time, and that every wrapper is gone
afterwards.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
from ledger import Ledger  # noqa: E402
from workloads import WORKLOADS, Workload, prepare, run_pass  # noqa: E402

SMALL = Workload("selftest", "", "tournament", 1, 3, 2, ("yelp",))


def _wrappers_left() -> list[str]:
    """Every attribute of a loaded repro module or class still wrapped."""
    left = []
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            targets = [(attr, value)]
            if isinstance(value, type):
                targets += [(f"{attr}.{k}", v) for k, v in vars(value).items()]
            left += [
                f"{mod_name}.{name}"
                for name, obj in targets
                if getattr(obj, "__wrapped_by_ledger__", False)
            ]
    return left


@pytest.fixture(scope="module")
def pair():
    prepare([SMALL])
    untraced, _ = run_pass(SMALL, seed=7, block=1)
    ledger = Ledger()
    traced, frame = run_pass(SMALL, seed=7, block=1, ledger=ledger)
    return untraced, traced, ledger, frame


def test_tracing_changes_no_output(pair):
    untraced, traced, _, _ = pair
    assert traced.digest == untraced.digest
    assert traced.unexpected == [] and untraced.unexpected == []


def test_self_times_close_on_wall_time(pair):
    _, traced, ledger, _ = pair
    layers = run.ledger_metrics(SMALL, ledger, traced)
    total = sum(ledger.self_s.values()) + layers["trace.unattributed_s"]
    assert abs(total - traced.wall_s) <= 0.02 * traced.wall_s
    assert run.ledger_closes(ledger, traced.wall_s)
    # the layers the tournament exercises all recorded work
    for name in (
        "models.predict_proba.calls",
        "defense.smoothing.calls",
        "attacks.attack.calls",
        "eval.runner.s",
    ):
        assert layers[name] > 0, name
    assert layers["defense.smoothing.rows_per_call"] >= 9


def test_every_wrapper_removed(pair):
    _, _, ledger, _ = pair
    assert ledger.installed == 0
    assert _wrappers_left() == []


def test_expected_failures_are_the_only_failures(pair):
    _, traced, _, frame = pair
    failing = {
        (c.cell.defense.tag_label, c.cell.attack.tag_label)
        for c in frame
        if c.evaluation.failures
    }
    assert failing == {("smoothing", "joint")}
    assert 0 < traced.attack_failures < traced.attempted


def test_spec_matches_benchmark_json():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == run.spec()
    assert set(run.LISTED_WORKLOADS) <= set(WORKLOADS)


def test_refuses_repro_variables():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "table2-serial"],
        cwd=ROOT,
        env={"PATH": "/usr/bin:/bin", "REPRO_NUM_WORKERS": "2"},
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode != 0
    assert "REPRO_" in proc.stderr
    assert proc.stdout == ""
