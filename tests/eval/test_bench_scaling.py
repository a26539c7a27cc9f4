"""Regression gate on the recorded parallel-runner scaling curve.

``BENCH_inference.json`` (written by ``benchmarks/test_perf_inference.py``)
carries a ``docs_per_second`` series per worker count instead of one
opaque speedup scalar.  This test fails the build when the pooled runner
stops paying for itself: on a machine with >= 2 CPUs the recorded pooled
throughput must be at least the serial throughput.  On a 1-CPU container
the pool cannot physically beat serial — there the schema is still
enforced but the scaling bar is not (the honest number is recorded, not
asserted against hardware that cannot deliver it).
"""

from pathlib import Path

import pytest

from repro.eval.perf import read_bench_json

BENCH_PATH = Path(__file__).resolve().parents[2] / "BENCH_inference.json"

#: pooled throughput must reach this fraction of serial before the pool
#: counts as "not a regression" on multi-CPU hardware; 1.0 = break even
_MIN_POOLED_OVER_SERIAL = 1.0


@pytest.fixture(scope="module")
def bench():
    if not BENCH_PATH.exists():
        pytest.skip("BENCH_inference.json not generated on this checkout")
    return read_bench_json(BENCH_PATH)


def test_scaling_series_schema(bench):
    """The per-worker-count series replaced the old speedup scalar."""
    assert "parallel_runner_cpu_count" in bench
    assert "parallel_runner_docs_per_second_1w" in bench
    assert "parallel_runner_speedup" not in bench, (
        "the opaque speedup scalar was replaced by the docs_per_second "
        "series; regenerate BENCH_inference.json"
    )
    for name, entry in bench.items():
        if name.startswith("parallel_runner_docs_per_second"):
            assert entry["unit"] == "docs/s"
            assert entry["value"] > 0


def test_pooled_throughput_not_below_serial(bench):
    """With >= 2 CPUs, running the pool must not be slower than serial."""
    cpus = bench["parallel_runner_cpu_count"]["value"]
    if cpus < 2:
        pytest.skip(
            f"recorded cpu_count={cpus:g}: the pool cannot beat serial on "
            f"one CPU; the honest numbers are recorded but not gated"
        )
    serial = bench["parallel_runner_docs_per_second_1w"]["value"]
    pooled = [
        entry["value"]
        for name, entry in bench.items()
        if name.startswith("parallel_runner_docs_per_second")
        and not name.startswith("parallel_runner_docs_per_second_1w")
    ]
    assert pooled, "no multi-worker docs_per_second series recorded"
    best = max(pooled)
    assert best >= serial * _MIN_POOLED_OVER_SERIAL, (
        f"pooled throughput regressed below serial on a {cpus:g}-CPU "
        f"machine: best pooled {best:.1f} docs/s vs serial {serial:.1f} "
        f"docs/s"
    )
