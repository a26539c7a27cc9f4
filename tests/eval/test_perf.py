"""Forward counters in the metrics registry, and the BENCH json schema."""

import json

import numpy as np
import pytest

from repro.eval import read_bench_json, write_bench_json
from repro.obs.registry import MetricsRegistry, forward_buckets, mean_padded_length


def record(reg: MetricsRegistry, n_docs: int, padded_len: int, seconds: float) -> None:
    reg.record_batch(n_docs, padded_len, encode_seconds=0.0, seconds=seconds)


class TestForwardCounters:
    def test_record_forward_accumulates(self):
        reg = MetricsRegistry()
        record(reg, n_docs=4, padded_len=16, seconds=0.5)
        record(reg, n_docs=2, padded_len=16, seconds=0.25)
        record(reg, n_docs=1, padded_len=64, seconds=1.25)
        assert reg.counter("forward/batches") == 3
        assert reg.counter("forward/docs") == 7
        assert reg.counter("forward/seconds") == pytest.approx(2.0)
        assert reg.histogram("forward/batch_seconds").count == 3
        assert reg.counter("phase/tokenize_calls") == 3
        # the per-length counters are named forward/padded_len/<L>/<field>
        assert reg.counter("forward/padded_len/16/docs") == 6
        assert forward_buckets(reg.counters) == {
            16: {"batches": 2.0, "docs": 6.0, "seconds": 0.75},
            64: {"batches": 1.0, "docs": 1.0, "seconds": 1.25},
        }

    def test_mean_padded_length_is_doc_weighted(self):
        reg = MetricsRegistry()
        assert mean_padded_length(reg.counters) == 0.0
        record(reg, 3, 10, 0.1)
        record(reg, 1, 50, 0.1)
        assert mean_padded_length(reg.counters) == pytest.approx((3 * 10 + 1 * 50) / 4)

    def test_summary_roundtrips_through_json(self):
        reg = MetricsRegistry()
        record(reg, 5, 12, 0.3)
        snapshot = json.loads(json.dumps(reg.snapshot()))
        assert forward_buckets(MetricsRegistry().merge(snapshot).counters) == {
            12: {"batches": 1.0, "docs": 5.0, "seconds": 0.3}
        }

    def test_reset(self):
        reg = MetricsRegistry()
        record(reg, 5, 12, 0.3)
        reg.reset()
        assert forward_buckets(reg.counters) == {}


class TestBenchJson:
    def test_schema_and_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        payload = write_bench_json(
            path, {"speedup": (2.5, "x"), "forwards": (120.0, "forwards")}
        )
        assert payload == {
            "forwards": {"value": 120.0, "unit": "forwards"},
            "speedup": {"value": 2.5, "unit": "x"},
        }
        assert read_bench_json(path) == payload

    def test_sorted_and_stable_on_disk(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        write_bench_json(path, {"b": (1.0, "s"), "a": (2.0, "s")})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_every_entry_has_value_and_unit(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        payload = write_bench_json(path, {"m": (np.float64(1.5), "x")})
        for entry in payload.values():
            assert set(entry) == {"value", "unit"}


class TestModelIntegration:
    def test_classifier_reports_into_attached_recorder(self, victim, atk_corpus):
        reg = MetricsRegistry()
        docs = atk_corpus.documents("test")[:8]
        victim.metrics = reg
        try:
            victim.predict_proba(docs)
        finally:
            victim.metrics = None
        assert reg.counter("forward/docs") == len(docs)
        assert reg.counter("forward/batches") >= 1
        assert reg.counter("forward/seconds") > 0.0
        assert reg.histogram("forward/batch_seconds").count == reg.counter("forward/batches")
        assert reg.counter("phase/tokenize_calls") == reg.counter("forward/batches")
        buckets = forward_buckets(reg.counters)
        assert sum(b["docs"] for b in buckets.values()) == len(docs)
        assert sum(b["batches"] for b in buckets.values()) == reg.counter("forward/batches")
        # bucketed inference pads below max_len on these short docs
        assert mean_padded_length(reg.counters) <= victim.max_len

    def test_no_recorder_is_the_default(self, victim):
        assert victim.metrics is None or isinstance(victim.metrics, MetricsRegistry)
