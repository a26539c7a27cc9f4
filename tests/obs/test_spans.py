"""MetricsRegistry.span: nested span paths, phase counters, attachment, merging."""

import pytest

from repro.attacks.base import Attack
from repro.obs.registry import MetricsRegistry
from repro.obs.report import render_phase_table


def phases(reg: MetricsRegistry) -> set[str]:
    """Span paths that recorded at least one call."""
    return {
        name[len("phase/") : -len("_calls")]
        for name in reg.counters
        if name.startswith("phase/") and name.endswith("_calls")
    }


class TestSpanNesting:
    def test_flat_span_accumulates(self):
        reg = MetricsRegistry()
        with reg.span("tokenize"):
            pass
        with reg.span("tokenize"):
            pass
        assert reg.counter("phase/tokenize_calls") == 2.0
        assert reg.counter("phase/tokenize_seconds") >= 0.0

    def test_nested_spans_compose_slash_paths(self):
        reg = MetricsRegistry()
        with reg.span("candidate-gen"):
            with reg.span("lm-filter"):
                pass
        with reg.span("lm-filter"):
            pass
        # nested LM time is distinguishable from a stand-alone LM pass
        assert phases(reg) == {"candidate-gen", "candidate-gen/lm-filter", "lm-filter"}
        assert reg.counter("phase/candidate-gen/lm-filter_calls") == 1.0
        assert reg.counter("phase/lm-filter_calls") == 1.0

    def test_outer_span_time_includes_inner(self):
        reg = MetricsRegistry()
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        assert reg.counter("phase/outer_seconds") >= reg.counter("phase/outer/inner_seconds")

    def test_stack_unwinds_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("outer"):
                raise RuntimeError("boom")
        with reg.span("after"):
            pass
        assert phases(reg) == {"outer", "after"}  # not "outer/after"
        assert reg.counter("phase/outer_calls") == 1.0  # the raising span still counts

    def test_report_is_sorted_by_path(self):
        reg = MetricsRegistry()
        for name in ("zeta", "alpha"):
            with reg.span(name):
                pass
        table = render_phase_table(reg.counters)
        assert table.index("| alpha |") < table.index("| zeta |")


class TestRegistryMirror:
    def test_spans_mirror_into_phase_counters(self):
        reg = MetricsRegistry()
        with reg.span("greedy-select"):
            with reg.span("forward"):
                pass
        assert reg.counter("phase/greedy-select_calls") == 1.0
        assert reg.counter("phase/greedy-select/forward_calls") == 1.0
        assert reg.counter("phase/greedy-select/forward_seconds") <= reg.counter(
            "phase/greedy-select_seconds"
        )

    def test_no_registry_is_fine(self):
        attack = Attack(model=None)
        with attack._span("a"):
            pass
        assert attack.metrics is None

    def test_rebinding_registry_redirects_mirror(self):
        """set_metrics re-points an attack and its sub-attacks."""
        attack = Attack(model=None)
        attack.stage = Attack(model=None)
        attack.set_metrics(MetricsRegistry())
        worker_reg = MetricsRegistry()
        attack.set_metrics(worker_reg)
        assert attack.stage.metrics is worker_reg
        with attack.stage._span("forward"):
            pass
        assert worker_reg.counter("phase/forward_calls") == 1.0


class TestMerging:
    def test_merge_sums_calls_and_seconds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg in (a, b):
            with reg.span("forward"):
                pass
        merged = MetricsRegistry().merge(a.snapshot()).merge(b)
        assert merged.counter("phase/forward_calls") == 2.0
        assert merged.counter("phase/forward_seconds") == pytest.approx(
            a.counter("phase/forward_seconds") + b.counter("phase/forward_seconds")
        )

    def test_reset(self):
        reg = MetricsRegistry()
        with reg.span("x"):
            pass
        reg.reset()
        assert phases(reg) == set()
