"""The one metrics type: counters, gauges, mergeable histograms, phase spans.

One registry instance aggregates every runtime signal of an experiment:
the forward-batch counters the classifiers write in
``TextClassifier.predict_proba``, the phase spans of attacks and
paraphrasers (:meth:`MetricsRegistry.span`), ``ScoreCache`` hit/miss/
eviction accounting and :class:`~repro.eval.progress.Heartbeat` vitals.
Everything is plain-data and picklable, and :meth:`MetricsRegistry.merge`
folds a :meth:`MetricsRegistry.snapshot` into another registry — which
is how the :class:`~repro.eval.parallel.ParallelAttackRunner` ships each
worker's counters back to the parent.

Histograms use fixed log-spaced buckets (1 µs .. 1000 s by default, four
buckets per decade) so merging is exact bucket-count addition and
quantiles (p50/p95 for BENCH trajectories and run reports) are estimated
by linear interpolation within a bucket, clamped to the observed
min/max.
"""

from __future__ import annotations

import bisect
import math
import time
from contextlib import contextmanager

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "default_latency_bounds",
    "forward_buckets",
    "mean_padded_length",
]

#: per-padded-length forward counters: ``forward/padded_len/<L>/{batches,docs,seconds}``
FORWARD_BUCKET_PREFIX = "forward/padded_len/"


def default_latency_bounds() -> list[float]:
    """Log-spaced bucket bounds: 1e-6 .. 1e3, four buckets per decade."""
    return [10.0 ** (e / 4.0) for e in range(-24, 13)]


class Histogram:
    """Fixed-bound histogram: mergeable, picklable, quantile-queryable.

    Bucket ``i`` counts observations ``v`` with
    ``bounds[i-1] < v <= bounds[i]``; one overflow bucket catches values
    above the last bound.  Exact sum/count/min/max ride along so means
    and range are exact even though quantiles are interpolated.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: list[float] | None = None) -> None:
        self.bounds = sorted(bounds) if bounds is not None else default_latency_bounds()
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated quantile estimate, clamped to the observed range."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if cumulative + c >= target:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                fraction = (target - cumulative) / c
                estimate = lo + fraction * (hi - lo)
                return min(max(estimate, self.min), self.max)
            cumulative += c
        return self.max

    def snapshot(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "Histogram":
        hist = cls(bounds=snapshot["bounds"])
        return hist.merge(snapshot)

    def merge(self, other: "dict | Histogram") -> "Histogram":
        if isinstance(other, Histogram):
            other = other.snapshot()
        if list(other["bounds"]) != self.bounds:
            raise ValueError("cannot merge histograms with different bucket bounds")
        for i, c in enumerate(other["counts"]):
            self.counts[i] += int(c)
        self.count += int(other["count"])
        self.total += float(other["total"])
        if other["min"] is not None:
            self.min = min(self.min, float(other["min"]))
        if other["max"] is not None:
            self.max = max(self.max, float(other["max"]))
        return self

    def summary(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "max": 0.0 if self.count == 0 else self.max,
        }


class MetricsRegistry:
    """Counters, gauges, and histograms under one mergeable namespace.

    Naming convention (slash-separated namespaces, ``_seconds``/``_calls``
    suffixes for timings):

    - ``attack/*``   — per-document outcome accounting (docs, successes,
      n_queries, cache_hits, cache_evictions, wall-time histogram);
    - ``forward/*``  — :meth:`record_batch` forward-batch counters, their
      per-padded-length split (:func:`forward_buckets`) and the latency
      histogram;
    - ``phase/*``    — :meth:`span` totals (``phase/<path>_calls`` and
      ``phase/<path>_seconds``);
    - ``run/*``      — heartbeat gauges (done, total, failures, docs/s).

    Merge semantics: counters add, histograms add bucket-wise, gauges are
    last-write-wins (they are point-in-time readings, not totals).
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        #: names of the open spans, outermost first
        self._spans: list[str] = []

    # -- recording ----------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float, bounds: list[float] | None = None) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms.setdefault(name, Histogram(bounds=bounds))
        hist.observe(value)

    @contextmanager
    def timer(self, name: str):
        """Observe wall-time into the ``name`` histogram."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    def record_batch(
        self, n_docs: int, padded_len: int, encode_seconds: float, seconds: float
    ) -> None:
        """One batch a classifier scored: ``n_docs`` documents padded to
        ``padded_len``, encoded in ``encode_seconds``, forwarded in ``seconds``."""
        self.inc("phase/tokenize_calls")
        self.inc("phase/tokenize_seconds", encode_seconds)
        self.inc("forward/batches")
        self.inc("forward/docs", n_docs)
        self.inc("forward/seconds", seconds)
        self.observe("forward/batch_seconds", seconds)
        bucket = f"{FORWARD_BUCKET_PREFIX}{padded_len}/"
        self.inc(bucket + "batches")
        self.inc(bucket + "docs", n_docs)
        self.inc(bucket + "seconds", seconds)

    @contextmanager
    def span(self, name: str):
        """Time a phase into ``phase/<path>_calls`` / ``phase/<path>_seconds``.

        Spans opened inside another span extend its path with ``/``
        (``candidate-gen/lm-filter``), so time spent in the LM filter
        inside candidate generation stays apart from a stand-alone LM pass.
        """
        self._spans.append(name)
        path = "/".join(self._spans)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._spans.pop()
            self.inc(f"phase/{path}_calls")
            self.inc(f"phase/{path}_seconds", elapsed)

    # -- reading ------------------------------------------------------------
    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def histogram(self, name: str) -> Histogram | None:
        return self.histograms.get(name)

    # -- cross-process merging ----------------------------------------------
    def snapshot(self) -> dict:
        """Serializable (picklable, JSON-safe) copy of every series."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {name: h.snapshot() for name, h in self.histograms.items()},
        }

    def merge(self, other: "dict | MetricsRegistry") -> "MetricsRegistry":
        """Fold a :meth:`snapshot` (or another registry) into this one."""
        if isinstance(other, MetricsRegistry):
            other = other.snapshot()
        for name, amount in other.get("counters", {}).items():
            self.inc(name, amount)
        for name, value in other.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, snap in other.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                self.histograms[name] = Histogram.from_snapshot(snap)
            else:
                hist.merge(snap)
        return self

    def summary(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: h.summary() for name, h in sorted(self.histograms.items())
            },
        }

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


def forward_buckets(counters: dict[str, float]) -> dict[int, dict[str, float]]:
    """``{padded_len: {"batches", "docs", "seconds"}}`` from forward counters."""
    buckets: dict[int, dict[str, float]] = {}
    for name, value in counters.items():
        if name.startswith(FORWARD_BUCKET_PREFIX):
            padded_len, field = name[len(FORWARD_BUCKET_PREFIX) :].split("/")
            buckets.setdefault(int(padded_len), {})[field] = value
    return dict(sorted(buckets.items()))


def mean_padded_length(counters: dict[str, float]) -> float:
    """Document-weighted mean padded length over every forward batch."""
    buckets = forward_buckets(counters)
    docs = sum(entry.get("docs", 0.0) for entry in buckets.values())
    if not docs:
        return 0.0
    return sum(length * entry.get("docs", 0.0) for length, entry in buckets.items()) / docs
