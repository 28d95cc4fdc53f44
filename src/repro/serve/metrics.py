"""Serving observability: request/batch/cache counters and latency stats.

One :class:`ServingMetrics` instance rides along an
:class:`repro.serve.InferenceSession`. Since the ``repro.obs`` subsystem
landed this class is a thin facade over a
:class:`repro.obs.metrics.MetricsRegistry` — counters, the bounded latency
window and the percentile math all come from the shared implementation —
while :meth:`snapshot` keeps its historical keys, so existing dashboards
and tests read the same report.

Each of the ``size`` items a :meth:`ServingMetrics.record_batch` call
accounts is charged the share ``seconds / size`` as its latency. An
:class:`repro.serve.InferenceSession` passes its batch's compute time over
its articles (nothing waited before the forward);
:class:`repro.serve.PredictionService` records each answered request as a
batch of one, charged its whole wall time, queue wait included, so its
``requests`` counts requests and its latencies are per request.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..obs.metrics import MetricsRegistry

#: Bounded window of per-request latencies kept for percentile estimates.
LATENCY_WINDOW = 4096


class ServingMetrics:
    """Thread-safe counters for a serving session."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry or MetricsRegistry()
        self._started = time.perf_counter()
        self._requests = self.registry.counter("serve.requests")
        self._batches = self.registry.counter("serve.batches")
        self._busy = self.registry.counter("serve.busy_seconds")
        self._cache_hits = self.registry.counter("serve.cache_hits")
        self._cache_misses = self.registry.counter("serve.cache_misses")
        self._latency = self.registry.histogram(
            "serve.latency_seconds", window=LATENCY_WINDOW
        )

    # -- counter views (historical attribute API) ----------------------
    @property
    def requests(self) -> int:
        return int(self._requests.value)

    @property
    def batches(self) -> int:
        return int(self._batches.value)

    @property
    def cache_hits(self) -> int:
        return int(self._cache_hits.value)

    @property
    def cache_misses(self) -> int:
        return int(self._cache_misses.value)

    @property
    def total_seconds(self) -> float:
        return self._busy.value

    # ------------------------------------------------------------------
    def record_batch(self, size: int, seconds: float) -> None:
        """Account one prediction batch of ``size`` requests, each charged
        the compute share ``seconds / size``."""
        if size <= 0:
            return
        self._requests.inc(size)
        self._batches.inc(1)
        self._busy.inc(seconds)
        self._latency.observe_many([seconds / size] * size)

    def record_cache(self, hit: bool) -> None:
        (self._cache_hits if hit else self._cache_misses).inc(1)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Point-in-time report of everything the session has served."""
        elapsed = time.perf_counter() - self._started
        latency = self._latency.snapshot()
        requests = self.requests
        batches = self.batches
        cache_hits = self.cache_hits
        cache_misses = self.cache_misses
        cache_total = cache_hits + cache_misses
        return {
            "requests": requests,
            "batches": batches,
            "mean_batch_size": requests / batches if batches else 0.0,
            "throughput_rps": requests / elapsed if elapsed > 0 else 0.0,
            "uptime_seconds": elapsed,
            "busy_seconds": self.total_seconds,
            "latency_mean_ms": 1e3 * latency["mean"],
            "latency_p50_ms": 1e3 * latency["p50"],
            "latency_p95_ms": 1e3 * latency["p95"],
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "cache_hit_rate": cache_hits / cache_total if cache_total else 0.0,
        }

    def render(self) -> str:
        """Human-readable one-per-line snapshot (the CLI footer)."""
        snap = self.snapshot()
        lines = ["serving metrics:"]
        for key, value in snap.items():
            if isinstance(value, float):
                lines.append(f"  {key:18s} {value:.4f}")
            else:
                lines.append(f"  {key:18s} {value}")
        return "\n".join(lines)
