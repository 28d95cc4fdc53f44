"""Metrics registry: counter/gauge/histogram math, thread safety, and the
ServingMetrics facade's backward-compatible snapshot."""

import threading

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    percentile,
    reset_registry,
)
from repro.serve.metrics import ServingMetrics


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0.95) == 7.0

    def test_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]  # 1..100
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.5) == pytest.approx(50.0, abs=1.0)
        assert percentile(values, 1.0) == 100.0


class TestPrimitives:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_gauge_set_and_add(self):
        g = Gauge("x")
        g.set(10)
        g.add(-3)
        assert g.value == 7.0

    def test_histogram_snapshot_math(self):
        h = Histogram("x")
        h.observe_many([1.0, 2.0, 3.0, 4.0])
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 10.0
        assert snap["mean"] == 2.5
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0
        assert snap["p50"] == 3.0  # nearest-rank over [1,2,3,4]

    def test_histogram_window_bounds_percentiles_not_count(self):
        h = Histogram("x", window=4)
        h.observe_many([100.0] * 4 + [1.0] * 4)  # old values evicted
        snap = h.snapshot()
        assert snap["count"] == 8  # cumulative
        assert snap["max"] == 1.0  # windowed
        assert snap["window"] == 4.0  # current occupancy backing percentiles
        assert h.values() == [1.0] * 4

    def test_histogram_snapshot_reports_window_occupancy(self):
        h = Histogram("x", window=100)
        h.observe_many([1.0, 2.0, 3.0])
        assert h.snapshot()["window"] == 3.0

    def test_histogram_reset(self):
        h = Histogram("x")
        h.observe(5.0)
        h.reset()
        assert h.count == 0
        assert h.snapshot()["max"] == 0.0


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_snapshot_flattens_histograms(self):
        reg = MetricsRegistry()
        reg.counter("req").inc(3)
        reg.gauge("depth").set(2)
        reg.histogram("lat").observe(0.5)
        snap = reg.snapshot()
        assert snap["req"] == 3.0
        assert snap["depth"] == 2.0
        assert snap["lat.count"] == 1.0
        assert snap["lat.p95"] == 0.5

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a")
        assert reg.names() == ["a", "b"]

    def test_reset_zeroes_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.histogram("h").observe(1.0)
        reg.reset()
        assert reg.snapshot()["c"] == 0.0
        assert reg.snapshot()["h.count"] == 0.0

    def test_global_registry_singleton(self):
        reset_registry()
        try:
            assert get_registry() is get_registry()
        finally:
            reset_registry()


class TestThreadSafety:
    def test_concurrent_counter_increments_are_exact(self):
        reg = MetricsRegistry()
        threads_n, per_thread = 8, 2000

        def worker():
            counter = reg.counter("hits")
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("hits").value == threads_n * per_thread

    def test_concurrent_histogram_observes_are_exact(self):
        reg = MetricsRegistry()
        threads_n, per_thread = 8, 1000

        def worker():
            hist = reg.histogram("lat", window=64)
            for _ in range(per_thread):
                hist.observe(1.0)

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        hist = reg.histogram("lat")
        assert hist.count == threads_n * per_thread
        assert hist.sum == float(threads_n * per_thread)

    def test_concurrent_get_or_create_single_instance(self):
        reg = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            seen.append(reg.counter("one"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c is seen[0] for c in seen)


class TestServingMetricsFacade:
    """ServingMetrics must keep its historical snapshot keys and attrs."""

    LEGACY_KEYS = {
        "requests", "batches", "mean_batch_size", "throughput_rps",
        "uptime_seconds", "busy_seconds", "latency_mean_ms",
        "latency_p50_ms", "latency_p95_ms", "cache_hits", "cache_misses",
        "cache_hit_rate",
    }

    def test_snapshot_keeps_legacy_keys(self):
        snap = ServingMetrics().snapshot()
        assert self.LEGACY_KEYS <= set(snap)

    def test_attribute_api_still_works(self):
        metrics = ServingMetrics()
        metrics.record_batch(4, 0.2)
        metrics.record_cache(hit=True)
        metrics.record_cache(hit=False)
        assert metrics.requests == 4
        assert metrics.batches == 1
        assert metrics.cache_hits == 1
        assert metrics.cache_misses == 1
        assert metrics.total_seconds == pytest.approx(0.2)

    def test_backed_by_shared_registry(self):
        reg = MetricsRegistry()
        metrics = ServingMetrics(registry=reg)
        metrics.record_batch(2, 0.1)
        snap = reg.snapshot()
        assert snap["serve.requests"] == 2.0
        assert snap["serve.latency_seconds.count"] == 2.0
