"""LRUCache and ServingMetrics: the session's feature cache and counters."""

import pytest

from repro.serve import LRUCache, ServingMetrics


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # refresh 'a'
        cache.put("c", 3)               # evicts 'b'
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.evictions == 1

    def test_disabled_cache(self):
        cache = LRUCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_stats(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=-1)


class TestServingMetrics:
    def test_snapshot_math(self):
        metrics = ServingMetrics()
        metrics.record_batch(4, 0.02)
        metrics.record_batch(2, 0.01)
        metrics.record_cache(hit=True)
        metrics.record_cache(hit=False)
        snap = metrics.snapshot()
        assert snap["requests"] == 6
        assert snap["batches"] == 2
        assert snap["mean_batch_size"] == 3.0
        assert snap["cache_hit_rate"] == 0.5
        assert snap["latency_p50_ms"] > 0

    def test_render_is_textual(self):
        metrics = ServingMetrics()
        metrics.record_batch(1, 0.001)
        text = metrics.render()
        assert "serving metrics:" in text
        assert "throughput_rps" in text

    def test_empty_snapshot(self):
        snap = ServingMetrics().snapshot()
        assert snap["requests"] == 0
        assert snap["latency_mean_ms"] == 0.0
        assert snap["cache_hit_rate"] == 0.0
