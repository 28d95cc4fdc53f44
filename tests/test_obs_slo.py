"""SLO monitor: rolling windows, edge-triggered breach/recover events."""

import pytest

from repro.obs import (
    EventLogger,
    MetricsRegistry,
    SloMonitor,
    SloRule,
    default_serving_rules,
)


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class CapturingSink:
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)


def _monitor(rules, registry=None):
    clock = FakeClock()
    sink = CapturingSink()
    monitor = SloMonitor(
        rules, logger=EventLogger(sinks=[sink]), registry=registry, clock=clock
    )
    return monitor, clock, sink


LATENCY = SloRule("latency_p95", "latency_seconds", "p95", 0.1,
                  window_seconds=10.0, min_samples=3)


class TestRuleValidation:
    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ValueError):
            SloRule("x", "s", "p42", 1.0)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError):
            SloRule("x", "s", "p95", 1.0, window_seconds=0.0)

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError):
            SloMonitor([LATENCY, LATENCY])

    def test_default_serving_rules_one_per_budget(self):
        rules = default_serving_rules(p95_latency_s=0.1, error_rate=0.05)
        assert [r.name for r in rules] == ["latency_p95", "error_rate"]
        assert default_serving_rules() == []


class TestEvaluation:
    def test_under_threshold_is_healthy(self):
        monitor, _, sink = _monitor([LATENCY])
        for _ in range(5):
            monitor.observe_latency(0.01)
        statuses = monitor.evaluate()
        assert not statuses[0].breached
        assert sink.events == []

    def test_min_samples_suppresses_early_alerts(self):
        monitor, _, _ = _monitor([LATENCY])
        monitor.observe_latency(99.0)  # terrible, but only one sample
        status = monitor.evaluate()[0]
        assert status.value is None
        assert not status.breached

    def test_breach_is_edge_triggered_once(self):
        monitor, _, sink = _monitor([LATENCY])
        for _ in range(4):
            monitor.observe_latency(5.0)
        monitor.evaluate()
        monitor.evaluate()
        monitor.evaluate()
        breaches = [e for e in sink.events if e.name == "breach"]
        assert len(breaches) == 1
        assert breaches[0].level == "warning"
        assert breaches[0].fields["rule"] == "latency_p95"
        assert breaches[0].fields["value"] > breaches[0].fields["threshold"]

    def test_recover_event_after_window_rolls(self):
        monitor, clock, sink = _monitor([LATENCY])
        for _ in range(4):
            monitor.observe_latency(5.0)
        monitor.evaluate()
        clock.advance(9.0)  # old samples still in window
        for _ in range(10):
            monitor.observe_latency(0.001)
        clock.advance(2.0)  # slow samples now out of the 10s window
        monitor.observe_latency(0.001)
        monitor.evaluate()
        names = [e.name for e in sink.events]
        assert names == ["breach", "recover"]
        assert monitor.breached_rules == []

    def test_error_rate_aggregate(self):
        rule = SloRule("error_rate", "errors", "error_rate", 0.25,
                       window_seconds=60.0, min_samples=4)
        monitor, _, sink = _monitor([rule])
        monitor.record_success(3)
        monitor.record_error(1)
        assert not monitor.evaluate()[0].breached  # exactly at 0.25
        monitor.record_error(4)
        assert monitor.evaluate()[0].breached
        assert [e.name for e in sink.events] == ["breach"]

    def test_queue_depth_uses_max_aggregate(self):
        rule = SloRule("queue_depth", "queue_depth", "max", 10,
                       window_seconds=60.0, min_samples=1)
        monitor, _, _ = _monitor([rule])
        for depth in (3, 50, 2):
            monitor.observe("queue_depth", depth)
        assert monitor.evaluate()[0].breached

    def test_registry_counters_track_breaches(self):
        registry = MetricsRegistry()
        monitor, _, _ = _monitor([LATENCY], registry=registry)
        for _ in range(4):
            monitor.observe_latency(5.0)
        monitor.evaluate()
        assert registry.snapshot()["obs.slo.breaches"] == 1.0
        assert registry.snapshot()["obs.slo.breached"] == 1.0


class TestHealth:
    def test_health_shape_matches_metrics_server_contract(self):
        monitor, _, _ = _monitor([LATENCY])
        payload = monitor.health()
        assert payload["status"] == "ok"
        assert payload["breached"] == []
        assert payload["rules"][0]["rule"] == "latency_p95"

    def test_health_degraded_on_breach(self):
        monitor, _, _ = _monitor([LATENCY])
        for _ in range(4):
            monitor.observe_latency(5.0)
        payload = monitor.health()
        assert payload["status"] == "degraded"
        assert payload["breached"] == ["latency_p95"]
