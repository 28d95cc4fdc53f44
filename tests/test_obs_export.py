"""Metric exporters: Prometheus text round-trip, JSON snapshot schema and
periodic flushing."""

import json
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    PeriodicExporter,
    SNAPSHOT_SCHEMA,
    json_snapshot,
    parse_prometheus,
    prometheus_name,
    render_prometheus,
    write_json_snapshot,
    write_prometheus,
)
from repro.obs.export import escape_label_value, unescape_label_value


def _registry():
    reg = MetricsRegistry()
    reg.counter("serve.requests").inc(42)
    reg.gauge("train.loss").set(1.25)
    reg.histogram("serve.latency_seconds").observe_many([0.1, 0.2, 0.3, 0.4])
    return reg


class TestNames:
    def test_dots_become_underscores(self):
        assert prometheus_name("serve.latency_seconds") == (
            "repro_serve_latency_seconds"
        )

    def test_custom_prefix(self):
        assert prometheus_name("a.b", prefix="x_") == "x_a_b"

    def test_leading_digit_guarded(self):
        assert prometheus_name("9lives", prefix="")[0] == "_"


class TestLabelEscaping:
    @pytest.mark.parametrize("hostile", [
        'plain',
        'va"l\\ue\nx',
        '\\\\double\\',
        '"',
        'newline\nonly',
    ])
    def test_round_trip(self, hostile):
        assert unescape_label_value(escape_label_value(hostile)) == hostile

    def test_escaped_text_is_single_line(self):
        assert "\n" not in escape_label_value("a\nb")


class TestPrometheusRoundTrip:
    def test_counter_gets_total_suffix(self):
        samples = parse_prometheus(render_prometheus(_registry()))
        by_name = {s.name: s for s in samples}
        assert by_name["repro_serve_requests_total"].value == 42.0

    def test_gauge_value(self):
        samples = parse_prometheus(render_prometheus(_registry()))
        by_name = {s.name: s for s in samples}
        assert by_name["repro_train_loss"].value == 1.25

    def test_histogram_summary_quantiles_and_totals(self):
        samples = parse_prometheus(render_prometheus(_registry()))
        quantiles = {
            s.labels["quantile"]: s.value
            for s in samples
            if s.name == "repro_serve_latency_seconds"
        }
        assert set(quantiles) == {"0.5", "0.95", "0.99"}
        assert quantiles["0.99"] == pytest.approx(0.4)
        by_name = {s.name: s for s in samples}
        assert by_name["repro_serve_latency_seconds_sum"].value == pytest.approx(1.0)
        assert by_name["repro_serve_latency_seconds_count"].value == 4.0
        assert by_name["repro_serve_latency_seconds_min"].value == pytest.approx(0.1)
        assert by_name["repro_serve_latency_seconds_max"].value == pytest.approx(0.4)

    def test_constant_labels_survive_hostile_values(self):
        hostile = 'va"l\\ue\nx'
        text = render_prometheus(_registry(), labels={"host": hostile})
        for sample in parse_prometheus(text):
            assert sample.labels["host"] == hostile

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("!!! not exposition format")

    def test_render_ends_with_newline(self):
        assert render_prometheus(_registry()).endswith("\n")


class TestJsonSnapshot:
    def test_schema_and_metrics(self):
        snap = json_snapshot(_registry(), labels={"job": "test"})
        assert snap["schema"] == SNAPSHOT_SCHEMA
        assert snap["labels"] == {"job": "test"}
        assert snap["metrics"]["serve.requests"] == 42.0
        assert snap["metrics"]["serve.latency_seconds.count"] == 4.0
        assert snap["metrics"]["serve.latency_seconds.window"] == 4.0

    def test_write_is_valid_json_file(self, tmp_path):
        path = write_json_snapshot(_registry(), tmp_path / "metrics.json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == SNAPSHOT_SCHEMA
        assert not list(tmp_path.glob("*.tmp"))  # atomic write left no debris

    def test_write_prometheus_file_parses(self, tmp_path):
        path = write_prometheus(_registry(), tmp_path / "metrics.prom")
        assert parse_prometheus(path.read_text())


class TestPeriodicExporter:
    def test_flush_on_stop(self, tmp_path):
        reg = _registry()
        exporter = PeriodicExporter(reg, tmp_path / "m.prom", interval=60.0)
        exporter.start()
        exporter.stop()
        assert exporter.flushes >= 1
        assert parse_prometheus((tmp_path / "m.prom").read_text())

    def test_interval_flushes(self, tmp_path):
        reg = _registry()
        exporter = PeriodicExporter(reg, tmp_path / "m.json", interval=0.02,
                                    fmt="json")
        with exporter:
            threading.Event().wait(0.2)
        assert exporter.flushes >= 2  # at least one interval + the final one
        assert json.loads(
            (tmp_path / "m.json").read_text()
        )["schema"] == SNAPSHOT_SCHEMA

    def test_rejects_bad_params(self, tmp_path):
        with pytest.raises(ValueError):
            PeriodicExporter(_registry(), tmp_path / "m", interval=0.0)
        with pytest.raises(ValueError):
            PeriodicExporter(_registry(), tmp_path / "m", fmt="xml")
