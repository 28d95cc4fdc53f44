"""Metric exporters: Prometheus text format and JSON snapshots.

Everything in a :class:`repro.obs.metrics.MetricsRegistry` dies with the
process unless it leaves in a scrape-able shape. This module is the export
layer:

- :func:`render_prometheus` — the registry in Prometheus text exposition
  format (version 0.0.4). Counters become ``<name>_total``, gauges map
  directly, histograms export as summaries (``quantile`` labels over the
  bounded window, cumulative ``_sum``/``_count``) plus windowed
  ``_min``/``_max`` gauges.
- :func:`json_snapshot` / :func:`write_json_snapshot` — the flat snapshot
  under the stable schema ``repro.obs.metrics/1``.
- :class:`PeriodicExporter` — background thread flushing either format to a
  file on an interval, with atomic replace and a clean shutdown flush.

The live scrape endpoint is ``GET /metrics`` of ``repro serve http``
(:class:`repro.serve.PredictionService`), which renders its registry with
:func:`render_prometheus` under :data:`PROMETHEUS_CONTENT_TYPE`.

:func:`parse_prometheus` is a minimal reader for the exposition format so
tests (and the run differ) can round-trip what the writer emits, including
label escaping.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from .lifecycle import flush_at_exit, unregister_flush
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

#: Schema tag stamped on every JSON metrics snapshot.
SNAPSHOT_SCHEMA = "repro.obs.metrics/1"

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Summary quantiles exported for every histogram.
QUANTILES = (0.5, 0.95, 0.99)

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)


def prometheus_name(name: str, prefix: str = "repro_") -> str:
    """Sanitize a registry metric name into a legal Prometheus name.

    Dots and other illegal characters become underscores and the exporter
    prefix (default ``repro_``) namespaces the series:
    ``serve.latency_seconds`` → ``repro_serve_latency_seconds``.
    """
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    full = f"{prefix}{sanitized}"
    if not _NAME_OK.match(full):
        full = f"_{full}"
    return full


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def unescape_label_value(value: str) -> str:
    """Inverse of :func:`escape_label_value`."""
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"\\": "\\", "n": "\n", '"': '"'}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def format_labels(labels: Optional[Dict[str, str]]) -> str:
    """``{k="v",...}`` label block (empty string for no labels)."""
    if not labels:
        return ""
    parts = [
        f'{key}="{escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    ]
    return "{" + ",".join(parts) + "}"


def _fmt(value: float) -> str:
    return repr(float(value))


def prometheus_lines(
    registry: MetricsRegistry,
    labels: Optional[Dict[str, str]] = None,
    prefix: str = "repro_",
) -> List[str]:
    """The registry as exposition-format lines (with ``# TYPE`` comments)."""
    lines: List[str] = []
    base = dict(labels) if labels else {}
    for name, metric in registry.items():
        pname = prometheus_name(name, prefix=prefix)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {pname}_total counter")
            lines.append(f"{pname}_total{format_labels(base)} {_fmt(metric.value)}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname}{format_labels(base)} {_fmt(metric.value)}")
        elif isinstance(metric, Histogram):
            snap = metric.snapshot()
            lines.append(f"# TYPE {pname} summary")
            for q in QUANTILES:
                q_labels = dict(base)
                q_labels["quantile"] = _fmt(q)
                key = f"p{int(q * 100)}"
                lines.append(f"{pname}{format_labels(q_labels)} {_fmt(snap[key])}")
            lines.append(f"{pname}_sum{format_labels(base)} {_fmt(snap['sum'])}")
            lines.append(f"{pname}_count{format_labels(base)} {_fmt(snap['count'])}")
            for stat in ("min", "max"):
                lines.append(f"# TYPE {pname}_{stat} gauge")
                lines.append(
                    f"{pname}_{stat}{format_labels(base)} {_fmt(snap[stat])}"
                )
    return lines


def render_prometheus(
    registry: MetricsRegistry,
    labels: Optional[Dict[str, str]] = None,
    prefix: str = "repro_",
) -> str:
    """The full ``/metrics`` payload (trailing newline included)."""
    return "\n".join(prometheus_lines(registry, labels=labels, prefix=prefix)) + "\n"


@dataclasses.dataclass(frozen=True)
class Sample:
    """One parsed exposition-format sample line."""

    name: str
    labels: Dict[str, str]
    value: float


def _parse_label_block(block: str) -> Dict[str, str]:
    """Parse ``k="v",k2="v2"`` honoring escaped quotes inside values."""
    labels: Dict[str, str] = {}
    i = 0
    n = len(block)
    while i < n:
        eq = block.index("=", i)
        key = block[i:eq].strip().lstrip(",").strip()
        if block[eq + 1] != '"':
            raise ValueError(f"malformed label block: {block!r}")
        j = eq + 2
        raw: List[str] = []
        while j < n:
            ch = block[j]
            if ch == "\\" and j + 1 < n:
                raw.append(block[j : j + 2])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        if j >= n:
            raise ValueError(f"unterminated label value in {block!r}")
        labels[key] = unescape_label_value("".join(raw))
        i = j + 1
    return labels


def parse_prometheus(text: str) -> List[Sample]:
    """Parse exposition text back into samples (comments skipped).

    Not a general scraper — just enough of the format to round-trip what
    :func:`render_prometheus` writes, which is what the tests pin down.
    """
    samples: List[Sample] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"unparseable sample line: {line!r}")
        block = match.group("labels")
        samples.append(
            Sample(
                name=match.group("name"),
                labels=_parse_label_block(block) if block else {},
                value=float(match.group("value")),
            )
        )
    return samples


# ----------------------------------------------------------------------
# JSON snapshots
# ----------------------------------------------------------------------
def json_snapshot(
    registry: MetricsRegistry, labels: Optional[Dict[str, str]] = None
) -> Dict:
    """The registry's flat snapshot under the ``repro.obs.metrics/1`` schema."""
    return {
        "schema": SNAPSHOT_SCHEMA,
        "unix_ts": time.time(),
        "labels": dict(labels) if labels else {},
        "metrics": registry.snapshot(),
    }


def _atomic_write(path: Path, content: str) -> Path:
    """Write-then-rename so scrapers never read a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(content, encoding="utf-8")
    os.replace(tmp, path)
    return path


def write_json_snapshot(
    registry: MetricsRegistry,
    path: Union[str, Path],
    labels: Optional[Dict[str, str]] = None,
) -> Path:
    """Atomically write :func:`json_snapshot` to ``path``."""
    payload = json.dumps(json_snapshot(registry, labels=labels), indent=2, sort_keys=True)
    return _atomic_write(Path(path), payload + "\n")


def write_prometheus(
    registry: MetricsRegistry,
    path: Union[str, Path],
    labels: Optional[Dict[str, str]] = None,
) -> Path:
    """Atomically write :func:`render_prometheus` to ``path`` (node-exporter
    textfile-collector style)."""
    return _atomic_write(Path(path), render_prometheus(registry, labels=labels))


# ----------------------------------------------------------------------
# Periodic exporter
# ----------------------------------------------------------------------
class PeriodicExporter:
    """Background thread flushing the registry to a file every ``interval``.

    Parameters
    ----------
    registry:
        The source :class:`MetricsRegistry`.
    path:
        Output file; each flush atomically replaces it.
    interval:
        Seconds between flushes (must be positive).
    fmt:
        ``"prometheus"`` (text exposition) or ``"json"`` (snapshot schema).
    labels:
        Constant labels stamped on every exported sample.

    ``stop()`` performs one final flush so the file always reflects the end
    state; the exporter is also registered with
    :func:`repro.obs.lifecycle.flush_at_exit` for crash-adjacent exits.
    """

    FORMATS = ("prometheus", "json")

    def __init__(
        self,
        registry: MetricsRegistry,
        path: Union[str, Path],
        interval: float = 5.0,
        fmt: str = "prometheus",
        labels: Optional[Dict[str, str]] = None,
    ):
        if interval <= 0:
            raise ValueError("exporter interval must be positive")
        if fmt not in self.FORMATS:
            raise ValueError(f"unknown export format {fmt!r} (expected {self.FORMATS})")
        self.registry = registry
        self.path = Path(path)
        self.interval = float(interval)
        self.fmt = fmt
        self.labels = dict(labels) if labels else {}
        self.flushes = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def flush(self) -> Path:
        """Write one snapshot now (also called from the interval loop)."""
        if self.fmt == "json":
            out = write_json_snapshot(self.registry, self.path, labels=self.labels)
        else:
            out = write_prometheus(self.registry, self.path, labels=self.labels)
        self.flushes += 1
        return out

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.flush()

    def start(self) -> "PeriodicExporter":
        if self._thread is not None and self._thread.is_alive():
            raise RuntimeError("PeriodicExporter already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-metrics-exporter"
        )
        self._thread.start()
        flush_at_exit(self)
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Stop the loop and write the final snapshot."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        self.flush()
        unregister_flush(self)

    def __enter__(self) -> "PeriodicExporter":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
