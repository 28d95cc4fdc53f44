"""Render trace JSONL files: span self-time trees and op-profile tables.

The trace file format (see :mod:`repro.obs.tracing`) is a stream of JSON
records distinguished by ``type``:

- ``span`` — one closed span (ids, times, attrs); children precede parents
  because spans are streamed at close time.
- ``profile`` — an op-profiler dump (:meth:`OpProfiler.to_dict`).
- ``event`` — a structured log record sharing the file.
- ``trace_start`` — wall-clock anchor written when the tracer opens.

:func:`render_trace_file` is what ``repro obs report`` prints;
:func:`render_timeline` is the per-request view behind
``repro obs trace <trace_id>``, ordering one merged distributed trace
(schema ``repro.obs.trace/1``) by wall-clock start.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .memory import render_memory
from .profiler import render_profile
from .tracing import read_trace


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Per-span self time: duration minus the sum of direct children."""
    child_total: Dict[Optional[int], float] = {}
    for span in spans:
        child_total[span.get("parent_id")] = (
            child_total.get(span.get("parent_id"), 0.0) + float(span["duration"])
        )
    return {
        span["span_id"]: max(
            0.0, float(span["duration"]) - child_total.get(span["span_id"], 0.0)
        )
        for span in spans
    }


def aggregate_spans(
    spans: List[Dict[str, Any]],
) -> List[Tuple[Tuple[str, ...], int, float, float]]:
    """Aggregate spans by name-path: ``(path, count, total_s, self_s)``.

    Spans sharing the same ancestry of names (e.g. the 50 ``fit/epoch``
    spans of a run) collapse into one row, keeping the output readable for
    long runs. Rows come back in depth-first order.
    """
    by_id = {span["span_id"]: span for span in spans}

    def path_of(span: Dict[str, Any]) -> Tuple[str, ...]:
        names: List[str] = []
        node: Optional[Dict[str, Any]] = span
        while node is not None:
            names.append(node["name"])
            parent_id = node.get("parent_id")
            node = by_id.get(parent_id) if parent_id is not None else None
        return tuple(reversed(names))

    selfs = self_times(spans)
    stats: Dict[Tuple[str, ...], List[float]] = {}
    for span in spans:
        path = path_of(span)
        entry = stats.setdefault(path, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += float(span["duration"])
        entry[2] += selfs[span["span_id"]]

    def sort_key(path: Tuple[str, ...]):
        # Depth-first: a path sorts under its prefix chain.
        return path

    return [
        (path, int(stats[path][0]), stats[path][1], stats[path][2])
        for path in sorted(stats, key=sort_key)
    ]


def render_spans(spans: List[Dict[str, Any]]) -> str:
    """Indented self-time tree aggregated by span path."""
    if not spans:
        return "span tree: (no spans)"
    rows = aggregate_spans(spans)
    total = sum(r[1] for r in rows if len(r[0]) == 1) or 1.0
    lines = [
        "span tree (aggregated by path):",
        f"  {'span':<42s} {'count':>7s} {'total s':>10s} {'self s':>10s} {'share':>7s}",
    ]
    for path, count, total_s, self_s in rows:
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(
            f"  {label:<42s} {count:>7d} {total_s:>10.4f} {self_s:>10.4f} "
            f"{100.0 * total_s / total:>6.1f}%"
        )
    return "\n".join(lines)


#: Schema tag of the machine-readable trace report.
REPORT_SCHEMA = "repro.obs.report/1"


def report_to_dict(path: Union[str, Path]) -> Dict[str, Any]:
    """Machine-readable form of the ``repro obs report`` rendering.

    Stable schema ``repro.obs.report/1`` (mirroring ``repro lint --json``):
    record counts, path-aggregated span rows, every embedded profile
    record verbatim, and the event tail.
    """
    records = read_trace(path)
    spans = [r for r in records if r.get("type") == "span"]
    profiles = [r for r in records if r.get("type") == "profile"]
    memories = [r for r in records if r.get("type") == "memory"]
    events = [r for r in records if r.get("type") == "event"]
    return {
        "schema": REPORT_SCHEMA,
        "trace": str(path),
        "counts": {
            "spans": len(spans),
            "profiles": len(profiles),
            "memory_profiles": len(memories),
            "events": len(events),
        },
        "spans": [
            {
                "path": list(span_path),
                "count": count,
                "total_seconds": total_s,
                "self_seconds": self_s,
            }
            for span_path, count, total_s, self_s in aggregate_spans(spans)
        ],
        "profiles": profiles,
        "memory_profiles": memories,
        "events": events,
    }


def render_trace_file(path: Union[str, Path]) -> str:
    """Full ``repro obs report`` rendering of one trace JSONL file."""
    records = read_trace(path)
    spans = [r for r in records if r.get("type") == "span"]
    profiles = [r for r in records if r.get("type") == "profile"]
    memories = [r for r in records if r.get("type") == "memory"]
    events = [r for r in records if r.get("type") == "event"]

    sections = [f"trace report: {path}"]
    sections.append(
        f"records: {len(spans)} spans, {len(profiles)} profiles, "
        f"{len(memories)} memory profiles, {len(events)} events"
    )
    sections.append("")
    sections.append(render_spans(spans))
    for profile in profiles:
        sections.append("")
        sections.append(render_profile(profile))
    for memory in memories:
        sections.append("")
        sections.append(render_memory(memory))
    if events:
        sections.append("")
        sections.append("events:")
        for event in events[-20:]:
            fields = " ".join(
                f"{k}={v}" for k, v in event.get("fields", {}).items()
            )
            sections.append(f"  {event.get('level', '?'):<7s} {event['name']}  {fields}")
    return "\n".join(sections)


TRACE_RENDER_SCHEMA = "repro.obs.trace_render/1"


def _timeline_rows(
    records: List[Dict[str, Any]],
) -> "tuple[Optional[Dict[str, Any]], List[Dict[str, Any]]]":
    """The shared timeline model: ``(trace_meta, rows sorted by start)``.

    Rows sort by wall-clock ``start`` (ties broken by span id) no matter
    which process emitted them, so the rendering stays monotone even when
    worker clocks skew slightly against the front-end's. Depth follows the
    parent chain; orphan parents — e.g. a worker span whose front-end
    parent record was lost — land at depth 0 rather than being dropped.
    """
    spans = [r for r in records if r.get("type") == "span"]
    meta = next((r for r in records if r.get("type") == "trace_meta"), None)
    if not spans:
        return meta, []

    by_id = {span["span_id"]: span for span in spans}

    def depth_of(span: Dict[str, Any]) -> int:
        depth, node, seen = 0, span, set()
        while True:
            parent_id = node.get("parent_id")
            if parent_id is None or parent_id not in by_id or parent_id in seen:
                return depth
            seen.add(parent_id)
            node = by_id[parent_id]
            depth += 1

    origin = min(float(s["start"]) for s in spans)
    rows = []
    for span in sorted(spans, key=lambda s: (float(s["start"]), s["span_id"])):
        rows.append({
            "name": span["name"],
            "span_id": span["span_id"],
            "parent_id": span.get("parent_id"),
            "trace_id": span.get("trace_id"),
            "depth": depth_of(span),
            "offset_ms": 1e3 * (float(span["start"]) - origin),
            "duration_ms": 1e3 * float(span["duration"]),
            "attrs": dict(span.get("attrs") or {}),
        })
    return meta, rows


def timeline_to_dict(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """A merged trace as machine-consumable JSON (``repro.obs.trace_render/1``).

    The same sorted/depth-annotated rows :func:`render_timeline` prints,
    plus the trace metadata — what ``repro obs trace <id> --json`` emits.
    """
    meta, rows = _timeline_rows(records)
    return {
        "schema": TRACE_RENDER_SCHEMA,
        "trace_id": meta.get("trace_id") if meta else None,
        "trace_schema": meta.get("schema") if meta else None,
        "span_count": len(rows),
        "duration_ms": max(
            (row["offset_ms"] + row["duration_ms"] for row in rows), default=0.0
        ),
        "spans": rows,
    }


def render_timeline(records: List[Dict[str, Any]]) -> str:
    """One merged distributed trace as a wall-clock timeline.

    Spans (from every process that touched the request) are sorted by
    ``start`` and indented by parent depth; the offset column is
    milliseconds since the earliest span (see :func:`_timeline_rows` for
    the ordering and orphan-parent rules).
    """
    meta, rows = _timeline_rows(records)
    header = []
    if meta is not None:
        header.append(
            f"trace {meta.get('trace_id', '?')} ({meta.get('schema', '?')})"
        )
    if not rows:
        header.append("(no spans)")
        return "\n".join(header)
    lines = header + [
        f"{'offset ms':>10s} {'dur ms':>9s}  span",
    ]
    for row in rows:
        detail = " ".join(f"{k}={v}" for k, v in row["attrs"].items())
        label = f"{'  ' * row['depth']}{row['name']}"
        if detail:
            label += f"  [{detail}]"
        lines.append(
            f"{row['offset_ms']:>10.2f} {row['duration_ms']:>9.2f}  {label}"
        )
    return "\n".join(lines)
