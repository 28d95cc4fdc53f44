"""Continuous sampling profiler with folded stacks and flamegraph export.

The PR 2 :class:`repro.obs.OpProfiler` attributes time to autograd tape
ops, but it is blind to everything outside the tape: BoW featurization,
shard routing, queue handling, serialization, and the raw-numpy interiors
of the fused kernels. This module is the production answer — a
low-overhead background thread that walks :func:`sys._current_frames` at a
fixed rate (default 100 Hz) and aggregates *folded stacks*::

    MainThread;serve.request;worker.forward;gru_hidden_sum;repro.autograd.kernels.gru_hidden_sum 412

Each sample line is ``thread;context tags;python frames`` and the number
is how many samples landed there. Two context sources are woven in so
samples carry *semantic* ancestry, not just code ancestry:

- the open span path of the sampled thread (a lightweight observer on
  :class:`repro.obs.tracing.Tracer` push/pop — ``serve.request`` …), and
- the autograd op currently executing (the profiler is an op observer,
  :func:`repro.autograd.tensor.add_op_observer`, bracketing every
  instrumented op — ``gru_hidden_sum``, ``matmul`` …).

Both registries are keyed by thread ident rather than ``contextvars``
because the *sampler thread* must read the state of *other* threads;
a contextvar is only readable from its own logical flow of control.

Profiles serialize under the stable schema ``repro.obs.profile/1``
(:meth:`Profile.to_dict`), merge across processes with a per-shard prefix
frame (:func:`merge_profiles`), diff by per-frame self time
(:func:`diff_profiles` — "did the fused kernel move the needle" as one
table), and render as a self-contained flamegraph SVG with no external
dependencies (:func:`render_flamegraph_svg`).

Fork safety: a forked child inherits the profiler *object* but not its
sampler thread, and inherits the parent's accumulated counts. Every
public entry point checks the owning pid — in a child the profiler
reports not-running, drops the inherited counts, and :meth:`start`
brings up a fresh sampler that counts only the child's own stacks.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import threading
import os
from contextlib import contextmanager
from pathlib import Path
from time import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..autograd.tensor import add_op_observer, remove_op_observer
from .tracing import set_span_observer

#: Schema tag of one serialized sampling profile.
PROFILE_SCHEMA = "repro.obs.profile/1"

#: Schema tag of a profile diff report.
PROFILE_DIFF_SCHEMA = "repro.obs.profile_diff/1"

#: Default sampling rate (Hz); 100 keeps overhead around a percent.
DEFAULT_HZ = 100.0

#: Separator between frames in a folded stack line.
SEP = ";"


# ----------------------------------------------------------------------
# Cross-thread context tags
# ----------------------------------------------------------------------
#: thread ident -> stack of context tags (span names, active op). Written
#: by the owning thread, read by the sampler thread; list append/pop are
#: atomic under the GIL and the sampler copies before use.
_TAGS: Dict[int, List[str]] = {}


# A forked child inherits the registry but only the forking thread — whose
# ident the fork preserves — survives; stale parent tags would mislabel
# every sample the child takes inside an inherited ``tag(...)`` block.
os.register_at_fork(after_in_child=_TAGS.clear)


def push_tag(name: str) -> None:
    """Push a context tag for the calling thread (pair with :func:`pop_tag`)."""
    ident = threading.get_ident()
    stack = _TAGS.get(ident)
    if stack is None:
        stack = _TAGS[ident] = []
    stack.append(name)


def pop_tag() -> None:
    """Pop the calling thread's innermost context tag."""
    ident = threading.get_ident()
    stack = _TAGS.get(ident)
    if stack:
        stack.pop()
        if not stack:
            # Drop the empty list so dead threads do not leak registry rows.
            _TAGS.pop(ident, None)


@contextmanager
def tag(name: str) -> Iterator[None]:
    """Tag every sample taken of this thread while the block runs.

    This is how code *without* a live tracer labels its hot sections —
    the serve workers wrap their batched forward in ``tag("worker.forward")``
    so cross-process samples still carry the serving-stage ancestry.
    """
    push_tag(name)
    try:
        yield
    finally:
        pop_tag()


def current_tags(ident: Optional[int] = None) -> Tuple[str, ...]:
    """The tag stack of a thread (default: the calling thread), outermost first."""
    stack = _TAGS.get(ident if ident is not None else threading.get_ident())
    return tuple(stack) if stack else ()


# ----------------------------------------------------------------------
# Profile: the serializable aggregate
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Profile:
    """An aggregated folded-stack profile (schema ``repro.obs.profile/1``).

    ``stacks`` maps a folded stack (``;``-joined, root first) to its
    sample count. ``interval_s`` converts counts to seconds:
    one sample ≈ ``interval_s`` seconds of wall time on that stack.
    """

    stacks: Dict[str, int] = dataclasses.field(default_factory=dict)
    samples: int = 0
    duration_s: float = 0.0
    interval_s: float = 1.0 / DEFAULT_HZ
    meta: Dict[str, Any] = dataclasses.field(default_factory=dict)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": PROFILE_SCHEMA,
            "stacks": dict(self.stacks),
            "samples": self.samples,
            "duration_s": self.duration_s,
            "interval_s": self.interval_s,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Profile":
        schema = payload.get("schema")
        if schema != PROFILE_SCHEMA:
            raise ValueError(
                f"not a profile (schema {schema!r}, expected {PROFILE_SCHEMA!r})"
            )
        return cls(
            stacks={str(k): int(v) for k, v in payload.get("stacks", {}).items()},
            samples=int(payload.get("samples", 0)),
            duration_s=float(payload.get("duration_s", 0.0)),
            interval_s=float(payload.get("interval_s", 1.0 / DEFAULT_HZ)),
            meta=dict(payload.get("meta", {})),
        )

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Profile":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    # -- views ----------------------------------------------------------
    def folded(self) -> str:
        """The profile in folded-stack text (one ``stack count`` per line).

        This is the interchange format every flamegraph tool reads, so a
        profile captured here can also feed external renderers.
        """
        return "\n".join(
            f"{stack} {count}"
            for stack, count in sorted(self.stacks.items())
        )

    @classmethod
    def from_folded(cls, text: str, **kwargs) -> "Profile":
        stacks: Dict[str, int] = {}
        total = 0
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            stack, _, count = line.rpartition(" ")
            n = int(count)
            stacks[stack] = stacks.get(stack, 0) + n
            total += n
        return cls(stacks=stacks, samples=total, **kwargs)

    def self_counts(self) -> Dict[str, int]:
        """Per-frame *self* samples: samples whose stack ends at the frame."""
        out: Dict[str, int] = {}
        for stack, count in self.stacks.items():
            leaf = stack.rsplit(SEP, 1)[-1]
            out[leaf] = out.get(leaf, 0) + count
        return out

    def total_counts(self) -> Dict[str, int]:
        """Per-frame *total* samples: samples whose stack contains the frame."""
        out: Dict[str, int] = {}
        for stack, count in self.stacks.items():
            for frame in set(stack.split(SEP)):
                out[frame] = out.get(frame, 0) + count
        return out

    def self_seconds(self) -> Dict[str, float]:
        """Per-frame self time in seconds (``self samples × interval``)."""
        return {
            frame: count * self.interval_s
            for frame, count in self.self_counts().items()
        }

    def subtract(self, earlier: "Profile") -> "Profile":
        """The activity between an ``earlier`` snapshot and this one.

        Counts clamp at zero, so a window capture over a continuously
        running profiler never reports phantom negative stacks.
        """
        stacks = {}
        for stack, count in self.stacks.items():
            delta = count - earlier.stacks.get(stack, 0)
            if delta > 0:
                stacks[stack] = delta
        samples = max(0, self.samples - earlier.samples)
        duration = max(0.0, self.duration_s - earlier.duration_s)
        return Profile(
            stacks=stacks,
            samples=samples,
            duration_s=duration,
            interval_s=(duration / samples) if samples else self.interval_s,
            meta=dict(self.meta),
        )

    def prefixed(self, root: str) -> "Profile":
        """A copy with every stack re-rooted under ``root`` (merge helper)."""
        return dataclasses.replace(
            self,
            stacks={f"{root}{SEP}{stack}": count for stack, count in self.stacks.items()},
            meta=dict(self.meta),
        )


def merge_profiles(
    parts: Dict[str, Optional[Profile]], meta: Optional[Dict[str, Any]] = None
) -> Profile:
    """Merge per-process profiles into one, keyed by a prefix root frame.

    ``parts`` maps a root label (``"shard0"``, ``"frontend"``) to that
    process's profile (``None`` entries — a worker that had no profiler —
    are skipped). The merged profile's stacks all start with their root
    label, so the flamegraph splits by shard at the first level and
    per-shard totals stay recoverable.
    """
    merged = Profile(stacks={}, samples=0, duration_s=0.0, meta=dict(meta or {}))
    intervals: List[float] = []
    keyed: Dict[str, Dict[str, Any]] = {}
    for label in sorted(parts):
        part = parts[label]
        if part is None:
            continue
        for stack, count in part.prefixed(label).stacks.items():
            merged.stacks[stack] = merged.stacks.get(stack, 0) + count
        merged.samples += part.samples
        merged.duration_s = max(merged.duration_s, part.duration_s)
        intervals.append(part.interval_s)
        keyed[label] = {"samples": part.samples, "duration_s": part.duration_s}
    if intervals:
        merged.interval_s = sum(intervals) / len(intervals)
    merged.meta["parts"] = keyed
    return merged


# ----------------------------------------------------------------------
# The sampler
# ----------------------------------------------------------------------
class SamplingProfiler:
    """Background-thread sampling profiler over ``sys._current_frames``.

    Parameters
    ----------
    interval:
        Seconds between samples (default 10 ms = 100 Hz).
    max_depth:
        Frames kept per stack, nearest the leaf; deeper ancestry collapses
        into a ``…`` frame so pathological recursion cannot bloat keys.
    tag_context:
        Weave span names and active autograd ops into the folded stacks
        (installs the tracer's span observer and itself as an op observer
        while running).

    One profiler may run per process at a time (the span observer is
    process-global). The profiler is fork-safe: see the module docstring.
    """

    def __init__(
        self,
        interval: float = 1.0 / DEFAULT_HZ,
        *,
        max_depth: int = 64,
        tag_context: bool = True,
    ):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval = float(interval)
        self.max_depth = int(max_depth)
        self.tag_context = tag_context
        self._counts: Dict[str, int] = {}
        self._samples = 0
        self._active_before = 0.0
        self._started_at = 0.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._pid: Optional[int] = None
        self._prev_span_observer = None
        #: sampling iterations that raised (exposed for tests; a sampler
        #: must never take down the process it observes)
        self.sample_errors = 0

    # -- lifecycle ------------------------------------------------------
    @property
    def running(self) -> bool:
        """True while this process's own sampler thread is alive."""
        return (
            self._pid == os.getpid()
            and self._thread is not None
            and self._thread.is_alive()
        )

    def _reset_if_forked(self) -> None:
        """Drop state inherited across ``fork()``.

        The child inherits the counts dict and the ``running`` flags but
        not the sampler thread; counting the parent's samples into the
        child's profile would double-attribute every pre-fork stack. It
        also inherits the op-observer registry, so a restart in the child
        would otherwise tag every op twice.
        """
        if self._pid is not None and self._pid != os.getpid():
            remove_op_observer(self)
            self._counts = {}
            self._samples = 0
            self._active_before = 0.0
            self._started_at = 0.0
            self._thread = None
            self._pid = None
            self._stop = threading.Event()
            self._lock = threading.Lock()
            self.sample_errors = 0

    def start(self) -> "SamplingProfiler":
        self._reset_if_forked()
        if self.running:
            raise RuntimeError("SamplingProfiler already running")
        self._pid = os.getpid()
        self._started_at = time()
        self._stop.clear()
        if self.tag_context:
            self._prev_span_observer = set_span_observer((push_tag, pop_tag))
            add_op_observer(self)
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="repro-flame-sampler"
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        self._reset_if_forked()
        if self._thread is not None:
            self._stop.set()
            self._thread.join(5.0)
            self._thread = None
            if self._started_at:
                self._active_before += time() - self._started_at
                self._started_at = 0.0
        if self.tag_context and self._pid is not None:
            set_span_observer(self._prev_span_observer)
            remove_op_observer(self)
            self._prev_span_observer = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- op observer: tag samples with the op in flight -----------------
    def enter(self, op: str, phase: str) -> None:
        push_tag(op)

    def exit(self, op: str, phase: str, payload) -> None:
        pop_tag()

    # -- sampling loop --------------------------------------------------
    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.wait(self.interval):
            try:
                self._sample_once(own)
            except Exception:
                # A racing thread teardown can invalidate a frame mid-walk;
                # losing one sample is fine, killing the sampler is not.
                self.sample_errors += 1

    def _sample_once(self, own_ident: int) -> None:
        frames = sys._current_frames()
        names = {t.ident: t.name for t in threading.enumerate()}
        rows: List[str] = []
        for ident, frame in frames.items():
            if ident == own_ident:
                continue
            stack = self._fold(frame)
            if not stack:
                continue
            parts = [names.get(ident, f"thread-{ident}")]
            tags = _TAGS.get(ident)
            if tags:
                parts.extend(tuple(tags))
            parts.extend(stack)
            rows.append(SEP.join(parts))
        with self._lock:
            for row in rows:
                self._counts[row] = self._counts.get(row, 0) + 1
            self._samples += 1

    def _fold(self, frame) -> List[str]:
        """Root-first frame names, depth-capped nearest the leaf."""
        stack: List[str] = []
        node = frame
        while node is not None:
            code = node.f_code
            module = node.f_globals.get("__name__", code.co_filename)
            stack.append(f"{module}.{code.co_name}")
            node = node.f_back
        stack.reverse()
        if len(stack) > self.max_depth:
            stack = ["…"] + stack[-self.max_depth:]
        return stack

    # -- reporting ------------------------------------------------------
    def snapshot(self, meta: Optional[Dict[str, Any]] = None) -> Profile:
        """A consistent copy of the accumulated profile (sampler keeps going).

        ``interval_s`` is the *effective* interval — active wall seconds
        divided by samples taken — so ``self_seconds`` attributes real
        wall time even when a sampling pass costs more than the nominal
        interval and the achieved rate drops below the requested Hz.
        """
        self._reset_if_forked()
        with self._lock:
            stacks = dict(self._counts)
            samples = self._samples
        active = self._active_before
        if self._started_at:
            active += time() - self._started_at
        base = {"pid": os.getpid(), "hz": round(1.0 / self.interval, 3)}
        base.update(meta or {})
        return Profile(
            stacks=stacks,
            samples=samples,
            duration_s=active,
            interval_s=(active / samples) if samples else self.interval,
            meta=base,
        )

    def reset(self) -> None:
        self._reset_if_forked()
        with self._lock:
            self._counts = {}
            self._samples = 0
        self._active_before = 0.0
        if self._thread is not None and self._thread.is_alive():
            self._started_at = time()
        else:
            self._started_at = 0.0


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
def diff_profiles(
    a: Profile, b: Profile, *, limit: Optional[int] = None
) -> Dict[str, Any]:
    """Per-frame self-time comparison (schema ``repro.obs.profile_diff/1``).

    Frames are compared by *self seconds* (samples where the frame is the
    stack leaf, scaled by each profile's interval) — the quantity an
    optimization actually moves. Entries sort by absolute delta, largest
    first, so "what changed" is the top row; shares are relative to each
    profile's own total so runs of different lengths stay comparable.
    """
    self_a = a.self_seconds()
    self_b = b.self_seconds()
    total_a = sum(self_a.values()) or 1.0
    total_b = sum(self_b.values()) or 1.0
    entries = []
    for frame in set(self_a) | set(self_b):
        sa = self_a.get(frame, 0.0)
        sb = self_b.get(frame, 0.0)
        entries.append({
            "frame": frame,
            "a_seconds": sa,
            "b_seconds": sb,
            "delta_seconds": sb - sa,
            "a_share": sa / total_a,
            "b_share": sb / total_b,
        })
    entries.sort(key=lambda e: (-abs(e["delta_seconds"]), e["frame"]))
    if limit is not None:
        entries = entries[:limit]
    return {
        "schema": PROFILE_DIFF_SCHEMA,
        "a": {"samples": a.samples, "duration_s": a.duration_s,
              "self_seconds": total_a, "meta": dict(a.meta)},
        "b": {"samples": b.samples, "duration_s": b.duration_s,
              "self_seconds": total_b, "meta": dict(b.meta)},
        "entries": entries,
    }


def render_diff(diff: Dict[str, Any], limit: int = 25) -> str:
    """The :func:`diff_profiles` report as an aligned table."""
    lines = [
        "profile diff (self time per frame; B − A):",
        f"  A: {diff['a']['samples']} samples / "
        f"{diff['a']['self_seconds']:.2f}s   "
        f"B: {diff['b']['samples']} samples / "
        f"{diff['b']['self_seconds']:.2f}s",
        f"  {'frame':<52s} {'A s':>8s} {'B s':>8s} {'Δ s':>8s} {'Δ':>7s}",
    ]
    for entry in diff["entries"][:limit]:
        frame = entry["frame"]
        if len(frame) > 52:
            frame = "…" + frame[-51:]
        sign = "+" if entry["delta_seconds"] >= 0 else "-"
        lines.append(
            f"  {frame:<52s} {entry['a_seconds']:>8.2f} "
            f"{entry['b_seconds']:>8.2f} {entry['delta_seconds']:>+8.2f} "
            f"{sign}{100.0 * abs(entry['b_share'] - entry['a_share']):>5.1f}%"
        )
    return "\n".join(lines)


def render_top(profile: Profile, limit: int = 20) -> str:
    """Top frames by self time — the quick text view of one profile."""
    selfs = profile.self_seconds()
    total = sum(selfs.values()) or 1.0
    rows = sorted(selfs.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]
    lines = [
        f"sampling profile: {profile.samples} samples over "
        f"{profile.duration_s:.2f}s at "
        f"{1.0 / profile.interval_s:.0f} Hz",
        f"  {'frame (self time)':<60s} {'self s':>8s} {'share':>7s}",
    ]
    for frame, seconds in rows:
        if len(frame) > 60:
            frame = "…" + frame[-59:]
        lines.append(
            f"  {frame:<60s} {seconds:>8.2f} {100.0 * seconds / total:>6.1f}%"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Flamegraph SVG
# ----------------------------------------------------------------------
def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;")
        .replace(">", "&gt;").replace('"', "&quot;")
    )


def _frame_color(name: str, heat: float = 0.0) -> str:
    """Deterministic warm color per frame name.

    ``heat`` in [-1, 1] shifts toward red (regressed) or blue (improved)
    for differential flamegraphs; 0 keeps the classic warm palette.
    """
    seed = 0
    for ch in name:
        seed = (seed * 131 + ord(ch)) & 0xFFFFFF
    if heat > 0:
        base = (230, int(120 - 70 * heat), int(80 - 50 * heat))
    elif heat < 0:
        base = (int(110 + 40 * heat), int(150 + 30 * heat), 235)
    else:
        base = (205 + seed % 50, 90 + (seed >> 8) % 90, 40 + (seed >> 16) % 40)
    r, g, b = (max(0, min(255, int(c))) for c in base)
    return f"rgb({r},{g},{b})"


class _Node:
    """One flamegraph tree node (built from folded stacks)."""

    __slots__ = ("name", "count", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.children: Dict[str, "_Node"] = {}

    def add(self, frames: Sequence[str], count: int) -> None:
        self.count += count
        if not frames:
            return
        head = frames[0]
        child = self.children.get(head)
        if child is None:
            child = self.children[head] = _Node(head)
        child.add(frames[1:], count)


def build_tree(profile: Profile, root_name: str = "all") -> _Node:
    root = _Node(root_name)
    root.count = 0
    for stack, count in sorted(profile.stacks.items()):
        root.add(stack.split(SEP), count)
    return root


def render_flamegraph_svg(
    profile: Profile,
    *,
    title: Optional[str] = None,
    baseline: Optional[Profile] = None,
    width: int = 1200,
    row_height: int = 17,
    min_frac: float = 0.0015,
) -> str:
    """A self-contained flamegraph SVG (no JS, no external assets).

    Rectangles nest root-at-top ("icicle" orientation); hovering shows the
    full frame name, sample count and share via native ``<title>``
    tooltips. With ``baseline`` given, frames are heat-colored by how
    their self-time share moved against it (red = grew, blue = shrank) —
    a differential flamegraph for the ``--diff`` workflow.
    """
    root = build_tree(profile)
    total = root.count or 1
    heat: Dict[str, float] = {}
    if baseline is not None:
        self_a = baseline.self_seconds()
        self_b = profile.self_seconds()
        norm_a = sum(self_a.values()) or 1.0
        norm_b = sum(self_b.values()) or 1.0
        spread = max(
            (abs(self_b.get(f, 0.0) / norm_b - self_a.get(f, 0.0) / norm_a)
             for f in set(self_a) | set(self_b)),
            default=0.0,
        ) or 1.0
        for frame in set(self_a) | set(self_b):
            delta = self_b.get(frame, 0.0) / norm_b - self_a.get(frame, 0.0) / norm_a
            heat[frame] = max(-1.0, min(1.0, delta / spread))

    rects: List[str] = []
    max_depth = 0

    def emit(node: _Node, x: float, depth: int) -> None:
        nonlocal max_depth
        frac = node.count / total
        if frac < min_frac:
            return
        max_depth = max(max_depth, depth)
        w = frac * width
        y = depth * row_height
        color = _frame_color(node.name, heat.get(node.name, 0.0))
        share = 100.0 * frac
        tip = _escape(
            f"{node.name} — {node.count} samples ({share:.2f}%)"
        )
        label = ""
        if w >= 40:
            chars = max(1, int(w / 7.2) - 1)
            text = node.name if len(node.name) <= chars else node.name[: chars - 1] + "…"
            label = (
                f'<text x="{x + 3:.2f}" y="{y + row_height - 5}" '
                f'font-size="11" font-family="monospace">{_escape(text)}</text>'
            )
        rects.append(
            f'<g><rect x="{x:.2f}" y="{y}" width="{max(w, 0.5):.2f}" '
            f'height="{row_height - 1}" fill="{color}" rx="1">'
            f"<title>{tip}</title></rect>{label}</g>"
        )
        cx = x
        for name in sorted(node.children):
            child = node.children[name]
            emit(child, cx, depth + 1)
            cx += child.count / total * width
        del cx

    emit(root, 0.0, 0)
    height = (max_depth + 1) * row_height + 34
    caption = title or (
        f"{profile.samples} samples · {profile.duration_s:.2f}s · "
        f"{1.0 / profile.interval_s:.0f} Hz"
    )
    if baseline is not None:
        caption += " · differential (red = grew, blue = shrank)"
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
        f'<rect width="{width}" height="{height}" fill="#fdf6ee"/>'
        f'<text x="6" y="{height - 12}" font-size="12" '
        f'font-family="monospace">{_escape(caption)}</text>'
        + "".join(rects)
        + "</svg>"
    )


def write_flamegraph(
    profile: Profile,
    path: Union[str, Path],
    *,
    baseline: Optional[Profile] = None,
    title: Optional[str] = None,
) -> Path:
    """Render and write the flamegraph SVG; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        render_flamegraph_svg(profile, baseline=baseline, title=title),
        encoding="utf-8",
    )
    return path
