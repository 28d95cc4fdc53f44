"""Autograd op profiler: wall time and call counts per tape op.

An op observer (:func:`repro.autograd.tensor.add_op_observer`) on every
instrumented tape op (matmul, sigmoid, tanh, concat, gather_segment_mean, …),
for both the forward call and the backward closure it produced. When no
observer is installed the ops take an un-instrumented fast path, so the
disabled overhead is one global test per op.

Usage::

    with OpProfiler() as prof:
        detector.fit(dataset, split)
    print(prof.table())

The accumulation path is deliberately lock-free (a stack of start times
and a dict upsert per op, safe under the GIL for the single-threaded
training loop this targets); :meth:`snapshot` materializes a consistent
copy.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..autograd.tensor import add_op_observer, remove_op_observer

PHASES = ("forward", "backward")


class OpProfiler:
    """Accumulates per-(phase, op) call counts and wall seconds."""

    def __init__(self):
        # (phase, op) -> [calls, seconds]; mutated on every observed op.
        self._stats: Dict[Tuple[str, str], List[float]] = {}
        # perf_counter at each open op's enter; nested ops push and pop.
        self._starts: List[float] = []
        self._running = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "OpProfiler":
        if self._running:
            raise RuntimeError("OpProfiler already running")
        add_op_observer(self)
        self._running = True
        return self

    def stop(self) -> "OpProfiler":
        if self._running:
            remove_op_observer(self)
            self._running = False
        return self

    def __enter__(self) -> "OpProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._running

    def reset(self) -> None:
        self._stats = {}

    # -- the hot path (op observer) -------------------------------------
    def enter(self, op: str, phase: str) -> None:
        self._starts.append(perf_counter())

    def exit(self, op: str, phase: str, payload) -> None:
        seconds = perf_counter() - self._starts.pop()
        if payload is None:
            return  # the op raised: not a completed call
        entry = self._stats.get((phase, op))
        if entry is None:
            self._stats[(phase, op)] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    # -- reporting ------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """``{phase: {op: {"calls": n, "seconds": s}}}`` plus totals."""
        out: Dict[str, Dict[str, Dict[str, float]]] = {p: {} for p in PHASES}
        for (phase, op), (calls, seconds) in list(self._stats.items()):
            out.setdefault(phase, {})[op] = {
                "calls": float(calls),
                "seconds": seconds,
            }
        return out

    def total_seconds(self, phase: Optional[str] = None) -> float:
        return sum(
            seconds
            for (p, _op), (_calls, seconds) in list(self._stats.items())
            if phase is None or p == phase
        )

    def to_dict(self) -> Dict:
        """JSONL-embeddable record (``type: "profile"``)."""
        return {
            "type": "profile",
            "ops": self.snapshot(),
            "total_seconds": self.total_seconds(),
        }

    def table(self, limit: Optional[int] = None) -> str:
        """Per-op table sorted by combined forward+backward time."""
        return render_profile(self.to_dict(), limit=limit)


def render_profile(profile: Dict, limit: Optional[int] = None) -> str:
    """Render a :meth:`OpProfiler.to_dict` record as an aligned table."""
    ops = profile.get("ops", {})
    forward = ops.get("forward", {})
    backward = ops.get("backward", {})
    names = sorted(set(forward) | set(backward))
    rows = []
    for op in names:
        f = forward.get(op, {"calls": 0.0, "seconds": 0.0})
        b = backward.get(op, {"calls": 0.0, "seconds": 0.0})
        rows.append(
            (op, f["calls"], f["seconds"], b["calls"], b["seconds"],
             f["seconds"] + b["seconds"])
        )
    rows.sort(key=lambda r: -r[5])
    total = sum(r[5] for r in rows) or 1.0
    if limit is not None:
        rows = rows[:limit]
    lines = [
        "op profile (forward + backward):",
        f"  {'op':<20s} {'fwd calls':>10s} {'fwd ms':>10s} "
        f"{'bwd calls':>10s} {'bwd ms':>10s} {'total ms':>10s} {'share':>7s}",
    ]
    for op, fc, fs, bc, bs, ts in rows:
        lines.append(
            f"  {op:<20s} {int(fc):>10d} {1e3 * fs:>10.2f} "
            f"{int(bc):>10d} {1e3 * bs:>10.2f} {1e3 * ts:>10.2f} "
            f"{100.0 * ts / total:>6.1f}%"
        )
    lines.append(f"  {'total':<20s} {'':>10s} {'':>10s} {'':>10s} {'':>10s} "
                 f"{1e3 * sum(r[5] for r in rows):>10.2f}")
    return "\n".join(lines)
