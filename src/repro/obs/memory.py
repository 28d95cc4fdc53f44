"""Tape memory profiler: per-op bytes, live-tensor census, lifetimes.

The op profiler (:mod:`repro.obs.profiler`) made autograd *compute* hot
spots visible; this module does the same for *memory*. It is an op observer
on the same instrumented-op seam
(:func:`repro.autograd.tensor.add_op_observer`), which hands it every
tensor an instrumented op produces (forward) and every gradient array a
backward closure returns — so no tape op needs re-wrapping.

What it measures, per op name:

- **allocated bytes and counts** — forward output arrays and backward
  gradient arrays, attributed to the op that created the node;
- **peak live bytes** — both globally and per op, tracked through
  ``weakref.finalize`` on the produced tensors, so frees are observed the
  moment the graph lets go of a node;
- **allocation lifetimes** — seconds between an output's creation and its
  collection, the signal that separates transient intermediates from
  arrays pinned by long-lived closures;
- **live census** — the currently live tensors grouped by (shape, dtype),
  which is how an unexpectedly fat training step is usually diagnosed.

Usage::

    with MemoryProfiler() as prof:
        detector.fit(dataset, split)
    print(prof.table())          # top-k ops by allocated bytes
    print(prof.peak_live_bytes)  # high-water mark

Like the op profiler, the accumulation path is deliberately lock-free
(dict upserts under the GIL, targeting the single-threaded training loop);
:meth:`snapshot` materializes consistent copies. Like every op observer it
composes with the others (e.g. the :mod:`repro.analysis` sanitizer) in any
start order.
"""

from __future__ import annotations

import itertools
import weakref
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..autograd.tensor import add_op_observer, remove_op_observer

#: snapshot()/to_dict() field order for per-op forward stats.
_FWD_ALLOCS, _FWD_BYTES, _FWD_LIVE, _FWD_PEAK, _FWD_FREED, _FWD_LIFETIME = range(6)


class MemoryProfiler:
    """Attributes tape memory traffic to the ops that allocated it."""

    def __init__(self):
        self._running = False
        self._tokens = itertools.count(1)
        #: token -> (op, nbytes, shape, dtype, perf_counter at alloc)
        self._live: Dict[int, Tuple[str, int, Tuple[int, ...], str, float]] = {}
        # op -> [allocs, bytes, live_bytes, peak_live_bytes, freed, lifetime_s]
        self._forward: Dict[str, List[float]] = {}
        # op -> [allocs, bytes]
        self._backward: Dict[str, List[float]] = {}
        self.live_bytes = 0
        self.peak_live_bytes = 0

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "MemoryProfiler":
        if self._running:
            raise RuntimeError("MemoryProfiler already running")
        add_op_observer(self)
        self._running = True
        return self

    def stop(self) -> "MemoryProfiler":
        if self._running:
            remove_op_observer(self)
            self._running = False
        return self

    def __enter__(self) -> "MemoryProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._running

    def reset(self) -> None:
        """Drop accumulated statistics (live tracking of old tensors too)."""
        self._live = {}
        self._forward = {}
        self._backward = {}
        self.live_bytes = 0
        self.peak_live_bytes = 0

    # -- the hot path (op observer) -------------------------------------
    def enter(self, op: str, phase: str) -> None:
        pass

    def exit(self, op: str, phase: str, payload) -> None:
        if payload is None:
            return
        if phase == "forward":
            self._record_forward(op, payload)
        else:
            self._record_backward(op, payload)

    def _record_forward(self, op: str, tensor) -> None:
        array = tensor.data
        nbytes = int(array.nbytes)
        entry = self._forward.get(op)
        if entry is None:
            entry = self._forward[op] = [0, 0, 0, 0, 0, 0.0]
        entry[_FWD_ALLOCS] += 1
        entry[_FWD_BYTES] += nbytes
        entry[_FWD_LIVE] += nbytes
        if entry[_FWD_LIVE] > entry[_FWD_PEAK]:
            entry[_FWD_PEAK] = entry[_FWD_LIVE]
        self.live_bytes += nbytes
        if self.live_bytes > self.peak_live_bytes:
            self.peak_live_bytes = self.live_bytes
        token = next(self._tokens)
        self._live[token] = (
            op, nbytes, tuple(array.shape), str(array.dtype), perf_counter()
        )
        try:
            weakref.finalize(tensor, self._freed, token)
        except TypeError:
            # Not weakref-able (exotic Tensor subclass): count the bytes as
            # immediately freed rather than pinning them live forever.
            self._freed(token)

    def _record_backward(self, op: str, grads) -> None:
        nbytes = 0
        count = 0
        for grad in grads:
            if grad is None:
                continue
            if type(grad) is not np.ndarray:
                grad = np.asarray(grad)
            nbytes += int(grad.nbytes)
            count += 1
        if count == 0:
            return
        entry = self._backward.get(op)
        if entry is None:
            entry = self._backward[op] = [0, 0]
        entry[0] += count
        entry[1] += nbytes

    def _freed(self, token: int) -> None:
        info = self._live.pop(token, None)
        if info is None:
            return
        op, nbytes, _shape, _dtype, born = info
        self.live_bytes -= nbytes
        entry = self._forward.get(op)
        if entry is not None:
            entry[_FWD_LIVE] -= nbytes
            entry[_FWD_FREED] += 1
            entry[_FWD_LIFETIME] += perf_counter() - born

    # -- reporting ------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """``{"forward": {op: stats}, "backward": {op: stats}}``.

        Forward stats: ``allocs``, ``bytes``, ``live_bytes``,
        ``peak_live_bytes``, ``freed`` and ``mean_lifetime_s`` (over freed
        allocations). Backward stats: ``allocs``, ``bytes`` of gradient
        arrays produced by the op's backward closure.
        """
        forward = {}
        for op, entry in list(self._forward.items()):
            allocs, nbytes, live, peak, freed, lifetime = entry
            forward[op] = {
                "allocs": float(allocs),
                "bytes": float(nbytes),
                "live_bytes": float(live),
                "peak_live_bytes": float(peak),
                "freed": float(freed),
                "mean_lifetime_s": lifetime / freed if freed else 0.0,
            }
        backward = {
            op: {"allocs": float(entry[0]), "bytes": float(entry[1])}
            for op, entry in list(self._backward.items())
        }
        return {"forward": forward, "backward": backward}

    def census(self) -> List[Dict[str, object]]:
        """Currently live tensors grouped by (shape, dtype), fattest first."""
        groups: Dict[Tuple[Tuple[int, ...], str], List[int]] = {}
        for _op, nbytes, shape, dtype, _born in list(self._live.values()):
            entry = groups.get((shape, dtype))
            if entry is None:
                entry = groups[(shape, dtype)] = [0, 0]
            entry[0] += 1
            entry[1] += nbytes
        rows = [
            {
                "shape": list(shape),
                "dtype": dtype,
                "count": count,
                "bytes": nbytes,
            }
            for (shape, dtype), (count, nbytes) in groups.items()
        ]
        rows.sort(key=lambda r: (-r["bytes"], str(r["shape"])))
        return rows

    def total_bytes(self, phase: Optional[str] = None) -> float:
        """Total bytes allocated (forward outputs and/or backward grads)."""
        total = 0.0
        if phase in (None, "forward"):
            total += sum(entry[_FWD_BYTES] for entry in self._forward.values())
        if phase in (None, "backward"):
            total += sum(entry[1] for entry in self._backward.values())
        return total

    def to_dict(self) -> Dict:
        """JSONL-embeddable record (``type: "memory"``)."""
        return {
            "type": "memory",
            "ops": self.snapshot(),
            "live_bytes": float(self.live_bytes),
            "peak_live_bytes": float(self.peak_live_bytes),
            "total_bytes": self.total_bytes(),
            "census": self.census(),
        }

    def table(self, limit: Optional[int] = 10) -> str:
        """Top-k report sorted by combined forward+backward bytes."""
        return render_memory(self.to_dict(), limit=limit)


def _mib(nbytes: float) -> float:
    return nbytes / (1024.0 * 1024.0)


def render_memory(profile: Dict, limit: Optional[int] = 10) -> str:
    """Render a :meth:`MemoryProfiler.to_dict` record as aligned tables."""
    ops = profile.get("ops", {})
    forward = ops.get("forward", {})
    backward = ops.get("backward", {})
    names = sorted(set(forward) | set(backward))
    rows = []
    for op in names:
        f = forward.get(op, {})
        b = backward.get(op, {})
        total = f.get("bytes", 0.0) + b.get("bytes", 0.0)
        rows.append(
            (op, f.get("allocs", 0.0), f.get("bytes", 0.0),
             f.get("peak_live_bytes", 0.0), f.get("mean_lifetime_s", 0.0),
             b.get("bytes", 0.0), total)
        )
    rows.sort(key=lambda r: -r[6])
    grand_total = sum(r[6] for r in rows) or 1.0
    if limit is not None:
        rows = rows[:limit]
    lines = [
        "memory profile (bytes by allocating op):",
        f"  {'op':<20s} {'allocs':>8s} {'fwd MiB':>9s} {'peak MiB':>9s} "
        f"{'life ms':>8s} {'bwd MiB':>9s} {'total MiB':>10s} {'share':>7s}",
    ]
    for op, allocs, fbytes, peak, life, bbytes, total in rows:
        lines.append(
            f"  {op:<20s} {int(allocs):>8d} {_mib(fbytes):>9.2f} "
            f"{_mib(peak):>9.2f} {1e3 * life:>8.2f} {_mib(bbytes):>9.2f} "
            f"{_mib(total):>10.2f} {100.0 * total / grand_total:>6.1f}%"
        )
    lines.append(
        f"  peak live {_mib(profile.get('peak_live_bytes', 0.0)):.2f} MiB, "
        f"now live {_mib(profile.get('live_bytes', 0.0)):.2f} MiB, "
        f"allocated {_mib(profile.get('total_bytes', 0.0)):.2f} MiB total"
    )
    census = profile.get("census", [])
    if census:
        lines.append("  live census (top shapes):")
        for row in census[: limit or 10]:
            shape = "x".join(str(d) for d in row["shape"]) or "scalar"
            lines.append(
                f"    {shape:<18s} {row['dtype']:<10s} "
                f"count={row['count']:<6d} {_mib(row['bytes']):>8.2f} MiB"
            )
    return "\n".join(lines)
