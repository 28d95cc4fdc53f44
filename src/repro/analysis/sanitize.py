"""Runtime tape sanitizer: numeric guards over every autograd op.

An op observer (:func:`repro.autograd.tensor.add_op_observer`), which
sees every instrumented tape op's *values* (the produced tensor on
forward, the parent gradients on backward). The sanitizer is read-only —
it never alters an array — so sanitized training is bit-identical to
unsanitized training; it only adds three guards:

- **NaN/Inf guard**: raises :class:`NumericalFaultError` naming the op,
  phase and shape on the *first* non-finite forward output or backward
  gradient, instead of letting NaNs silently wash through the gates.
- **In-place mutation detector**: checksums every array captured by a
  backward closure the first time it is seen at forward time and
  re-verifies the whole working set at step boundaries — on
  :meth:`Sanitizer.flush` (the trainer calls it after ``backward()`` and
  *before* the optimizer's sanctioned in-place parameter update) and on
  clean context-manager exit. A mismatch raises
  :class:`TapeCorruptionError` naming the op that first captured the
  array. This catches the classic
  ``tensor.data += ...``-between-forward-and-backward bug.
- **Dead-parameter auditor** (:func:`audit_parameters`): after a
  ``backward()``, reports parameters whose gradient is missing or exactly
  zero — the signature of a mis-wired GDU gate or head.

Usage::

    with Sanitizer() as sanitizer:
        loss = model(features, graph)["article"].sum()
        loss.backward()
    sanitizer.stats  # ops/arrays checked

or end-to-end through the trainer: ``detector.fit(ds, split, sanitize=True)``
/ ``repro train --sanitize``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..autograd.tensor import Tensor, add_op_observer, remove_op_observer


class SanitizerError(RuntimeError):
    """Base class for faults the tape sanitizer detects."""


class NumericalFaultError(SanitizerError):
    """A non-finite value appeared in a forward output or backward grad."""

    def __init__(self, phase: str, op: str, shape: tuple, bad: int, total: int,
                 detail: str = ""):
        self.phase = phase
        self.op = op
        self.shape = shape
        message = (
            f"non-finite values in {phase} of op {op!r}: "
            f"{bad}/{total} elements of shape {shape}"
        )
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


class TapeCorruptionError(SanitizerError):
    """An array captured by a backward closure was mutated in place."""

    def __init__(self, op: str, shape: tuple, role: str):
        self.op = op
        self.shape = shape
        message = (
            f"array captured by op {op!r} ({role}, shape {shape}) was "
            "mutated in place after forward capture; in-place writes to "
            "Tensor.data corrupt saved backward closures"
        )
        super().__init__(message)


#: Above this many elements, fingerprints are computed on a deterministic
#: stride sample. Whole-array in-place writes (the bug class RA004 targets)
#: always hit the sample; a surgical single-element write to a huge array
#: may not — an accepted trade for keeping the sanitizer inside its
#: overhead budget.
_FINGERPRINT_SAMPLE = 4096


#: Position-weight vectors for the sampled dot, cached per sample length.
_WEIGHTS: Dict[int, np.ndarray] = {}


def _weights(n: int) -> np.ndarray:
    w = _WEIGHTS.get(n)
    if w is None:
        w = np.linspace(1.0, 2.0, n)
        _WEIGHTS[n] = w
    return w


def _fingerprint(arr: np.ndarray, known_sum: Optional[float] = None) -> Tuple[float, float]:
    """Cheap checksum: (full-array sum, stride-sampled position-weighted dot).

    The full sum catches any value change that does not exactly cancel;
    the position-weighted dot additionally catches sum-preserving bulk
    mutations (in-place sorts, permutations, paired sign flips) at least
    on the sampled positions. The sum doubles as the NaN pre-check, so
    callers that already computed it pass ``known_sum`` and pay only for
    the sampled dot. Hot path: no ``errstate`` guard — a non-finite array
    can emit one numpy RuntimeWarning on the way to the sanitizer's
    exception, which is fine.
    """
    total = float(arr.sum()) if known_sum is None else known_sum
    flat = arr.ravel()
    if flat.size > _FINGERPRINT_SAMPLE:
        flat = flat[:: flat.size // _FINGERPRINT_SAMPLE + 1]
    return total, float(np.dot(flat, _weights(flat.size)))


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _count_nonfinite(arr: np.ndarray) -> int:
    """Exact non-finite count; only reached when the one-pass sum pre-check
    in the hooks is non-finite (the sum of an all-finite array is non-finite
    only on overflow, so a finite sum proves the array clean)."""
    return int(arr.size - np.count_nonzero(np.isfinite(arr)))


@dataclasses.dataclass
class SanitizerStats:
    """Counters for one sanitizer session (reported by the benchmark).

    ``arrays_registered`` counts closure captures (one per op output or
    input); ``arrays_verified`` counts checksum re-computations, one per
    *distinct* array per step, so it is normally smaller.
    """

    forward_ops: int = 0
    backward_ops: int = 0
    arrays_registered: int = 0
    arrays_verified: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class Sanitizer:
    """Installable tape guard; see the module docstring for semantics.

    Parameters
    ----------
    check_nan:
        Guard forward outputs and backward gradients against NaN/Inf.
    check_mutation:
        Checksum arrays captured by backward closures and verify them when
        the closure runs.
    """

    def __init__(self, check_nan: bool = True, check_mutation: bool = True):
        if not (check_nan or check_mutation):
            raise ValueError("Sanitizer needs at least one check enabled")
        self.check_nan = check_nan
        self.check_mutation = check_mutation
        self.stats = SanitizerStats()
        # id(arr) -> (arr, fingerprint, op, role): one checksum per distinct
        # array, taken the first time a backward closure captures it (an
        # array feeding k ops is checksummed once, not k times). The array
        # is held strongly so ids stay pinned until flush()/stop(); op and
        # role record the first capture site so a mismatch blames the op
        # whose saved state was corrupted.
        self._fp_seen: Dict[int, Tuple[np.ndarray, Tuple[float, float], str, str]] = {}
        self._running = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "Sanitizer":
        if self._running:
            raise RuntimeError("Sanitizer already running")
        add_op_observer(self)
        self._running = True
        return self

    def stop(self) -> "Sanitizer":
        if self._running:
            remove_op_observer(self)
            self._running = False
            self._fp_seen.clear()
        return self

    def __enter__(self) -> "Sanitizer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            # Verify only on clean exit: an in-flight exception (e.g. a
            # NumericalFaultError) must not be masked by a mutation report
            # from the half-finished step it aborted.
            if exc_type is None and self.check_mutation:
                self.verify()
        finally:
            self.stop()

    @property
    def running(self) -> bool:
        return self._running

    def verify(self) -> None:
        """Re-checksum every array captured since the last :meth:`flush`.

        Raises :class:`TapeCorruptionError` naming the op that first
        captured a mutated array.
        """
        for arr, fingerprint, op, role in self._fp_seen.values():
            now = _fingerprint(arr)
            self.stats.arrays_verified += 1
            if not (_same(now[0], fingerprint[0]) and _same(now[1], fingerprint[1])):
                raise TapeCorruptionError(op, arr.shape, role)

    def flush(self) -> None:
        """Verify pending checksums, then drop them.

        Call at step boundaries — after ``backward()`` and *before*
        ``optimizer.step()``, whose in-place parameter update is
        sanctioned. Flushing also unpins the previous step's arrays so the
        cache cannot keep old graphs alive. The trainer does this
        automatically every step.
        """
        try:
            if self.check_mutation:
                self.verify()
        finally:
            self._fp_seen.clear()

    # -- the op observer ------------------------------------------------
    def enter(self, op: str, phase: str) -> None:
        pass

    def exit(self, op: str, phase: str, payload) -> None:
        if payload is None:
            return
        if phase == "forward":
            self._check_forward(op, payload)
        else:
            self._check_backward(op, payload)

    def _check_forward(self, op: str, out: Tensor) -> None:
        self.stats.forward_ops += 1
        data = out.data
        register = self.check_mutation and out._backward is not None
        if self.check_nan or register:
            total = float(data.sum())  # one pass serves NaN check + fingerprint
        if self.check_nan and not math.isfinite(total):
            bad = _count_nonfinite(data)
            if bad:  # a finite array can sum to inf; only real faults raise
                raise NumericalFaultError(
                    "forward", op, data.shape, bad, int(np.size(data))
                )
        if register:
            # Parents are almost always earlier outputs, so theirs is
            # usually a cache hit; misses are leaves (parameters, inputs).
            seen = self._fp_seen
            cached = seen.get(id(data))
            if cached is None or cached[0] is not data:
                seen[id(data)] = (data, _fingerprint(data, total), op, "output")
            for i, parent in enumerate(out._parents):
                arr = parent.data
                cached = seen.get(id(arr))
                if cached is None or cached[0] is not arr:
                    seen[id(arr)] = (arr, _fingerprint(arr), op, f"input {i}")
            self.stats.arrays_registered += 1 + len(out._parents)

    def _check_backward(self, op: str, grads) -> None:
        self.stats.backward_ops += 1
        if not self.check_nan:
            return
        for i, grad in enumerate(grads):
            if grad is None:
                continue
            arr = grad if type(grad) is np.ndarray else np.asarray(grad)
            if not math.isfinite(arr.sum()):
                bad = _count_nonfinite(arr)
                if bad:
                    raise NumericalFaultError(
                        "backward", op, arr.shape, bad, int(np.size(arr)),
                        detail=f"gradient for input {i}",
                    )


# ----------------------------------------------------------------------
# Dead-parameter audit
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class DeadParameter:
    """One parameter that received no useful gradient from ``backward()``."""

    name: str
    shape: tuple
    reason: str  # "missing" (grad is None) or "zero" (all-zero grad)

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "shape": list(self.shape), "reason": self.reason}


def audit_parameters(named_parameters: Iterable[Tuple[str, Tensor]]) -> List[DeadParameter]:
    """Parameters with missing or exactly-zero gradients after backward.

    A ``missing`` grad means the parameter never entered the loss graph —
    the classic mis-wired gate (a GDU selection gate that exists but is
    bypassed). An all-``zero`` grad usually means its inputs were all zero
    or its contribution was masked out everywhere; both deserve a look.
    """
    dead: List[DeadParameter] = []
    for name, param in named_parameters:
        if param.grad is None:
            dead.append(DeadParameter(name, tuple(param.shape), "missing"))
        elif not np.any(param.grad):
            dead.append(DeadParameter(name, tuple(param.shape), "zero"))
    return dead
