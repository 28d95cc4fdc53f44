"""Reverse-mode automatic differentiation on numpy arrays.

This module is the computational substrate for the FakeDetector reproduction.
The paper's model (HFLU + GDU) is defined entirely in terms of dense linear
algebra, elementwise gates and reductions, so the engine implements exactly
that surface: a :class:`Tensor` wrapping an ``ndarray``, a tape of backward
closures, and broadcasting-aware gradients.

Design notes
------------
- Gradients accumulate into ``Tensor.grad`` (a plain ``ndarray``) during
  :meth:`Tensor.backward`; the graph is walked in reverse topological order.
- Broadcasting follows numpy semantics; :func:`_unbroadcast` sums gradients
  back down to the operand's original shape.
- The engine is deliberately eager and single-threaded. A float array keeps
  its dtype through every op, so a float32 model computes in float32 (as
  FakeDetector does) and a float64 one in float64 (as gradient checks and
  reference oracles do). Python scalars, lists and integer arrays become
  float64, except that a scalar operand of a binary op takes the other
  operand's dtype.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

# ----------------------------------------------------------------------
# Op observers
# ----------------------------------------------------------------------
#: Installed op observers, oldest first. The tuple is never mutated, only
#: swapped whole by :func:`add_op_observer` / :func:`remove_op_observer`, so
#: an op in flight keeps the set it started with. Empty (the default) means
#: every instrumented op takes the one-test fast path in :func:`instrument_op`.
_OBSERVERS: tuple = ()
#: Serializes installs and removals (each is a read-modify-write of the tuple).
_OBSERVERS_LOCK = threading.Lock()


def add_op_observer(observer) -> None:
    """Install ``observer`` on every instrumented tape op.

    An observer has ``enter(op, phase)`` and ``exit(op, phase, payload)``,
    with ``phase`` ``"forward"`` or ``"backward"``. ``payload`` is the
    produced :class:`Tensor` on forward, the gradient tuple on backward, and
    ``None`` when the op raised. ``enter`` runs in install order and
    ``exit`` newest first. Every observer whose ``enter`` ran gets its
    ``exit``, also when the op body or another observer raises; the first
    exception propagates. The op and memory profilers, the tape sanitizer
    and the sampling profiler's op tags are all observers, so they compose
    in any start and stop order.
    """
    global _OBSERVERS
    with _OBSERVERS_LOCK:
        _OBSERVERS = _OBSERVERS + (observer,)


def remove_op_observer(observer) -> None:
    """Uninstall ``observer``, matched by identity (absent is a no-op)."""
    global _OBSERVERS
    with _OBSERVERS_LOCK:
        _OBSERVERS = tuple(o for o in _OBSERVERS if o is not observer)


def _observed(observers: tuple, op: str, phase: str, body: Callable, /, *args, **kwargs):
    """Run ``body(*args, **kwargs)`` bracketed by the observers' enter/exit."""
    entered = 0
    payload = error = None
    try:
        for observer in observers:
            observer.enter(op, phase)
            entered += 1
        payload = body(*args, **kwargs)
    except BaseException as exc:
        error = exc
    for observer in reversed(observers[:entered]):
        try:
            observer.exit(op, phase, payload)
        except BaseException as exc:
            if error is None:
                error = exc
    if error is not None:
        raise error
    return payload


#: Public name of every op wrapped by :func:`instrument_op`, in registration
#: order. This is the authoritative tape-op registry: the profiler and the
#: sanitizer observe exactly these ops, and the static shape interpreter
#: (:mod:`repro.analysis.shapes`) must declare a transfer function for each.
INSTRUMENTED_OPS: list = []

# ----------------------------------------------------------------------
# No-tape forward mode
# ----------------------------------------------------------------------
#: When ``False`` (inside a :class:`no_tape` block) every op returns a bare
#: ``Tensor(data)``: no parent tuple, no backward closure, no grad plumbing.
#: Inference-only callers (:class:`repro.serve.InferenceSession`, sharded
#: workers) use this to skip the tape allocation entirely.
_TAPE_ENABLED: bool = True


def tape_enabled() -> bool:
    """True when ops record parents/backward closures (the default)."""
    return _TAPE_ENABLED


class no_tape:
    """Context manager: run tensor ops with autograd bookkeeping disabled.

    Inside the block every op short-circuits in :meth:`Tensor._make` and
    returns a constant ``Tensor`` — no parents, no backward closure, no
    graph retained. ``backward()`` on a result raises (nothing requires
    grad), which is the point: this is a forward-only mode for serving.

    The op observers (profilers, sanitizer, flame op tags) exist to observe
    the tape, so :func:`instrument_op` skips every observer while the tape
    is off — an :class:`repro.obs.OpProfiler` legitimately records zero ops
    inside the block. Re-entrant and exception-safe.
    """

    __slots__ = ("_previous",)

    def __enter__(self) -> "no_tape":
        global _TAPE_ENABLED
        self._previous = _TAPE_ENABLED
        _TAPE_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _TAPE_ENABLED
        _TAPE_ENABLED = self._previous


def instrument_op(op: str, fn: Callable) -> Callable:
    """Wrap a tape op so the op observers see its forward and backward.

    The forward wrapper also rebinds the produced tensor's ``_backward``
    closure, so backward observations land on the op that created the
    node. The rebound closure does not reference the node, so observing
    adds no reference cycle. With no observer installed, or the tape off,
    the wrapper costs one test.
    """
    if op not in INSTRUMENTED_OPS:
        INSTRUMENTED_OPS.append(op)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not _OBSERVERS or not _TAPE_ENABLED:
            return fn(*args, **kwargs)
        out = _observed(_OBSERVERS, op, "forward", fn, *args, **kwargs)
        if isinstance(out, Tensor) and out._backward is not None:
            inner = out._backward

            def observed_backward(grad, _inner=inner):
                return _observed(_OBSERVERS, op, "backward", _inner, grad)

            out._backward = observed_backward
        return out

    return wrapper


def _as_array(value: ArrayLike) -> np.ndarray:
    """Coerce ``value`` to a float ndarray without copying when possible.

    Float arrays and numpy float scalars keep their dtype; everything else
    (Python scalars, lists, integer and bool arrays) becomes float64.
    """
    if isinstance(value, np.ndarray):
        return value if value.dtype.kind == "f" else value.astype(np.float64)
    if isinstance(value, np.floating):
        return np.asarray(value)
    return np.asarray(value, dtype=np.float64)


def _operand(value: ArrayLike, like: "Tensor") -> "Tensor":
    """``value`` as the other operand of a binary op with ``like``.

    A scalar, Python or numpy, takes ``like``'s dtype. numpy 2 (NEP 50)
    keeps a float32 array float32 against a Python float but upcasts it
    against an ``np.float64`` or a 0-d float64 array, which is what
    :func:`ensure_tensor` makes of a scalar.
    """
    if isinstance(value, Tensor):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return Tensor(np.asarray(value, dtype=like.data.dtype))
    return Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    Broadcasting can (a) prepend axes and (b) stretch length-1 axes. Both
    must be reduced by summation for the chain rule to hold.
    """
    if grad.shape == shape:
        return grad
    # Remove prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Collapse stretched axes.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array contents (any array-like).
    requires_grad:
        Whether gradients should flow into this tensor during ``backward``.
    _parents:
        Internal: tensors this one was computed from.
    _backward:
        Internal: closure that, given the output gradient, returns one
        gradient array (or ``None``) per parent.
    """

    # __weakref__ lets observers (the repro.obs.memory profiler) track node
    # lifetimes without extending them; it costs one pointer per tensor.
    __slots__ = (
        "data", "requires_grad", "grad", "_parents", "_backward", "name",
        "__weakref__",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: tuple = (),
        _backward: Optional[Callable] = None,
        name: str = "",
    ):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_tag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: tuple,
        backward: Callable,
    ) -> "Tensor":
        if not _TAPE_ENABLED:
            return Tensor(data)
        requires = any(p.requires_grad for p in parents)
        if not requires:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = _operand(other, self)

        def backward(grad):
            return (
                _unbroadcast(grad, self.shape),
                _unbroadcast(grad, other.shape),
            )

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = _operand(other, self)

        def backward(grad):
            return (
                _unbroadcast(grad, self.shape),
                _unbroadcast(-grad, other.shape),
            )

        return Tensor._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _operand(other, self) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = _operand(other, self)

        def backward(grad):
            return (
                _unbroadcast(grad * other.data, self.shape),
                _unbroadcast(grad * self.data, other.shape),
            )

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = _operand(other, self)

        def backward(grad):
            return (
                _unbroadcast(grad / other.data, self.shape),
                _unbroadcast(-grad * self.data / (other.data ** 2), other.shape),
            )

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _operand(other, self) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor ** exponent requires a Python scalar")

        def backward(grad):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._make(self.data ** exponent, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = ensure_tensor(other)
        a, b = self.data, other.data

        def backward(grad):
            if a.ndim == 1 and b.ndim == 1:
                return (grad * b, grad * a)
            if a.ndim == 1:  # (k,) @ (k, n) -> (n,)
                return (grad @ b.T, np.outer(a, grad))
            if b.ndim == 1:  # (m, k) @ (k,) -> (m,)
                return (np.outer(grad, b), a.T @ grad)
            ga = grad @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ grad
            return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

        return Tensor._make(a @ b, (self, other), backward)

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable; return plain arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(grad):
            return (grad.reshape(original),)

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(grad):
            return (grad.transpose(inverse),)

        return Tensor._make(self.data.transpose(axes), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data.astype(np.intp)

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            return (full,)

        return Tensor._make(self.data[index], (self,), backward)

    def squeeze(self, axis=None) -> "Tensor":
        original = self.shape

        def backward(grad):
            return (grad.reshape(original),)

        return Tensor._make(np.squeeze(self.data, axis=axis), (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        def backward(grad):
            return (np.squeeze(grad, axis=axis),)

        return Tensor._make(np.expand_dims(self.data, axis), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return Tensor._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g, self.shape).copy() / count,)

        return Tensor._make(self.data.mean(axis=axis, keepdims=keepdims), (self,), backward)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = grad
            o = out
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                o = np.expand_dims(o, axis=axis)
            mask = (self.data == o).astype(self.data.dtype)
            # Split gradient evenly across ties, matching subgradient choice.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            return (g * mask / counts,)

        return Tensor._make(out, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out = np.exp(self.data)

        def backward(grad):
            return (grad * out,)

        return Tensor._make(out, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad):
            return (grad / self.data,)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        out = np.sqrt(self.data)

        def backward(grad):
            return (grad / (2.0 * out),)

        return Tensor._make(out, (self,), backward)

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)

        def backward(grad):
            return (grad * (1.0 - out ** 2),)

        return Tensor._make(out, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic.
        out = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.clip(self.data, -500, 500))),
            np.exp(np.clip(self.data, -500, 500))
            / (1.0 + np.exp(np.clip(self.data, -500, 500))),
        )

        def backward(grad):
            return (grad * out * (1.0 - out),)

        return Tensor._make(out, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(self.data * mask, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad):
            return (grad * sign,)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(np.clip(self.data, low, high), (self,), backward)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient. Defaults to 1 for scalar outputs; required for
            non-scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.shape:
                raise ValueError(
                    f"seed gradient shape {grad.shape} != tensor shape {self.shape}"
                )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        # Nodes whose pending gradient is a sum this pass allocated. Only the
        # ``grads`` entry references such an array, so its third and later
        # terms are added in place, and a leaf keeps it without a copy when
        # it is C-ordered (a copy would be). Only real non-0-d ndarrays
        # qualify: numpy returns 0-d sums as immutable ``np.float64``.
        owned: set[int] = set()
        for node in reversed(topo):
            key = id(node)
            node_grad = grads.pop(key, None)
            if node_grad is None:
                continue
            if node.grad is not None:
                node.grad = node.grad + node_grad
            elif (
                node._backward is None
                and key in owned
                and node_grad.flags.c_contiguous
            ):
                node.grad = node_grad
            else:
                node.grad = node_grad.copy()
            if node._backward is None:
                continue
            parent_grads = node._backward(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                pid = id(parent)
                acc = grads.get(pid)
                if acc is None:
                    grads[pid] = pgrad
                elif (
                    pid in owned
                    and type(pgrad) is np.ndarray
                    and pgrad.shape == acc.shape
                    and pgrad.dtype == acc.dtype
                ):
                    acc += pgrad
                else:
                    acc = acc + pgrad
                    grads[pid] = acc
                    if type(acc) is np.ndarray and acc.ndim:
                        owned.add(pid)


def ensure_tensor(value: ArrayLike) -> Tensor:
    """Wrap ``value`` in a :class:`Tensor` if it is not one already."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


# ----------------------------------------------------------------------
# Free-function constructors
# ----------------------------------------------------------------------
def zeros(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def randn(*shape, rng: Optional[np.random.Generator] = None, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    rng = rng or np.random.default_rng()  # repro: noqa[RA002] explicit opt-in randomness when no generator is supplied
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [ensure_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        out = []
        for i, t in enumerate(tensors):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            out.append(grad[tuple(slicer)])
        return tuple(out)

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tuple(tensors), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    tensors = [ensure_tensor(t) for t in tensors]

    def backward(grad):
        return tuple(np.take(grad, i, axis=axis) for i in range(len(tensors)))

    data = np.stack([t.data for t in tensors], axis=axis)
    return Tensor._make(data, tuple(tensors), backward)


def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Differentiable selection: ``a`` where condition else ``b``."""
    if isinstance(a, Tensor):
        b = _operand(b, a)
    elif isinstance(b, Tensor):
        a = _operand(a, b)
    a, b = ensure_tensor(a), ensure_tensor(b)
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    cond = cond.astype(bool)

    def backward(grad):
        return (
            _unbroadcast(grad * cond, a.shape),
            _unbroadcast(grad * ~cond, b.shape),
        )

    return Tensor._make(np.where(cond, a.data, b.data), (a, b), backward)


# ----------------------------------------------------------------------
# Tape instrumentation
# ----------------------------------------------------------------------
#: Tensor methods timed by the op profiler, keyed by public op name.
PROFILED_OPS = {
    "add": "__add__",
    "neg": "__neg__",
    "sub": "__sub__",
    "mul": "__mul__",
    "div": "__truediv__",
    "pow": "__pow__",
    "matmul": "__matmul__",
    "reshape": "reshape",
    "transpose": "transpose",
    "index": "__getitem__",
    "squeeze": "squeeze",
    "expand_dims": "expand_dims",
    "sum": "sum",
    "mean": "mean",
    "max": "max",
    "exp": "exp",
    "log": "log",
    "sqrt": "sqrt",
    "tanh": "tanh",
    "sigmoid": "sigmoid",
    "relu": "relu",
    "abs": "abs",
    "clip": "clip",
}

for _op_name, _attr in PROFILED_OPS.items():
    setattr(Tensor, _attr, instrument_op(_op_name, getattr(Tensor, _attr)))
# The reflected aliases were bound in the class body before wrapping; they
# must point at the instrumented implementations.
Tensor.__radd__ = Tensor.__add__
Tensor.__rmul__ = Tensor.__mul__

concatenate = instrument_op("concat", concatenate)
stack = instrument_op("stack", stack)
where = instrument_op("where", where)
