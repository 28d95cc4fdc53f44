"""Tensor-shape abstract interpreter (RA3xx).

Runs every ``forward()`` method in the program under an abstract domain of
symbolic shapes instead of arrays: a dimension is a linear combination of
named atoms (``batch``, ``hidden_dim``, ``input_dim + 2*hidden_dim``), a
tensor is a tuple of such dimensions plus a dtype, and every op registered
through :func:`repro.autograd.tensor.instrument_op` has a transfer
function mapping input shapes to output shapes while checking the op's
contract.

``__init__`` is interpreted first — ``Parameter(init.xavier_uniform((
concat_dim, hidden_dim), rng))`` binds ``self.w_f`` to an abstract tensor
whose dims carry the constructor-argument atoms, including derived sizes
like ``concat_dim = input_dim + 2 * hidden_dim``. ``forward`` then runs
abstractly with inputs bound from :data:`FORWARD_SPECS` (or unknown for
classes without a spec); both arms of every ``if`` are explored and
joined.

Only *provable* violations are reported: two dims mismatch when their
difference is a linear form that cannot be zero for any positive atom
assignment (``3*H`` vs ``4*H`` differs by ``H >= 1``), and a broadcast
additionally requires that neither side could be the literal 1. Anything
unknown stays silent — the pass is designed for zero false positives on
the real tree.

Rules
-----
RA301  statically provable shape mismatch in a forward() computation
RA302  statically provable dtype misuse (float data where ints required)
RA303  instrumented op with no transfer function in this interpreter
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .passes import ProgramRule
from .program import ModuleInfo, ProgramIndex
from .rules import Evidence, Finding


# ---------------------------------------------------------------------------
# Symbolic dimension algebra
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Dim:
    """A dimension as a linear form ``Σ coeff*atom + const`` over atoms ≥ 1."""

    terms: Tuple[Tuple[str, int], ...] = ()  #: sorted (atom, coeff), coeff≠0
    const: int = 0

    @staticmethod
    def atom(name: str) -> "Dim":
        return Dim(terms=((name, 1),))

    @staticmethod
    def of(value: int) -> "Dim":
        return Dim(const=int(value))

    def _combine(self, other: "Dim", sign: int) -> "Dim":
        acc = dict(self.terms)
        for name, coeff in other.terms:
            acc[name] = acc.get(name, 0) + sign * coeff
        terms = tuple(
            sorted((n, c) for n, c in acc.items() if c != 0)
        )
        return Dim(terms=terms, const=self.const + sign * other.const)

    def __add__(self, other: "Dim") -> "Dim":
        return self._combine(other, 1)

    def __sub__(self, other: "Dim") -> "Dim":
        return self._combine(other, -1)

    def scaled(self, factor: int) -> "Dim":
        return Dim(
            terms=tuple((n, c * factor) for n, c in self.terms if c * factor),
            const=self.const * factor,
        )

    def is_const(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.is_const() and self.const == 1

    def min_value(self) -> Optional[int]:
        """Lower bound given every atom ≥ 1, or ``None`` if unbounded below."""
        if any(coeff < 0 for _, coeff in self.terms):
            return None
        return self.const + sum(coeff for _, coeff in self.terms)

    def could_be_one(self) -> bool:
        if self.is_const():
            return self.const == 1
        low = self.min_value()
        return low is None or low <= 1

    def provably_ne(self, other: "Dim") -> bool:
        """True iff ``self != other`` for *every* positive atom assignment."""
        diff = self - other
        if not diff.terms and diff.const == 0:
            return False
        low = diff.min_value()
        if low is not None and low > 0:
            return True
        high = (other - self).min_value()
        return high is not None and high > 0

    def __str__(self) -> str:
        parts = []
        for name, coeff in self.terms:
            parts.append(name if coeff == 1 else f"{coeff}*{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        return "+".join(parts)


#: A shape is a tuple of dims where ``None`` marks an unknown dimension.
ShapeT = Optional[Tuple[Optional[Dim], ...]]


@dataclasses.dataclass(frozen=True)
class AT:
    """Abstract tensor: optional shape (None = unknown rank) + dtype."""

    shape: ShapeT = None
    dtype: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class ATuple:
    """Abstract tuple/list of values (shape tuples, tensor pairs, ...)."""

    items: Tuple[Any, ...]


class ShapeError(Exception):
    """A provable contract violation found by a transfer function."""

    def __init__(self, rule: str, message: str):
        super().__init__(message)
        self.rule = rule
        self.message = message


def _fmt(shape: ShapeT) -> str:
    if shape is None:
        return "(?)"
    return "(" + ", ".join("?" if d is None else str(d) for d in shape) + ")"


def _require_eq(a: Optional[Dim], b: Optional[Dim], context: str) -> None:
    if a is None or b is None:
        return
    if a.provably_ne(b):
        raise ShapeError("RA301", f"{context}: {a} vs {b}")


# ---------------------------------------------------------------------------
# Transfer functions — one per instrumented op
# ---------------------------------------------------------------------------

TRANSFERS: Dict[str, Callable[..., Any]] = {}


def _transfer(name: str):
    def register(fn):
        TRANSFERS[name] = fn
        return fn

    return register


def _as_tensor(value: Any) -> AT:
    if isinstance(value, AT):
        return value
    if isinstance(value, Dim) or isinstance(value, (int, float)):
        return AT(shape=(), dtype="float64")
    return AT()


def _broadcast_dim(a: Optional[Dim], b: Optional[Dim]) -> Optional[Dim]:
    if a is None or b is None:
        return None
    if a == b:
        return a
    if a.is_one():
        return b
    if b.is_one():
        return a
    if a.provably_ne(b) and not a.could_be_one() and not b.could_be_one():
        raise ShapeError(
            "RA301", f"cannot broadcast dimension {a} with {b}"
        )
    return None


def _broadcast(a: ShapeT, b: ShapeT) -> ShapeT:
    if a is None or b is None:
        return None
    if len(a) < len(b):
        a, b = b, a
    pad = len(a) - len(b)
    out: List[Optional[Dim]] = list(a[:pad])
    for da, db in zip(a[pad:], b):
        out.append(_broadcast_dim(da, db))
    return tuple(out)


def _elementwise_binary(*args: Any, **_kw: Any) -> AT:
    a, b = _as_tensor(args[0]), _as_tensor(args[1])
    return AT(shape=_broadcast(a.shape, b.shape), dtype="float64")


def _elementwise_unary(*args: Any, **_kw: Any) -> AT:
    a = _as_tensor(args[0])
    return AT(shape=a.shape, dtype="float64")


for _op in ("add", "sub", "mul", "div", "pow"):
    TRANSFERS[_op] = _elementwise_binary
for _op in (
    "neg",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "relu",
    "abs",
    "clip",
):
    TRANSFERS[_op] = _elementwise_unary


@_transfer("where")
def _t_where(*args: Any, **_kw: Any) -> AT:
    if len(args) < 3:
        return AT()
    a, b = _as_tensor(args[1]), _as_tensor(args[2])
    return AT(shape=_broadcast(a.shape, b.shape), dtype="float64")


@_transfer("matmul")
def _t_matmul(*args: Any, **_kw: Any) -> AT:
    a, b = _as_tensor(args[0]), _as_tensor(args[1])
    if a.shape is None or b.shape is None:
        return AT(dtype="float64")
    if len(a.shape) == 0 or len(b.shape) == 0:
        raise ShapeError("RA301", "matmul on a 0-d operand")
    if len(b.shape) != 2 or len(a.shape) < 1:
        return AT(dtype="float64")  # uncommon ranks: stay silent
    inner_a = a.shape[-1]
    _require_eq(
        inner_a,
        b.shape[0],
        f"matmul inner dimensions of {_fmt(a.shape)} @ {_fmt(b.shape)}",
    )
    if len(a.shape) == 1:
        return AT(shape=(b.shape[1],), dtype="float64")
    return AT(shape=a.shape[:-1] + (b.shape[1],), dtype="float64")


def _axis_int(value: Any) -> Optional[int]:
    if isinstance(value, Dim) and value.is_const():
        return value.const
    if isinstance(value, int):
        return value
    return None


@_transfer("reshape")
def _t_reshape(*args: Any, **_kw: Any) -> AT:
    dims: List[Optional[Dim]] = []
    targets = args[1:]
    if len(targets) == 1 and isinstance(targets[0], ATuple):
        targets = targets[0].items
    for target in targets:
        if isinstance(target, Dim):
            dims.append(None if target.is_const() and target.const < 0 else target)
        else:
            dims.append(None)
    return AT(shape=tuple(dims) if dims else None, dtype="float64")


@_transfer("transpose")
def _t_transpose(*args: Any, **_kw: Any) -> AT:
    a = _as_tensor(args[0])
    axes = [_axis_int(x) for x in args[1:]]
    if a.shape is None:
        return AT(dtype=a.dtype)
    if not axes:
        return AT(shape=tuple(reversed(a.shape)), dtype=a.dtype)
    if any(x is None for x in axes) or len(axes) != len(a.shape):
        return AT(dtype=a.dtype)
    try:
        return AT(shape=tuple(a.shape[i] for i in axes), dtype=a.dtype)
    except IndexError:
        raise ShapeError(
            "RA301",
            f"transpose axes {tuple(axes)} out of range for {_fmt(a.shape)}",
        )


@_transfer("index")
def _t_index(*args: Any, **_kw: Any) -> AT:
    return AT(dtype=_as_tensor(args[0]).dtype)


@_transfer("squeeze")
def _t_squeeze(*args: Any, axis: Any = None, **_kw: Any) -> AT:
    a = _as_tensor(args[0])
    if len(args) > 1:
        axis = args[1]
    ax = _axis_int(axis)
    if a.shape is None or ax is None:
        return AT(dtype=a.dtype)
    rank = len(a.shape)
    if not -rank <= ax < rank:
        raise ShapeError(
            "RA301", f"squeeze axis {ax} out of range for {_fmt(a.shape)}"
        )
    ax %= rank
    dim = a.shape[ax]
    if dim is not None and not dim.could_be_one():
        raise ShapeError(
            "RA301",
            f"cannot squeeze axis {ax} of {_fmt(a.shape)}: size {dim} is "
            "provably not 1",
        )
    return AT(shape=a.shape[:ax] + a.shape[ax + 1 :], dtype=a.dtype)


@_transfer("expand_dims")
def _t_expand_dims(*args: Any, axis: Any = None, **_kw: Any) -> AT:
    a = _as_tensor(args[0])
    if len(args) > 1:
        axis = args[1]
    ax = _axis_int(axis)
    if a.shape is None or ax is None:
        return AT(dtype=a.dtype)
    rank = len(a.shape)
    if not -rank - 1 <= ax <= rank:
        raise ShapeError(
            "RA301",
            f"expand_dims axis {ax} out of range for {_fmt(a.shape)}",
        )
    ax %= rank + 1
    return AT(
        shape=a.shape[:ax] + (Dim.of(1),) + a.shape[ax:], dtype=a.dtype
    )


def _t_reduce(*args: Any, axis: Any = None, keepdims: Any = False, **_kw: Any) -> AT:
    a = _as_tensor(args[0])
    if len(args) > 1:
        axis = args[1]
    if axis is None:
        return AT(shape=(), dtype="float64")
    ax = _axis_int(axis)
    if a.shape is None or ax is None:
        return AT(dtype="float64")
    rank = len(a.shape)
    if not -rank <= ax < rank:
        raise ShapeError(
            "RA301",
            f"reduction axis {ax} out of range for {_fmt(a.shape)}",
        )
    ax %= rank
    if keepdims is True:
        return AT(
            shape=a.shape[:ax] + (Dim.of(1),) + a.shape[ax + 1 :],
            dtype="float64",
        )
    return AT(shape=a.shape[:ax] + a.shape[ax + 1 :], dtype="float64")


for _op in ("sum", "mean", "max"):
    TRANSFERS[_op] = _t_reduce


@_transfer("concat")
def _t_concat(*args: Any, axis: Any = 0, **_kw: Any) -> AT:
    if not args or not isinstance(args[0], ATuple):
        return AT(dtype="float64")
    items = [_as_tensor(item) for item in args[0].items]
    if len(args) > 1:
        axis = args[1]
    ax = _axis_int(axis)
    if not items:
        return AT(dtype="float64")
    shapes = [t.shape for t in items]
    if any(s is None for s in shapes) or ax is None:
        return AT(dtype="float64")
    rank = len(shapes[0])
    for s in shapes[1:]:
        if len(s) != rank:
            raise ShapeError(
                "RA301",
                "concat of tensors with different ranks: "
                + ", ".join(_fmt(s) for s in shapes),
            )
    if not -rank <= ax < rank:
        raise ShapeError(
            "RA301", f"concat axis {ax} out of range for rank {rank}"
        )
    ax %= rank
    out: List[Optional[Dim]] = []
    for position in range(rank):
        dims = [s[position] for s in shapes]
        if position == ax:
            total: Optional[Dim] = Dim.of(0)
            for d in dims:
                total = None if (total is None or d is None) else total + d
            out.append(total)
            continue
        first = dims[0]
        for d in dims[1:]:
            _require_eq(
                first,
                d,
                f"concat along axis {ax} requires equal axis-{position} "
                "sizes",
            )
            if first is None:
                first = d
        out.append(first)
    return AT(shape=tuple(out), dtype="float64")


@_transfer("stack")
def _t_stack(*args: Any, axis: Any = 0, **_kw: Any) -> AT:
    if not args or not isinstance(args[0], ATuple):
        return AT(dtype="float64")
    items = [_as_tensor(item) for item in args[0].items]
    if len(args) > 1:
        axis = args[1]
    ax = _axis_int(axis)
    shapes = [t.shape for t in items]
    if not items or any(s is None for s in shapes) or ax is None:
        return AT(dtype="float64")
    rank = len(shapes[0])
    for s in shapes[1:]:
        if len(s) != rank:
            raise ShapeError(
                "RA301",
                "stack of tensors with different ranks: "
                + ", ".join(_fmt(s) for s in shapes),
            )
        for position in range(rank):
            _require_eq(
                shapes[0][position],
                s[position],
                "stack requires identical shapes",
            )
    if not -rank - 1 <= ax <= rank:
        raise ShapeError(
            "RA301", f"stack axis {ax} out of range for rank {rank}"
        )
    ax %= rank + 1
    base = list(shapes[0])
    base.insert(ax, Dim.of(len(items)))
    return AT(shape=tuple(base), dtype="float64")


@_transfer("embedding_gather")
def _t_embedding_gather(*args: Any, **_kw: Any) -> AT:
    weight = _as_tensor(args[0])
    indices = _as_tensor(args[1]) if len(args) > 1 else AT()
    if weight.shape is not None and len(weight.shape) != 2:
        raise ShapeError(
            "RA301",
            f"embedding_gather weight must be 2-D, got {_fmt(weight.shape)}",
        )
    if indices.dtype == "float64":
        raise ShapeError(
            "RA302",
            "embedding_gather indices must be integers, got float tensor "
            "data",
        )
    if weight.shape is None or indices.shape is None:
        return AT(dtype="float64")
    return AT(shape=indices.shape + (weight.shape[1],), dtype="float64")


def _rnn_hidden_sum(gates: int, op: str):
    def transfer(*args: Any, **_kw: Any) -> AT:
        if len(args) < 5:
            return AT(dtype="float64")
        x, mask, w_x, w_h, b = (_as_tensor(a) for a in args[:5])
        if x.shape is not None and len(x.shape) != 3:
            raise ShapeError(
                "RA301", f"{op} expects (B, T, E) input, got {_fmt(x.shape)}"
            )
        if w_x.shape is not None and len(w_x.shape) != 2:
            raise ShapeError(
                "RA301", f"{op} w_x must be 2-D, got {_fmt(w_x.shape)}"
            )
        if w_h.shape is not None and len(w_h.shape) != 2:
            raise ShapeError(
                "RA301", f"{op} w_h must be 2-D, got {_fmt(w_h.shape)}"
            )
        hidden = w_h.shape[0] if w_h.shape is not None else None
        gated = hidden.scaled(gates) if hidden is not None else None
        if w_h.shape is not None:
            _require_eq(
                w_h.shape[1],
                gated,
                f"{op} w_h must stack {gates} gates of the hidden size",
            )
        if w_x.shape is not None:
            _require_eq(
                w_x.shape[1], gated, f"{op} w_x gate width"
            )
        if b.shape is not None and len(b.shape) == 1:
            _require_eq(b.shape[0], gated, f"{op} bias gate width")
        if x.shape is not None and w_x.shape is not None:
            _require_eq(
                x.shape[2], w_x.shape[0], f"{op} input feature size"
            )
        if (
            mask.shape is not None
            and len(mask.shape) == 2
            and x.shape is not None
        ):
            _require_eq(mask.shape[0], x.shape[0], f"{op} mask batch")
            _require_eq(mask.shape[1], x.shape[1], f"{op} mask length")
        if x.shape is None or hidden is None:
            return AT(dtype="float64")
        return AT(shape=(x.shape[0], hidden), dtype="float64")

    return transfer


TRANSFERS["gru_hidden_sum"] = _rnn_hidden_sum(3, "gru_hidden_sum")
TRANSFERS["lstm_hidden_sum"] = _rnn_hidden_sum(4, "lstm_hidden_sum")


@_transfer("gdu_layer")
def _t_gdu_layer(*args: Any, **kwargs: Any) -> AT:
    if len(args) < 5:
        return AT(dtype="float64")
    x, z, t, w_u, b_u = (_as_tensor(a) for a in args[:5])
    for name, at in (("x", x), ("z", z), ("t", t)):
        if at.shape is not None and len(at.shape) != 2:
            raise ShapeError(
                "RA301",
                f"gdu_layer {name} must be a (n, ·) batch, got "
                f"{_fmt(at.shape)}",
            )
    batch = x.shape[0] if x.shape is not None else None
    if z.shape is not None:
        _require_eq(batch, z.shape[0], "gdu_layer batch of x vs z")
    if t.shape is not None:
        _require_eq(batch, t.shape[0], "gdu_layer batch of x vs t")
    hidden = z.shape[1] if z.shape is not None else None
    if t.shape is not None:
        _require_eq(hidden, t.shape[1], "gdu_layer state width of z vs t")
        if hidden is None:
            hidden = t.shape[1]
    concat = None
    if (
        x.shape is not None
        and z.shape is not None
        and t.shape is not None
        and x.shape[1] is not None
        and z.shape[1] is not None
        and t.shape[1] is not None
    ):
        concat = x.shape[1] + z.shape[1] + t.shape[1]

    def check_gate(name: str, w: Any, b: Any) -> None:
        wt = _as_tensor(w)
        if wt.shape is not None:
            if len(wt.shape) != 2:
                raise ShapeError(
                    "RA301",
                    f"gdu_layer {name} weight must be 2-D, got "
                    f"{_fmt(wt.shape)}",
                )
            _require_eq(
                wt.shape[0],
                concat,
                f"gdu_layer {name} weight rows vs [x|z|t] width",
            )
            _require_eq(
                wt.shape[1], hidden, f"gdu_layer {name} weight hidden width"
            )
        bt = _as_tensor(b)
        if bt.shape is not None and len(bt.shape) == 1:
            _require_eq(bt.shape[0], hidden, f"gdu_layer {name} bias width")

    check_gate("candidate", w_u, b_u)
    for gate, width in (("forget", 2), ("adjust", 2), ("select", 4)):
        bundle = kwargs.get(gate)
        if isinstance(bundle, ATuple) and len(bundle.items) == width:
            for j in range(0, width, 2):
                check_gate(gate, bundle.items[j], bundle.items[j + 1])
    if batch is None or hidden is None:
        return AT(dtype="float64")
    return AT(shape=(batch, hidden), dtype="float64")


@_transfer("segment_sum")
def _t_segment_sum(*args: Any, **_kw: Any) -> AT:
    source = _as_tensor(args[0])
    segments = args[2] if len(args) > 2 else None
    seg_dim = segments if isinstance(segments, Dim) else None
    if source.shape is None or len(source.shape) < 1:
        return AT(dtype="float64")
    return AT(shape=(seg_dim,) + source.shape[1:], dtype="float64")


@_transfer("gather_segment_mean")
def _t_gather_segment_mean(*args: Any, **_kw: Any) -> AT:
    source = _as_tensor(args[0])
    segments = args[3] if len(args) > 3 else None
    seg_dim = segments if isinstance(segments, Dim) else None
    if source.shape is not None and len(source.shape) != 2:
        raise ShapeError(
            "RA301",
            f"gather_segment_mean source must be 2-D, got "
            f"{_fmt(source.shape)}",
        )
    if source.shape is None:
        return AT(dtype="float64")
    return AT(shape=(seg_dim, source.shape[1]), dtype="float64")


@_transfer("l2_regularization")
def _t_l2_regularization(*_args: Any, **_kw: Any) -> AT:
    return AT(shape=(), dtype="float64")


# ---------------------------------------------------------------------------
# Abstract interpreter over __init__ / forward
# ---------------------------------------------------------------------------

#: Symbolic input bindings for forward() of well-known classes. Entries are
#: shape tuples of atom names (matching the class's __init__ parameters) or
#: nested tuples for tuple-valued arguments (LSTM state).
FORWARD_SPECS: Dict[str, Dict[str, Any]] = {
    "Linear": {"x": ("batch", "in_features")},
    "RNNCell": {"x": ("batch", "input_size"), "h": ("batch", "hidden_size")},
    "GRUCell": {"x": ("batch", "input_size"), "h": ("batch", "hidden_size")},
    "LSTMCell": {
        "x": ("batch", "input_size"),
        "state": (
            ("batch", "hidden_size"),
            ("batch", "hidden_size"),
        ),
    },
    "GDU": {
        "x": ("batch", "input_dim"),
        "z": ("batch", "hidden_dim"),
        "t": ("batch", "hidden_dim"),
    },
}

#: Tensor method names that dispatch straight to a transfer function.
_TENSOR_METHODS = {
    "exp",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "relu",
    "abs",
    "clip",
    "sum",
    "mean",
    "max",
    "reshape",
    "transpose",
    "squeeze",
    "expand_dims",
}

#: Shape-constructor call terminals: first argument is the shape tuple.
_SHAPE_CTORS = {
    "zeros",
    "ones",
    "empty",
    "xavier_uniform",
    "orthogonal",
    "normal",
    "uniform",
}

_LIKE_CTORS = {"zeros_like", "ones_like", "empty_like"}

_FN_OPS = {
    "concatenate": "concat",
    "concat": "concat",
    "stack": "stack",
    "where": "where",
    "embedding_gather": "embedding_gather",
    "gru_hidden_sum": "gru_hidden_sum",
    "lstm_hidden_sum": "lstm_hidden_sum",
    "gdu_layer": "gdu_layer",
    "segment_sum": "segment_sum",
    "gather_segment_mean": "gather_segment_mean",
}

_BINOPS = {
    ast.Add: "add",
    ast.Sub: "sub",
    ast.Mult: "mul",
    ast.Div: "div",
    ast.Pow: "pow",
    ast.MatMult: "matmul",
}


@dataclasses.dataclass
class _Closure:
    node: Any
    env: Dict[str, Any]


def _join(a: Any, b: Any) -> Any:
    if a is b:
        return a
    if isinstance(a, AT) and isinstance(b, AT):
        return AT(
            shape=a.shape if a.shape == b.shape else None,
            dtype=a.dtype if a.dtype == b.dtype else None,
        )
    if a == b:
        return a
    return None


class ClassAnalyzer:
    """Abstractly execute one class's ``__init__`` then ``forward``."""

    def __init__(self, class_node: ast.ClassDef):
        self.class_node = class_node
        self.attrs: Dict[str, Any] = {}
        self.errors: List[Tuple[int, str, str]] = []
        self._seen: set = set()
        self.init_line: Optional[int] = None

    # -- public ----------------------------------------------------------
    def run(self) -> List[Tuple[int, str, str]]:
        init_fn = self._method("__init__")
        forward_fn = self._method("forward")
        if forward_fn is None:
            return []
        if init_fn is not None:
            self.init_line = init_fn.lineno
            env = self._bind_init_params(init_fn)
            self._exec_body(init_fn.body, env)
        env = self._bind_forward_params(forward_fn)
        self._exec_body(forward_fn.body, env)
        return self.errors

    # -- setup -----------------------------------------------------------
    def _method(self, name: str) -> Optional[ast.FunctionDef]:
        for stmt in self.class_node.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name == name:
                return stmt
        return None

    @staticmethod
    def _params(fn: ast.FunctionDef) -> List[str]:
        names = [a.arg for a in fn.args.args]
        return [n for n in names if n != "self"]

    def _bind_init_params(self, fn: ast.FunctionDef) -> Dict[str, Any]:
        return {name: Dim.atom(name) for name in self._params(fn)}

    def _bind_forward_params(self, fn: ast.FunctionDef) -> Dict[str, Any]:
        spec = FORWARD_SPECS.get(self.class_node.name, {})
        env: Dict[str, Any] = {}
        for name in self._params(fn):
            bound = spec.get(name)
            env[name] = _spec_value(bound) if bound is not None else None
        return env

    # -- statements ------------------------------------------------------
    def _exec_body(self, body: List[ast.stmt], env: Dict[str, Any]) -> None:
        for stmt in body:
            self._exec(stmt, env)

    def _exec(self, stmt: ast.stmt, env: Dict[str, Any]) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, value, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            op = _BINOPS.get(type(stmt.op))
            left = self._eval(stmt.target, env)
            right = self._eval(stmt.value, env)
            result = self._apply_binop(op, left, right, stmt.lineno)
            self._assign(stmt.target, result, env)
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            if getattr(stmt, "value", None) is not None:
                self._eval(stmt.value, env)
        elif isinstance(stmt, ast.If):
            if _is_guard(stmt):
                self._exec_body(stmt.orelse, env)
                return
            then_env = dict(env)
            else_env = dict(env)
            self._exec_body(stmt.body, then_env)
            self._exec_body(stmt.orelse, else_env)
            for key in set(then_env) | set(else_env):
                if key in then_env and key in else_env:
                    env[key] = _join(then_env[key], else_env[key])
                else:
                    env[key] = None
        elif isinstance(stmt, (ast.For, ast.While)):
            if isinstance(stmt, ast.For):
                self._assign(stmt.target, None, env)
            self._exec_body(stmt.body, env)
            self._exec_body(stmt.orelse, env)
        elif isinstance(stmt, ast.With):
            self._exec_body(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            self._exec_body(stmt.body, env)
            self._exec_body(stmt.finalbody, env)
        elif isinstance(stmt, ast.FunctionDef):
            env[stmt.name] = _Closure(stmt, dict(env))
        # Raise/Pass/Assert/Import/...: no shape effect.

    def _assign(self, target: ast.expr, value: Any, env: Dict[str, Any]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, ast.Attribute):
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                self.attrs[target.attr] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            items = (
                value.items
                if isinstance(value, ATuple)
                and len(value.items) == len(target.elts)
                else [None] * len(target.elts)
            )
            for element, item in zip(target.elts, items):
                self._assign(element, item, env)

    # -- expressions -----------------------------------------------------
    def _record(self, lineno: int, err: ShapeError) -> None:
        key = (lineno, err.rule, err.message)
        if key not in self._seen:
            self._seen.add(key)
            self.errors.append(key)

    def _apply(self, op: str, lineno: int, args, kwargs) -> Any:
        transfer = TRANSFERS.get(op)
        if transfer is None:
            return None
        try:
            return transfer(*args, **kwargs)
        except ShapeError as err:
            self._record(lineno, err)
            return AT(dtype="float64")
        except Exception:
            return None

    def _apply_binop(self, op: Optional[str], left, right, lineno: int) -> Any:
        if op is None:
            return None
        if isinstance(left, Dim) or isinstance(left, int):
            left_dim = left if isinstance(left, Dim) else Dim.of(left)
            if isinstance(right, Dim) or isinstance(right, int):
                right_dim = right if isinstance(right, Dim) else Dim.of(right)
                if op == "add":
                    return left_dim + right_dim
                if op == "sub":
                    return left_dim - right_dim
                if op == "mul":
                    if left_dim.is_const():
                        return right_dim.scaled(left_dim.const)
                    if right_dim.is_const():
                        return left_dim.scaled(right_dim.const)
                return None
        if isinstance(left, AT) or isinstance(right, AT):
            return self._apply(op, lineno, (left, right), {})
        return None

    def _eval(self, node: ast.expr, env: Dict[str, Any]) -> Any:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return node.value
            if isinstance(node.value, int):
                return Dim.of(node.value)
            if isinstance(node.value, float):
                return AT(shape=(), dtype="float64")
            return node.value
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return self.attrs.get(node.attr)
            value = self._eval(node.value, env)
            if node.attr == "data":
                return value
            if isinstance(value, AT):
                if node.attr == "T":
                    return self._apply("transpose", node.lineno, (value,), {})
                if node.attr == "shape" and value.shape is not None:
                    return ATuple(items=tuple(value.shape))
            return None
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            return self._apply_binop(
                _BINOPS.get(type(node.op)), left, right, node.lineno
            )
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, env)
            if isinstance(node.op, ast.USub):
                if isinstance(operand, Dim):
                    return operand.scaled(-1)
                if isinstance(operand, AT):
                    return self._apply("neg", node.lineno, (operand,), {})
            return None
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Subscript):
            value = self._eval(node.value, env)
            key = node.slice
            if isinstance(value, ATuple) and isinstance(key, ast.Constant):
                if (
                    isinstance(key.value, int)
                    and -len(value.items) <= key.value < len(value.items)
                ):
                    return value.items[key.value]
                return None
            if isinstance(value, AT):
                return self._apply("index", node.lineno, (value,), {})
            return None
        if isinstance(node, (ast.Tuple, ast.List)):
            return ATuple(
                items=tuple(self._eval(e, env) for e in node.elts)
            )
        if isinstance(node, ast.IfExp):
            return _join(
                self._eval(node.body, env), self._eval(node.orelse, env)
            )
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._eval(child, env)
            return None
        if isinstance(node, ast.Starred):
            self._eval(node.value, env)
            return None
        return None

    def _eval_call(self, node: ast.Call, env: Dict[str, Any]) -> Any:
        has_star = any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        )
        args = [self._eval(a, env) for a in node.args]
        kwargs = {
            kw.arg: self._eval(kw.value, env)
            for kw in node.keywords
            if kw.arg is not None
        }
        if has_star:
            return None
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
            obj = self._eval(func.value, env)
            if isinstance(obj, AT) and name in _TENSOR_METHODS:
                return self._apply(name, node.lineno, [obj] + args, kwargs)
            if name in _SHAPE_CTORS and args:
                return AT(shape=_shape_from(args[0]), dtype="float64")
            if name in _LIKE_CTORS and args:
                model = _as_tensor(args[0])
                return AT(shape=model.shape, dtype="float64")
            if name in ("asarray", "array") and args:
                value = args[0]
                dtype = kwargs.get("dtype")
                if isinstance(value, AT):
                    out_dtype = value.dtype
                    if isinstance(dtype, str) and "int" in dtype:
                        out_dtype = "intp"
                    return AT(shape=value.shape, dtype=out_dtype)
                return None
            if name == "full" and args:
                return AT(shape=_shape_from(args[0]), dtype="float64")
            return None
        if isinstance(func, ast.Name):
            name = func.id
            bound = env.get(name)
            if isinstance(bound, _Closure):
                return self._call_closure(bound, args)
            if name in ("Tensor", "Parameter", "ensure_tensor") and args:
                return _as_tensor(args[0]) if args[0] is not None else AT()
            op = _FN_OPS.get(name)
            if op is not None:
                return self._apply(op, node.lineno, args, kwargs)
            if name in _SHAPE_CTORS and args:
                return AT(shape=_shape_from(args[0]), dtype="float64")
        return None

    def _call_closure(self, closure: _Closure, args: List[Any]) -> Any:
        fn = closure.node
        env = dict(closure.env)
        params = [a.arg for a in fn.args.args if a.arg != "self"]
        for param, value in zip(params, args):
            env[param] = value
        result: Any = "__unset__"
        for stmt in fn.body:
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                value = self._eval(stmt.value, env)
                result = value if result == "__unset__" else _join(result, value)
            else:
                self._exec(stmt, env)
        return None if result == "__unset__" else result


def _spec_value(spec: Any) -> Any:
    if isinstance(spec, tuple) and spec and isinstance(spec[0], tuple):
        return ATuple(items=tuple(_spec_value(s) for s in spec))
    return AT(
        shape=tuple(Dim.atom(name) for name in spec), dtype="float64"
    )


def _shape_from(value: Any) -> ShapeT:
    if isinstance(value, ATuple):
        return tuple(
            item if isinstance(item, Dim) else None for item in value.items
        )
    if isinstance(value, Dim):
        return (value,)
    return None


def _is_guard(stmt: ast.If) -> bool:
    """An ``if ...: raise`` validation guard — skip the raising arm."""
    return all(isinstance(s, ast.Raise) for s in stmt.body) and bool(stmt.body)


# ---------------------------------------------------------------------------
# Pass rules
# ---------------------------------------------------------------------------


def analyze_classes(
    index: ProgramIndex,
) -> List[Tuple[ModuleInfo, ast.ClassDef, List[Tuple[int, str, str]]]]:
    """Run the interpreter over every class with a ``forward`` method."""
    cached = getattr(index, "_shape_analysis", None)
    if cached is not None:
        return cached
    results = []
    for info in index.modules.values():
        for stmt in info.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            if not any(
                isinstance(s, ast.FunctionDef) and s.name == "forward"
                for s in stmt.body
            ):
                continue
            analyzer = ClassAnalyzer(stmt)
            try:
                errors = analyzer.run()
            except Exception:  # pragma: no cover - robustness backstop
                errors = []
            results.append((info, stmt, errors, analyzer.init_line))
    index._shape_analysis = results
    return results


class _InterpreterRule(ProgramRule):
    """Shared driver: report interpreter errors carrying this rule's id."""

    def check(self, index: ProgramIndex) -> Iterator[Finding]:
        for info, cls, errors, init_line in analyze_classes(index):
            for lineno, rule, message in errors:
                if rule != self.id:
                    continue
                evidence = [
                    Evidence(
                        info.path,
                        lineno,
                        f"in {cls.name}.forward abstract execution",
                    )
                ]
                if init_line is not None:
                    evidence.append(
                        Evidence(
                            info.path,
                            init_line,
                            f"parameter shapes bound in {cls.name}.__init__",
                        )
                    )
                yield self.finding(
                    info.path,
                    lineno,
                    f"{cls.name}: {message}",
                    evidence=evidence,
                )


class ShapeMismatchRule(_InterpreterRule):
    id = "RA301"
    title = "provable shape mismatch"
    hint = (
        "the symbolic shapes cannot agree for any input size; fix the "
        "parameter shape or the op wiring"
    )


class DtypeMismatchRule(_InterpreterRule):
    id = "RA302"
    title = "provable dtype misuse"
    hint = "this op requires integer inputs; cast or re-route the data"


class MissingTransferRule(ProgramRule):
    """RA303: every instrumented op must have a transfer function.

    Compares the runtime op registry
    (:data:`repro.autograd.tensor.INSTRUMENTED_OPS`) against
    :data:`TRANSFERS`; an op the interpreter cannot model silently blinds
    the whole shapes pass, so the gap itself is a finding.
    """

    id = "RA303"
    title = "instrumented op without shape transfer"
    hint = (
        "add a transfer function to repro.analysis.shapes.TRANSFERS for "
        "this op"
    )

    def check(self, index: ProgramIndex) -> Iterator[Finding]:
        try:
            from ..autograd.tensor import INSTRUMENTED_OPS
        except Exception:  # numpy-less environment: nothing to compare
            return
        # Anchor findings on an indexed autograd module when available so
        # suppressions have a place to live; fall back to the first file.
        anchor = None
        for info in index.modules.values():
            if info.name == "repro.autograd.tensor":
                anchor = info
                break
        if anchor is None and index.modules:
            anchor = next(iter(index.modules.values()))
        if anchor is None:
            return
        for op in INSTRUMENTED_OPS:
            if op not in TRANSFERS:
                yield self.finding(
                    anchor.path,
                    1,
                    f"op {op!r} is instrumented but has no transfer "
                    "function in the shapes pass",
                )


SHAPE_RULES = (
    ShapeMismatchRule(),
    DtypeMismatchRule(),
    MissingTransferRule(),
)
