"""Shape/dtype contract checker for the model's structured layers.

Numpy broadcasting makes many wiring mistakes *silently legal*: a GDU fed a
state of the wrong width happily concatenates and matmuls into a cryptic
shape error three ops later (or, worse, broadcasts into a wrong-but-valid
result). :class:`ContractChecker` patches the ``forward`` of every
:class:`~repro.autograd.nn.Linear`, RNN cell and
:class:`~repro.core.gdu.GDU` instance in a module tree with an explicit
precondition check, so violations raise :class:`ContractViolation` naming
the offending submodule *by its dotted path* at the call boundary::

    with ContractChecker(model):
        model(features, graph)   # raises e.g. "gdu_article: GDU expected
                                 # z width 16, got 12"

The checker is a context manager and restores the original methods on
exit; like the sanitizer it never alters values, only validates them.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Tuple

import numpy as np

from ..autograd.nn import Linear, Module
from ..autograd.rnn import GRUCell, LSTMCell, RNNCell
from .sanitize import SanitizerError


class ContractViolation(SanitizerError):
    """A layer was called with arguments violating its shape/dtype contract."""


def named_modules(module: Module, prefix: str = "") -> Iterator[Tuple[str, Module]]:
    """Yield ``(dotted_path, module)`` for a module and all descendants."""
    yield prefix or "<root>", module
    for name, child in module._modules.items():
        child_prefix = f"{prefix}.{name}" if prefix else name
        yield from named_modules(child, child_prefix)


def _shape_of(value) -> tuple:
    data = getattr(value, "data", value)
    return np.asarray(data).shape


def _dtype_of(value):
    data = getattr(value, "data", value)
    return np.asarray(data).dtype


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ContractViolation(f"{path}: {message}")


def _check_dtype(path: str, role: str, value, expected) -> None:
    """The engine keeps input dtypes, so a mismatch would silently upcast."""
    dtype = _dtype_of(value)
    _require(
        dtype == expected,
        path,
        f"{role} dtype must match the layer's parameter dtype {expected}, got {dtype}",
    )


def _validate_linear(path: str, layer: Linear, args, kwargs) -> None:
    if not args:
        return
    x = args[0]
    shape = _shape_of(x)
    _require(len(shape) >= 1, path, "Linear input must have at least 1 dimension")
    _require(
        shape[-1] == layer.in_features,
        path,
        f"Linear expected input width {layer.in_features}, got {shape[-1]} "
        f"(input shape {shape})",
    )
    if isinstance(getattr(x, "data", None), np.ndarray):
        _check_dtype(path, "input", x, layer.weight.dtype)


def _validate_rnn_cell(path: str, cell, args, kwargs) -> None:
    if not args:
        return
    x = args[0]
    shape = _shape_of(x)
    _require(
        shape[-1] == cell.input_size,
        path,
        f"{type(cell).__name__} expected input width {cell.input_size}, "
        f"got {shape[-1]} (input shape {shape})",
    )
    if len(args) < 2:
        return
    state = args[1]
    states = state if isinstance(state, tuple) else (state,)
    for role, s in zip(("h", "c"), states):
        s_shape = _shape_of(s)
        _require(
            s_shape[-1] == cell.hidden_size,
            path,
            f"{type(cell).__name__} expected {role} width {cell.hidden_size}, "
            f"got {s_shape[-1]} (state shape {s_shape})",
        )
        _require(
            s_shape[:-1] == shape[:-1],
            path,
            f"{type(cell).__name__} batch mismatch: input {shape}, {role} {s_shape}",
        )


def _validate_gdu(path: str, gdu, args, kwargs) -> None:
    if len(args) < 3:
        return
    x, z, t = args[:3]
    x_shape, z_shape, t_shape = _shape_of(x), _shape_of(z), _shape_of(t)
    _require(
        len(x_shape) == 2 and len(z_shape) == 2 and len(t_shape) == 2,
        path,
        f"GDU inputs must be 2-D batches, got x={x_shape}, z={z_shape}, t={t_shape}",
    )
    _require(
        x_shape[1] == gdu.input_dim,
        path,
        f"GDU expected x width {gdu.input_dim}, got {x_shape[1]}",
    )
    _require(
        z_shape[1] == gdu.hidden_dim,
        path,
        f"GDU expected z width {gdu.hidden_dim}, got {z_shape[1]}",
    )
    _require(
        t_shape[1] == gdu.hidden_dim,
        path,
        f"GDU expected t width {gdu.hidden_dim}, got {t_shape[1]}",
    )
    _require(
        x_shape[0] == z_shape[0] == t_shape[0],
        path,
        f"GDU batch mismatch: x={x_shape[0]}, z={z_shape[0]}, t={t_shape[0]}",
    )
    for role, value in (("x", x), ("z", z), ("t", t)):
        if isinstance(getattr(value, "data", None), np.ndarray):
            _check_dtype(path, role, value, gdu.w_u.dtype)


def _validator_for(module: Module) -> Callable | None:
    # GDU is imported lazily to keep analysis importable without core.
    from ..core.gdu import GDU

    if isinstance(module, Linear):
        return _validate_linear
    if isinstance(module, GDU):
        return _validate_gdu
    if isinstance(module, (GRUCell, LSTMCell, RNNCell)):
        return _validate_rnn_cell
    return None


class ContractChecker:
    """Context manager installing per-instance forward preconditions."""

    def __init__(self, module: Module):
        self.module = module
        self._patched: List[Module] = []

    def __enter__(self) -> "ContractChecker":
        for path, sub in named_modules(self.module):
            validator = _validator_for(sub)
            if validator is None:
                continue
            if "forward" in sub.__dict__:  # already patched (shared submodule)
                continue
            original = sub.forward  # bound method from the class

            def checked_forward(
                *args, _validator=validator, _path=path, _sub=sub, _orig=original, **kwargs
            ):
                _validator(_path, _sub, args, kwargs)
                return _orig(*args, **kwargs)

            object.__setattr__(sub, "forward", checked_forward)
            self._patched.append(sub)
        return self

    def __exit__(self, *exc_info) -> None:
        for sub in self._patched:
            try:
                object.__delattr__(sub, "forward")
            except AttributeError:
                pass
        self._patched.clear()
