"""Neural network layers: Module base class, Linear, Embedding, Dropout.

Follows the familiar Module/Parameter organization so the FakeDetector model
reads like its PyTorch equivalent, while staying pure numpy underneath.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional

import numpy as np

from . import init
from .functional import dropout_mask
from .tensor import Tensor, ensure_tensor, tape_enabled


class Parameter(Tensor):
    """A Tensor that is registered as a trainable parameter of a Module."""

    def __init__(self, data, name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; they are auto-registered for :meth:`parameters`,
    :meth:`state_dict` and :meth:`zero_grad`.
    """

    def __init__(self):
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its children."""
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Snapshot of all parameter arrays keyed by dotted path."""
        return OrderedDict((name, p.data.copy()) for name, p in self.named_parameters())

    def load_state_dict(self, state: dict) -> None:
        """Load parameter arrays produced by :meth:`state_dict`.

        Each array is cast to its parameter's dtype, so a float32 module
        loads a float64 state dict (and the reverse).
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name])
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: expected {param.shape}, got {value.shape}"
                )
            param.data = value.astype(param.data.dtype)

    def astype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` in place; returns ``self``.

        Gradients are dropped: one computed in the old dtype no longer
        matches its parameter.
        """
        for param in self.parameters():
            param.data = param.data.astype(dtype)
            param.grad = None
        return self


class Linear(Module):
    """Affine map ``y = x W + b`` with W of shape (in_features, out_features)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear dimensions must be positive")
        rng = rng or np.random.default_rng()  # repro: noqa[RA002] explicit opt-in randomness when no generator is supplied
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        x = ensure_tensor(x)
        if not tape_enabled():
            # Inference: the same (x @ W) + b arithmetic without the two
            # tape-op wrappers (per-request serving calls this twice per
            # article, for the fusion layer and the softmax head).
            data = x.data @ self.weight.data
            if self.bias is not None:
                data = data + self.bias.data
            return Tensor(data)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self):
        return f"Linear(in={self.in_features}, out={self.out_features}, bias={self.bias is not None})"


class Embedding(Module):
    """Lookup table mapping integer indices to dense vectors.

    Used by the latent-feature RNN: the paper represents words by a compact
    index code rather than full one-hot vectors ("the latter representation
    will save the computational space cost greatly"); an embedding lookup is
    the differentiable realization of that choice.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
        padding_idx: Optional[int] = None,
    ):
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError("Embedding dimensions must be positive")
        rng = rng or np.random.default_rng()  # repro: noqa[RA002] explicit opt-in randomness when no generator is supplied
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        self.weight = Parameter(init.normal((num_embeddings, embedding_dim), 0.1, rng))
        if padding_idx is not None:
            self.weight.data[padding_idx] = 0.0  # repro: noqa[RA004] init-time write, no tape exists yet

    def forward(self, indices) -> Tensor:
        idx = np.asarray(indices.data if isinstance(indices, Tensor) else indices, dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={idx.min()}, max={idx.max()}"
            )
        return self.weight[idx]

    def __repr__(self):
        return f"Embedding(num={self.num_embeddings}, dim={self.embedding_dim})"


class Dropout(Module):
    """Inverted dropout; identity when the module is in eval mode."""

    def __init__(self, rate: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng or np.random.default_rng()  # repro: noqa[RA002] explicit opt-in randomness when no generator is supplied

    def forward(self, x: Tensor) -> Tensor:
        x = ensure_tensor(x)
        if not self.training or self.rate == 0.0:
            return x
        mask = dropout_mask(x.shape, self.rate, self._rng)
        return x * Tensor(mask.astype(x.dtype, copy=False))

    def __repr__(self):
        return f"Dropout(rate={self.rate})"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __repr__(self):
        inner = ", ".join(repr(l) for l in self.layers)
        return f"Sequential({inner})"


class ReLU(Module):
    """Stateless ReLU layer for use inside Sequential."""

    def forward(self, x: Tensor) -> Tensor:
        return ensure_tensor(x).relu()

    def __repr__(self):
        return "ReLU()"


class Tanh(Module):
    """Stateless tanh layer for use inside Sequential."""

    def forward(self, x: Tensor) -> Tensor:
        return ensure_tensor(x).tanh()

    def __repr__(self):
        return "Tanh()"
