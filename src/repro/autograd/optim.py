"""The Adam optimizer and gradient-norm utilities.

The paper trains FakeDetector "with the back-propagation algorithm"; the
reproduction uses Adam for stability, with global-norm gradient clipping.
Every trainer in the package (FakeDetector, the GCN and RNN baselines)
uses only these.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from .tensor import Tensor


__all__ = [
    "Optimizer",
    "Adam",
    "clip_grad_norm",
    "global_grad_norm",
]


class Optimizer:
    """Base optimizer holding a list of parameters."""

    def __init__(self, params: Iterable[Tensor], lr: float):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


def _scratch_pairs(params) -> list:
    """Two scratch arrays per parameter, shaped and typed like its data.

    They are views of two buffers per dtype, sized for the largest
    parameter of that dtype, so a step writes its intermediates without
    allocating and without any per-step shape arithmetic.
    """
    widths: dict = {}
    for p in params:
        widths[p.data.dtype] = max(widths.get(p.data.dtype, 0), p.data.size)
    buffers = {
        dtype: (np.empty(width, dtype), np.empty(width, dtype))
        for dtype, width in widths.items()
    }
    return [
        tuple(buf[: p.data.size].reshape(p.data.shape) for buf in buffers[p.data.dtype])
        for p in params
    ]


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction and optional weight decay."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = _scratch_pairs(self.params)
        self._t = 0

    def step(self) -> None:
        """One Adam update, with every intermediate written into scratch.

        The operations and their order are those of the textbook form
        ``p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)`` with
        ``v += ((1 - beta2) * g) * g``, so the result is the same bit for
        bit; only the temporaries are gone.
        """
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        beta1, beta2 = self.beta1, self.beta2
        keep1, keep2 = 1.0 - beta1, 1.0 - beta2
        lr, eps, decay = self.lr, self.eps, self.weight_decay
        for p, m, v, (a, b) in zip(self.params, self._m, self._v, self._scratch):
            grad = p.grad
            if grad is None:
                continue
            if decay:
                grad = grad + decay * p.data
            m *= beta1
            np.multiply(grad, keep1, out=a)
            m += a
            v *= beta2
            np.multiply(grad, keep2, out=a)
            a *= grad
            v += a
            np.divide(m, bias1, out=a)
            np.divide(v, bias2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a *= lr
            a /= b
            p.data -= a


def global_grad_norm(params: Iterable[Tensor]) -> float:
    """Global L2 norm of the parameters' gradients; ``None`` grads are skipped."""
    return math.sqrt(
        sum(float((p.grad ** 2).sum()) for p in params if p.grad is not None)
    )


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm. Essential for the unrolled GRU over long
    articles, where gradients otherwise explode. Scaling rebinds ``p.grad``
    to a new array, so a gradient array the caller supplied is never
    mutated.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    params = [p for p in params if p.grad is not None]
    total = global_grad_norm(params)
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad = p.grad * scale
    return total
