"""First-order optimizers and gradient utilities.

The paper trains FakeDetector "with the back-propagation algorithm"; the
reproduction defaults to Adam for stability, with SGD(+momentum), AdaGrad and
RMSProp available for ablations.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from .tensor import Tensor


__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "AdaGrad",
    "RMSProp",
    "clip_grad_norm",
    "global_grad_norm",
    "StepLR",
    "ExponentialLR",
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


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum / Nesterov / weight decay."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 0.01,
        momentum: float = 0.0,
        nesterov: bool = False,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        if momentum < 0:
            raise ValueError("momentum must be non-negative")
        if nesterov and momentum == 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.nesterov = nesterov
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                update = grad + self.momentum * v if self.nesterov else v
            else:
                update = grad
            p.data -= self.lr * update


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


class AdaGrad(Optimizer):
    """AdaGrad: per-parameter learning rates from accumulated squared grads."""

    def __init__(self, params: Iterable[Tensor], lr: float = 0.01, eps: float = 1e-10):
        super().__init__(params, lr)
        self.eps = eps
        self._accum = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, acc in zip(self.params, self._accum):
            if p.grad is None:
                continue
            acc += p.grad * p.grad
            p.data -= self.lr * p.grad / (np.sqrt(acc) + self.eps)


class RMSProp(Optimizer):
    """RMSProp with exponentially decaying squared-gradient average."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 0.001,
        decay: float = 0.9,
        eps: float = 1e-8,
    ):
        super().__init__(params, lr)
        if not 0 <= decay < 1:
            raise ValueError(f"decay must be in [0, 1), got {decay}")
        self.decay = decay
        self.eps = eps
        self._avg = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, avg in zip(self.params, self._avg):
            if p.grad is None:
                continue
            avg *= self.decay
            avg += (1.0 - self.decay) * p.grad * p.grad
            p.data -= self.lr * p.grad / (np.sqrt(avg) + self.eps)


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


class StepLR:
    """Multiply the optimizer's lr by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.5):
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._epoch = 0

    def step(self) -> None:
        self._epoch += 1
        if self._epoch % self.step_size == 0:
            self.optimizer.lr *= self.gamma


class ExponentialLR:
    """Multiply the optimizer's lr by ``gamma`` every epoch."""

    def __init__(self, optimizer: Optimizer, gamma: float = 0.95):
        self.optimizer = optimizer
        self.gamma = gamma

    def step(self) -> None:
        self.optimizer.lr *= self.gamma
