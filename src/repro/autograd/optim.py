"""The Adam optimizer and gradient-norm utilities.

The paper trains FakeDetector "with the back-propagation algorithm"; the
reproduction uses Adam for stability, with global-norm gradient clipping.
Every trainer in the package (FakeDetector, the GCN and RNN baselines)
uses only these.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .tensor import Tensor


__all__ = [
    "Adam",
    "clip_grad_norm",
    "global_grad_norm",
]


class Adam:
    """Adam (Kingma & Ba 2015) with bias correction and optional weight decay.

    The parameters are packed: construction copies them into one
    contiguous buffer and rebinds each ``p.data`` to its view of it. A
    gradient buffer, the moments ``m`` and ``v`` and two scratch arrays
    have the same length, and ``_m``, ``_v`` and ``_scratch`` hold each
    parameter's views of them. Packing needs one dtype for all the
    parameters.
    """

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        beta1, beta2 = betas
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) != 1:
            raise ValueError(
                f"Adam packs parameters of one dtype, got {sorted(map(str, dtypes))}"
            )
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._t = 0

        (dtype,) = dtypes
        size = sum(p.data.size for p in self.params)
        self._data, self._grad = np.empty(size, dtype), np.empty(size, dtype)
        self._m_buf, self._v_buf = np.zeros(size, dtype), np.zeros(size, dtype)
        self._a, self._b = np.empty(size, dtype), np.empty(size, dtype)

        def views(buffer) -> list:
            out, start = [], 0
            for p in self.params:
                out.append(buffer[start : start + p.data.size].reshape(p.data.shape))
                start += p.data.size
            return out

        self._packed = list(zip(self.params, views(self._data), views(self._grad)))
        for p, data, _ in self._packed:
            data[...] = p.data
            p.data = data
        self._m, self._v = views(self._m_buf), views(self._v_buf)
        self._scratch = list(zip(views(self._a), views(self._b)))

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """One Adam update, with every intermediate written into scratch.

        While every parameter has a gradient and its ``.data`` is still
        its view, the gradients are copied into the gradient buffer and
        the update runs once over the whole buffers. Otherwise (a
        gradient is ``None``, or ``load_state_dict`` rebound ``.data``)
        it runs once per parameter on its current ``.data`` and
        ``.grad``, skipping ``None`` gradients. Both apply the same
        elementwise sequence, so they give the same bits.
        """
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        if all(p.grad is not None and p.data is data for p, data, _ in self._packed):
            for p, _, grad in self._packed:
                np.copyto(grad, p.grad)
            self._update(self._data, self._grad, self._m_buf, self._v_buf,
                         self._a, self._b, bias1, bias2)
            return
        for p, m, v, (a, b) in zip(self.params, self._m, self._v, self._scratch):
            if p.grad is not None:
                self._update(p.data, p.grad, m, v, a, b, bias1, bias2)

    def _update(self, data, grad, m, v, a, b, bias1: float, bias2: float) -> None:
        """``data -= lr * (m / bias1) / (sqrt(v / bias2) + eps)`` in place.

        The operations and their order are those of the textbook form with
        ``v += ((1 - beta2) * g) * g``, so the result is the same bit for
        bit; only the temporaries are gone.
        """
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=a)
        m += a
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=a)
        a *= grad
        v += a
        np.divide(m, bias1, out=a)
        np.divide(v, bias2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a *= self.lr
        a /= b
        data -= a


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
