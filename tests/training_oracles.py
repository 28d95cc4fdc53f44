"""Reference implementations of the training step's rewritten pieces.

The engine computes L2, Adam, gradient accumulation and the embedding
scatter with fewer tape nodes, temporaries and copies than the plain
compositions below. These are the plain forms the fast code replaced,
kept only as oracles: ``tests/test_training_bit_identity.py`` asserts the
fast code equals them bit for bit, piece by piece and over whole fits
with these patched in.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor, _as_array, ensure_tensor


def l2_regularization(params, weight: float) -> Tensor:
    """``weight * Σ ||W||²`` as one ``mul``/``sum``/``add`` chain per parameter."""
    total: Optional[Tensor] = None
    for p in params:
        term = (p * p).sum()
        total = term if total is None else total + term
    if total is None:
        return Tensor(0.0)
    return total * weight


def adam_step(self) -> None:
    """``Adam.step`` with a fresh temporary for every intermediate."""
    self._t += 1
    bias1 = 1.0 - self.beta1 ** self._t
    bias2 = 1.0 - self.beta2 ** self._t
    for p, m, v in zip(self.params, self._m, self._v):
        if p.grad is None:
            continue
        grad = p.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * p.data
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def grad_norm(params) -> float:
    """The pre-clip global norm as the trainer spelled it out."""
    return math.sqrt(
        sum(float((p.grad ** 2).sum()) for p in params if p.grad is not None)
    )


def embedding_gather(weight, indices) -> Tensor:
    """Embedding lookup whose backward scatters with ``np.add.at``.

    The scatter adds into a float64 table and casts it once to the table's
    dtype, which is what ``np.bincount`` does for a float32 table.
    """
    weight = ensure_tensor(weight)
    idx = np.asarray(
        indices.data if isinstance(indices, Tensor) else indices, dtype=np.intp
    )
    vocab, dim = weight.shape
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        raise IndexError("embedding index out of range")
    flat_idx = idx.ravel()

    def backward(grad):
        full = np.zeros(weight.shape)
        np.add.at(full, flat_idx, grad.reshape(-1, dim))
        return (full.astype(weight.data.dtype),)

    return Tensor._make(weight.data[idx], (weight,), backward)


def tensor_backward(self, grad=None) -> None:
    """``Tensor.backward`` that copies every stored grad and never adds in place."""
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

    topo = []
    visited = set()
    stack = [(self, False)]
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

    grads = {id(self): grad}
    for node in reversed(topo):
        node_grad = grads.pop(id(node), None)
        if node_grad is None:
            continue
        if node.grad is None:
            node.grad = node_grad.copy()
        else:
            node.grad = node.grad + node_grad
        if node._backward is None:
            continue
        parent_grads = node._backward(node_grad)
        for parent, pgrad in zip(node._parents, parent_grads):
            if pgrad is None or not parent.requires_grad:
                continue
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pgrad
            else:
                grads[id(parent)] = pgrad


def patch_references(monkeypatch) -> None:
    """Swap every reference above in for the fast code it oracles."""
    from repro.autograd import functional, kernels, optim

    monkeypatch.setattr(functional, "l2_regularization", l2_regularization)
    monkeypatch.setattr(optim.Adam, "step", adam_step)
    monkeypatch.setattr(optim, "global_grad_norm", grad_norm)
    monkeypatch.setattr(kernels, "embedding_gather", embedding_gather)
    monkeypatch.setattr(Tensor, "backward", tensor_backward)
