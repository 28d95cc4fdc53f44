"""Test helpers shared across modules."""

from __future__ import annotations

import numpy as np


def finite_difference_check(func, tensors, eps: float = 1e-6, tol: float = 1e-5) -> None:
    """Compare analytic grads of scalar ``func(*tensors)`` to central differences."""
    out = func(*tensors)
    for t in tensors:
        t.zero_grad()
    out = func(*tensors)
    out.backward()
    for t in tensors:
        if not t.requires_grad:
            continue
        analytic = t.grad
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            plus = float(func(*tensors).item())
            flat[i] = orig - eps
            minus = float(func(*tensors).item())
            flat[i] = orig
            num_flat[i] = (plus - minus) / (2 * eps)
        err = np.abs(analytic - numeric).max()
        assert err < tol, f"gradient mismatch {err} for tensor of shape {t.shape}"


def op_observers() -> tuple:
    """The op observers installed on the tensor engine, oldest first."""
    from repro.autograd import tensor

    return tensor._OBSERVERS
