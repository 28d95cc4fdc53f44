"""Reference implementations of the training step's rewritten pieces.

The engine computes L2, Adam, gradient accumulation and the embedding
scatter with fewer tape nodes, temporaries and copies than the plain
compositions below. These are the plain forms the fast code replaced,
kept only as oracles: ``tests/test_training_bit_identity.py`` asserts the
fast code equals them bit for bit, piece by piece and over whole fits
with these patched in.

The encoder's recurrences and the GDU run as fused kernels, one tape node
each. :func:`unrolled_encoder_forward` and :func:`unrolled_gdu_forward`
are the per-timestep and per-gate tapes they replaced, built from the
modules' own Parameters. ``tests/test_kernels.py`` holds the kernels to
them (1e-12 forwards and gradients, whole fits with
:func:`patch_unrolled`), and the throughput benchmarks time them as the
unrolled arm.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor, _as_array, concatenate, ensure_tensor


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


def unrolled_encoder_forward(encoder, sequences) -> Tensor:
    """``GRUEncoder.forward`` with every cell unrolled, one step at a time.

    Per timestep: an embedding lookup, the cell's gate matmuls and
    nonlinearities as separate tape ops, and the masked carry of the
    previous state through padded positions.
    """
    seq = np.asarray(
        sequences.data if isinstance(sequences, Tensor) else sequences, dtype=np.intp
    )
    if seq.ndim == 1:
        seq = seq[None, :]
    batch, length = seq.shape
    dtype = encoder.embedding.weight.data.dtype
    mask = (seq != encoder.padding_idx).astype(dtype)  # (batch, seq_len)
    valid_cols = np.flatnonzero(mask.any(axis=0))
    effective = int(valid_cols[-1]) + 1 if valid_cols.size else 0
    if effective < length:
        seq = seq[:, :effective]
        mask = mask[:, :effective]
        length = effective
    if length == 0:
        width = encoder.hidden_size * (2 if encoder.cell_type == "bigru" else 1)
        return encoder.fusion(Tensor(np.zeros((batch, width), dtype))).sigmoid()
    if encoder.cell_type == "bigru":
        return _unrolled_bidirectional(encoder, seq, mask)
    is_lstm = encoder.cell_type == "lstm"
    if is_lstm:
        h, c = encoder.cell.initial_state(batch)
    else:
        h = encoder.cell.initial_state(batch)
    m_cols = mask[:, :, None]
    keep_cols = 1.0 - m_cols
    hidden_sum: Optional[Tensor] = None
    for t in range(length):
        x_t = encoder.embedding(seq[:, t])
        m = Tensor(m_cols[:, t])
        keep = Tensor(keep_cols[:, t])
        if is_lstm:
            h_new, c_new = encoder.cell(x_t, (h, c))
            h = m * h_new + keep * h
            c = m * c_new + keep * c
        else:
            h_new = encoder.cell(x_t, h)
            h = m * h_new + keep * h
        contribution = m * h
        hidden_sum = contribution if hidden_sum is None else hidden_sum + contribution
    return encoder.fusion(hidden_sum).sigmoid()


def _unrolled_bidirectional(encoder, seq: np.ndarray, mask: np.ndarray) -> Tensor:
    """Bidirectional pass: fuse Σ_t [h_fw(t) ; h_bw(t)] over valid steps."""
    batch, length = seq.shape
    m_cols = mask[:, :, None]
    keep_cols = 1.0 - m_cols

    def direction(cell, time_indices) -> dict:
        h = cell.initial_state(batch)
        states = {}
        for t in time_indices:
            x_t = encoder.embedding(seq[:, t])
            m = Tensor(m_cols[:, t])
            keep = Tensor(keep_cols[:, t])
            h = m * cell(x_t, h) + keep * h
            states[t] = h
        return states

    fw = direction(encoder.cell, range(length))
    bw = direction(encoder.cell_backward, range(length - 1, -1, -1))
    hidden_sum: Optional[Tensor] = None
    for t in range(length):
        m = Tensor(m_cols[:, t])
        joint = concatenate([fw[t], bw[t]], axis=1)
        contribution = m * joint
        hidden_sum = contribution if hidden_sum is None else hidden_sum + contribution
    return encoder.fusion(hidden_sum).sigmoid()


def unrolled_gdu_forward(gdu, x: Tensor, z: Tensor, t: Tensor) -> Tensor:
    """``GDU.forward`` as one tape op per gate, candidate and mixture term."""
    xzt = concatenate([x, z, t], axis=1)

    z_tilde = (xzt @ gdu.w_f + gdu.b_f).sigmoid() * z if gdu.use_forget_gate else z
    t_tilde = (xzt @ gdu.w_e + gdu.b_e).sigmoid() * t if gdu.use_adjust_gate else t

    def candidate(z_in: Tensor, t_in: Tensor) -> Tensor:
        return (concatenate([x, z_in, t_in], axis=1) @ gdu.w_u + gdu.b_u).tanh()

    if not gdu.use_selection_gates:
        return candidate(z_tilde, t_tilde)

    g = (xzt @ gdu.w_g + gdu.b_g).sigmoid()
    r = (xzt @ gdu.w_r + gdu.b_r).sigmoid()
    one_m_g = 1 - g
    one_m_r = 1 - r
    return (
        g * r * candidate(z_tilde, t_tilde)
        + one_m_g * r * candidate(z, t_tilde)
        + g * one_m_r * candidate(z_tilde, t)
        + one_m_g * one_m_r * candidate(z, t)
    )


def patch_unrolled(monkeypatch) -> None:
    """Swap the unrolled forwards in for the fused encoder and GDU."""
    from repro.autograd import GRUEncoder
    from repro.core.gdu import GDU

    monkeypatch.setattr(GRUEncoder, "forward", unrolled_encoder_forward)
    monkeypatch.setattr(GDU, "forward", unrolled_gdu_forward)
