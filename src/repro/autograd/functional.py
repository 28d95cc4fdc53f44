"""Differentiable functional ops built on :class:`repro.autograd.Tensor`.

These are the loss/activation compositions the FakeDetector equations use:
softmax heads, cross-entropy with the paper's joint objective, and the gate
nonlinearities. All functions accept and return :class:`Tensor`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .tensor import Tensor, ensure_tensor, instrument_op


__all__ = [
    "sigmoid",
    "tanh",
    "relu",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "inverse_frequency_weights",
    "nll_loss",
    "mse_loss",
    "hinge_loss",
    "l2_regularization",
    "dropout_mask",
]


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function σ(x)."""
    return ensure_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    return ensure_tensor(x).tanh()


def relu(x: Tensor) -> Tensor:
    """Elementwise rectifier max(0, x)."""
    return ensure_tensor(x).relu()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    Implemented with differentiable primitives (max-shift, exp, sum) so a
    single backward pass covers it without a bespoke gradient.
    """
    x = ensure_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(x)) computed stably via the log-sum-exp trick."""
    x = ensure_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    reduction: str = "mean",
    class_weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Cross-entropy between ``logits`` (N, C) and integer ``targets`` (N,).

    This is the per-node-type loss term of the paper's objective,
    ``L(T) = -Σ_i Σ_k ŷ_i[k] log y_i[k]`` with one-hot ground truth.

    Parameters
    ----------
    logits:
        Unnormalized class scores, shape ``(N, C)``.
    targets:
        Integer class indices, shape ``(N,)``.
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``. The mean is weight-normalized
        (sum of weighted losses / sum of weights) when ``class_weights`` is
        given, matching the standard convention.
    class_weights:
        Optional per-class loss weights of shape ``(C,)``, e.g. inverse
        class frequencies to counter the Truth-O-Meter imbalance.
    """
    logits = ensure_tensor(logits)
    targets = np.asarray(targets, dtype=np.intp)
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy expects 2-D logits, got shape {logits.shape}")
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ValueError(
            f"targets shape {targets.shape} incompatible with logits {logits.shape}"
        )
    n = logits.shape[0]
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(n), targets]
    losses = -picked
    if class_weights is not None:
        class_weights = np.asarray(class_weights, dtype=np.float64)
        if class_weights.shape != (logits.shape[1],):
            raise ValueError(
                f"class_weights shape {class_weights.shape} != ({logits.shape[1]},)"
            )
        if (class_weights < 0).any():
            raise ValueError("class_weights must be non-negative")
        sample_weights = class_weights[targets]
        losses = losses * Tensor(sample_weights.astype(logits.dtype, copy=False))
        if reduction == "mean":
            total = sample_weights.sum()
            if total == 0:
                raise ValueError("all sample weights are zero")
            return losses.sum() / total
    if reduction == "mean":
        return losses.mean()
    if reduction == "sum":
        return losses.sum()
    if reduction == "none":
        return losses
    raise ValueError(f"unknown reduction {reduction!r}")


def inverse_frequency_weights(targets: np.ndarray, num_classes: int) -> np.ndarray:
    """Class weights ∝ 1/frequency, normalized to mean 1 over present classes.

    Absent classes get weight 0 (they can contribute no loss anyway).
    """
    targets = np.asarray(targets, dtype=np.intp)
    counts = np.bincount(targets, minlength=num_classes).astype(np.float64)
    weights = np.zeros(num_classes)
    present = counts > 0
    if not present.any():
        raise ValueError("targets are empty")
    weights[present] = 1.0 / counts[present]
    weights[present] /= weights[present].mean()  # mean 1 over present classes
    return weights


def nll_loss(log_probs: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood given precomputed log-probabilities."""
    log_probs = ensure_tensor(log_probs)
    targets = np.asarray(targets, dtype=np.intp)
    n = log_probs.shape[0]
    losses = -log_probs[np.arange(n), targets]
    if reduction == "mean":
        return losses.mean()
    if reduction == "sum":
        return losses.sum()
    if reduction == "none":
        return losses
    raise ValueError(f"unknown reduction {reduction!r}")


def mse_loss(pred: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Mean squared error between ``pred`` and ``target``."""
    pred, target = ensure_tensor(pred), ensure_tensor(target)
    diff = pred - target
    sq = diff * diff
    if reduction == "mean":
        return sq.mean()
    if reduction == "sum":
        return sq.sum()
    if reduction == "none":
        return sq
    raise ValueError(f"unknown reduction {reduction!r}")


def hinge_loss(scores: Tensor, targets: np.ndarray, margin: float = 1.0) -> Tensor:
    """Multiclass one-vs-rest hinge loss used by the SVM baseline.

    ``targets`` are ±1 per (sample, class); ``scores`` are raw margins.
    """
    scores = ensure_tensor(scores)
    y = Tensor(np.asarray(targets, dtype=scores.dtype))
    raw = (margin - scores * y).relu()
    return raw.mean()


def l2_regularization(params, weight: float) -> Tensor:
    """``weight * Σ ||W||²`` over an iterable of parameter tensors.

    Matches the paper's ``α · L_reg(W)`` term, recorded as one tape node
    (``l2_regularization``) instead of a ``mul``/``sum``/``add`` chain per
    parameter. It computes exactly what that chain did, in the same order:
    the forward sums ``(p * p).sum()`` left to right and then scales by
    ``weight``. Each parameter is a parent twice, once per operand of
    ``p * p``, and the backward returns ``(g·weight)·p`` for each. The engine
    therefore adds the two product-rule terms one after the other, as it did
    for the ``mul`` node. Scaling by ``2·weight`` once would round
    differently.
    """
    params = list(params)
    if not params:
        return Tensor(0.0)
    weight = float(weight)
    total = (params[0].data * params[0].data).sum()
    for p in params[1:]:
        total = total + (p.data * p.data).sum()

    def backward(grad):
        scale = grad * weight
        out = []
        for p in params:
            term = scale * p.data if p.requires_grad else None
            out += (term, term)
        return tuple(out)

    parents = tuple(q for p in params for q in (p, p))
    return Tensor._make(total * weight, parents, backward)


def dropout_mask(shape: tuple, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: zeros with prob ``rate``, survivors scaled."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return np.ones(shape)
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


l2_regularization = instrument_op("l2_regularization", l2_regularization)
