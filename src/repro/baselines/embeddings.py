"""Skip-gram with negative sampling (SGNS), shared by DeepWalk and LINE.

Vectorized numpy implementation: minibatches of (center, context) pairs plus
``k`` negatives drawn from the unigram^0.75 table, trained by stochastic
gradient descent on the standard SGNS objective  log σ(u·v) + Σ log σ(−u·v⁻).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30, 30)))


class NegativeSampler:
    """Draws negatives from the unigram^0.75 distribution."""

    def __init__(self, frequencies: np.ndarray, power: float = 0.75):
        freqs = np.asarray(frequencies, dtype=np.float64)
        if freqs.ndim != 1 or freqs.size == 0:
            raise ValueError("frequencies must be a non-empty 1-D array")
        if (freqs < 0).any():
            raise ValueError("frequencies must be non-negative")
        weights = np.power(np.maximum(freqs, 1e-12), power)
        self.probs = weights / weights.sum()
        self.num_items = freqs.size

    def sample(self, shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self.num_items, size=shape, p=self.probs)


class SkipGramModel:
    """Two-matrix SGNS embedding trainer.

    ``W_in`` holds the node embeddings returned to callers; ``W_out`` the
    context vectors.
    """

    def __init__(
        self,
        num_nodes: int,
        dim: int = 32,
        negatives: int = 5,
        lr: float = 0.05,
        seed: int = 0,
        rng: Optional[np.random.Generator] = None,
    ):
        if num_nodes <= 0 or dim <= 0:
            raise ValueError("num_nodes and dim must be positive")
        self.num_nodes = num_nodes
        self.dim = dim
        self.negatives = negatives
        self.lr = lr
        rng = rng if rng is not None else np.random.default_rng(seed)
        self.w_in = rng.uniform(-0.5 / dim, 0.5 / dim, size=(num_nodes, dim))
        self.w_out = np.zeros((num_nodes, dim))
        self._rng = rng

    def train_pairs(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        sampler: NegativeSampler,
        epochs: int = 1,
        batch_size: int = 128,
    ) -> float:
        """Gradient steps over (center, context) pairs; returns the mean
        final-epoch loss."""
        centers = np.asarray(centers, dtype=np.intp)
        contexts = np.asarray(contexts, dtype=np.intp)
        if centers.shape != contexts.shape or centers.ndim != 1:
            raise ValueError("centers and contexts must be equal-length 1-D arrays")
        if centers.size == 0:
            return 0.0
        last_loss = 0.0
        for epoch in range(epochs):
            order = self._rng.permutation(centers.size)
            lr = self.lr * (1.0 - epoch / max(1, epochs)) + 1e-4
            total, batches = 0.0, 0
            for start in range(0, order.size, batch_size):
                idx = order[start : start + batch_size]
                total += self._step(centers[idx], contexts[idx], sampler, lr)
                batches += 1
            last_loss = total / max(1, batches)
        return last_loss

    def _step(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        sampler: NegativeSampler,
        lr: float,
    ) -> float:
        b = centers.size
        neg = sampler.sample((b, self.negatives), self._rng)
        v = self.w_in[centers]                      # (b, d)
        u_pos = self.w_out[contexts]                # (b, d)
        u_neg = self.w_out[neg]                     # (b, k, d)

        pos_score = _sigmoid((v * u_pos).sum(axis=1))           # (b,)
        neg_score = _sigmoid((u_neg @ v[:, :, None]).squeeze(-1))  # (b, k)

        # Gradients of -log σ(x) terms.
        g_pos = pos_score - 1.0                                  # (b,)
        g_neg = neg_score                                        # (b, k)

        grad_v = g_pos[:, None] * u_pos + (g_neg[:, :, None] * u_neg).sum(axis=1)
        grad_u_pos = g_pos[:, None] * v
        grad_u_neg = g_neg[:, :, None] * v[:, None, :]

        np.add.at(self.w_in, centers, -lr * grad_v)
        np.add.at(self.w_out, contexts, -lr * grad_u_pos)
        np.add.at(self.w_out, neg.ravel(), -lr * grad_u_neg.reshape(-1, self.dim))

        loss = -np.log(np.maximum(pos_score, 1e-10)).mean()
        loss += -np.log(np.maximum(1.0 - neg_score, 1e-10)).sum(axis=1).mean()
        return float(loss)

    @property
    def embeddings(self) -> np.ndarray:
        return self.w_in


def walks_to_pairs(
    walks: Sequence[Sequence[int]], window: int = 5
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand walks into (center, context) skip-gram pairs within ``window``."""
    centers, contexts = [], []
    for walk in walks:
        n = len(walk)
        for i, center in enumerate(walk):
            lo = max(0, i - window)
            hi = min(n, i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    centers.append(center)
                    contexts.append(walk[j])
    return np.asarray(centers, dtype=np.intp), np.asarray(contexts, dtype=np.intp)
