"""Neighbor aggregation strategies for the diffusive layer.

The paper pools neighbor states with a plain mean ("Mean" boxes in Figure
3(b)). :class:`AttentionAggregator` is an extension: a learnable per-edge
attention score decides how much each neighbor contributes, softmax-
normalized within each target node's neighborhood (GAT-style, single head).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Module, Parameter, Tensor, init
from ..autograd.sparse import gather_segment_mean, segment_sum


class MeanAggregator(Module):
    """The paper's aggregation: unweighted mean over neighbors."""

    def __init__(self, hidden_dim: int):
        super().__init__()
        self.hidden_dim = hidden_dim

    def forward(
        self,
        source: Tensor,
        gather_index: np.ndarray,
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> Tensor:
        return gather_segment_mean(source, gather_index, segment_ids, num_segments)

    def __repr__(self):
        return f"MeanAggregator(dim={self.hidden_dim})"


class AttentionAggregator(Module):
    """Softmax-attention neighbor pooling.

    Per edge ``j`` gathering source row ``g_j`` into target segment ``s_j``:

        score_j  = a · tanh(source[g_j])
        weight_j = softmax over edges sharing s_j
        out[s]   = Σ_j weight_j · source[g_j]

    Empty segments produce zero rows, matching the mean aggregator.
    """

    def __init__(self, hidden_dim: int, rng: Optional[np.random.Generator] = None,
                 temperature: float = 1.0):
        super().__init__()
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        rng = rng or np.random.default_rng()  # repro: noqa[RA002] explicit opt-in randomness when no generator is supplied
        self.hidden_dim = hidden_dim
        self.temperature = temperature
        self.attn = Parameter(init.xavier_uniform((hidden_dim, 1), rng))

    def forward(
        self,
        source: Tensor,
        gather_index: np.ndarray,
        segment_ids: np.ndarray,
        num_segments: int,
    ) -> Tensor:
        gather_index = np.asarray(gather_index, dtype=np.intp)
        segment_ids = np.asarray(segment_ids, dtype=np.intp)
        if gather_index.size == 0:
            return Tensor(np.zeros((num_segments, source.shape[1]), source.dtype))
        gathered = source[gather_index]                     # (E, d)
        scores = (gathered.tanh() @ self.attn) * (1.0 / self.temperature)  # (E, 1)
        # Segment-stable softmax: shift by per-segment max (constant wrt grad).
        raw = scores.data[:, 0]
        seg_max = np.full(num_segments, -np.inf, raw.dtype)
        np.maximum.at(seg_max, segment_ids, raw)
        shifted = scores - Tensor(seg_max[segment_ids][:, None])
        exp = shifted.exp()                                 # (E, 1)
        denom = segment_sum(exp, segment_ids, num_segments)  # (S, 1)
        weights = exp / denom[segment_ids]                   # (E, 1)
        weighted = gathered * weights                        # (E, d)
        return segment_sum(weighted, segment_ids, num_segments)

    def __repr__(self):
        return f"AttentionAggregator(dim={self.hidden_dim}, T={self.temperature})"


def make_aggregator(
    kind: str, hidden_dim: int, rng: Optional[np.random.Generator] = None
) -> Module:
    """Factory used by the model config (``aggregation='mean'|'attention'``)."""
    if kind == "mean":
        return MeanAggregator(hidden_dim)
    if kind == "attention":
        return AttentionAggregator(hidden_dim, rng=rng)
    raise ValueError(f"unknown aggregation {kind!r} (expected 'mean' or 'attention')")
