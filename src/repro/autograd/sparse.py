"""Differentiable sparse aggregation for graph diffusion.

The GDU layer needs, for every article, the *mean of its neighbors' hidden
states* (and symmetrically for creators/subjects). Materializing dense
normalized adjacency matrices would cost O(n·m) memory; this op works off
edge lists instead, making full-corpus diffusion feasible. Both ops compute
in the dtype of ``source``.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, instrument_op


def segment_sum(source: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``source`` into ``num_segments`` buckets.

    ``out[s] = Σ_{j: segment_ids[j]==s} source[j]``. Differentiable; the
    gradient of an output row flows unchanged to each contributing row.
    Building block for attention-weighted neighbor aggregation.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.intp)
    if segment_ids.ndim != 1 or segment_ids.shape[0] != source.shape[0]:
        raise ValueError("segment_ids must be 1-D and align with source rows")
    if segment_ids.size and segment_ids.max() >= num_segments:
        raise IndexError("segment_ids out of range for num_segments")
    out_shape = (num_segments,) + source.shape[1:]
    out = np.zeros(out_shape, dtype=source.data.dtype)
    np.add.at(out, segment_ids, source.data)

    def backward(grad):
        return (grad[segment_ids],)

    return Tensor._make(out, (source,), backward)


def gather_segment_mean(
    source: Tensor,
    gather_index: np.ndarray,
    segment_ids: np.ndarray,
    num_segments: int,
) -> Tensor:
    """Mean-aggregate rows of ``source`` into ``num_segments`` output rows.

    For each edge ``j``: row ``gather_index[j]`` of ``source`` contributes to
    output row ``segment_ids[j]``; each output row is the mean of its
    contributions (zero if it received none).

    Parameters
    ----------
    source:
        (n_src, d) node states.
    gather_index:
        (n_edges,) indices into ``source`` rows.
    segment_ids:
        (n_edges,) indices into output rows, aligned with ``gather_index``.
    num_segments:
        Number of output rows.
    """
    gather_index = np.asarray(gather_index, dtype=np.intp)
    segment_ids = np.asarray(segment_ids, dtype=np.intp)
    if gather_index.shape != segment_ids.shape or gather_index.ndim != 1:
        raise ValueError("gather_index and segment_ids must be equal-length 1-D arrays")
    if gather_index.size and gather_index.max() >= source.shape[0]:
        raise IndexError("gather_index out of range for source")
    if segment_ids.size and segment_ids.max() >= num_segments:
        raise IndexError("segment_ids out of range for num_segments")

    dtype = source.data.dtype
    counts = np.bincount(segment_ids, minlength=num_segments).astype(dtype)
    safe_counts = np.maximum(counts, 1.0)

    out = np.zeros((num_segments, source.shape[1]), dtype=dtype)
    np.add.at(out, segment_ids, source.data[gather_index])
    out /= safe_counts[:, None]

    def backward(grad):
        # d out[s] / d source[g] = 1/count[s] for each (g, s) edge.
        edge_grad = grad[segment_ids] / safe_counts[segment_ids][:, None]
        src_grad = np.zeros_like(source.data)
        np.add.at(src_grad, gather_index, edge_grad)
        return (src_grad,)

    return Tensor._make(out, (source,), backward)


# The diffusion layer's hot aggregation ops show up in op profiles under
# their own names rather than dissolving into generic index/sum time.
segment_sum = instrument_op("segment_sum", segment_sum)
gather_segment_mean = instrument_op("gather_segment_mean", gather_segment_mean)
