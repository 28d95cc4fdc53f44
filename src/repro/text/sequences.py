"""Padded index-sequence encoding for the latent-feature RNN.

The paper represents an article as a word-vector sequence
``(x_1, ..., x_q)`` where ``q`` is the maximum article length and shorter
texts are zero-padded (§4.1.2). This module turns token lists into fixed
shape integer matrices feeding :class:`repro.autograd.GRUEncoder`.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence

import numpy as np

from .vocabulary import PAD_INDEX, Vocabulary


def encode_sequence(
    tokens: Sequence[str],
    vocab: Vocabulary,
    max_length: int,
    truncate: str = "tail",
) -> np.ndarray:
    """Encode one token list to a length-``max_length`` index vector.

    Parameters
    ----------
    tokens:
        The token list.
    vocab:
        Token dictionary (unknown tokens map to the UNK index).
    max_length:
        Target length ``q``; shorter sequences are right-padded with zeros.
    truncate:
        ``"tail"`` keeps the first ``max_length`` tokens; ``"head"`` keeps
        the last ones.
    """
    return encode_batch([tokens], vocab, max_length, truncate=truncate)[0]


def encode_batch(
    documents: Sequence[Sequence[str]],
    vocab: Vocabulary,
    max_length: int,
    truncate: str = "tail",
) -> np.ndarray:
    """Encode many token lists into an (n, max_length) index matrix.

    Arguments are validated before any row is encoded. Documents are
    truncated before lookup, and the kept tokens of the whole batch go
    through one :meth:`Vocabulary.encode` call.
    """
    if max_length <= 0:
        raise ValueError("max_length must be positive")
    if truncate not in ("tail", "head"):
        raise ValueError(f"unknown truncate mode {truncate!r}")
    if truncate == "tail":
        kept = [doc[:max_length] for doc in documents]
    else:
        kept = [doc[-max_length:] for doc in documents]
    lengths = np.fromiter(map(len, kept), dtype=np.intp, count=len(kept))
    out = np.full((len(kept), max_length), PAD_INDEX, dtype=np.int64)
    out[np.arange(max_length) < lengths[:, None]] = vocab.encode(
        list(itertools.chain.from_iterable(kept))
    )
    return out


def sequence_lengths(batch: np.ndarray) -> np.ndarray:
    """Number of non-pad positions per row of an encoded batch."""
    return (np.asarray(batch) != PAD_INDEX).sum(axis=-1)


def infer_max_length(documents: Sequence[Sequence[str]], percentile: float = 95.0, cap: int = 64) -> int:
    """Choose ``q`` as a percentile of observed lengths, capped for CPU cost.

    The paper sets q to "the maximum length of articles"; on a pure-numpy
    substrate that is wasteful, so the default covers the 95th percentile.
    """
    if not documents:
        return 1
    lengths: List[int] = [len(d) for d in documents]
    q = int(np.ceil(np.percentile(lengths, percentile)))
    return int(max(1, min(q, cap)))
