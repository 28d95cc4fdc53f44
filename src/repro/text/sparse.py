"""Minimal CSR sparse matrix for bag-of-words explicit features.

A BoW explicit feature row has at most ``len(tokens)`` non-zeros out of a
``d``-wide vocabulary slice, so building the ``(n, d)`` matrix densely — one
Python loop per token per document (the old ``BagOfWordsExtractor.transform``)
— wastes both the zero writes and the per-row interpreter overhead. This
module stores the batch in compressed sparse row form (``indptr`` /
``indices`` / ``data``) built from one vocabulary lookup pass, then applies
tf-idf scaling, L2 row normalization, densification, and dense right-matmul
as vectorized numpy over the non-zeros only.

No scipy in the environment; this is the ~80-line subset the feature
pipeline needs, not a general sparse-algebra library.
"""

from __future__ import annotations

import itertools
from typing import Dict, Sequence

import numpy as np


class CsrMatrix:
    """Compressed-sparse-row float64 matrix (rows = documents).

    Invariants: ``indices[indptr[i]:indptr[i+1]]`` are the strictly
    increasing column ids of row ``i`` (duplicates pre-aggregated) and
    ``values`` holds the matching entries.
    """

    __slots__ = ("indptr", "indices", "values", "shape")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        shape: tuple,
    ):
        self.indptr = indptr
        self.indices = indices
        self.values = values
        self.shape = shape

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def row_ids(self) -> np.ndarray:
        """Expanded row id per stored non-zero (the COO row vector)."""
        n = self.shape[0]
        return np.repeat(np.arange(n, dtype=np.intp), np.diff(self.indptr))

    # ------------------------------------------------------------------
    def scale_columns(self, weights: np.ndarray) -> "CsrMatrix":
        """In-place ``M[:, j] *= weights[j]`` (tf-idf reweighting)."""
        if weights.shape != (self.shape[1],):
            raise ValueError(
                f"column weights shape {weights.shape} != ({self.shape[1]},)"
            )
        self.values *= weights[self.indices]
        return self

    def normalize_rows(self) -> "CsrMatrix":
        """In-place L2 row normalization; all-zero rows stay zero."""
        sq = np.bincount(
            self.row_ids(), weights=self.values * self.values,
            minlength=self.shape[0],
        )
        norms = np.sqrt(sq)
        scale = np.ones_like(norms)
        nonzero = norms > 0
        scale[nonzero] = 1.0 / norms[nonzero]
        self.values *= scale[self.row_ids()]
        return self

    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize the full ``(n, d)`` array with one scatter."""
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.row_ids(), self.indices] = self.values
        return out

    def matmul(self, dense: np.ndarray) -> np.ndarray:
        """``self @ dense`` over non-zeros only: ``(n, d) @ (d, k)``."""
        if dense.ndim != 2 or dense.shape[0] != self.shape[1]:
            raise ValueError(
                f"matmul shape mismatch: {self.shape} @ {dense.shape}"
            )
        out = np.zeros((self.shape[0], dense.shape[1]), dtype=np.float64)
        np.add.at(out, self.row_ids(), self.values[:, None] * dense[self.indices])
        return out


def csr_from_token_docs(
    documents: Sequence[Sequence[str]],
    word_to_index: Dict[str, int],
    dim: int,
) -> CsrMatrix:
    """Count-vector CSR batch from token lists (the BoW construction).

    One dict lookup per token over the whole batch (the unavoidable Python
    part), then a single ``np.unique`` over ``row * dim + column`` keys
    aggregates the counts: keys sort row-major, so each row's columns come
    out strictly increasing.
    """
    lookup = word_to_index.get
    hits = [[j for j in map(lookup, doc) if j is not None] for doc in documents]
    lengths = np.fromiter(map(len, hits), dtype=np.intp, count=len(hits))
    columns = np.fromiter(
        itertools.chain.from_iterable(hits), dtype=np.intp, count=lengths.sum()
    )
    rows = np.repeat(np.arange(len(hits), dtype=np.intp), lengths)
    keys, counts = np.unique(rows * dim + columns, return_counts=True)
    row_of, indices = np.divmod(keys, dim)
    indptr = np.zeros(len(hits) + 1, dtype=np.intp)
    np.cumsum(np.bincount(row_of, minlength=len(hits)), out=indptr[1:])
    return CsrMatrix(indptr, indices, counts.astype(np.float64), (len(hits), dim))
