"""Explicit feature extraction: discriminative word sets and bag-of-words.

Implements §4.1.1 of the paper. From the full vocabulary ``W``, per-entity
word sets ``W_n ⊂ W`` (articles), ``W_u`` (creator profiles) and ``W_s``
(subject descriptions) of size ``d`` are pre-extracted; the explicit feature
of an entity is the count vector of those words in its text.

The paper says the sets contain words that "have shown their stronger
correlations with their fake/true labels"; we implement two standard
selection criteria — chi-squared association and log frequency-ratio —
selectable via ``method``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from .sparse import CsrMatrix, csr_from_token_docs
from .tokenizer import STOP_WORDS


def chi_squared_scores(
    documents: Sequence[Sequence[str]],
    labels: Sequence[int],
    min_count: int = 2,
) -> Dict[str, float]:
    """Per-word chi-squared association with binary document labels.

    Parameters
    ----------
    documents:
        Token lists, one per document.
    labels:
        Binary labels (0/1) aligned with ``documents``.
    min_count:
        Words with fewer document occurrences are skipped.

    Returns a ``{word: chi2}`` dict; higher means more label-discriminative.
    """
    labels = np.asarray(labels)
    if len(documents) != len(labels):
        raise ValueError("documents and labels must have equal length")
    if len(documents) == 0:
        return {}
    unique = set(labels.tolist())
    if not unique <= {0, 1}:
        raise ValueError(f"chi_squared_scores expects binary labels, got {sorted(unique)}")

    n_docs = len(documents)
    n_pos = int(labels.sum())
    n_neg = n_docs - n_pos
    doc_freq: Counter = Counter()
    pos_freq: Counter = Counter()
    for doc, label in zip(documents, labels):
        seen = set(doc) - STOP_WORDS
        doc_freq.update(seen)
        if label == 1:
            pos_freq.update(seen)

    scores: Dict[str, float] = {}
    for word, df in doc_freq.items():
        if df < min_count:
            continue
        # 2x2 contingency: word-present x label.
        a = pos_freq.get(word, 0)          # present, positive
        b = df - a                          # present, negative
        c = n_pos - a                       # absent, positive
        d = n_neg - b                       # absent, negative
        numer = n_docs * (a * d - b * c) ** 2
        denom = (a + b) * (c + d) * (a + c) * (b + d)
        scores[word] = numer / denom if denom > 0 else 0.0
    return scores


def frequency_ratio_scores(
    documents: Sequence[Sequence[str]],
    labels: Sequence[int],
    min_count: int = 2,
    smoothing: float = 1.0,
) -> Dict[str, float]:
    """Absolute log-odds of word occurrence between the two classes."""
    labels = np.asarray(labels)
    if len(documents) != len(labels):
        raise ValueError("documents and labels must have equal length")
    pos_freq: Counter = Counter()
    neg_freq: Counter = Counter()
    for doc, label in zip(documents, labels):
        seen = set(doc) - STOP_WORDS
        (pos_freq if label == 1 else neg_freq).update(seen)
    n_pos = max(1, int(labels.sum()))
    n_neg = max(1, len(labels) - n_pos)
    scores: Dict[str, float] = {}
    for word in set(pos_freq) | set(neg_freq):
        total = pos_freq.get(word, 0) + neg_freq.get(word, 0)
        if total < min_count:
            continue
        p_pos = (pos_freq.get(word, 0) + smoothing) / (n_pos + 2 * smoothing)
        p_neg = (neg_freq.get(word, 0) + smoothing) / (n_neg + 2 * smoothing)
        scores[word] = abs(float(np.log(p_pos / p_neg)))
    return scores


def select_discriminative_words(
    documents: Sequence[Sequence[str]],
    labels: Sequence[int],
    size: int,
    method: str = "chi2",
    min_count: int = 2,
) -> List[str]:
    """Pick the ``size`` most label-discriminative words (the W_n/W_u/W_s sets).

    ``labels`` may be multi-level credibility indices; they are binarized at
    the midpoint (paper's bi-class grouping) before scoring.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    labels = np.asarray(labels)
    if labels.size and set(np.unique(labels).tolist()) - {0, 1}:
        # Binarize multi-level labels around the midpoint.
        midpoint = (labels.max() + labels.min()) / 2.0
        labels = (labels > midpoint).astype(int)
    if method == "chi2":
        scores = chi_squared_scores(documents, labels, min_count=min_count)
    elif method == "freq_ratio":
        scores = frequency_ratio_scores(documents, labels, min_count=min_count)
    else:
        raise ValueError(f"unknown selection method {method!r}")
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return [word for word, _ in ranked[:size]]


class BagOfWordsExtractor:
    """Count-vector featurizer over a fixed word set (the explicit features).

    Given pre-extracted word set ``words`` (e.g. W_n), entity text maps to
    ``x^e ∈ R^d`` where ``x^e[k]`` is the appearance count of ``words[k]``,
    optionally reweighted by inverse document frequency (``weighting="tfidf"``
    after calling :meth:`fit_idf`).
    """

    def __init__(
        self,
        words: Sequence[str],
        normalize: bool = False,
        weighting: str = "count",
    ):
        if not words:
            raise ValueError("word set must be non-empty")
        if len(set(words)) != len(words):
            raise ValueError("word set contains duplicates")
        if weighting not in ("count", "tfidf"):
            raise ValueError(f"weighting must be 'count' or 'tfidf', got {weighting!r}")
        self.words = list(words)
        self.normalize = normalize
        self.weighting = weighting
        self.idf: Optional[np.ndarray] = None
        self._word_to_index = {w: i for i, w in enumerate(self.words)}

    @property
    def dim(self) -> int:
        return len(self.words)

    def fit_idf(self, documents: Sequence[Sequence[str]]) -> "BagOfWordsExtractor":
        """Compute smoothed inverse document frequencies from a corpus.

        ``idf[k] = ln((1 + N) / (1 + df_k)) + 1`` — the conventional smooth
        variant that never zeroes a word out entirely.
        """
        n_docs = len(documents)
        df = np.zeros(self.dim, dtype=np.float64)
        for doc in documents:
            seen = set(doc) & self._word_to_index.keys()
            for word in seen:
                df[self._word_to_index[word]] += 1.0
        self.idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
        return self

    def transform_one(self, tokens: Sequence[str]) -> np.ndarray:
        """Featurize one token list into a (weighted) count vector (d,).

        The :meth:`transform` row of ``[tokens]``.
        """
        return self.transform_csr([tokens]).to_dense()[0]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable representation (inverse of :meth:`from_dict`).

        Floats survive a JSON round trip exactly in Python, so a restored
        extractor produces bit-identical feature vectors.
        """
        return {
            "words": list(self.words),
            "normalize": self.normalize,
            "weighting": self.weighting,
            "idf": self.idf.tolist() if self.idf is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "BagOfWordsExtractor":
        """Rebuild an extractor from :meth:`to_dict` output."""
        extractor = cls(
            payload["words"],
            normalize=payload["normalize"],
            weighting=payload["weighting"],
        )
        if payload.get("idf") is not None:
            extractor.idf = np.asarray(payload["idf"], dtype=np.float64)
        return extractor

    def transform_csr(self, documents: Sequence[Sequence[str]]) -> "CsrMatrix":
        """Featurize many documents into a :class:`CsrMatrix` batch.

        The sparse path the pipeline and the serving session use: one CSR
        construction pass, then tf-idf scaling and L2 normalization as
        vectorized operations over the non-zeros only.
        """
        csr = csr_from_token_docs(documents, self._word_to_index, self.dim)
        if self.weighting == "tfidf":
            if self.idf is None:
                raise RuntimeError("call fit_idf() before tfidf transforms")
            csr.scale_columns(self.idf)
        if self.normalize:
            csr.normalize_rows()
        return csr

    def transform(self, documents: Sequence[Sequence[str]]) -> np.ndarray:
        """Featurize many documents into an (n, d) matrix (CSR-backed)."""
        return self.transform_csr(documents).to_dense()

    @classmethod
    def fit(
        cls,
        documents: Sequence[Sequence[str]],
        labels: Sequence[int],
        size: int,
        method: str = "chi2",
        normalize: bool = False,
        min_count: int = 2,
        weighting: str = "count",
    ) -> "BagOfWordsExtractor":
        """Select a discriminative word set from labeled docs and build an extractor.

        Falls back to the most frequent non-stop words when the labeled
        corpus is too small to fill ``size`` discriminative slots, so the
        explicit feature dimension is stable across folds.
        """
        words = select_discriminative_words(
            documents, labels, size=size, method=method, min_count=min_count
        )
        if len(words) < size:
            fill = Counter()
            for doc in documents:
                fill.update(t for t in doc if t not in STOP_WORDS)
            for word, _ in fill.most_common():
                if word not in words:
                    words.append(word)
                if len(words) == size:
                    break
        if not words:
            raise ValueError("could not extract any words from the corpus")
        extractor = cls(words[:size], normalize=normalize, weighting=weighting)
        if weighting == "tfidf":
            extractor.fit_idf(documents)
        return extractor
