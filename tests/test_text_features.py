"""Tests for discriminative word selection and bag-of-words features."""

import numpy as np
import pytest

from repro.text import (
    BagOfWordsExtractor,
    chi_squared_scores,
    frequency_ratio_scores,
    select_discriminative_words,
)


@pytest.fixture()
def labeled_docs():
    """'signal' appears only in positives, 'noise' only in negatives,
    'shared' in both."""
    docs, labels = [], []
    for _ in range(10):
        docs.append(["signal", "shared", "filler"])
        labels.append(1)
        docs.append(["noise", "shared", "filler"])
        labels.append(0)
    return docs, labels


class TestChiSquared:
    def test_discriminative_words_score_high(self, labeled_docs):
        docs, labels = labeled_docs
        scores = chi_squared_scores(docs, labels)
        assert scores["signal"] > scores["shared"]
        assert scores["noise"] > scores["shared"]

    def test_perfectly_shared_word_scores_zero(self, labeled_docs):
        docs, labels = labeled_docs
        scores = chi_squared_scores(docs, labels)
        assert scores["shared"] == pytest.approx(0.0)

    def test_min_count_filters(self, labeled_docs):
        docs, labels = labeled_docs
        docs = docs + [["hapax"]]
        labels = labels + [1]
        scores = chi_squared_scores(docs, labels, min_count=2)
        assert "hapax" not in scores

    def test_stop_words_excluded(self):
        docs = [["the", "signal"], ["the", "noise"]]
        scores = chi_squared_scores(docs, [1, 0], min_count=1)
        assert "the" not in scores

    def test_requires_binary_labels(self, labeled_docs):
        docs, _ = labeled_docs
        with pytest.raises(ValueError):
            chi_squared_scores(docs, [5] * len(docs))

    def test_empty_corpus(self):
        assert chi_squared_scores([], []) == {}

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            chi_squared_scores([["a"]], [1, 0])


class TestFrequencyRatio:
    def test_one_sided_words_score_high(self, labeled_docs):
        docs, labels = labeled_docs
        scores = frequency_ratio_scores(docs, labels)
        assert scores["signal"] > scores["shared"]

    def test_symmetric(self, labeled_docs):
        docs, labels = labeled_docs
        scores = frequency_ratio_scores(docs, labels)
        assert scores["signal"] == pytest.approx(scores["noise"])

    def test_scores_nonnegative(self, labeled_docs):
        docs, labels = labeled_docs
        assert all(v >= 0 for v in frequency_ratio_scores(docs, labels).values())


class TestSelectDiscriminativeWords:
    def test_picks_signal_words_first(self, labeled_docs):
        docs, labels = labeled_docs
        words = select_discriminative_words(docs, labels, size=2)
        assert set(words) == {"signal", "noise"}

    def test_multilevel_labels_binarized(self, labeled_docs):
        docs, _ = labeled_docs
        # Scores 5 (true-ish) and 1 (false-ish) instead of 1/0.
        labels = [5, 1] * 10
        words = select_discriminative_words(docs, labels, size=2)
        assert set(words) == {"signal", "noise"}

    def test_method_dispatch(self, labeled_docs):
        docs, labels = labeled_docs
        for method in ("chi2", "freq_ratio"):
            assert select_discriminative_words(docs, labels, 2, method=method)
        with pytest.raises(ValueError):
            select_discriminative_words(docs, labels, 2, method="mutual_info")

    def test_size_validation(self, labeled_docs):
        docs, labels = labeled_docs
        with pytest.raises(ValueError):
            select_discriminative_words(docs, labels, size=0)


class TestBagOfWordsExtractor:
    def test_counts(self):
        ext = BagOfWordsExtractor(["tax", "gun"])
        vec = ext.transform_one(["tax", "tax", "gun", "other"])
        np.testing.assert_allclose(vec, [2.0, 1.0])

    def test_unknown_words_ignored(self):
        ext = BagOfWordsExtractor(["tax"])
        np.testing.assert_allclose(ext.transform_one(["unrelated"]), [0.0])

    def test_batch_shape(self):
        ext = BagOfWordsExtractor(["a", "b", "c"])
        out = ext.transform([["a"], ["b", "c"], []])
        assert out.shape == (3, 3)

    def test_normalization(self):
        ext = BagOfWordsExtractor(["a", "b"], normalize=True)
        vec = ext.transform_one(["a", "a", "b", "b"])
        np.testing.assert_allclose(np.linalg.norm(vec), 1.0)

    def test_normalize_empty_doc_is_zero(self):
        ext = BagOfWordsExtractor(["a"], normalize=True)
        np.testing.assert_allclose(ext.transform_one([]), [0.0])

    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError):
            BagOfWordsExtractor(["a", "a"])

    def test_empty_word_set_rejected(self):
        with pytest.raises(ValueError):
            BagOfWordsExtractor([])

    def test_fit_selects_then_fills(self, labeled_docs):
        docs, labels = labeled_docs
        # Only 3 distinct non-stop words exist; request 3 so selection (2
        # discriminative) + frequency fill (1 shared) covers it.
        ext = BagOfWordsExtractor.fit(docs, labels, size=3, min_count=1)
        assert ext.dim == 3
        assert {"signal", "noise"} <= set(ext.words)

    def test_fit_dim_capped_when_corpus_small(self, labeled_docs):
        docs, labels = labeled_docs
        ext = BagOfWordsExtractor.fit(docs, labels, size=100, min_count=1)
        assert ext.dim <= 100
        assert ext.dim >= 3


class TestCsrTransform:
    """The sparse batch path (transform_csr) agrees with transform_one."""

    DOCS = [["a", "a", "b", "zz"], [], ["c"], ["b", "c", "b", "a"]]

    def test_counts_match_transform_one_exactly(self):
        ext = BagOfWordsExtractor(["a", "b", "c"])
        batch = ext.transform(self.DOCS)
        rows = np.stack([ext.transform_one(d) for d in self.DOCS])
        np.testing.assert_array_equal(batch, rows)

    def test_tfidf_and_normalize_match_transform_one(self):
        ext = BagOfWordsExtractor(
            ["a", "b", "c"], normalize=True, weighting="tfidf"
        ).fit_idf(self.DOCS)
        batch = ext.transform(self.DOCS)
        rows = np.stack([ext.transform_one(d) for d in self.DOCS])
        assert batch.tobytes() == rows.tobytes()
        norms = np.linalg.norm(batch, axis=1)
        np.testing.assert_allclose(norms[[0, 2, 3]], 1.0)
        assert norms[1] == 0.0  # empty doc stays all-zero

    def test_csr_structure(self):
        ext = BagOfWordsExtractor(["a", "b", "c"])
        csr = ext.transform_csr(self.DOCS)
        assert csr.shape == (4, 3)
        assert csr.nnz == 6  # duplicates aggregated, unknowns dropped
        np.testing.assert_array_equal(csr.indptr, [0, 2, 2, 3, 6])
        np.testing.assert_array_equal(csr.row_ids(), [0, 0, 2, 3, 3, 3])
        np.testing.assert_array_equal(csr.to_dense(), ext.transform(self.DOCS))

    def test_csr_matmul_matches_dense(self, rng):
        ext = BagOfWordsExtractor(["a", "b", "c"], normalize=True)
        csr = ext.transform_csr(self.DOCS)
        weights = rng.standard_normal((3, 6))
        np.testing.assert_allclose(
            csr.matmul(weights), csr.to_dense() @ weights, atol=1e-12
        )
        with pytest.raises(ValueError):
            csr.matmul(rng.standard_normal((4, 6)))

    def test_tfidf_without_fit_raises_in_batch_path(self):
        ext = BagOfWordsExtractor(["a"], weighting="tfidf")
        with pytest.raises(RuntimeError):
            ext.transform([["a"]])

    def test_all_empty_batch(self):
        ext = BagOfWordsExtractor(["a", "b"], normalize=True)
        out = ext.transform([[], []])
        np.testing.assert_array_equal(out, np.zeros((2, 2)))
