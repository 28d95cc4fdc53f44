"""Property-based tests (hypothesis) for batch featurization.

The batch featurizers build a whole request (or corpus) at once; each is
pinned here to the per-document construction it replaced:

- ``csr_from_token_docs`` ≡ one ``np.unique`` per document, array for array;
- ``BagOfWordsExtractor.transform`` (CSR-built) rows ≡ ``transform_one``;
- ``encode_batch`` ≡ truncating one document at a time, in both modes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import (
    PAD_INDEX,
    UNK_INDEX,
    BagOfWordsExtractor,
    Vocabulary,
    csr_from_token_docs,
    encode_batch,
    encode_sequence,
)

#: Feature words; documents also draw tokens outside it (no-hit tokens).
WORDS = ["alpha", "beta", "gamma", "delta", "eps"]
TOKENS = st.sampled_from(WORDS + ["zeta", "eta", "theta"])
DOCS = st.lists(st.lists(TOKENS, max_size=12), max_size=8)


def reference_csr(documents, word_to_index, dim):
    """Per-document CSR construction: one ``np.unique`` per row."""
    indptr = np.zeros(len(documents) + 1, dtype=np.intp)
    indices, values = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    for i, doc in enumerate(documents):
        hits = [word_to_index[t] for t in doc if t in word_to_index]
        uniq, counts = np.unique(np.asarray(hits, dtype=np.intp), return_counts=True)
        indices.append(uniq)
        values.append(counts.astype(np.float64))
        indptr[i + 1] = indptr[i] + uniq.size
    return indptr, np.concatenate(indices), np.concatenate(values)


def reference_encode(tokens, vocab, max_length, truncate):
    """One document: look every token up, then truncate and pad."""
    ids = [vocab.index(t) for t in tokens]
    ids = ids[:max_length] if truncate == "tail" else ids[-max_length:]
    return np.array(ids + [PAD_INDEX] * (max_length - len(ids)), dtype=np.int64)


def assert_csr_matches_reference(documents, words):
    word_to_index = {w: i for i, w in enumerate(words)}
    csr = csr_from_token_docs(documents, word_to_index, len(words))
    indptr, indices, values = reference_csr(documents, word_to_index, len(words))
    assert csr.shape == (len(documents), len(words))
    for got, want in ((csr.indptr, indptr), (csr.indices, indices),
                      (csr.values, values)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    for i in range(len(documents)):
        row = csr.indices[csr.indptr[i]:csr.indptr[i + 1]]
        assert np.all(np.diff(row) > 0), f"row {i} columns not strictly increasing"


class TestCsrFromTokenDocs:
    @given(DOCS)
    @settings(max_examples=200, deadline=None)
    def test_matches_per_document_reference(self, documents):
        assert_csr_matches_reference(documents, WORDS)

    @pytest.mark.parametrize("documents", [
        [],                                        # zero documents
        [[], []],                                  # only empty documents
        [["zeta", "eta"], ["theta"]],              # no vocabulary hit
        [["beta", "beta", "alpha", "beta"]],       # repeated tokens
        [["eps"], [], ["zeta"], ["alpha", "eps", "alpha"]],
    ])
    def test_edge_batches(self, documents):
        assert_csr_matches_reference(documents, WORDS)


class TestTransformRows:
    @given(DOCS, st.sampled_from(["count", "tfidf"]), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_transform_one(self, documents, weighting, normalize):
        ext = BagOfWordsExtractor(WORDS, normalize=normalize, weighting=weighting)
        if weighting == "tfidf":
            ext.fit_idf(documents)
        batch = ext.transform(documents)
        assert batch.shape == (len(documents), len(WORDS))
        rows = [ext.transform_one(doc) for doc in documents]
        for row, one in zip(batch, rows):
            if normalize:
                # The batch norm sums each row's squares in column order;
                # transform_one takes np.linalg.norm of the dense row.
                np.testing.assert_allclose(row, one, rtol=1e-12, atol=0)
            else:
                np.testing.assert_array_equal(row, one)


class TestEncodeBatch:
    VOCAB = Vocabulary.build([WORDS])

    @given(DOCS, st.integers(1, 10), st.sampled_from(["tail", "head"]))
    @settings(max_examples=200, deadline=None)
    def test_matches_row_wise_reference(self, documents, max_length, truncate):
        batch = encode_batch(documents, self.VOCAB, max_length, truncate=truncate)
        assert batch.shape == (len(documents), max_length)
        assert batch.dtype == np.int64
        for row, doc in zip(batch, documents):
            want = reference_encode(doc, self.VOCAB, max_length, truncate)
            np.testing.assert_array_equal(row, want)
            np.testing.assert_array_equal(
                row, encode_sequence(doc, self.VOCAB, max_length, truncate=truncate)
            )

    @pytest.mark.parametrize("truncate", ["tail", "head"])
    def test_long_short_unknown_and_empty_documents(self, truncate):
        documents = [
            ["alpha", "beta", "gamma", "delta", "eps"],   # longer than 3
            ["beta"],                                     # shorter
            ["zeta", "alpha", "eta"],                     # unknown tokens
            [],                                           # empty
        ]
        batch = encode_batch(documents, self.VOCAB, 3, truncate=truncate)
        for row, doc in zip(batch, documents):
            np.testing.assert_array_equal(
                row, reference_encode(doc, self.VOCAB, 3, truncate)
            )
        assert list(batch[2]) == [UNK_INDEX, self.VOCAB.index("alpha"), UNK_INDEX]
        assert list(batch[3]) == [PAD_INDEX] * 3
