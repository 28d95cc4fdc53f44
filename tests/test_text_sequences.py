"""Tests for padded index-sequence encoding."""

import numpy as np
import pytest

from repro.text import (
    PAD_INDEX,
    UNK_INDEX,
    Vocabulary,
    encode_batch,
    encode_sequence,
    infer_max_length,
    sequence_lengths,
)


@pytest.fixture()
def vocab():
    return Vocabulary.build([["alpha", "beta", "gamma", "delta"]])


class TestEncodeSequence:
    def test_padding(self, vocab):
        out = encode_sequence(["alpha", "beta"], vocab, max_length=5)
        assert out.shape == (5,)
        assert list(out[2:]) == [PAD_INDEX] * 3
        assert out[0] == vocab.index("alpha")

    def test_truncate_tail(self, vocab):
        tokens = ["alpha", "beta", "gamma", "delta"]
        out = encode_sequence(tokens, vocab, max_length=2, truncate="tail")
        assert list(out) == [vocab.index("alpha"), vocab.index("beta")]

    def test_truncate_head(self, vocab):
        tokens = ["alpha", "beta", "gamma", "delta"]
        out = encode_sequence(tokens, vocab, max_length=2, truncate="head")
        assert list(out) == [vocab.index("gamma"), vocab.index("delta")]

    def test_unknown_token(self, vocab):
        out = encode_sequence(["mystery"], vocab, max_length=2)
        assert out[0] == UNK_INDEX

    def test_validation(self, vocab):
        with pytest.raises(ValueError):
            encode_sequence(["alpha"], vocab, max_length=0)
        with pytest.raises(ValueError):
            encode_sequence(["alpha", "beta"], vocab, max_length=1, truncate="middle")

    def test_empty_tokens_all_pad(self, vocab):
        out = encode_sequence([], vocab, max_length=3)
        assert list(out) == [PAD_INDEX] * 3


class TestEncodeBatch:
    def test_shape_and_dtype(self, vocab):
        out = encode_batch([["alpha"], ["beta", "gamma"]], vocab, max_length=4)
        assert out.shape == (2, 4)
        assert out.dtype == np.int64

    def test_rows_match_single_encoding(self, vocab):
        docs = [["alpha", "beta"], ["gamma"]]
        batch = encode_batch(docs, vocab, max_length=3)
        for row, doc in zip(batch, docs):
            np.testing.assert_array_equal(row, encode_sequence(doc, vocab, 3))

    def test_empty_batch(self, vocab):
        assert encode_batch([], vocab, max_length=3).shape == (0, 3)


class TestArgumentValidation:
    """Bad arguments raise before any row is encoded, whatever the rows."""

    @pytest.mark.parametrize("max_length", [0, -1])
    def test_non_positive_max_length(self, vocab, max_length):
        with pytest.raises(ValueError, match="max_length"):
            encode_sequence(["alpha"], vocab, max_length=max_length)
        with pytest.raises(ValueError, match="max_length"):
            encode_batch([["alpha"]], vocab, max_length=max_length)
        with pytest.raises(ValueError, match="max_length"):
            encode_batch([], vocab, max_length=max_length)

    @pytest.mark.parametrize("tokens", [[], ["alpha"], ["alpha", "beta"]])
    def test_unknown_truncate_mode_on_short_rows(self, vocab, tokens):
        # No row is longer than max_length, so nothing would be truncated.
        with pytest.raises(ValueError, match="truncate"):
            encode_sequence(tokens, vocab, max_length=5, truncate="middle")
        with pytest.raises(ValueError, match="truncate"):
            encode_batch([tokens], vocab, max_length=5, truncate="bogus")

    def test_unknown_truncate_mode_on_empty_batch(self, vocab):
        with pytest.raises(ValueError, match="truncate"):
            encode_batch([], vocab, max_length=3, truncate="bogus")


class TestSequenceLengths:
    def test_lengths(self, vocab):
        batch = encode_batch([["alpha"], ["beta", "gamma"], []], vocab, max_length=4)
        np.testing.assert_array_equal(sequence_lengths(batch), [1, 2, 0])


class TestInferMaxLength:
    def test_covers_percentile(self):
        docs = [["w"] * n for n in range(1, 101)]
        q = infer_max_length(docs, percentile=95.0, cap=1000)
        assert 94 <= q <= 96

    def test_cap_applies(self):
        docs = [["w"] * 500]
        assert infer_max_length(docs, cap=64) == 64

    def test_empty_corpus(self):
        assert infer_max_length([]) == 1

    def test_minimum_one(self):
        assert infer_max_length([[]]) == 1
