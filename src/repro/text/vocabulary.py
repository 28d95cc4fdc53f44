"""Vocabulary: bidirectional token <-> index mapping with frequency stats.

Index 0 is reserved for padding and index 1 for unknown tokens, matching the
zero-padding treatment of the paper's latent feature RNN (§4.1.2).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_INDEX = 0
UNK_INDEX = 1


class Vocabulary:
    """Token dictionary built from a corpus of token lists.

    Parameters
    ----------
    max_size:
        Keep at most this many non-special tokens (most frequent first).
    min_count:
        Drop tokens seen fewer than this many times.
    """

    def __init__(self, max_size: Optional[int] = None, min_count: int = 1):
        if max_size is not None and max_size <= 0:
            raise ValueError("max_size must be positive")
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        self.max_size = max_size
        self.min_count = min_count
        self._token_to_index: Dict[str, int] = {PAD_TOKEN: PAD_INDEX, UNK_TOKEN: UNK_INDEX}
        self._index_to_token: List[str] = [PAD_TOKEN, UNK_TOKEN]
        self.counts: Counter = Counter()

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        documents: Iterable[Sequence[str]],
        max_size: Optional[int] = None,
        min_count: int = 1,
    ) -> "Vocabulary":
        """Construct a vocabulary from an iterable of token sequences."""
        vocab = cls(max_size=max_size, min_count=min_count)
        for doc in documents:
            vocab.counts.update(doc)
        eligible = [
            (tok, cnt) for tok, cnt in vocab.counts.items() if cnt >= min_count
        ]
        # Sort by (-count, token) for a deterministic ordering.
        eligible.sort(key=lambda item: (-item[1], item[0]))
        if max_size is not None:
            eligible = eligible[:max_size]
        for tok, _ in eligible:
            vocab._add(tok)
        return vocab

    def _add(self, token: str) -> int:
        if token in self._token_to_index:
            return self._token_to_index[token]
        index = len(self._index_to_token)
        self._token_to_index[token] = index
        self._index_to_token.append(token)
        return index

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_index

    def index(self, token: str) -> int:
        """Return the index of ``token`` (UNK index if absent)."""
        return self._token_to_index.get(token, UNK_INDEX)

    def token(self, index: int) -> str:
        """Return the token at ``index``."""
        return self._index_to_token[index]

    def encode(self, tokens: Sequence[str]) -> List[int]:
        """Map a token sequence to indices (one bound lookup for the batch)."""
        lookup = self._token_to_index.get
        return [lookup(t, UNK_INDEX) for t in tokens]

    def decode(self, indices: Sequence[int]) -> List[str]:
        """Map indices back to tokens (pads are dropped)."""
        return [self._index_to_token[i] for i in indices if i != PAD_INDEX]

    @property
    def tokens(self) -> List[str]:
        """All tokens including the two specials, in index order."""
        return list(self._index_to_token)

    def most_common(self, k: int) -> List[tuple[str, int]]:
        """Top-k (token, count) pairs from the building corpus."""
        return self.counts.most_common(k)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable representation (inverse of :meth:`from_dict`)."""
        return {
            "max_size": self.max_size,
            "min_count": self.min_count,
            "tokens": self._index_to_token[2:],  # specials are implicit
            "counts": dict(self.counts),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "Vocabulary":
        """Rebuild a vocabulary from :meth:`to_dict` output."""
        vocab = cls(max_size=payload["max_size"], min_count=payload["min_count"])
        for tok in payload["tokens"]:
            vocab._add(tok)
        vocab.counts = Counter(payload["counts"])
        return vocab

    def save(self, path: Union[str, Path]) -> None:
        """Persist the vocabulary as JSON."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Vocabulary":
        """Load a vocabulary saved by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))
