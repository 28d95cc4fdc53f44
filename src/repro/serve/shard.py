"""Request routing for the multi-process service.

A :class:`ShardPlan` only routes: it spreads a request's articles over
``num_shards`` worker groups. Every worker holds the whole trained
News-HSN context, so the shard an article lands on never decides which
neighbour states it sees; they fall back to the zero state (§4.2's
unused-port convention) only when they are absent from the graph.

The route is a stable SHA-1 hash of ``article_id`` modulo ``num_shards``:
deterministic across processes and restarts, and blind to the article's
creator and subjects.
"""

from __future__ import annotations

import dataclasses
import hashlib


def _stable_hash(value: str) -> int:
    return int.from_bytes(hashlib.sha1(value.encode("utf-8")).digest()[:8], "big")


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """The article → shard router of a ``num_shards``-group pool."""

    num_shards: int

    def __post_init__(self):
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")

    def route(self, article) -> int:
        """The shard of anything with an ``article_id`` attribute."""
        if self.num_shards == 1:
            return 0
        return _stable_hash(article.article_id) % self.num_shards
