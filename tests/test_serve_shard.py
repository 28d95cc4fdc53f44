"""Shard routing: a stable hash of ``article_id``, blind to the graph."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ArticleRequest, ShardPlan


def _sha1_route(article_id: str, num_shards: int) -> int:
    digest = hashlib.sha1(article_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


class TestRoutingDeterminism:
    def test_same_article_same_shard_across_rebuilds(self, tiny_dataset):
        for article in tiny_dataset.articles.values():
            assert ShardPlan(2).route(article) == ShardPlan(2).route(article)

    def test_route_ignores_creator_and_subjects(self, tiny_dataset):
        plan = ShardPlan(3)
        subjects = sorted(tiny_dataset.subjects)
        for creator in sorted(tiny_dataset.creators):
            bare = ArticleRequest("x", "text")
            grounded = ArticleRequest("x", "other text", creator, subjects[:2])
            assert plan.route(grounded) == plan.route(bare)

    def test_subject_order_does_not_change_route(self, tiny_dataset):
        plan = ShardPlan(2)
        subjects = sorted(tiny_dataset.subjects)[:3]
        assert plan.route(ArticleRequest("x", "", "", subjects)) \
            == plan.route(ArticleRequest("x", "", "", subjects[::-1]))

    def test_unknown_articles_hash_stably(self):
        plan = ShardPlan(2)
        routes = {plan.route(ArticleRequest(f"cold_{i}", "")) for i in range(64)}
        assert routes == {0, 1}  # the hash spreads traffic over shards
        for i in range(8):
            assert plan.route(ArticleRequest(f"cold_{i}", "")) \
                == _sha1_route(f"cold_{i}", 2)

    def test_single_shard_plan_routes_everything_to_zero(self):
        single = ShardPlan(1)
        assert single.route(ArticleRequest("anything", "", "anyone", ["any"])) == 0

    def test_invalid_num_shards_rejected(self):
        for num_shards in (0, -1):
            with pytest.raises(ValueError):
                ShardPlan(num_shards)

    @given(st.text(max_size=40), st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_route_is_the_sha1_rule_in_range(self, article_id, num_shards):
        shard = ShardPlan(num_shards).route(ArticleRequest(article_id, ""))
        assert 0 <= shard < num_shards
        assert shard == _sha1_route(article_id, num_shards)
