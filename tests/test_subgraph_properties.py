"""Property-based tests (hypothesis) for the minibatch subgraph view.

``subgraph_view`` is the only layer that exists just for minibatch
training. For any batch of distinct article rows, in any order, the view
must hold exactly the batch articles plus their creators and subjects,
keep every entity's feature rows, and remap each edge to local indices
that name the same (article, creator) or (article, subject) pair as the
full graph.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_features, build_graph_index
from repro.core.pipeline import subgraph_view

#: Article rows of the toy corpus below (``tiny_dataset`` has 60 articles).
NUM_ARTICLES = 60
BATCHES = st.lists(
    st.integers(0, NUM_ARTICLES - 1), min_size=1, max_size=24, unique=True
)


@pytest.fixture(scope="module")
def full(tiny_dataset, tiny_split):
    features = build_features(
        tiny_dataset, tiny_split.articles.train, tiny_split.creators.train,
        tiny_split.subjects.train, explicit_dim=20, vocab_size=300, max_seq_len=10,
    )
    graph = build_graph_index(tiny_dataset, features)
    assert features.articles.num == NUM_ARTICLES
    return features, graph


def pairs(left_ids, left_rows, right_ids, right_rows) -> Counter:
    """Multiset of ``(left id, right id)`` edges given as aligned row arrays."""
    return Counter(
        (left_ids[a], right_ids[b]) for a, b in zip(left_rows, right_rows)
    )


def assert_in_range(rows, size):
    rows = np.asarray(rows)
    assert rows.dtype == np.intp
    assert rows.size == 0 or (rows.min() >= 0 and rows.max() < size)


@settings(max_examples=60, deadline=None)
@given(batch=BATCHES)
def test_view_holds_exactly_the_batch_neighbourhood(full, batch):
    features, graph = full
    rows = np.asarray(batch, dtype=np.intp)
    sub, sub_graph = subgraph_view(features, graph, rows)
    batch_ids = [features.articles.ids[r] for r in rows]
    in_batch = np.isin(graph.article_subject_segment, rows)

    assert sub.articles.ids == batch_ids
    assert sorted(sub.creators.ids) == sorted(
        {features.creators.ids[graph.article_creator[r]] for r in rows}
    )
    assert sorted(sub.subjects.ids) == sorted(
        {features.subjects.ids[s] for s in graph.article_subject_gather[in_batch]}
    )
    for kind in ("articles", "creators", "subjects"):
        local, whole = getattr(sub, kind), getattr(features, kind)
        assert local.index == {eid: i for i, eid in enumerate(local.ids)}
        source = [whole.index[eid] for eid in local.ids]
        for field in ("explicit", "sequences", "labels"):
            np.testing.assert_array_equal(
                getattr(local, field), getattr(whole, field)[source]
            )


@settings(max_examples=60, deadline=None)
@given(batch=BATCHES)
def test_remapped_edges_name_the_same_pairs(full, batch):
    features, graph = full
    rows = np.asarray(batch, dtype=np.intp)
    sub, sub_graph = subgraph_view(features, graph, rows)
    n_articles, n_creators, n_subjects = (
        sub.articles.num, sub.creators.num, sub.subjects.num
    )
    assert_in_range(sub_graph.article_creator, n_creators)
    assert_in_range(sub_graph.creator_article_segment, n_creators)
    assert_in_range(sub_graph.creator_article_gather, n_articles)
    assert_in_range(sub_graph.article_subject_segment, n_articles)
    assert_in_range(sub_graph.subject_article_gather, n_articles)
    assert_in_range(sub_graph.article_subject_gather, n_subjects)
    assert_in_range(sub_graph.subject_article_segment, n_subjects)
    assert sub_graph.article_creator.shape == (n_articles,)

    a, c, s = features.articles.ids, features.creators.ids, features.subjects.ids
    la, lc, ls = sub.articles.ids, sub.creators.ids, sub.subjects.ids
    in_batch = np.isin(graph.article_subject_segment, rows)
    creator_edges = pairs(a, rows, c, graph.article_creator[rows])
    subject_edges = pairs(
        a, graph.article_subject_segment[in_batch],
        s, graph.article_subject_gather[in_batch],
    )

    local_rows = np.arange(n_articles)
    assert pairs(la, local_rows, lc, sub_graph.article_creator) == creator_edges
    assert pairs(
        la, sub_graph.creator_article_gather, lc, sub_graph.creator_article_segment
    ) == creator_edges
    assert pairs(
        la, sub_graph.article_subject_segment, ls, sub_graph.article_subject_gather
    ) == subject_edges
    assert pairs(
        la, sub_graph.subject_article_gather, ls, sub_graph.subject_article_segment
    ) == subject_edges
