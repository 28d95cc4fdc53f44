"""Feature pipeline: from a NewsDataset to model-ready arrays.

Shared by FakeDetector and the text baselines so every method sees identical
inputs. The pipeline is *transductive* in the paper's sense: all node text
is visible (the network is given), but the discriminative word sets and all
label supervision come from the training split only.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.schema import NewsDataset
from ..obs import trace
from ..text.features import BagOfWordsExtractor
from ..text.sequences import encode_batch
from ..text.tokenizer import tokenize
from ..text.vocabulary import Vocabulary


@dataclasses.dataclass
class EntityFeatures:
    """Per-node-type arrays, aligned with ``ids``."""

    ids: List[str]
    index: Dict[str, int]              # id -> row
    explicit: np.ndarray               # (n, d) bag-of-words counts
    sequences: np.ndarray              # (n, q) padded token indices
    labels: np.ndarray                 # (n,) class indices 0..5 (-1 = unknown)

    @property
    def num(self) -> int:
        return len(self.ids)

    def rows(self, entity_ids: Sequence[str]) -> np.ndarray:
        """Row indices for a list of entity ids."""
        return np.asarray([self.index[eid] for eid in entity_ids], dtype=np.intp)


@dataclasses.dataclass
class PipelineOutput:
    """Everything the models consume."""

    articles: EntityFeatures
    creators: EntityFeatures
    subjects: EntityFeatures
    vocab: Vocabulary
    extractors: Dict[str, BagOfWordsExtractor]

    def by_type(self, kind: str) -> EntityFeatures:
        try:
            return {"article": self.articles, "creator": self.creators, "subject": self.subjects}[kind]
        except KeyError:
            raise ValueError(f"unknown entity kind {kind!r}") from None


def with_explicit_dtype(features: PipelineOutput, dtype) -> PipelineOutput:
    """``features`` with every explicit matrix in ``dtype``.

    Entities already in ``dtype`` are shared, not copied, so calling this
    once per fit or session and handing the result to every step makes the
    model's own per-call cast a no-op.
    """
    def cast(entity: EntityFeatures) -> EntityFeatures:
        if entity.explicit.dtype == dtype:
            return entity
        return dataclasses.replace(entity, explicit=entity.explicit.astype(dtype))

    return dataclasses.replace(
        features,
        articles=cast(features.articles),
        creators=cast(features.creators),
        subjects=cast(features.subjects),
    )


def build_features(
    dataset: NewsDataset,
    train_article_ids: Sequence[str],
    train_creator_ids: Sequence[str],
    train_subject_ids: Sequence[str],
    explicit_dim: int = 120,
    vocab_size: int = 4000,
    max_seq_len: int = 30,
    word_selection: str = "chi2",
    normalize_explicit: bool = True,
    explicit_weighting: str = "count",
) -> PipelineOutput:
    """Tokenize every entity, fit word sets on the training split, encode.

    Word sets W_n, W_u, W_s are selected independently per entity type from
    that type's *training* labels (§4.1.1); the shared vocabulary for the
    latent RNN is built from all text (the text of test nodes is part of the
    given network, only their labels are hidden).
    """
    span = trace(
        "pipeline.build_features",
        articles=len(dataset.articles),
        creators=len(dataset.creators),
        subjects=len(dataset.subjects),
    )
    with span:
        return _build_features_traced(
            dataset,
            train_article_ids,
            train_creator_ids,
            train_subject_ids,
            explicit_dim,
            vocab_size,
            max_seq_len,
            word_selection,
            normalize_explicit,
            explicit_weighting,
            span,
        )


def _build_features_traced(
    dataset,
    train_article_ids,
    train_creator_ids,
    train_subject_ids,
    explicit_dim,
    vocab_size,
    max_seq_len,
    word_selection,
    normalize_explicit,
    explicit_weighting,
    span,
) -> PipelineOutput:
    article_ids = sorted(dataset.articles)
    creator_ids = sorted(dataset.creators)
    subject_ids = sorted(dataset.subjects)

    with trace("pipeline.tokenize"):
        article_tokens = [tokenize(dataset.articles[a].text) for a in article_ids]
        creator_tokens = [tokenize(dataset.creators[c].profile) for c in creator_ids]
        subject_tokens = [
            tokenize(dataset.subjects[s].description) for s in subject_ids
        ]

    with trace("pipeline.vocabulary"):
        vocab = Vocabulary.build(
            article_tokens + creator_tokens + subject_tokens,
            max_size=vocab_size,
            min_count=1,
        )
    span.set(vocab_size=len(vocab))

    def entity_features(
        ids: List[str],
        tokens: List[List[str]],
        labels_by_id: Dict[str, Optional[int]],
        train_ids: Sequence[str],
    ) -> EntityFeatures:
        index = {eid: i for i, eid in enumerate(ids)}
        labels = np.full(len(ids), -1, dtype=np.int64)
        for eid, label in labels_by_id.items():
            if label is not None:
                labels[index[eid]] = label
        train_rows = [index[eid] for eid in train_ids if labels[index[eid]] >= 0]
        train_docs = [tokens[r] for r in train_rows]
        train_labels = [int(labels[r]) for r in train_rows]
        extractor = BagOfWordsExtractor.fit(
            train_docs,
            train_labels,
            size=explicit_dim,
            method=word_selection,
            normalize=normalize_explicit,
            min_count=2,
            weighting=explicit_weighting,
        )
        return EntityFeatures(
            ids=ids,
            index=index,
            explicit=extractor.transform(tokens),
            sequences=encode_batch(tokens, vocab, max_seq_len),
            labels=labels,
        ), extractor

    article_labels = {
        a: dataset.articles[a].label.class_index for a in article_ids
    }
    creator_labels = {
        c: (dataset.creators[c].label.class_index if dataset.creators[c].label else None)
        for c in creator_ids
    }
    subject_labels = {
        s: (dataset.subjects[s].label.class_index if dataset.subjects[s].label else None)
        for s in subject_ids
    }

    with trace("pipeline.encode", kind="article"):
        articles, article_extractor = entity_features(
            article_ids, article_tokens, article_labels, train_article_ids
        )
    with trace("pipeline.encode", kind="creator"):
        creators, creator_extractor = entity_features(
            creator_ids, creator_tokens, creator_labels, train_creator_ids
        )
    with trace("pipeline.encode", kind="subject"):
        subjects, subject_extractor = entity_features(
            subject_ids, subject_tokens, subject_labels, train_subject_ids
        )

    return PipelineOutput(
        articles=articles,
        creators=creators,
        subjects=subjects,
        vocab=vocab,
        extractors={
            "article": article_extractor,
            "creator": creator_extractor,
            "subject": subject_extractor,
        },
    )


@dataclasses.dataclass
class GraphIndex:
    """Edge lists in row-index space, consumed by the diffusion layer.

    ``article_creator[i]`` is the creator row of article row ``i``. The
    flattened (gather, segment) pairs drive
    :func:`repro.autograd.sparse.gather_segment_mean`.
    """

    article_creator: np.ndarray                 # (n_articles,)
    article_subject_gather: np.ndarray          # (n_links,) subject rows
    article_subject_segment: np.ndarray         # (n_links,) article rows
    creator_article_gather: np.ndarray          # (n_articles,) article rows
    creator_article_segment: np.ndarray         # (n_articles,) creator rows
    subject_article_gather: np.ndarray          # (n_links,) article rows
    subject_article_segment: np.ndarray         # (n_links,) subject rows


def subgraph_view(
    features: PipelineOutput,
    graph: GraphIndex,
    article_rows: np.ndarray,
) -> tuple:
    """Induced subgraph over a batch of article rows, for minibatch training.

    The sub-network contains the chosen articles, their creators and their
    subjects, with all edges among them. Creator/subject GDUs then aggregate
    only the batch's articles — the standard neighbor-sampling approximation.

    Returns ``(sub_features, sub_graph)`` where ``sub_features`` is a
    :class:`PipelineOutput` whose arrays are row-slices of the full ones.
    """
    article_rows = np.asarray(article_rows, dtype=np.intp)
    if article_rows.size == 0:
        raise ValueError("subgraph requires at least one article row")
    if article_rows.size != np.unique(article_rows).size:
        raise ValueError("duplicate article rows in batch")

    creator_rows = np.unique(graph.article_creator[article_rows])
    edge_mask = np.isin(graph.article_subject_segment, article_rows)
    subject_rows = np.unique(graph.article_subject_gather[edge_mask])
    if subject_rows.size == 0:
        # Degenerate but possible in tests with hand-built graphs.
        subject_rows = np.array([0], dtype=np.intp)

    def slice_entity(entity: EntityFeatures, rows: np.ndarray) -> EntityFeatures:
        ids = [entity.ids[r] for r in rows]
        return EntityFeatures(
            ids=ids,
            index={eid: i for i, eid in enumerate(ids)},
            explicit=entity.explicit[rows],
            sequences=entity.sequences[rows],
            labels=entity.labels[rows],
        )

    sub_features = PipelineOutput(
        articles=slice_entity(features.articles, article_rows),
        creators=slice_entity(features.creators, creator_rows),
        subjects=slice_entity(features.subjects, subject_rows),
        vocab=features.vocab,
        extractors=features.extractors,
    )

    # Remap global row ids to subgraph-local positions. ``creator_rows`` and
    # ``subject_rows`` are sorted (np.unique), so searchsorted IS the local
    # index; ``article_rows`` keeps the caller's batch order, so compose the
    # sorted lookup with the inverse permutation.
    sub_article_creator = np.searchsorted(
        creator_rows, graph.article_creator[article_rows]
    ).astype(np.intp)
    as_gather = np.searchsorted(
        subject_rows, graph.article_subject_gather[edge_mask]
    ).astype(np.intp)
    article_order = np.argsort(article_rows, kind="stable")
    as_segment = article_order[
        np.searchsorted(
            article_rows[article_order], graph.article_subject_segment[edge_mask]
        )
    ].astype(np.intp)
    local_article_rows = np.arange(article_rows.size, dtype=np.intp)
    sub_graph = GraphIndex(
        article_creator=sub_article_creator,
        article_subject_gather=as_gather,
        article_subject_segment=as_segment,
        creator_article_gather=local_article_rows,
        creator_article_segment=sub_article_creator.copy(),
        subject_article_gather=as_segment.copy(),
        subject_article_segment=as_gather.copy(),
    )
    return sub_features, sub_graph


def build_graph_index(dataset: NewsDataset, features: PipelineOutput) -> GraphIndex:
    """Translate entity-id links into aligned row-index edge arrays."""
    with trace("pipeline.build_graph_index", articles=features.articles.num):
        return _build_graph_index(dataset, features)


def _build_graph_index(dataset: NewsDataset, features: PipelineOutput) -> GraphIndex:
    a_index = features.articles.index
    c_index = features.creators.index
    s_index = features.subjects.index

    n_articles = features.articles.num
    article_creator = np.zeros(n_articles, dtype=np.intp)
    as_gather: List[int] = []
    as_segment: List[int] = []
    for article_id, article in dataset.articles.items():
        row = a_index[article_id]
        article_creator[row] = c_index[article.creator_id]
        for subject_id in article.subject_ids:
            as_gather.append(s_index[subject_id])
            as_segment.append(row)

    article_rows = np.arange(n_articles, dtype=np.intp)
    return GraphIndex(
        article_creator=article_creator,
        article_subject_gather=np.asarray(as_gather, dtype=np.intp),
        article_subject_segment=np.asarray(as_segment, dtype=np.intp),
        creator_article_gather=article_rows,
        creator_article_segment=article_creator.copy(),
        subject_article_gather=np.asarray(as_segment, dtype=np.intp),
        subject_article_segment=np.asarray(as_gather, dtype=np.intp),
    )
