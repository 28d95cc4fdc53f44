"""Scaling benchmark: cost of generation and one training epoch vs corpus size.

Quantifies how far the pure-numpy substrate can push toward the paper's full
14k-article corpus, and verifies time grows roughly linearly in corpus size
(the design intent of the edge-list aggregation in repro.autograd.sparse).
"""

import time

import numpy as np

from repro.autograd import functional as F
from repro.autograd import optim
from repro.core import (
    FakeDetectorConfig,
    FakeDetectorModel,
    build_features,
    build_graph_index,
)
from repro.data import GeneratorConfig, PolitiFactGenerator
from repro.graph.sampling import tri_splits

from conftest import save_artifact

SCALES = (0.02, 0.05, 0.1)


def _epoch_seconds(scale: float) -> tuple:
    dataset = PolitiFactGenerator(GeneratorConfig(scale=scale, seed=7)).generate()
    split = next(
        tri_splits(
            sorted(dataset.articles), sorted(dataset.creators),
            sorted(dataset.subjects), k=10, seed=0,
        )
    )
    config = FakeDetectorConfig(
        epochs=1, explicit_dim=60, vocab_size=2000, max_seq_len=16,
        embed_dim=8, rnn_hidden=12, latent_dim=8, gdu_hidden=16,
    )
    features = build_features(
        dataset, split.articles.train, split.creators.train, split.subjects.train,
        explicit_dim=config.explicit_dim, vocab_size=config.vocab_size,
        max_seq_len=config.max_seq_len,
    )
    graph = build_graph_index(dataset, features)
    model = FakeDetectorModel(
        config,
        rng=np.random.default_rng(0),
        explicit_dims={
            "article": features.articles.explicit.shape[1],
            "creator": features.creators.explicit.shape[1],
            "subject": features.subjects.explicit.shape[1],
        },
        vocab_rows=len(features.vocab),
    )
    optimizer = optim.Adam(list(model.parameters()), lr=0.01)
    start = time.perf_counter()
    logits = model(features, graph)
    loss = F.cross_entropy(logits["article"], features.articles.labels)
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    elapsed = time.perf_counter() - start
    return dataset.num_articles, elapsed


def test_epoch_cost_scales_linearly(benchmark):
    rows = []

    def run():
        for scale in SCALES:
            rows.append(_epoch_seconds(scale))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["Training-epoch cost vs corpus size (full-batch)"]
    lines.append(f"{'articles':>9s} {'seconds':>9s} {'ms/article':>11s}")
    for n, seconds in rows:
        lines.append(f"{n:>9d} {seconds:>9.2f} {1000 * seconds / n:>11.2f}")
    rendered = "\n".join(lines)
    save_artifact("scaling.txt", rendered)
    print()
    print(rendered)

    # Per-article cost must not blow up with size (allow 3x drift for cache
    # effects — superlinear would indicate an accidental dense-matrix path).
    per_article = [seconds / n for n, seconds in rows]
    assert max(per_article) < 3.0 * min(per_article), per_article
