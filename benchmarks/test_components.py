"""Micro-benchmarks of the computational substrate.

These time the primitives the full experiments are built from: the GDU
forward/backward pass, the GRU sequence encoder, graph aggregation, SGNS
steps and the linear SVM. Useful for spotting performance regressions in
the autodiff engine.
"""

import numpy as np
import pytest

from repro.autograd import GRUEncoder, Tensor
from repro.autograd import functional as F
from repro.autograd.sparse import gather_segment_mean
from repro.baselines import LinearSVM, NegativeSampler, SkipGramModel
from repro.core import GDU


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


class TestGDUBench:
    def test_gdu_forward(self, benchmark, rng):
        gdu = GDU(input_dim=96, hidden_dim=32, rng=rng)
        x = Tensor(rng.standard_normal((512, 96)))
        z = Tensor(rng.standard_normal((512, 32)))
        t = Tensor(rng.standard_normal((512, 32)))
        benchmark(lambda: gdu(x, z, t))

    def test_gdu_forward_backward(self, benchmark, rng):
        gdu = GDU(input_dim=96, hidden_dim=32, rng=rng)
        x = Tensor(rng.standard_normal((512, 96)))
        z = Tensor(rng.standard_normal((512, 32)))
        t = Tensor(rng.standard_normal((512, 32)))

        def step():
            gdu.zero_grad()
            (gdu(x, z, t) ** 2).sum().backward()

        benchmark(step)


class TestGRUBench:
    def test_gru_encode_batch(self, benchmark, rng):
        enc = GRUEncoder(vocab_size=2000, embed_dim=16, hidden_size=24, output_size=16, rng=rng)
        seqs = rng.integers(1, 2000, size=(256, 20))
        benchmark(lambda: enc(seqs))

    def test_gru_encode_backward(self, benchmark, rng):
        enc = GRUEncoder(vocab_size=2000, embed_dim=16, hidden_size=24, output_size=16, rng=rng)
        seqs = rng.integers(1, 2000, size=(128, 20))
        targets = rng.integers(0, 6, size=128)
        head = Tensor(rng.standard_normal((16, 6)))

        def step():
            enc.zero_grad()
            F.cross_entropy(enc(seqs) @ head, targets).backward()

        benchmark(step)


class TestGraphOpsBench:
    def test_gather_segment_mean(self, benchmark, rng):
        src = Tensor(rng.standard_normal((2000, 32)))
        gather = rng.integers(0, 2000, size=7000)
        seg = rng.integers(0, 1500, size=7000)
        benchmark(lambda: gather_segment_mean(src, gather, seg, 1500))


class TestBaselineBench:
    def test_sgns_epoch(self, benchmark, rng):
        model = SkipGramModel(num_nodes=1000, dim=32, seed=0)
        sampler = NegativeSampler(np.ones(1000))
        centers = rng.integers(0, 1000, size=20000)
        contexts = rng.integers(0, 1000, size=20000)
        benchmark.pedantic(
            lambda: model.train_pairs(centers, contexts, sampler, epochs=1),
            rounds=3, iterations=1,
        )

    def test_linear_svm_fit(self, benchmark, rng):
        features = rng.standard_normal((600, 80))
        labels = rng.integers(0, 6, size=600)
        benchmark.pedantic(
            lambda: LinearSVM(num_classes=6, epochs=100).fit(features, labels),
            rounds=3, iterations=1,
        )


class TestTrainingStepBench:
    def test_fakedetector_epoch(self, benchmark, bench_dataset, bench_split):
        """One full-batch training epoch of the complete model."""
        from repro.autograd import optim
        from repro.core import (
            FakeDetectorConfig,
            FakeDetectorModel,
            build_features,
            build_graph_index,
        )

        config = FakeDetectorConfig(
            epochs=1, explicit_dim=80, vocab_size=2000, max_seq_len=20,
            embed_dim=12, rnn_hidden=16, latent_dim=12, gdu_hidden=24,
        )
        features = build_features(
            bench_dataset,
            bench_split.articles.train,
            bench_split.creators.train,
            bench_split.subjects.train,
            explicit_dim=config.explicit_dim,
            vocab_size=config.vocab_size,
            max_seq_len=config.max_seq_len,
        )
        graph = build_graph_index(bench_dataset, features)
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
        labels = features.articles.labels

        def epoch():
            logits = model(features, graph)
            loss = F.cross_entropy(logits["article"], labels)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

        benchmark.pedantic(epoch, rounds=3, iterations=1)
