"""Full-detector persistence: save → load → predict parity."""

import json

import numpy as np
import pytest

from repro.autograd import load_arrays, save_arrays
from repro.core import FakeDetector, FakeDetectorConfig
from repro.serve import CHECKPOINT_FORMAT, InferenceSession, load_detector, save_detector
from repro.text import BagOfWordsExtractor, Vocabulary


@pytest.fixture(scope="module")
def fitted(request):
    dataset = request.getfixturevalue("tiny_dataset")
    split = request.getfixturevalue("tiny_split")
    config = FakeDetectorConfig(
        epochs=3, explicit_dim=24, vocab_size=400, max_seq_len=10,
        embed_dim=4, rnn_hidden=6, latent_dim=4, gdu_hidden=8, seed=0,
    )
    return FakeDetector(config).fit(dataset, split), dataset


def _edit_config(path, **entries):
    manifest = json.loads((path / "detector.json").read_text())
    manifest["config"].update(entries)
    (path / "detector.json").write_text(json.dumps(manifest))


class TestRoundTrip:
    def test_bit_identical_logits(self, fitted, tmp_path):
        detector, _ = fitted
        detector.save(tmp_path / "ckpt")
        restored = FakeDetector.load(tmp_path / "ckpt")
        original = detector.predict_logits()
        reloaded = restored.predict_logits()
        for kind in ("article", "creator", "subject"):
            np.testing.assert_array_equal(original[kind], reloaded[kind])

    def test_config_and_ids_survive(self, fitted, tmp_path):
        detector, _ = fitted
        save_detector(detector, tmp_path / "ckpt")
        restored = load_detector(tmp_path / "ckpt")
        assert restored.config == detector.config
        for kind in ("article", "creator", "subject"):
            assert restored.features.by_type(kind).ids == detector.features.by_type(kind).ids
            assert restored.features.by_type(kind).index == detector.features.by_type(kind).index

    def test_inductive_predictions_survive(self, fitted, tmp_path):
        """A loaded detector scores new articles like the original."""
        from repro.data import Article, CredibilityLabel

        detector, dataset = fitted
        template = next(iter(dataset.articles.values()))
        new = [
            Article("n1", "secret rigged hoax conspiracy", CredibilityLabel.FALSE,
                    template.creator_id, template.subject_ids),
            Article("n2", "census data report analysis", CredibilityLabel.TRUE,
                    "ghost_creator", ["ghost_subject"]),
        ]
        detector.save(tmp_path / "ckpt")
        restored = FakeDetector.load(tmp_path / "ckpt")
        assert restored.predict_new_articles(new) == detector.predict_new_articles(new)

    def test_predict_dict_wrapper_matches(self, fitted, tmp_path):
        detector, _ = fitted
        detector.save(tmp_path / "ckpt")
        restored = FakeDetector.load(tmp_path / "ckpt")
        assert restored.predict("article") == detector.predict("article")

    def test_retired_fused_kernels_key_loads(self, fitted, tmp_path):
        """Older checkpoints store ``fused_kernels`` in their config."""
        detector, _ = fitted
        path = tmp_path / "ckpt"
        detector.save(path)
        without = FakeDetector.load(path)
        _edit_config(path, fused_kernels=False)
        restored = FakeDetector.load(path)
        assert restored.config == without.config
        for kind in ("article", "creator", "subject"):
            np.testing.assert_array_equal(
                restored.predict_logits()[kind], without.predict_logits()[kind]
            )


TABLES = [f"hflu_{kind}.encoder.embedding.weight" for kind in ("article", "creator", "subject")]


class TestVocabularyTables:
    def test_tables_have_the_fitted_vocabulary_rows(self, fitted, tmp_path):
        detector, _ = fitted
        rows = len(detector.features.vocab)
        assert rows < detector.config.vocab_size + 2
        params = dict(detector.model.named_parameters())
        for name in TABLES:
            assert params[name].shape == (rows, detector.config.embed_dim)
        detector.save(tmp_path / "ckpt")
        stored = load_arrays(tmp_path / "ckpt" / "model.npz")
        for name in TABLES:
            assert stored[name].shape == (rows, detector.config.embed_dim)

    def test_full_vocabulary_tables_serve_the_same(self, fitted, tmp_path):
        """Checkpoints of earlier builds keep all ``vocab_size + 2`` rows."""
        from repro.data import Article, CredibilityLabel

        detector, dataset = fitted
        detector.save(tmp_path / "cut")
        detector.save(tmp_path / "full")
        state = load_arrays(tmp_path / "full" / "model.npz")
        rng = np.random.default_rng(0)
        full_rows = detector.config.vocab_size + 2
        for name in TABLES:
            table = state[name]
            pad = rng.standard_normal((full_rows - len(table), table.shape[1]))
            state[name] = np.concatenate([table, pad.astype(table.dtype)])
        save_arrays(state, tmp_path / "full" / "model.npz")

        cut, full = load_detector(tmp_path / "cut"), load_detector(tmp_path / "full")
        assert dict(full.model.named_parameters())[TABLES[0]].shape[0] == full_rows
        for kind in ("article", "creator", "subject"):
            expected = cut.predict_logits()[kind]
            assert full.predict_logits()[kind].tobytes() == expected.tobytes()
        template = next(iter(dataset.articles.values()))
        articles = [
            Article("n1", "secret rigged hoax conspiracy", CredibilityLabel.FALSE,
                    template.creator_id, template.subject_ids),
            Article("n2", "census data report analysis", CredibilityLabel.TRUE,
                    "ghost_creator", ["ghost_subject"]),
        ]
        served = [
            InferenceSession(d).predict(articles, return_proba=True,
                                        known_ids=[template.article_id])
            for d in (cut, full)
        ]
        for a, b in zip(*served):
            assert a.entity_id == b.entity_id
            assert a.proba.tobytes() == b.proba.tobytes()


class TestErrors:
    def test_unfitted_save_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            FakeDetector().save(tmp_path / "nope")

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            FakeDetector.load(tmp_path / "missing")

    def test_bad_format_rejected(self, fitted, tmp_path):
        detector, _ = fitted
        path = tmp_path / "ckpt"
        detector.save(path)
        manifest = json.loads((path / "detector.json").read_text())
        manifest["format"] = "fakedetector-checkpoint/999"
        (path / "detector.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError):
            FakeDetector.load(path)

    def test_unknown_config_key_rejected(self, fitted, tmp_path):
        detector, _ = fitted
        path = tmp_path / "ckpt"
        detector.save(path)
        _edit_config(path, no_such_field=False)
        with pytest.raises(TypeError, match="no_such_field"):
            FakeDetector.load(path)

    def test_format_constant(self):
        assert CHECKPOINT_FORMAT.startswith("fakedetector-checkpoint/")


class TestDriftBaseline:
    def test_save_writes_baseline_profile(self, fitted, tmp_path):
        from repro.obs import BaselineProfile, load_baseline

        detector, _ = fitted
        detector.save(tmp_path / "ckpt")
        baseline = load_baseline(tmp_path / "ckpt")
        assert isinstance(baseline, BaselineProfile)
        assert baseline.samples > 0
        assert baseline == BaselineProfile.from_detector(detector)

    def test_baseline_outside_checkpoint_digest(self, fitted, tmp_path):
        """The profile is telemetry metadata, not model identity: deleting
        or editing it must not change the digest workers advertise."""
        from repro.serve import checkpoint_digest

        detector, _ = fitted
        path = tmp_path / "ckpt"
        detector.save(path)
        digest = checkpoint_digest(path)
        (path / "drift_baseline.json").unlink()
        assert checkpoint_digest(path) == digest

    def test_pre_drift_checkpoint_loads_without_baseline(self, fitted, tmp_path):
        from repro.obs import load_baseline

        detector, _ = fitted
        path = tmp_path / "ckpt"
        detector.save(path)
        (path / "drift_baseline.json").unlink()
        restored = FakeDetector.load(path)
        assert restored.predict("article") == detector.predict("article")
        assert load_baseline(path) is None


class TestComponentSerialization:
    def test_vocabulary_dict_round_trip(self):
        vocab = Vocabulary.build([["a", "b", "a"], ["b", "c"]], max_size=10)
        clone = Vocabulary.from_dict(json.loads(json.dumps(vocab.to_dict())))
        assert clone.tokens == vocab.tokens
        assert clone.counts == vocab.counts
        assert clone.index("a") == vocab.index("a")

    def test_extractor_dict_round_trip_bit_exact(self):
        docs = [["tax", "cut", "tax"], ["hoax", "scandal"], ["tax", "data"]]
        extractor = BagOfWordsExtractor.fit(
            docs, [1, 0, 1], size=4, normalize=True, min_count=1, weighting="tfidf"
        )
        clone = BagOfWordsExtractor.from_dict(
            json.loads(json.dumps(extractor.to_dict()))
        )
        assert clone.words == extractor.words
        np.testing.assert_array_equal(
            clone.transform(docs), extractor.transform(docs)
        )
