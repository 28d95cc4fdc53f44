"""InferenceSession: cached-state serving agrees with the cold path."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core import FakeDetector, FakeDetectorConfig, Prediction
from repro.data import Article, CredibilityLabel
from repro.serve import ArticleRequest, InferenceSession
from repro.text.sequences import encode_batch
from repro.text.tokenizer import tokenize


@pytest.fixture(scope="module")
def fitted(request):
    dataset = request.getfixturevalue("tiny_dataset")
    split = request.getfixturevalue("tiny_split")
    config = FakeDetectorConfig(
        epochs=3, explicit_dim=24, vocab_size=400, max_seq_len=10,
        embed_dim=4, rnn_hidden=6, latent_dim=4, gdu_hidden=8, seed=0,
    )
    return FakeDetector(config).fit(dataset, split), dataset


@pytest.fixture()
def new_articles(fitted):
    _, dataset = fitted
    template = next(iter(dataset.articles.values()))
    return [
        Article("s1", "secret rigged hoax conspiracy scandal", CredibilityLabel.FALSE,
                template.creator_id, template.subject_ids),
        Article("s2", "census report data percent analysis", CredibilityLabel.TRUE,
                template.creator_id, template.subject_ids),
        Article("s3", "statement about the proposal", CredibilityLabel.HALF_TRUE,
                "ghost_creator", ["ghost_subject"]),
    ]


def cold_path_logits(detector, articles):
    """The pre-serve implementation of predict_new_articles, inlined.

    Re-runs the full-graph state pass on every call; the session must
    reproduce its logits exactly from the cached states.
    """
    detector.model.eval()
    _, states = detector.model.forward_with_states(detector.features, detector.graph)
    h_u, h_s = states["creator"].data, states["subject"].data
    tokens = [tokenize(a.text) for a in articles]
    explicit = detector.features.extractors["article"].transform(tokens)
    sequences = encode_batch(tokens, detector.features.vocab, detector.config.max_seq_len)
    x = detector.model.hflu_article(explicit, sequences)
    hidden = detector.model.gdu_article.hidden_dim
    z = np.zeros((len(articles), hidden))
    t = np.zeros((len(articles), hidden))
    c_index = detector.features.creators.index
    s_index = detector.features.subjects.index
    for i, article in enumerate(articles):
        known = [s_index[s] for s in article.subject_ids if s in s_index]
        if known:
            z[i] = h_s[known].mean(axis=0)
        if article.creator_id in c_index:
            t[i] = h_u[c_index[article.creator_id]]
    h = detector.model.gdu_article(x, Tensor(z), Tensor(t))
    return detector.model.head_article(h).data


class TestAgreement:
    def test_matches_cold_path_exactly(self, fitted, new_articles):
        detector, _ = fitted
        session = InferenceSession(detector)
        expected = cold_path_logits(detector, new_articles)
        preds = session.predict(new_articles)
        assert [p.class_index for p in preds] == list(expected.argmax(axis=1))

    def test_predict_new_articles_routes_through_session(self, fitted, new_articles):
        detector, _ = fitted
        session_preds = {
            p.entity_id: p.class_index
            for p in detector.session().predict(new_articles)
        }
        assert detector.predict_new_articles(new_articles) == session_preds

    def test_no_full_graph_forward_after_construction(self, fitted, new_articles):
        detector, _ = fitted
        session = InferenceSession(detector)
        calls = {"n": 0}
        original = detector.model.forward_with_states

        def spy(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        detector.model.forward_with_states = spy
        try:
            session.predict(new_articles)
            session.predict(new_articles, return_proba=True)
        finally:
            del detector.model.forward_with_states
        assert calls["n"] == 0

    def test_session_cached_on_detector(self, fitted):
        detector, _ = fitted
        assert detector.session() is detector.session()
        assert detector.session(refresh=True) is detector.session()

    def test_predict_known_ids_matches_transductive(self, fitted):
        detector, _ = fitted
        session = InferenceSession(detector)
        ids = detector.features.articles.ids
        known = {
            p.entity_id: p.class_index
            for p in session.predict(known_ids=ids)
        }
        assert known == detector.predict("article")


class TestPredictionSurface:
    def test_prediction_records(self, fitted, new_articles):
        detector, _ = fitted
        preds = detector.session().predict(new_articles, return_proba=True)
        for p in preds:
            assert isinstance(p, Prediction)
            assert p.label.class_index == p.class_index
            assert p.proba.shape == (6,)
            assert np.isclose(p.proba.sum(), 1.0)
            assert p.proba.argmax() == p.class_index

    def test_proba_matches_functional_softmax(self, fitted):
        from repro.autograd import functional as F

        detector, _ = fitted
        logits = detector.predict_logits()["creator"]
        # Served probabilities are a float64 softmax of the float32 logits.
        expected = F.softmax(Tensor(logits.astype(np.float64))).data
        probs = detector.predict_proba("creator")
        ids = detector.features.creators.ids
        for i, eid in enumerate(ids):
            np.testing.assert_array_equal(probs[eid], expected[i])

    def test_predict_return_proba_returns_records(self, fitted):
        detector, _ = fitted
        records = detector.predict("article", return_proba=True)
        plain = detector.predict("article")
        assert set(records) == set(plain)
        for eid, record in records.items():
            assert isinstance(record, Prediction)
            assert record.class_index == plain[eid]
            assert record.proba is not None

    def test_article_request_duck_types(self, fitted, new_articles):
        detector, _ = fitted
        session = InferenceSession(detector)
        requests = [
            ArticleRequest.from_dict({
                "article_id": a.article_id, "text": a.text,
                "creator_id": a.creator_id, "subject_ids": a.subject_ids,
            })
            for a in new_articles
        ]
        via_articles = session.predict(new_articles)
        via_requests = session.predict(requests)
        assert [p.class_index for p in via_articles] == [p.class_index for p in via_requests]

    def test_to_dict_is_json_ready(self, fitted, new_articles):
        import json

        detector, _ = fitted
        pred = detector.session().predict([new_articles[0]], return_proba=True)[0]
        payload = json.loads(json.dumps(pred.to_dict()))
        assert payload["entity_id"] == "s1"
        assert 0 <= payload["class_index"] <= 5
        assert len(payload["proba"]) == 6


class TestCacheAndMetrics:
    def test_feature_cache_hits_on_repeat_text(self, fitted, new_articles):
        detector, _ = fitted
        session = InferenceSession(detector)
        session.predict(new_articles)
        assert session.metrics.cache_misses == len(new_articles)
        session.predict(new_articles)
        assert session.metrics.cache_hits == len(new_articles)
        assert session.cache_stats()["hit_rate"] == 0.5

    def test_cached_features_do_not_change_results(self, fitted, new_articles):
        detector, _ = fitted
        session = InferenceSession(detector)
        first = session.predict(new_articles, return_proba=True)
        second = session.predict(new_articles, return_proba=True)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.proba, b.proba)

    def test_snapshot_reports_counters(self, fitted, new_articles):
        detector, _ = fitted
        session = InferenceSession(detector)
        session.predict(new_articles)
        snap = session.snapshot()
        assert snap["requests"] == len(new_articles)
        assert snap["batches"] == 1
        assert snap["mean_batch_size"] == len(new_articles)
        assert snap["latency_mean_ms"] > 0
        assert snap["throughput_rps"] > 0

    def test_empty_batch(self, fitted):
        detector, _ = fitted
        session = InferenceSession(detector)
        assert session.predict([]) == []
        assert session.metrics.requests == 0

    def test_unfitted_detector_rejected(self):
        with pytest.raises(RuntimeError):
            InferenceSession(FakeDetector())


class TestUnifiedSurface:
    """The collapsed predict(articles, *, return_proba, known_ids) API."""

    def test_mixed_articles_and_known_ids_preserve_order(self, fitted, new_articles):
        detector, _ = fitted
        session = InferenceSession(detector)
        known = list(detector.features.articles.ids[:2])
        preds = session.predict(new_articles, known_ids=known)
        assert [p.entity_id for p in preds] == (
            [a.article_id for a in new_articles] + known
        )

    def test_known_ids_accept_any_node_type(self, fitted):
        detector, _ = fitted
        session = InferenceSession(detector)
        ids = [
            detector.features.creators.ids[0],
            detector.features.subjects.ids[0],
            detector.features.articles.ids[0],
        ]
        preds = session.predict(known_ids=ids, return_proba=True)
        assert [p.entity_id for p in preds] == ids
        for p in preds:
            assert p.proba.shape == (6,)

    def test_unknown_known_id_raises_keyerror(self, fitted):
        detector, _ = fitted
        session = InferenceSession(detector)
        with pytest.raises(KeyError, match="not a node"):
            session.predict(known_ids=["never_seen_id"])

    def test_deprecated_aliases_removed(self, fitted):
        # The pre-service aliases (predict_articles / predict_article /
        # predict_known) were deleted after a full deprecation cycle; the
        # unified predict() covers all three call shapes. Guard against
        # them creeping back.
        detector, _ = fitted
        session = InferenceSession(detector)
        for alias in ("predict_articles", "predict_article", "predict_known"):
            assert not hasattr(session, alias)
        import repro.serve.session as session_mod

        assert not hasattr(session_mod, "_warn_deprecated")
        assert not hasattr(session_mod, "_DEPRECATION_WARNED")


class TestAttentionPooling:
    """A checkpoint trained with ``aggregation="attention"`` is served
    subject states pooled by its own attention aggregator, not a mean."""

    def test_served_logits_pool_with_the_model_aggregator(
        self, tiny_dataset, tiny_split, tmp_path
    ):
        from repro.autograd import no_tape
        from repro.core.pipeline import with_explicit_dtype
        from repro.core.predictions import predictions_from_logits

        config = FakeDetectorConfig(
            epochs=2, explicit_dim=24, vocab_size=400, max_seq_len=10,
            embed_dim=4, rnn_hidden=6, latent_dim=4, gdu_hidden=8, seed=0,
            aggregation="attention",
        )
        FakeDetector(config).fit(tiny_dataset, tiny_split).save(tmp_path / "ckpt")
        detector = FakeDetector.load(tmp_path / "ckpt")
        subjects = sorted(detector.features.subjects.index)
        creators = sorted(detector.features.creators.index)
        texts = [a.text for a in tiny_dataset.articles.values()]
        articles = [
            ArticleRequest(f"att_{i}", texts[i % len(texts)],
                           creators[i % len(creators)],
                           [subjects[(i + k) % len(subjects)] for k in range(3)])
            for i in range(12)
        ]
        served = InferenceSession(detector).predict(articles, return_proba=True)

        model = detector.model
        s_index = detector.features.subjects.index
        c_index = detector.features.creators.index
        owners = np.repeat(np.arange(len(articles)), 3)
        rows = np.array([s_index[s] for a in articles for s in a.subject_ids])
        with no_tape():
            _, states = model.forward_with_states(
                with_explicit_dtype(detector.features, model.dtype), detector.graph
            )
            z = model.agg_article_subjects(states["subject"], rows, owners, len(articles))
            t = states["creator"].data[[c_index[a.creator_id] for a in articles]]
            tokens = [tokenize(a.text) for a in articles]
            explicit = detector.features.extractors["article"].transform(tokens)
            sequences = encode_batch(tokens, detector.features.vocab, config.max_seq_len)
            x = model.hflu_article(explicit.astype(model.dtype), sequences)
            logits = model.head_article(model.gdu_article(x, z, Tensor(t))).data
        mean_z = states["subject"].data[rows].reshape(len(articles), 3, -1).mean(axis=1)
        assert not np.allclose(z.data, mean_z)  # the pooling choice matters here
        expected = predictions_from_logits(
            [a.article_id for a in articles], logits, return_proba=True
        )
        assert [p.proba.tobytes() for p in served] \
            == [p.proba.tobytes() for p in expected]
