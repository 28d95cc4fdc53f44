"""End-to-end HTTP service: parity, routing, admission control, health."""

import dataclasses
import itertools
import json
import multiprocessing
import os
import shutil
import statistics
import time
import urllib.error
import urllib.request

import pytest

from repro.core import FakeDetector, FakeDetectorConfig
from repro.data import NewsDataset
from repro.obs import SloMonitor, default_serving_rules, parse_prometheus
from repro.serve import (
    REQUEST_SCHEMA,
    ArticleRequest,
    InferenceSession,
    PredictionService,
    ServiceUnavailable,
)
from repro.serve.worker import _cap_blas_threads


def _post(url, payload, timeout=60.0):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url + "/v1/predict", data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, json.loads(reply.read().decode("utf-8")), reply.headers
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8")), exc.headers


def _get(url, path, timeout=60.0):
    try:
        with urllib.request.urlopen(url + path, timeout=timeout) as reply:
            return reply.status, reply.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


@pytest.fixture(scope="module")
def checkpoint(request, tmp_path_factory):
    dataset = request.getfixturevalue("tiny_dataset")
    split = request.getfixturevalue("tiny_split")
    config = FakeDetectorConfig(
        epochs=2, explicit_dim=24, vocab_size=400, max_seq_len=10,
        embed_dim=4, rnn_hidden=6, latent_dim=4, gdu_hidden=8, seed=0,
    )
    detector = FakeDetector(config).fit(dataset, split)
    path = tmp_path_factory.mktemp("ckpt") / "detector"
    detector.save(path)
    return path


@pytest.fixture
def corrupt_checkpoint(checkpoint, tmp_path):
    """A copy of ``checkpoint`` whose ``model.npz`` is cut in half."""
    path = tmp_path / "corrupt"
    shutil.copytree(checkpoint, path)
    weights = path / "model.npz"
    data = weights.read_bytes()
    weights.write_bytes(data[: len(data) // 2])
    return path


@pytest.fixture(scope="module")
def service(checkpoint, tmp_path_factory):
    svc = PredictionService(
        checkpoint, workers=2, shards=2, max_wait=0.001, max_queue_depth=8,
        trace_dir=tmp_path_factory.mktemp("traces"),
    )
    with svc:
        yield svc


def _id_on_shard(plan, prefix, shard):
    """The first ``prefix_<i>`` article id that ``plan`` routes to ``shard``."""
    return next(
        f"{prefix}_{i}" for i in itertools.count()
        if plan.route(ArticleRequest(f"{prefix}_{i}", "")) == shard
    )


@pytest.fixture(scope="module")
def shard_articles(request, service):
    """Articles that route to both shards, plus a cold one.

    One grounded article per shard, each naming a different known creator
    (and no subjects), with an id picked to route to that shard; plus one
    training-shaped request (a known creator with its training subjects).
    """
    dataset = request.getfixturevalue("tiny_dataset")
    creators = sorted(dataset.creators)
    articles = [
        ArticleRequest(_id_on_shard(service.plan, "grounded", shard),
                       "secret rigged hoax conspiracy scandal",
                       creator_id=creators[shard])
        for shard in range(service.num_shards)
    ]
    template = next(iter(dataset.articles.values()))
    articles.append(
        ArticleRequest("training_shaped", template.text,
                       creator_id=template.creator_id,
                       subject_ids=list(template.subject_ids))
    )
    articles.append(ArticleRequest("cold_1", "census report data percent"))
    return articles


def _payload(articles, return_proba=False):
    return {
        "schema": REQUEST_SCHEMA,
        "articles": [
            {"article_id": a.article_id, "text": a.text,
             "creator_id": a.creator_id, "subject_ids": list(a.subject_ids)}
            for a in articles
        ],
        "return_proba": return_proba,
    }


class TestPredictEndpoint:
    def test_http_labels_match_inference_session(self, service, checkpoint,
                                                 shard_articles):
        status, doc, _ = _post(service.url, _payload(shard_articles))
        assert status == 200
        assert doc["schema"] == "repro.serve.response/1"
        assert doc["model_digest"] == service.model_digest
        session = InferenceSession(FakeDetector.load(checkpoint))
        expected = session.predict(shard_articles)
        assert [p["entity_id"] for p in doc["predictions"]] \
            == [a.article_id for a in shard_articles]
        assert [p["class_index"] for p in doc["predictions"]] \
            == [p.class_index for p in expected]

    def test_request_fans_out_across_shards(self, service, shard_articles):
        status, doc, _ = _post(service.url, _payload(shard_articles))
        assert status == 200
        assert doc["timing"]["shards"] == 2.0
        for raw, article in zip(doc["predictions"], shard_articles):
            assert raw["shard"] == service.plan.route(article)

    def test_proba_round_trip(self, service, shard_articles):
        status, doc, _ = _post(
            service.url, _payload(shard_articles, return_proba=True)
        )
        assert status == 200
        for raw in doc["predictions"]:
            assert len(raw["proba"]) == 6
            assert max(range(6), key=raw["proba"].__getitem__) \
                == raw["class_index"]

    def test_repeated_requests_are_deterministic(self, service, shard_articles):
        _, first, _ = _post(service.url, _payload(shard_articles))
        _, second, _ = _post(service.url, _payload(shard_articles))
        assert first["predictions"] == second["predictions"]


def _two_community_dataset(dataset):
    """``dataset`` rewired into two creator/subject communities.

    Articles of the first six creators link only the first five subjects;
    every other article links only the remaining subjects. An article that
    names a creator of one community and a subject of the other then has
    graph neighbours that no training article joins.
    """
    creators = sorted(dataset.creators)
    subjects = sorted(dataset.subjects)
    left_creators, left, right = set(creators[:6]), subjects[:5], subjects[5:]
    articles = {}
    for i, (aid, article) in enumerate(sorted(dataset.articles.items())):
        own = left if article.creator_id in left_creators else right
        kept = [s for s in article.subject_ids if s in own] or [own[i % len(own)]]
        articles[aid] = dataclasses.replace(article, subject_ids=kept)
    return NewsDataset(articles, dict(dataset.creators), dict(dataset.subjects))


class TestFullGraphContext:
    """Every worker serves the whole graph, whatever shard it is on."""

    @pytest.fixture(scope="class")
    def community_checkpoint(self, request, tmp_path_factory):
        dataset = _two_community_dataset(request.getfixturevalue("tiny_dataset"))
        config = FakeDetectorConfig(
            epochs=2, explicit_dim=24, vocab_size=400, max_seq_len=10,
            embed_dim=4, rnn_hidden=6, latent_dim=4, gdu_hidden=8, seed=0,
        )
        detector = FakeDetector(config).fit(
            dataset, request.getfixturevalue("tiny_split")
        )
        path = tmp_path_factory.mktemp("communities") / "detector"
        detector.save(path)
        return path, dataset

    def test_cross_community_article_matches_full_context(
        self, community_checkpoint
    ):
        path, dataset = community_checkpoint
        creators = sorted(dataset.creators)
        subjects = sorted(dataset.subjects)
        template = dataset.articles[sorted(dataset.articles)[0]]
        article = ArticleRequest("bridge", template.text,
                                 creator_id=creators[0],
                                 subject_ids=[subjects[-1]])
        session = InferenceSession(FakeDetector.load(path))
        (want,) = session.predict([article], return_proba=True)
        # The far subject's state moves this article's prediction, so a
        # worker that dropped it would be caught below.
        (alone,) = session.predict(
            [dataclasses.replace(article, subject_ids=[])], return_proba=True
        )
        assert abs(alone.proba - want.proba).max() > 1e-6
        with PredictionService(path, workers=2, shards=2, max_wait=0.001) as svc:
            status, doc, _ = _post(svc.url, _payload([article], return_proba=True))
        assert status == 200
        (got,) = doc["predictions"]
        assert got["class_index"] == want.class_index
        assert max(abs(a - b) for a, b in zip(got["proba"], want.proba)) <= 1e-9


class TestErrorPaths:
    def test_unknown_schema_version_400(self, service):
        payload = _payload([ArticleRequest("a", "text")])
        payload["schema"] = "repro.serve.request/2"
        status, doc, _ = _post(service.url, payload)
        assert status == 400
        assert doc["schema"] == "repro.serve.error/1"
        assert doc["error"]["code"] == "bad_schema"

    def test_invalid_json_400(self, service):
        request = urllib.request.Request(
            service.url + "/v1/predict", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=60.0)
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["code"] == "bad_request"

    @pytest.mark.parametrize("subject_ids", [None, "s_1", 7, ["s_1", 2]])
    def test_malformed_subject_ids_400_then_recovers(self, service,
                                                      shard_articles,
                                                      subject_ids):
        payload = _payload([ArticleRequest("a", "text")])
        payload["articles"][0]["subject_ids"] = subject_ids
        status, doc, _ = _post(service.url, payload)
        assert status == 400
        assert doc["schema"] == "repro.serve.error/1"
        assert doc["error"]["code"] == "bad_request"
        status, _, _ = _post(service.url, _payload(shard_articles))
        assert status == 200

    def test_unknown_route_404(self, service):
        code, body = _get(service.url, "/v1/nothing")
        assert code == 404
        assert json.loads(body)["error"]["code"] == "not_found"

    def test_overload_returns_429_with_retry_after(self, service, shard_articles):
        saved = service.max_queue_depth
        service.max_queue_depth = 0   # exhaust the admission budget
        try:
            status, doc, headers = _post(service.url, _payload(shard_articles))
        finally:
            service.max_queue_depth = saved
        assert status == 429
        assert doc["error"]["code"] == "overloaded"
        assert headers["Retry-After"] == "1"
        # and the pool recovers once the budget is back
        status, _, _ = _post(service.url, _payload(shard_articles))
        assert status == 200


class TestOperationalEndpoints:
    def test_healthz_reports_pool(self, service):
        code, body = _get(service.url, "/v1/healthz")
        assert code == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["shards"] == 2
        assert [w["shard"] for w in health["workers"]] == [0, 1]
        assert all(w["alive"] for w in health["workers"])
        assert [w["blas_threads"] for w in health["workers"]] == (
            [_expected_blas_threads(2)] * 2
        )

    def test_metrics_exposes_http_counters(self, service, shard_articles):
        _post(service.url, _payload(shard_articles))
        code, body = _get(service.url, "/metrics")
        assert code == 200
        assert "repro_serve_http_requests" in body
        assert "repro_serve_inflight" in body

    def test_worker_digests_match_checkpoint(self, service):
        assert all(
            h.model_digest == service.model_digest for h in service._workers
        )


class TestCorrelation:
    def test_client_request_id_echoed(self, service, shard_articles):
        body = json.dumps(_payload(shard_articles)).encode("utf-8")
        request = urllib.request.Request(
            service.url + "/v1/predict", data=body,
            headers={"Content-Type": "application/json",
                     "X-Request-Id": "cafe0123cafe0123"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=60.0) as reply:
            doc = json.loads(reply.read())
            assert reply.headers["X-Request-Id"] == "cafe0123cafe0123"
        assert doc["meta"]["request_id"] == "cafe0123cafe0123"

    def test_request_id_minted_when_absent(self, service, shard_articles):
        _, doc, headers = _post(service.url, _payload(shard_articles))
        minted = headers["X-Request-Id"]
        assert len(minted) == 16
        assert doc["meta"]["request_id"] == minted

    def test_request_id_echoed_on_errors(self, service):
        payload = _payload([ArticleRequest("a", "text")])
        payload["schema"] = "repro.serve.request/2"
        status, _, headers = _post(service.url, payload)
        assert status == 400
        assert headers["X-Request-Id"]

    def test_meta_block_is_revision_2(self, service, shard_articles):
        _, doc, _ = _post(service.url, _payload(shard_articles))
        assert doc["meta"]["revision"] == 2
        assert len(doc["meta"]["trace_id"]) == 32


class TestDistributedTracing:
    def _traced_post(self, service, articles):
        from repro.obs import TraceContext, inject

        context = TraceContext.new().child(0xABCDEF)
        body = json.dumps(_payload(articles)).encode("utf-8")
        headers = inject(context, {"Content-Type": "application/json"})
        request = urllib.request.Request(
            service.url + "/v1/predict", data=body, headers=headers,
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=60.0) as reply:
            doc = json.loads(reply.read())
        return context, doc

    def test_one_merged_trace_per_request(self, service, shard_articles):
        context, doc = self._traced_post(service, shard_articles)
        assert doc["meta"]["trace_id"] == context.trace_id
        records = service.trace_store.read(context.trace_id)
        assert records[0]["type"] == "trace_meta"
        spans = [r for r in records if r.get("type") == "span"]
        names = {s["name"] for s in spans}
        assert {"serve.request", "serve.route", "serve.admit",
                "serve.dispatch", "serve.collect", "worker.queue_wait",
                "worker.batch_assembly", "worker.forward",
                "worker.serialize"} <= names
        assert all(s["trace_id"] == context.trace_id for s in spans)

    def test_span_parentage_crosses_processes(self, service, shard_articles):
        context, _ = self._traced_post(service, shard_articles)
        spans = [
            r for r in service.trace_store.read(context.trace_id)
            if r.get("type") == "span"
        ]
        root = next(s for s in spans if s["name"] == "serve.request")
        # The root parents under the client's traceparent span.
        assert root["parent_id"] == 0xABCDEF
        # Front-end sub-spans parent under the root in-process...
        route = next(s for s in spans if s["name"] == "serve.route")
        assert route["parent_id"] == root["span_id"]
        # ...and so do the worker spans shipped over the response queue.
        forwards = [s for s in spans if s["name"] == "worker.forward"]
        assert forwards and all(
            s["parent_id"] == root["span_id"] for s in forwards
        )
        # This request fanned out across both shards.
        assert {s["attrs"]["shard"] for s in forwards} == {0, 1}

    def test_untraced_requests_mint_distinct_traces(self, service,
                                                    shard_articles):
        _, first, _ = _post(service.url, _payload(shard_articles))
        _, second, _ = _post(service.url, _payload(shard_articles))
        assert first["meta"]["trace_id"] != second["meta"]["trace_id"]
        for doc in (first, second):
            records = service.trace_store.read(doc["meta"]["trace_id"])
            assert any(r.get("name") == "serve.request" for r in records)

    def test_render_timeline_over_live_trace(self, service, shard_articles):
        from repro.obs import render_timeline

        context, _ = self._traced_post(service, shard_articles)
        text = render_timeline(service.trace_store.read(context.trace_id))
        assert context.trace_id in text
        assert "serve.request" in text and "worker.forward" in text


def _shifted_articles(tag, n=120):
    """``n`` articles with distinct ids (about half per shard at two
    shards) and one narrow text: every prediction lands in one class and
    one confidence bin, far from the training baseline."""
    return [
        ArticleRequest(f"{tag}_{i}", "secret rigged hoax conspiracy scandal")
        for i in range(n)
    ]


class TestDriftDegradation:
    @pytest.fixture(scope="class")
    def drifting_service(self, checkpoint):
        svc = PredictionService(
            checkpoint, workers=2, shards=2, max_wait=0.001,
            drift_baseline="auto",
        )
        with svc:
            yield svc

    def test_shifted_stream_is_measured_not_judged(self, drifting_service):
        # Without an SLO monitor nothing decides drift: the workers'
        # window divergences are reported, and the pool stays healthy.
        for r in range(3):
            status, _, _ = _post(
                drifting_service.url, _payload(_shifted_articles(f"m{r}"))
            )
            assert status == 200
        code, body = _get(drifting_service.url, "/v1/healthz")
        health = json.loads(body)
        assert code == 200
        assert health["status"] == "ok"
        assert set(health["drift"]) == {"shards"}
        for shard_state in health["drift"]["shards"].values():
            assert shard_state["class_psi"] is not None
            assert "breached" not in shard_state

    def test_drift_gauges_reach_metrics_endpoint(self, drifting_service):
        code, body = _get(drifting_service.url, "/metrics")
        assert code == 200
        assert "repro_drift_class_psi_shard" in body
        assert "repro_drift_samples_shard" in body

    def test_unarmed_service_reports_no_drift(self, service):
        code, body = _get(service.url, "/v1/healthz")
        assert code == 200
        assert "drift" not in json.loads(body)

    @pytest.fixture(scope="class")
    def drifting_slo_service(self, checkpoint):
        svc = PredictionService(
            checkpoint, workers=2, shards=2, max_wait=0.001,
            drift_baseline="auto",
        )
        svc.slo = SloMonitor(
            default_serving_rules(drift_psi=0.25),
            registry=svc.metrics.registry,
        )
        with svc:
            yield svc

    def test_drift_psi_rule_breaches_slo(self, drifting_slo_service):
        # The collector feeds each worker's drift PSI to the rule's
        # signal before it answers the request.
        for r in range(3):
            status, _, _ = _post(
                drifting_slo_service.url, _payload(_shifted_articles(f"s{r}"))
            )
            assert status == 200
        code, body = _get(drifting_slo_service.url, "/v1/healthz")
        health = json.loads(body)
        assert code == 503
        assert health["slo"]["breached"] == ["drift_psi"]
        assert set(health["drift"]) == {"shards"}

    def test_one_excursion_logs_one_breach_event(self, checkpoint, capfd):
        """One drift verdict: the SLO monitor's edge event, and nothing
        under ``obs.drift`` from the front end or the worker (a forked
        worker writes to the same fd 2 that ``capfd`` captures)."""
        svc = PredictionService(
            checkpoint, workers=1, max_wait=0.001, drift_baseline="auto",
        )
        svc.slo = SloMonitor(
            default_serving_rules(drift_psi=0.25),
            registry=svc.metrics.registry,
        )
        with svc:
            for r in range(4):
                status, _, _ = _post(
                    svc.url, _payload(_shifted_articles(f"e{r}", n=60))
                )
                assert status == 200
            assert svc.slo.breached_rules == ["drift_psi"]
        err = capfd.readouterr().err
        breaches = [line for line in err.splitlines() if "breach" in line]
        assert len(breaches) == 1, err
        assert "obs.slo.breach" in breaches[0]
        assert "rule=drift_psi" in breaches[0]
        assert "obs.drift" not in err


class TestCacheCounters:
    def test_metrics_count_worker_cache_lookups(self, service):
        def counts():
            _, body = _get(service.url, "/metrics")
            samples = {s.name: s.value for s in parse_prometheus(body)}
            return (samples["repro_serve_cache_hits_total"],
                    samples["repro_serve_cache_misses_total"])

        hits_before, misses_before = counts()
        for r in range(3):
            batch = [
                ArticleRequest(f"cache{r}_{i}", "census report data percent")
                for i in range(8)
            ]
            status, _, _ = _post(service.url, _payload(batch))
            assert status == 200
        hits, misses = counts()
        assert hits > hits_before
        assert (hits - hits_before) + (misses - misses_before) == 24


class TestLatencyAccounting:
    def test_latency_is_recorded_once_per_request(self, checkpoint, tiny_dataset):
        """``serve.latency_seconds`` holds each request's wall time, the
        ``timing.total_ms`` it answered with, not that time split over its
        articles; ``requests`` counts requests."""
        articles = [tiny_dataset.articles[a] for a in sorted(tiny_dataset.articles)]
        totals = []
        with PredictionService(checkpoint, workers=1, max_wait=0.001) as svc:
            for r in range(3):
                batch = [
                    ArticleRequest(f"r{r}_{i}", article.text, article.creator_id,
                                   list(article.subject_ids))
                    for i, article in enumerate(
                        articles[(32 * r + i) % len(articles)] for i in range(32)
                    )
                ]
                status, body, _ = _post(svc.url, _payload(batch))
                assert status == 200
                assert len(body["predictions"]) == 32
                totals.append(body["timing"]["total_ms"])
            snap = svc.metrics.snapshot()
        assert snap["requests"] == 3
        assert snap["latency_p50_ms"] == pytest.approx(
            statistics.median(totals), rel=1e-9
        )


class TestSloDegradation:
    @pytest.fixture(scope="class")
    def latency_slo_service(self, checkpoint):
        svc = PredictionService(checkpoint, workers=2, shards=2, max_wait=0.001)
        svc.slo = SloMonitor(
            default_serving_rules(p95_latency_s=1e-9),
            registry=svc.metrics.registry,
        )
        with svc:
            yield svc

    def test_latency_breach_degrades_healthz(self, latency_slo_service,
                                             shard_articles):
        for _ in range(3):
            status, _, _ = _post(
                latency_slo_service.url, _payload(shard_articles)
            )
            assert status == 200
        code, body = _get(latency_slo_service.url, "/v1/healthz")
        health = json.loads(body)
        assert code == 503
        assert health["status"] == "degraded"
        assert health["slo"]["breached"] == ["latency_p95"]
        code, body = _get(latency_slo_service.url, "/metrics")
        assert code == 200
        samples = {s.name: s.value for s in parse_prometheus(body)}
        assert samples["repro_obs_slo_breached"] == 1.0

    def test_unarmed_service_reports_no_slo(self, service):
        code, body = _get(service.url, "/v1/healthz")
        assert code == 200
        assert "slo" not in json.loads(body)


class TestProfiling:
    @pytest.fixture(scope="class")
    def profiled_service(self, checkpoint):
        svc = PredictionService(
            checkpoint, workers=2, shards=2, max_wait=0.001,
        )
        with svc:
            yield svc

    def _load(self, svc, articles, stop):
        while not stop.is_set():
            _post(svc.url, _payload(articles))

    def _capture_under_load(self, svc, articles, path):
        import threading

        stop = threading.Event()
        driver = threading.Thread(
            target=self._load, args=(svc, articles, stop), daemon=True
        )
        driver.start()
        try:
            return _get(svc.url, path, timeout=120.0)
        finally:
            stop.set()
            driver.join(30.0)

    def test_debug_profile_merges_all_shards(self, profiled_service,
                                             shard_articles):
        code, body = self._capture_under_load(
            profiled_service, shard_articles, "/debug/profile?seconds=1.5"
        )
        assert code == 200
        doc = json.loads(body)
        assert doc["schema"] == "repro.obs.profile/1"
        assert doc["samples"] > 0
        assert set(doc["meta"]["parts"]) \
            == {"frontend", "shard0;worker0", "shard1;worker1"}
        roots = {stack.split(";")[0] for stack in doc["stacks"]}
        assert roots == {"frontend", "shard0", "shard1"}
        # The tagged batched forward shows up in worker stacks.
        assert any("worker.forward" in stack for stack in doc["stacks"])

    def test_debug_profile_svg_and_folded_formats(self, profiled_service,
                                                  shard_articles):
        code, svg = self._capture_under_load(
            profiled_service, shard_articles,
            "/debug/profile?seconds=0.5&format=svg",
        )
        assert code == 200
        assert svg.startswith("<svg")
        code, folded = _get(
            profiled_service.url, "/debug/profile?seconds=0.3&format=folded",
            timeout=120.0,
        )
        assert code == 200
        for line in folded.strip().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0

    def test_debug_profile_rejects_bad_params(self, profiled_service):
        code, body = _get(profiled_service.url, "/debug/profile?seconds=soon")
        assert code == 400
        assert json.loads(body)["error"]["code"] == "bad_request"
        code, body = _get(profiled_service.url, "/debug/profile?format=png")
        assert code == 400

    def test_unarmed_service_still_captures_on_demand(self, service,
                                                      shard_articles):
        # The capture spins up samplers in every process for just the
        # window.
        import threading

        stop = threading.Event()
        driver = threading.Thread(
            target=self._load, args=(service, shard_articles, stop),
            daemon=True,
        )
        driver.start()
        try:
            profile = service.capture_profile(0.8)
        finally:
            stop.set()
            driver.join(30.0)
        assert profile.samples > 0
        assert {s.split(";")[0] for s in profile.stacks} \
            == {"frontend", "shard0", "shard1"}
        # Afterwards the workers' samplers are stopped again: a fresh
        # snapshot request reports no running sampler.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if all(
                payload is None
                for payload in service._worker_profiles().values()
            ):
                break
            time.sleep(0.05)
        assert all(
            payload is None for payload in service._worker_profiles().values()
        )


class TestShutdownRobustness:
    """Regression tests for the bounded collector/worker queue loops.

    The analyzer's concurrency pass (RA204) flagged both ``get()`` loops
    as unbounded: a lost sentinel would have hung them forever. Both now
    poll with a timeout and re-check their stop condition.
    """

    def _bare_service(self):
        import queue
        import threading

        from repro.serve.service import PredictionService

        svc = PredictionService.__new__(PredictionService)
        svc._responses = queue.Queue()
        svc._workers = []
        svc._closing = threading.Event()
        return svc

    def test_collector_exits_on_close_without_sentinel(self):
        # Simulates the sentinel being lost to a dead worker pipe: the
        # queue stays empty forever, only _closing is set.
        import threading

        svc = self._bare_service()
        thread = threading.Thread(target=svc._collect, daemon=True)
        thread.start()
        time.sleep(0.1)
        assert thread.is_alive()  # parked on the timed get, not spinning out
        svc._closing.set()
        thread.join(3.0)
        assert not thread.is_alive()

    def test_collector_still_honors_sentinel(self):
        import threading

        svc = self._bare_service()
        thread = threading.Thread(target=svc._collect, daemon=True)
        thread.start()
        svc._responses.put(("close",))
        thread.join(3.0)
        assert not thread.is_alive()


class TestWorkerLoopRobustness:
    """worker_main's request loop survives idle timeouts and orphaning."""

    def _start_worker(self, monkeypatch, parent_alive):
        import queue
        import threading

        import repro.serve.checkpoint as checkpoint_mod
        import repro.serve.session as session_mod
        import repro.serve.worker as worker_mod

        class FakeSession:
            def __init__(self, detector, **kwargs):
                pass

            def predict(self, articles, return_proba=False):
                return []

        class FakeParent:
            def is_alive(self):
                return parent_alive

        monkeypatch.setattr(checkpoint_mod, "load_detector", lambda p: object())
        monkeypatch.setattr(checkpoint_mod, "checkpoint_digest", lambda p: "d0")
        monkeypatch.setattr(session_mod, "InferenceSession", FakeSession)
        monkeypatch.setattr(
            worker_mod.multiprocessing, "parent_process", lambda: FakeParent()
        )
        requests, responses = queue.Queue(), queue.Queue()
        thread = threading.Thread(
            target=worker_mod.worker_main,
            args=("ckpt", 0, 0, requests, responses),
            daemon=True,
        )
        thread.start()
        assert responses.get(timeout=5.0)[0] == "ready"
        return thread, requests

    def test_idle_timeout_then_stop_sentinel(self, monkeypatch):
        thread, requests = self._start_worker(monkeypatch, parent_alive=True)
        # Let at least one get() time out before the sentinel arrives.
        time.sleep(1.2)
        assert thread.is_alive()
        requests.put(("stop",))
        thread.join(3.0)
        assert not thread.is_alive()

    def test_orphaned_worker_exits(self, monkeypatch):
        thread, _ = self._start_worker(monkeypatch, parent_alive=False)
        # No sentinel ever arrives; the dead parent is noticed on timeout.
        thread.join(3.0)
        assert not thread.is_alive()


def _predict_message(req_id, articles):
    payloads = [{"article_id": f"{req_id}.{k}", "text": "t"} for k in range(articles)]
    return ("predict", req_id, payloads, False, None)


class TestDrainBatch:
    """The worker's batcher caps a batch by articles, never splitting one."""

    def _drain(self, queued, first, max_batch_size=32, max_wait=5.0):
        import queue

        from repro.serve.worker import _drain_batch

        requests = queue.Queue()
        for message in queued:
            requests.put(message)
        start = time.monotonic()
        batch = _drain_batch(requests, first, max_batch_size, max_wait)
        leftover = []
        while not requests.empty():
            leftover.append(requests.get_nowait())
        return batch, leftover, time.monotonic() - start

    @pytest.mark.parametrize("articles", [32, 64])
    def test_full_first_message_returns_without_waiting(self, articles):
        follow_up = _predict_message("r2", 1)
        batch, leftover, elapsed = self._drain(
            [follow_up], _predict_message("r1", articles)
        )
        assert elapsed < 0.5
        assert [m[1] for m in batch] == ["r1"]
        assert leftover == [follow_up]

    def test_one_article_messages_coalesce_up_to_the_cap(self):
        queued = [_predict_message(f"r{k}", 1) for k in range(2, 7)]
        batch, leftover, elapsed = self._drain(
            queued, _predict_message("r1", 1), max_batch_size=4
        )
        assert elapsed < 0.5  # the cap, not the 5 s wait, ended the batch
        assert [m[1] for m in batch] == ["r1", "r2", "r3", "r4"]
        assert [m[1] for m in leftover] == ["r5", "r6"]

    def test_one_article_messages_wait_for_late_riders(self):
        import queue
        import threading

        from repro.serve.worker import _drain_batch

        requests = queue.Queue()
        late = threading.Timer(0.05, requests.put, (_predict_message("r2", 1),))
        late.start()
        try:
            batch = _drain_batch(requests, _predict_message("r1", 1), 2, 5.0)
        finally:
            late.cancel()
        assert [m[1] for m in batch] == ["r1", "r2"]

    def test_request_is_never_split(self):
        batch, leftover, _ = self._drain(
            [_predict_message("r2", 20), _predict_message("r3", 1)],
            _predict_message("r1", 20),
        )
        # 20 + 20 crosses the 32 cap: the whole second request rides along.
        assert [len(m[2]) for m in batch] == [20, 20]
        assert [m[1] for m in leftover] == ["r3"]

    def test_wait_expires_below_the_cap(self):
        batch, leftover, elapsed = self._drain(
            [_predict_message("r2", 3)], _predict_message("r1", 3), max_wait=0.05
        )
        assert [m[1] for m in batch] == ["r1", "r2"]
        assert leftover == []
        assert elapsed >= 0.05

    @pytest.mark.parametrize("control", [("stop",), ("profile_start",)])
    def test_control_message_ends_batch_and_is_requeued(self, control):
        after = _predict_message("r3", 1)
        batch, leftover, elapsed = self._drain(
            [_predict_message("r2", 1), control, after],
            _predict_message("r1", 1),
        )
        assert elapsed < 0.5
        assert [m[1] for m in batch] == ["r1", "r2"]
        assert leftover == [after, control]


def _in_fork(fn):
    """``fn()`` evaluated in a forked child; its result comes back by pipe."""
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=lambda: send.send(fn()), daemon=True)
    child.start()
    assert receive.poll(30.0), "forked child sent no result"
    result = receive.recv()
    child.join(10.0)
    assert child.exitcode == 0
    return result


def _inherited_blas_threads():
    """This process's BLAS thread count (a cap never raises it: read-only)."""
    return _cap_blas_threads(1 << 30)


def _expected_blas_threads(workers):
    """What each worker of a ``workers``-process pool should report."""
    inherited = _inherited_blas_threads()
    if inherited is None:
        return None
    cores = len(os.sched_getaffinity(0))
    return min(inherited, max(1, cores // workers))


needs_blas_setter = pytest.mark.skipif(
    _inherited_blas_threads() is None,
    reason="numpy's BLAS exports no thread setter",
)


class TestBlasSizing:
    """Each worker caps its BLAS pool at its share of the cores."""

    @needs_blas_setter
    def test_cap_in_forked_child_leaves_parent_alone(self):
        before = _inherited_blas_threads()
        assert _in_fork(lambda: _cap_blas_threads(1)) == 1
        assert _inherited_blas_threads() == before

    @needs_blas_setter
    def test_lower_inherited_count_is_never_raised(self):
        def cap_one_then_two():
            _cap_blas_threads(1)
            return _cap_blas_threads(2)

        assert _in_fork(cap_one_then_two) == 1

    @pytest.mark.parametrize("listed", [True, False], ids=["missing-lib", "no-maps"])
    def test_no_loadable_setter_returns_none(self, monkeypatch, tmp_path, listed):
        import repro.serve.worker as worker_mod

        maps = tmp_path / "maps"
        if listed:
            maps.write_text(
                "7f0000000000-7f0000001000 r-xp 00000000 fe:00 1  "
                f"{tmp_path / 'missing' / 'libopenblas.so.0'}\n"
                "7f0000001000-7f0000002000 rw-p 00000000 00:00 0\n"
            )
        monkeypatch.setattr(worker_mod, "_PROC_MAPS", str(maps))
        assert _cap_blas_threads(1) is None

    def test_one_worker_pool_keeps_inherited_count(self, checkpoint):
        # One worker's share is every core, so only an inherited count
        # above the core count would be lowered.
        with PredictionService(checkpoint, workers=1, max_wait=0.001) as svc:
            code, body = _get(svc.url, "/v1/healthz")
        assert code == 200
        (worker,) = json.loads(body)["workers"]
        assert worker["blas_threads"] == _expected_blas_threads(1)


class TestDeadPoolStart:
    def test_start_fails_fast_when_every_worker_dies(self, corrupt_checkpoint):
        svc = PredictionService(
            corrupt_checkpoint, workers=2, warmup_timeout=15.0
        )
        began = time.monotonic()
        with pytest.raises(ServiceUnavailable) as info:
            svc.start()
        elapsed = time.monotonic() - began
        assert elapsed < 5.0, f"start() took {elapsed:.1f}s on a dead pool"
        message = str(info.value)
        assert "worker 0 exited with code 1" in message
        assert "worker 1 exited with code 1" in message
        # The pool was closed on the way out.
        assert not any(handle.alive() for handle in svc._workers)
        assert svc._collector is None
