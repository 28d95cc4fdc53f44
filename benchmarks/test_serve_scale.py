"""Sharded-service scaling: 1-shard vs 2-shard pools under load.

Stands up the :class:`repro.serve.PredictionService` twice against one
checkpoint — a 1-worker/1-shard pool and a 2-worker/2-shard pool — and
drives both with :mod:`repro.serve.loadgen` concurrency sweeps. Records
client-side p50/p95/p99 latency per level, the saturation point (where
extra concurrency stops buying throughput), the 2-shard speedup, and an
overload probe asserting admission control answers 429 instead of queueing
without bound.

The two pools differ in worker count (1 against 2), and every worker
serves the full graph, so ``speedup_2shard`` measures model replicas, not
shard fan-out; the artifact says so under ``workers`` and ``note``.

Writes ``results/BENCH_serve_scale.json`` (plus a ``kind="benchmark"``
run record for ``repro obs diff``).

The speedup assertion is gated on ``cpu_cores >= 3`` (parent + two
workers): multi-process scaling cannot materialize on a single-core box,
where both pools time-slice one CPU. The artifact records ``cpu_cores``
and ``scaling_expected`` so readers can tell the two regimes apart.
"""

from __future__ import annotations

import itertools
import json
import os
import urllib.request

from conftest import BENCH_SEED, save_bench_run

from repro.core import FakeDetector, FakeDetectorConfig
from repro.serve import (
    REQUEST_SCHEMA,
    ArticleRequest,
    PredictionService,
    ShardPlan,
)
from repro.serve.loadgen import run_load, sweep_concurrency

LEVELS = (1, 2, 4, 8)
REQUESTS_PER_LEVEL = 32
# Shard scaling needs real parallelism: one core for the parent
# (HTTP front-end + load client) and one per worker. Below that the two
# pools time-slice one CPU and the comparison measures the scheduler.
SCALING_CORES = 3
# Fat requests: per-request worker compute (16 batched forwards) must
# outweigh the parent's fixed HTTP + dispatch cost, or the front-end is
# what saturates and shard scaling is invisible.
ARTICLES_PER_REQUEST = 16


def _payloads(dataset, plan: ShardPlan, count: int = 16):
    """Shard-homogeneous request documents, alternating between shards.

    Each request carries ``ARTICLES_PER_REQUEST`` distinct-text articles
    whose ids all route to one shard, with consecutive requests alternating
    shards, so a sharded pool serves disjoint request streams in parallel
    instead of fanning every request out to every shard.
    """
    per_shard = -(-count // plan.num_shards) * ARTICLES_PER_REQUEST
    buckets = {shard: [] for shard in range(plan.num_shards)}
    serials = itertools.count()
    while min(map(len, buckets.values())) < per_shard:
        serial = next(serials)
        buckets[plan.route(ArticleRequest(f"load_{serial}", ""))].append(serial)
    creators = sorted(dataset.creators)
    texts = [a.text for a in dataset.articles.values()]
    payloads = []
    for r in range(count):
        shard = r % plan.num_shards
        start = (r // plan.num_shards) * ARTICLES_PER_REQUEST
        articles = [
            {
                "article_id": f"load_{serial}",
                # the variant suffix defeats any feature cache
                "text": texts[serial % len(texts)] + f" variant {serial}",
                "creator_id": creators[serial % len(creators)],
                "subject_ids": [],
            }
            for serial in buckets[shard][start:start + ARTICLES_PER_REQUEST]
        ]
        payloads.append({"schema": REQUEST_SCHEMA, "articles": articles})
    return payloads


def _overload_probe(service: PredictionService, payloads) -> dict:
    """Zero the admission budget and verify overload surfaces as 429s."""
    saved = service.max_queue_depth
    service.max_queue_depth = 0
    try:
        result = run_load(
            service.url + "/v1/predict", payloads, concurrency=4, requests=16,
        )
    finally:
        service.max_queue_depth = saved
    body = json.dumps(payloads[0]).encode("utf-8")
    request = urllib.request.Request(
        service.url + "/v1/predict", data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(request, timeout=60.0) as reply:
        recovered = reply.status == 200
    return {
        "requests": result.requests,
        "rejected_429": result.rejected,
        "errors": result.errors,
        "recovered_after_restore": recovered,
    }


def test_serve_scale(bench_dataset, bench_split, tmp_path_factory):
    # Serving-heavy sizing: wide enough that per-request worker compute
    # dominates the parent's HTTP+dispatch overhead, so shard scaling is
    # measurable; epochs stay minimal (benchmark serves, it doesn't learn).
    config = FakeDetectorConfig(
        epochs=2, explicit_dim=320, vocab_size=4000, max_seq_len=30,
        embed_dim=24, rnn_hidden=64, latent_dim=24, gdu_hidden=96,
        seed=BENCH_SEED,
    )
    detector = FakeDetector(config).fit(bench_dataset, bench_split)
    checkpoint = tmp_path_factory.mktemp("serve_scale") / "detector"
    detector.save(checkpoint)
    payloads = _payloads(bench_dataset, ShardPlan(2))

    sweeps = {}
    workers = {}
    overload = None
    for shards in (1, 2):
        service = PredictionService(
            checkpoint, workers=shards, shards=shards,
            max_wait=0.001, max_queue_depth=64, feature_cache_size=0,
        )
        workers[f"{shards}shard"] = service.num_workers
        with service:
            sweeps[shards] = sweep_concurrency(
                service.url + "/v1/predict", payloads,
                levels=LEVELS, requests_per_level=REQUESTS_PER_LEVEL,
            )
            if shards == 2:
                overload = _overload_probe(service, payloads)

    peak_1, peak_2 = (sweeps[s]["peak_throughput_rps"] for s in (1, 2))
    best_2 = max(sweeps[2]["levels"], key=lambda lv: lv["throughput_rps"])
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    report = {
        "levels": list(LEVELS),
        "requests_per_level": REQUESTS_PER_LEVEL,
        "articles_per_request": ARTICLES_PER_REQUEST,
        "cpu_cores": cores,
        "scaling_expected": cores >= SCALING_CORES,
        "workers": workers,
        "note": "the pools differ in worker count (see workers) and every "
                "worker serves the full graph, so speedup_2shard measures "
                "model replicas, not shard fan-out",
        "sweep_1shard": sweeps[1],
        "sweep_2shard": sweeps[2],
        "peak_throughput_rps_1shard": peak_1,
        "peak_throughput_rps_2shard": peak_2,
        "speedup_2shard": peak_2 / peak_1,
        "p50_ms": best_2["latency_ms"]["p50"],
        "p95_ms": best_2["latency_ms"]["p95"],
        "p99_ms": best_2["latency_ms"]["p99"],
        "saturation_2shard": sweeps[2]["saturation"],
        "overload": overload,
    }
    save_bench_run("BENCH_serve_scale.json", report)

    # Acceptance: with real cores behind the workers the sharded pool
    # outscales one worker (on a 1-core box both pools time-slice the same
    # CPU, so we only require the sharded pool to stay in the same league);
    # either way overload is answered with 429s (bounded queues),
    # recovering once budget returns.
    if report["scaling_expected"]:
        assert peak_2 > peak_1, report
    else:
        assert peak_2 > 0.4 * peak_1, report
    assert overload["rejected_429"] > 0, report
    assert overload["errors"] == 0, report
    assert overload["recovered_after_restore"], report
    for level in sweeps[2]["levels"]:
        assert level["errors"] == 0, level
