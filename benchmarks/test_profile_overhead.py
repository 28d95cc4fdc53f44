"""Sampling-profiler overhead on the training and warm serve paths.

The sampling profiler costs in two places: the sampler thread walks
``sys._current_frames()`` at the configured rate (a per-*process* cost,
independent of work done), and the profiler, as an op observer, brackets
every instrumented autograd op with a tag push/pop so samples carry op
ancestry (a per-*op* cost paid only while a profiler runs). This benchmark
measures both ends to end at the default 100 Hz:

- **train**: an identical ``FakeDetector.fit`` with and without an armed
  :class:`repro.obs.SamplingProfiler` — budget ≤ 1.05×;
- **serve**: one 2-worker sharded pool, timed on per-request p95 latency
  with and without a ``capture_profile`` window open (samplers in the
  front-end and every worker, as ``GET /debug/profile`` runs them) —
  budget ≤ 1.08×.

Both take the min over ``REPRO_BENCH_PROFILE_REPEATS`` passes (default 3)
and write ``results/BENCH_profile.json``.
"""

from __future__ import annotations

import math
import os
import threading
import time

from conftest import BENCH_SEED, save_bench_run

from repro.core import FakeDetector, FakeDetectorConfig
from repro.obs import SamplingProfiler
from repro.serve import PredictionService, PredictRequest

REPEATS = int(os.environ.get("REPRO_BENCH_PROFILE_REPEATS", "3"))
REQUESTS_PER_PASS = 40
PROFILE_HZ = 100.0
#: Capture window around one timed serve pass (a pass takes well under 1 s)
CAPTURE_WINDOW_S = 2.0
TRAIN_BUDGET = 1.05      # profiled fit wall time vs unprofiled
SERVE_P95_BUDGET = 1.08  # profiled pool p95 latency vs unprofiled


def _config() -> FakeDetectorConfig:
    return FakeDetectorConfig(
        epochs=3, explicit_dim=60, vocab_size=2000, max_seq_len=16,
        seed=BENCH_SEED,
    )


def _fit_seconds(dataset, split, profiled: bool) -> float:
    profiler = SamplingProfiler(interval=1.0 / PROFILE_HZ) if profiled else None
    if profiler is not None:
        profiler.start()
    try:
        start = time.perf_counter()
        FakeDetector(_config()).fit(dataset, split)
        return time.perf_counter() - start
    finally:
        if profiler is not None:
            profiler.stop()


def _requests(dataset, count):
    articles = list(dataset.articles.values())
    docs = []
    for i in range(count):
        article = articles[i % len(articles)]
        docs.append(PredictRequest.from_dict({
            "schema": "repro.serve.request/1",
            "articles": [{
                "article_id": f"bench_{i}",
                "text": article.text,
                "creator_id": article.creator_id,
                "subject_ids": list(article.subject_ids),
            }],
        }))
    return docs


def _p95(latencies) -> float:
    ranked = sorted(latencies)
    return ranked[min(len(ranked) - 1, math.ceil(0.95 * len(ranked)) - 1)]


def _pass_p95(service, requests) -> float:
    latencies = []
    for request in requests:
        start = time.perf_counter()
        service.predict(request)
        latencies.append(time.perf_counter() - start)
    return _p95(latencies)


def _captured_pass_p95(service, requests):
    """One timed pass inside a capture window: ``(p95, profile)``.

    The pass starts once every worker answers a snapshot request, i.e.
    once the capture's samplers run in every process, and must end
    before the window closes.
    """
    result = {}
    capture = threading.Thread(
        target=lambda: result.update(
            profile=service.capture_profile(CAPTURE_WINDOW_S)
        )
    )
    capture.start()
    deadline = time.perf_counter() + CAPTURE_WINDOW_S
    while not all(p is not None for p in service._worker_profiles().values()):
        assert time.perf_counter() < deadline, "samplers never started"
    p95 = _pass_p95(service, requests)
    assert capture.is_alive(), "the capture window closed before the pass ended"
    capture.join()
    return p95, result["profile"]


def test_profile_overhead(bench_dataset, bench_split, tmp_path):
    # -- training step budget ------------------------------------------
    baseline_fit = min(
        _fit_seconds(bench_dataset, bench_split, profiled=False)
        for _ in range(REPEATS)
    )
    profiled_fit = min(
        _fit_seconds(bench_dataset, bench_split, profiled=True)
        for _ in range(REPEATS)
    )
    train_ratio = profiled_fit / baseline_fit

    # -- serving p95 budget --------------------------------------------
    detector = FakeDetector(_config()).fit(bench_dataset, bench_split)
    checkpoint = tmp_path / "ckpt"
    detector.save(checkpoint)
    requests = _requests(bench_dataset, REQUESTS_PER_PASS)
    pool = dict(workers=2, shards=2, max_wait=0.001)

    baseline, profiled = [], []
    with PredictionService(checkpoint, **pool) as service:
        service.predict(requests[0])   # warm the pool
        for _ in range(REPEATS):       # interleaved passes
            baseline.append(_pass_p95(service, requests))
            p95, profile = _captured_pass_p95(service, requests)
            profiled.append(p95)
    baseline_p95, profiled_p95 = min(baseline), min(profiled)
    # The capture actually sampled: it comes back from every process.
    sampled_parts = sorted(profile.meta["parts"])
    serve_ratio = profiled_p95 / baseline_p95

    report = {
        "repeats": REPEATS,
        "profile_hz": PROFILE_HZ,
        "serve_capture_window_s": CAPTURE_WINDOW_S,
        "train_baseline_seconds": baseline_fit,
        "train_profiled_seconds": profiled_fit,
        "train_overhead_ratio": train_ratio,
        "train_overhead_budget": TRAIN_BUDGET,
        "requests_per_pass": REQUESTS_PER_PASS,
        "serve_baseline_p95_ms": 1e3 * baseline_p95,
        "serve_profiled_p95_ms": 1e3 * profiled_p95,
        "serve_p95_overhead_ratio": serve_ratio,
        "serve_p95_overhead_budget": SERVE_P95_BUDGET,
        "sampled_parts": sampled_parts,
    }
    save_bench_run("BENCH_profile.json", report)

    assert sampled_parts == [
        "frontend", "shard0;worker0", "shard1;worker1"
    ], report
    assert train_ratio < TRAIN_BUDGET, report
    assert serve_ratio < SERVE_P95_BUDGET, report
