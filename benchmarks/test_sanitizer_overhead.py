"""Tape-sanitizer overhead: sanitized fit() vs the observer-off fast path.

The sanitizer is an op observer on the seam every autograd op reports to
(:func:`repro.autograd.tensor.add_op_observer`); with no observer installed
each op pays one test. With a :class:`~repro.analysis.Sanitizer` active,
every forward output and backward gradient is NaN-scanned and every
distinct closure-captured array is checksummed at capture and re-verified
at each step boundary — real work, budgeted rather than free:

- **baseline**: ``FakeDetector.fit`` with no op observer installed;
- **disabled**: identical (measured twice to bound noise) — budget <2%;
- **enabled**: ``fit(..., sanitize=True)`` — budget <25%.

Timings take the min over ``REPRO_BENCH_ANALYSIS_REPEATS`` runs (default 3).
Writes ``results/BENCH_analysis.json``.
"""

from __future__ import annotations

import os
import time

from conftest import BENCH_SEED, save_bench_run

from repro.core import FakeDetector, FakeDetectorConfig

REPEATS = int(os.environ.get("REPRO_BENCH_ANALYSIS_REPEATS", "3"))
DISABLED_BUDGET = 1.02   # sanitizer-off regression vs baseline: <2%
ENABLED_BUDGET = 1.25    # NaN scans + mutation checksums on every op: <25%


def _fit(bench_dataset, bench_split, sanitize: bool):
    config = FakeDetectorConfig(
        epochs=4, explicit_dim=60, vocab_size=2000, max_seq_len=16,
        seed=BENCH_SEED, log_every=0,
    )
    detector = FakeDetector(config)
    start = time.perf_counter()
    detector.fit(bench_dataset, bench_split, sanitize=sanitize)
    return time.perf_counter() - start, detector


def test_sanitizer_overhead(bench_dataset, bench_split):
    # Interleave the three legs within each repeat so slow machine-wide
    # drift (thermal, co-tenant load) biases every leg equally instead of
    # whichever batch ran last; min-of-repeats then drops the noisy runs.
    baseline_runs, disabled_runs, enabled_runs = [], [], []
    sanitizer_stats = None
    for _ in range(REPEATS):
        baseline_runs.append(_fit(bench_dataset, bench_split, sanitize=False)[0])
        disabled_runs.append(_fit(bench_dataset, bench_split, sanitize=False)[0])
        seconds, detector = _fit(bench_dataset, bench_split, sanitize=True)
        enabled_runs.append(seconds)
        sanitizer_stats = detector.sanitizer_stats  # work counters for the report
    baseline = min(baseline_runs)
    disabled = min(disabled_runs)
    enabled = min(enabled_runs)

    report = {
        "repeats": REPEATS,
        "fit_epochs": 4,
        "baseline_seconds": baseline,
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "disabled_ratio": disabled / baseline,
        "enabled_ratio": enabled / baseline,
        "disabled_budget": DISABLED_BUDGET,
        "enabled_budget": ENABLED_BUDGET,
        "sanitizer_stats_per_fit": sanitizer_stats,
    }
    save_bench_run("BENCH_analysis.json", report)

    assert disabled / baseline < DISABLED_BUDGET, report
    assert enabled / baseline < ENABLED_BUDGET, report
