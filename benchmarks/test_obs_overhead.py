"""Observability overhead: instrumented fit() vs the obs-off fast path.

The ``repro.obs`` instrumentation is permanently woven into the hot paths
(trainer epochs/steps, every autograd op); when no tracer or profiler is
installed each touch point is one global read and one test.
This benchmark quantifies that claim on a real training run:

- **baseline**: ``FakeDetector.fit`` with no tracer and no profiler — the
  fast path every non-observed run takes;
- **disabled**: identical (the obs-off path *is* the baseline; measured
  twice to bound timing noise — the acceptance bar is <2% regression);
- **enabled**: fit under an installed :class:`Tracer` *and* a running
  :class:`OpProfiler` — the full-cost path, budgeted at <10%.

The three legs run interleaved within each repeat, so slow machine-wide
drift biases every leg equally, and timings take the min over
``REPRO_BENCH_OBS_REPEATS`` repeats (default 3), so one scheduler hiccup
cannot fail the bar. Writes ``results/BENCH_obs.json``.
"""

from __future__ import annotations

import os
import time

from conftest import BENCH_SEED, save_bench_run

from repro.core import FakeDetector, FakeDetectorConfig
from repro.obs import OpProfiler, Tracer, install_tracer, uninstall_tracer

REPEATS = int(os.environ.get("REPRO_BENCH_OBS_REPEATS", "3"))
DISABLED_BUDGET = 1.02   # obs-off regression vs baseline: <2%
ENABLED_BUDGET = 1.10    # tracer + profiler installed: <10%


def _fit_seconds(bench_dataset, bench_split) -> float:
    config = FakeDetectorConfig(
        epochs=4, explicit_dim=60, vocab_size=2000, max_seq_len=16,
        seed=BENCH_SEED,
    )
    detector = FakeDetector(config)
    start = time.perf_counter()
    detector.fit(bench_dataset, bench_split)
    return time.perf_counter() - start


def test_obs_overhead(bench_dataset, bench_split, tmp_path):
    uninstall_tracer()  # belt and braces: start from the fast path

    baseline_runs, disabled_runs, enabled_runs = [], [], []
    op_calls = 0.0
    for i in range(REPEATS):
        baseline_runs.append(_fit_seconds(bench_dataset, bench_split))
        disabled_runs.append(_fit_seconds(bench_dataset, bench_split))

        tracer = install_tracer(Tracer(tmp_path / f"bench_trace_{i}.jsonl"))
        profiler = OpProfiler().start()
        try:
            enabled_runs.append(_fit_seconds(bench_dataset, bench_split))
        finally:
            profiler.stop()
            uninstall_tracer()
            tracer.close()
        snap = profiler.snapshot()
        op_calls = sum(
            entry["calls"] for phase in snap.values() for entry in phase.values()
        )
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
        "profiled_op_calls_per_fit": op_calls,
    }
    save_bench_run("BENCH_obs.json", report)

    assert disabled / baseline < DISABLED_BUDGET, report
    assert enabled / baseline < ENABLED_BUDGET, report
