"""Training throughput: fused sequence kernels vs the unrolled tape.

The HFLU latent branch is the training hot path: unrolled, every timestep
of every node type emits ~10 tape nodes, so a full-graph epoch is tens of
thousands of Python closures. The fused kernels (repro.autograd.kernels)
collapse each recurrence into one tape node with a hand-written BPTT
backward. What that buys depends on how much of an epoch the recurrence
is, so this benchmark measures two regimes on synthetic News-HSNs (the
unrolled arm is the per-timestep reference in ``tests/training_oracles.py``,
patched in for its fits):

- **document regime** (gated): long article bodies through a
  bidirectional encoder — the per-timestep tape overhead the kernels
  remove dominates the epoch, and fused mode must deliver at least
  ``SPEEDUP_BUDGET``× the unrolled full-batch steps/sec;
- **statement regime** (informational): the default short-statement
  corpus at larger batch, where numpy FLOPs shared by both paths bound
  the end-to-end win. Reported in the artifact, not gated.

Also recorded: **tape nodes per epoch** in each mode (counted by the op
profiler in a separate instrumented run) and **equivalence** — the two
modes' loss curves must agree, because a speedup that changes the
optimization trajectory would be a bug, not a win.

Writes ``results/BENCH_training.json`` and a ``kind="benchmark"`` run
record so ``repro obs diff`` can regression-gate future kernel changes.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from conftest import BENCH_SEED, save_bench_run

from repro.core import FakeDetector, FakeDetectorConfig
from repro.data import GeneratorConfig, PolitiFactGenerator
from repro.graph.sampling import tri_splits
from repro.obs import OpProfiler

from tests import training_oracles as ref

REPEATS = int(os.environ.get("REPRO_BENCH_KERNEL_REPEATS", "3"))
EPOCHS = 3
SPEEDUP_BUDGET = 2.5

#: (generator kwargs, detector kwargs) per regime. The document regime
#: pairs long bodies (mean 60 tokens vs the statement default 22) with the
#: bidirectional cell, where the unrolled tape pays per timestep twice.
REGIMES = {
    "document": (
        dict(scale=0.005, mean_article_length=60.0, min_article_length=30),
        dict(max_seq_len=48, rnn_cell="bigru"),
    ),
    "statement": (
        dict(scale=0.02),
        dict(max_seq_len=16, rnn_cell="gru"),
    ),
}


@pytest.fixture(scope="module", params=sorted(REGIMES))
def regime(request):
    gen_kwargs, model_kwargs = REGIMES[request.param]
    dataset = PolitiFactGenerator(
        GeneratorConfig(seed=BENCH_SEED, **gen_kwargs)
    ).generate()
    split = next(
        tri_splits(
            sorted(dataset.articles),
            sorted(dataset.creators),
            sorted(dataset.subjects),
            k=10,
            seed=0,
        )
    )
    return request.param, dataset, split, model_kwargs


def _config(model_kwargs: dict) -> FakeDetectorConfig:
    return FakeDetectorConfig(
        epochs=EPOCHS, explicit_dim=60, vocab_size=2000,
        seed=BENCH_SEED, **model_kwargs,
    )


def _fit(dataset, split, fused: bool, model_kwargs: dict) -> FakeDetector:
    """One fit, on the fused kernels or through the unrolled oracle."""
    with pytest.MonkeyPatch.context() as patch:
        if not fused:
            ref.patch_unrolled(patch)
        return FakeDetector(_config(model_kwargs)).fit(dataset, split)


def _steps_per_sec(record) -> float:
    return len(record.total) / record.total_seconds


def _tape_nodes_per_epoch(dataset, split, fused: bool, model_kwargs) -> float:
    """Forward tape-op invocations per epoch, via the op profiler."""
    with OpProfiler() as profiler:
        _fit(dataset, split, fused, model_kwargs)
    snapshot = profiler.snapshot()
    forward_calls = sum(
        entry["calls"] for entry in snapshot["forward"].values()
    )
    return forward_calls / EPOCHS


def test_training_throughput(regime):
    name, dataset, split, model_kwargs = regime
    runs = {True: [], False: []}
    for _ in range(REPEATS):
        for fused in (True, False):
            runs[fused].append(_fit(dataset, split, fused, model_kwargs))

    fused_sps = max(_steps_per_sec(d.record) for d in runs[True])
    unrolled_sps = max(_steps_per_sec(d.record) for d in runs[False])
    speedup = fused_sps / unrolled_sps

    # Equivalence, asserted in-benchmark: identical seeds must produce the
    # same loss trajectory in both modes (the kernels are a pure speedup).
    fused_curve = np.asarray(runs[True][0].record.total)
    unrolled_curve = np.asarray(runs[False][0].record.total)
    np.testing.assert_allclose(fused_curve, unrolled_curve, rtol=1e-6, atol=1e-8)

    fused_nodes = _tape_nodes_per_epoch(dataset, split, True, model_kwargs)
    unrolled_nodes = _tape_nodes_per_epoch(dataset, split, False, model_kwargs)

    gated = name == "document"
    report = {
        "regime": name,
        "gated": gated,
        "repeats": REPEATS,
        "fit_epochs": EPOCHS,
        "num_articles": dataset.num_articles,
        "rnn_cell": model_kwargs["rnn_cell"],
        "max_seq_len": model_kwargs["max_seq_len"],
        "fused_steps_per_sec": fused_sps,
        "unrolled_steps_per_sec": unrolled_sps,
        "speedup": speedup,
        "speedup_budget": SPEEDUP_BUDGET if gated else None,
        "fused_tape_nodes_per_epoch": fused_nodes,
        "unrolled_tape_nodes_per_epoch": unrolled_nodes,
        "tape_node_reduction": unrolled_nodes / max(1.0, fused_nodes),
        "loss_curves_equivalent": True,
        "loss_curve_fused": fused_curve.tolist(),
        "loss_curve_unrolled": unrolled_curve.tolist(),
    }
    save_bench_run(
        f"BENCH_training_{name}.json" if not gated else "BENCH_training.json",
        report,
        config={
            "epochs": EPOCHS, "seed": BENCH_SEED, "regime": name,
            **model_kwargs,
        },
    )

    # Node-tape collapse grows with sequence length; the informational
    # short-statement regime still must shrink the tape materially.
    assert fused_nodes < unrolled_nodes / (5 if gated else 2), report
    if gated:
        assert speedup >= SPEEDUP_BUDGET, report
