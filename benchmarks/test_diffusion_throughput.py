"""Full-graph diffusion throughput: fused gdu_layer vs the unrolled GDU tape.

``BENCH_training`` times whole fits, where the HFLU recurrence dominates.
This benchmark isolates what PR 10 adds on top: the fused **GDU** kernel
(``repro.autograd.kernels.gdu_layer``) that collapses the ~25-node unrolled
gate/candidate/mixture subgraph into one tape node per GDU call, and the
**no-tape** forward mode used by the serving path. On the standard bench
corpus, with one trained checkpoint shared between modes, it measures:

- **full-graph pass** (gated): one ``forward_with_states`` over the entire
  News-HSN — the pass ``InferenceSession`` runs at startup and the one a
  dynamic-graph deployment re-runs on every update — fused vs unrolled.
  The two arms are timed interleaved (so machine-load spikes hit both) and
  the gated statistic is the **median of the pairwise per-iteration
  ratios**, which is robust to a single noisy iteration in a way
  best-of-N ratios are not; it must clear ``SPEEDUP_BUDGET``×;
- **diffusion tape nodes** (gated): op-profiler forward-call counts around
  ``model.diffuse`` alone (HFLU features precomputed off-tape), which must
  shrink by at least ``TAPE_REDUCTION_BUDGET``×;
- **training-shaped pass** (informational): forward + article
  cross-entropy + ``backward``, where the shared fused-GRU BPTT bounds the
  end-to-end win (that regime is gated by ``BENCH_training`` already);
- **no-tape forward** (informational): the same full-graph forward inside
  ``repro.autograd.no_tape``, the mode ``InferenceSession`` runs in.

The unrolled arm runs the per-gate and per-timestep references in
``tests/training_oracles.py``, patched in around each of its passes.
Both timed arms run the float32 model. Equivalence is asserted
in-benchmark on a float64 copy of the same weights and features (float64
is the reference dtype of the oracles): the fused path and the unrolled
oracle must produce logits within 1e-12 and the same article loss — a
speedup that moves the numbers would be a bug, not a win. (In float32
the two paths round differently, by about 4e-7 on the bench corpus.)

Writes ``results/BENCH_diffusion.json`` and a ``kind="benchmark"`` run
record so ``repro obs diff`` can regression-gate future kernel changes.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np
import pytest

from conftest import BENCH_SEED, save_bench_run

from repro.autograd import Tensor, no_tape
from repro.autograd import functional as F
from repro.core import FakeDetector, FakeDetectorConfig
from repro.core.model import FakeDetectorModel
from repro.core.pipeline import with_explicit_dtype
from repro.obs import OpProfiler

from tests import training_oracles as ref

REPEATS = int(os.environ.get("REPRO_BENCH_DIFFUSION_REPEATS", "9"))
SPEEDUP_BUDGET = 2.0
TAPE_REDUCTION_BUDGET = 2.0
EPOCHS = 2


@pytest.fixture(scope="module")
def trained(bench_dataset, bench_split):
    """One short fit (fused) whose checkpoint both modes share.

    ``diffusion_iterations=4`` weights the pass toward the diffusion loop
    under measure (the paper sweeps the round count; the fixed HFLU encode
    is the same work in both arms and is gated by ``BENCH_training``).
    """
    config = FakeDetectorConfig(
        epochs=EPOCHS, explicit_dim=60, vocab_size=2000, max_seq_len=16,
        diffusion_iterations=4, seed=BENCH_SEED,
    )
    return FakeDetector(config).fit(bench_dataset, bench_split)


def _clone_model(detector: FakeDetector) -> FakeDetectorModel:
    """A fresh model holding the trained weights."""
    config = detector.config
    explicit_dims = {
        "article": detector.features.articles.explicit.shape[1],
        "creator": detector.features.creators.explicit.shape[1],
        "subject": detector.features.subjects.explicit.shape[1],
    }
    model = FakeDetectorModel(
        config, rng=np.random.default_rng(config.seed),
        explicit_dims=explicit_dims, vocab_rows=len(detector.features.vocab),
    )
    model.load_state_dict(detector.model.state_dict())
    model.eval()
    return model


@contextlib.contextmanager
def _unrolled():
    """Run the encoders and GDUs through the unrolled oracle inside."""
    with pytest.MonkeyPatch.context() as patch:
        ref.patch_unrolled(patch)
        yield


def _labeled_articles(detector: FakeDetector) -> np.ndarray:
    return np.flatnonzero(detector.features.articles.labels >= 0)


def _timed_forward(model, detector, untaped: bool = False):
    """One timed full-graph forward; returns (seconds, logits)."""
    start = time.perf_counter()
    if untaped:
        with no_tape():
            logits, _ = model.forward_with_states(
                detector.features, detector.graph
            )
    else:
        logits, _ = model.forward_with_states(detector.features, detector.graph)
    return time.perf_counter() - start, logits


def _best_forward_seconds(model, detector, untaped: bool = False):
    """Best-of-REPEATS full-graph forward; returns (seconds, logits)."""
    best, logits = np.inf, None
    for _ in range(REPEATS):
        seconds, logits = _timed_forward(model, detector, untaped)
        best = min(best, seconds)
    return best, logits


def _best_train_pass_seconds(model, detector, rows) -> float:
    """Best-of-REPEATS forward + article loss + backward (informational)."""
    labels = detector.features.articles.labels[rows]
    best = np.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        logits, _ = model.forward_with_states(detector.features, detector.graph)
        loss = F.cross_entropy(logits["article"][rows], labels)
        loss.backward()
        model.zero_grad()
        best = min(best, time.perf_counter() - start)
    return best


def _article_loss(detector, logits, rows) -> float:
    labels = detector.features.articles.labels[rows]
    return float(F.cross_entropy(Tensor(logits["article"].data[rows]), labels).data)


def _diffusion_tape_nodes(model, detector) -> float:
    """Forward tape-op invocations of the diffusion portion alone."""
    features, graph = detector.features, detector.graph
    with no_tape():
        x_n = model.hflu_article(features.articles.explicit, features.articles.sequences)
        x_u = model.hflu_creator(features.creators.explicit, features.creators.sequences)
        x_s = model.hflu_subject(features.subjects.explicit, features.subjects.sequences)
    x_n = Tensor(x_n.data, requires_grad=True)
    x_u = Tensor(x_u.data, requires_grad=True)
    x_s = Tensor(x_s.data, requires_grad=True)
    with OpProfiler() as profiler:
        model.diffuse(x_n, x_u, x_s, graph)
    return float(
        sum(entry["calls"] for entry in profiler.snapshot()["forward"].values())
    )


def test_diffusion_throughput(trained, bench_dataset):
    rows = _labeled_articles(trained)
    fused = _clone_model(trained)
    unrolled = _clone_model(trained)

    # Interleave the two arms so machine-load spikes hit both equally, and
    # warm each model (allocator, caches) before the timed repeats.
    _timed_forward(fused, trained)
    with _unrolled():
        _timed_forward(unrolled, trained)
    fused_times, unrolled_times = [], []
    for _ in range(REPEATS):
        fused_times.append(_timed_forward(fused, trained)[0])
        with _unrolled():
            unrolled_times.append(_timed_forward(unrolled, trained)[0])
    fused_secs = float(np.median(fused_times))
    unrolled_secs = float(np.median(unrolled_times))
    speedup = float(np.median(np.array(unrolled_times) / np.array(fused_times)))

    # Equivalence: same checkpoint, same numbers, in every head. Both paths
    # run one float64 copy of the weights and features, so the tolerance
    # measures the paths and not float32 rounding.
    reference = _clone_model(trained).astype(np.float64)
    features64 = with_explicit_dtype(trained.features, np.float64)
    fused_logits, _ = reference.forward_with_states(features64, trained.graph)
    with _unrolled():
        unrolled_logits, _ = reference.forward_with_states(
            features64, trained.graph
        )
    max_diff = 0.0
    for kind in fused_logits:
        assert fused_logits[kind].data.dtype == np.float64
        diff = np.abs(fused_logits[kind].data - unrolled_logits[kind].data)
        max_diff = max(max_diff, float(diff.max()))
        np.testing.assert_allclose(
            fused_logits[kind].data, unrolled_logits[kind].data,
            rtol=0, atol=1e-12,
        )
    fused_loss = _article_loss(trained, fused_logits, rows)
    unrolled_loss = _article_loss(trained, unrolled_logits, rows)
    np.testing.assert_allclose(fused_loss, unrolled_loss, rtol=1e-12, atol=0)

    fused_nodes = _diffusion_tape_nodes(fused, trained)
    with _unrolled():
        unrolled_nodes = _diffusion_tape_nodes(unrolled, trained)
    reduction = unrolled_nodes / max(1.0, fused_nodes)

    notape_secs, _ = _best_forward_seconds(fused, trained, untaped=True)
    fused_train_secs = _best_train_pass_seconds(fused, trained, rows)
    with _unrolled():
        unrolled_train_secs = _best_train_pass_seconds(unrolled, trained, rows)

    report = {
        "repeats": REPEATS,
        "timing_statistic": "median of interleaved pairwise ratios",
        "num_articles": bench_dataset.num_articles,
        "diffusion_iterations": trained.config.diffusion_iterations,
        "fused_pass_seconds": fused_secs,
        "unrolled_pass_seconds": unrolled_secs,
        "speedup": speedup,
        "speedup_budget": SPEEDUP_BUDGET,
        "fused_diffusion_tape_nodes": fused_nodes,
        "unrolled_diffusion_tape_nodes": unrolled_nodes,
        "diffusion_tape_node_reduction": reduction,
        "tape_reduction_budget": TAPE_REDUCTION_BUDGET,
        "no_tape_pass_seconds": notape_secs,
        "fused_train_pass_seconds": fused_train_secs,
        "unrolled_train_pass_seconds": unrolled_train_secs,
        "train_pass_speedup": unrolled_train_secs / fused_train_secs,
        "loss_fused": fused_loss,
        "loss_unrolled": unrolled_loss,
        "equivalence_dtype": "float64",
        "logits_max_abs_diff": max_diff,
        "losses_equivalent": True,
    }
    save_bench_run(
        "BENCH_diffusion.json",
        report,
        config={
            "epochs": EPOCHS, "seed": BENCH_SEED, "max_seq_len": 16,
            "explicit_dim": 60, "vocab_size": 2000,
        },
    )

    assert reduction >= TAPE_REDUCTION_BUDGET, report
    assert speedup >= SPEEDUP_BUDGET, report
