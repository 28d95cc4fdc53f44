"""No-tape forward mode: constant-only ops, zero bookkeeping, exact logits.

The contract under test (docs/performance.md "No-tape inference"):
``repro.autograd.no_tape`` disables every piece of autograd bookkeeping —
no parent tuples, no backward closures, no ``requires_grad`` propagation,
and nothing for the op observers (profilers / sanitizer / flame tags) to
observe — while forward *values* stay bit-identical to the taped path.
``InferenceSession`` runs all its forwards inside the context, and so do
``FakeDetector.predict_logits`` and the ``predict*`` methods. Tape-free
HFLU passes encode in blocks of at most ``BLOCK_ROWS`` rows, with the
bytes of one call and a bounded transient (docs/performance.md
"Bounded-memory inference").
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.autograd import Tensor, no_tape, tape_enabled
from repro.autograd.kernels import gdu_layer
from repro.core import FakeDetector, FakeDetectorConfig
from repro.core import hflu as hflu_module
from repro.core.hflu import BLOCK_ROWS, HFLU
from repro.data import GeneratorConfig, PolitiFactGenerator
from repro.graph.sampling import tri_splits
from repro.obs import BaselineProfile, OpProfiler
from repro.serve import ArticleRequest, InferenceSession


class TestContextSemantics:
    def test_ops_return_constants_inside(self, rng):
        a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        with no_tape():
            assert not tape_enabled()
            out = (a @ a).tanh().sum()
        assert tape_enabled()
        assert out._parents == ()
        assert out._backward is None
        assert not out.requires_grad

    def test_values_match_taped_forward_exactly(self, rng):
        a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        taped = ((a @ b).sigmoid() * 2.0).sum(axis=0)
        with no_tape():
            untaped = ((a @ b).sigmoid() * 2.0).sum(axis=0)
        np.testing.assert_array_equal(taped.data, untaped.data)

    def test_fused_kernel_values_match(self, rng):
        x = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        z = Tensor(rng.standard_normal((3, 4)))
        t = Tensor(rng.standard_normal((3, 4)))
        w_u = Tensor(rng.standard_normal((13, 4)), requires_grad=True)
        b_u = Tensor(rng.standard_normal(4), requires_grad=True)
        taped = gdu_layer(x, z, t, w_u, b_u)
        assert taped.requires_grad
        with no_tape():
            untaped = gdu_layer(x, z, t, w_u, b_u)
        np.testing.assert_array_equal(taped.data, untaped.data)
        assert not untaped.requires_grad

    def test_exception_safe_and_nestable(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(RuntimeError):
            with no_tape():
                with no_tape():
                    assert not tape_enabled()
                assert not tape_enabled()  # inner exit restores outer state
                raise RuntimeError("boom")
        assert tape_enabled()
        assert (a * 2).requires_grad

    def test_profiler_hook_sees_zero_ops(self, rng):
        """Regression: no tape nodes (and no observer events) inside the context."""
        a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        with OpProfiler() as profiler:
            with no_tape():
                ((a @ a).tanh() + 1.0).sum()
        assert profiler.snapshot()["forward"] == {}


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
def requests_batch(fitted):
    _, dataset = fitted
    template = next(iter(dataset.articles.values()))
    return [
        ArticleRequest("q1", "secret rigged hoax conspiracy scandal",
                       template.creator_id, list(template.subject_ids)),
        ArticleRequest("q2", "census report data percent analysis"),
    ]


class TestSessionIntegration:
    def test_full_graph_logits_bit_identical_to_taped_forward(self, fitted):
        """On a trained checkpoint, no_tape changes nothing about the values."""
        detector, _ = fitted
        model = detector.model
        model.eval()
        taped_logits, taped_states = model.forward_with_states(
            detector.features, detector.graph
        )
        with no_tape():
            untaped_logits, untaped_states = model.forward_with_states(
                detector.features, detector.graph
            )
        for kind in taped_logits:
            np.testing.assert_array_equal(
                taped_logits[kind].data, untaped_logits[kind].data
            )
            assert untaped_logits[kind]._backward is None
        for kind in taped_states:
            np.testing.assert_array_equal(
                taped_states[kind].data, untaped_states[kind].data
            )

    def test_session_logits_bit_identical_to_taped_forward(
        self, fitted, requests_batch
    ):
        """The no-tape serving forward reproduces the taped logits exactly."""
        detector, _ = fitted
        session = InferenceSession(detector)
        probs_untaped = np.array(
            [p.proba for p in session.predict(requests_batch, return_proba=True)]
        )
        # Same forward, tape enabled: encode through the same cache, then
        # run the model stack without the no_tape context.
        model = detector.model
        model.eval()
        explicit, sequences = session._encode_batch(
            [r.text for r in requests_batch]
        )
        hidden = model.gdu_article.hidden_dim
        z = np.zeros((len(requests_batch), hidden), model.dtype)
        t = np.zeros((len(requests_batch), hidden), model.dtype)
        for i, req in enumerate(requests_batch):
            rows = [session._subject_rows[s] for s in req.subject_ids
                    if s in session._subject_rows]
            if rows:
                z[i] = session._h_subject[rows].mean(axis=0)
            row = session._creator_rows.get(req.creator_id)
            if row is not None:
                t[i] = session._h_creator[row]
        x = model.hflu_article(explicit, sequences)
        h = model.gdu_article(x, Tensor(z), Tensor(t))
        taped_logits = model.head_article(h)
        assert taped_logits.requires_grad  # this one really is on the tape
        preds = session.predict(requests_batch, return_proba=False)
        np.testing.assert_array_equal(
            np.array([p.class_index for p in preds]),
            taped_logits.data.argmax(axis=1),
        )
        # Bit-identical logits ⇒ bit-identical softmax through the same code
        # (predictions_from_logits takes it in float64).
        from repro.autograd import functional as F

        np.testing.assert_array_equal(
            probs_untaped,
            F.softmax(Tensor(taped_logits.data.astype(np.float64))).data,
        )

    def test_session_creates_no_tape_nodes(self, fitted, requests_batch):
        """Regression: the profiler sees zero ops across init and predict."""
        detector, _ = fitted
        with OpProfiler() as profiler:
            session = InferenceSession(detector)
            session.predict(requests_batch)
            session.predict(requests_batch)  # warm/cached path too
        assert profiler.snapshot()["forward"] == {}


def _mean_oracle(session, requests):
    """Per-article ``mean(axis=0)`` neighbour states, as the taped test builds them."""
    hidden = session.detector.model.gdu_article.hidden_dim
    dtype = session.detector.model.dtype
    z = np.zeros((len(requests), hidden), dtype)
    t = np.zeros((len(requests), hidden), dtype)
    for i, req in enumerate(requests):
        rows = [session._subject_rows[s] for s in req.subject_ids
                if s in session._subject_rows]
        if rows:
            z[i] = session._h_subject[rows].mean(axis=0)
        row = session._creator_rows.get(req.creator_id)
        if row is not None:
            t[i] = session._h_creator[row]
    return z, t


class TestNeighbourStates:
    """The batched gather equals the per-article mean, bit for bit."""

    @pytest.fixture()
    def mixed_requests(self, fitted):
        detector, dataset = fitted
        subjects = sorted(detector.features.subjects.index)
        creators = sorted(detector.features.creators.index)
        template = next(iter(dataset.articles.values()))
        return [
            ArticleRequest("dup", "a", creators[0],
                           [subjects[0], subjects[1], subjects[0]]),
            ArticleRequest("unknown", "b", "no_such_creator",
                           ["no_such_subject", subjects[2]]),
            ArticleRequest("only_unknown", "c", "", ["no_such_subject"]),
            ArticleRequest("absent", "d", creators[1]),
            ArticleRequest("all", "e", creators[-1], list(subjects)),
            ArticleRequest("training", template.text, template.creator_id,
                           list(template.subject_ids)),
        ]

    def _assert_matches_oracle(self, session, requests):
        z, t = session._neighbour_states(requests)
        z_ref, t_ref = _mean_oracle(session, requests)
        assert z.tobytes() == z_ref.tobytes()
        assert t.tobytes() == t_ref.tobytes()
        return z, t

    def test_full_context(self, fitted, mixed_requests):
        detector, _ = fitted
        z, t = self._assert_matches_oracle(InferenceSession(detector), mixed_requests)
        assert not z[2].any() and not z[3].any()  # no known subject
        assert not t[1].any() and not t[2].any()  # no known creator
        assert z[0].any() and t[0].any()

    def test_shard_restricted_context(self, fitted, mixed_requests):
        from repro.serve import ShardPlan

        detector, _ = fitted
        plan = ShardPlan.from_detector(detector, 2)
        for shard in range(2):
            session = InferenceSession(
                detector, context_ids=plan.context_ids(shard)
            )
            self._assert_matches_oracle(session, mixed_requests)

    def test_single_and_empty_batches(self, fitted, mixed_requests):
        detector, _ = fitted
        session = InferenceSession(detector)
        for request in mixed_requests:
            self._assert_matches_oracle(session, [request])
        z, t = session._neighbour_states([])
        assert z.shape == t.shape == (0, detector.model.gdu_article.hidden_dim)


# ----------------------------------------------------------------------
# Tape-free entry points and blocked encoding
# ----------------------------------------------------------------------
class TestTapeFreeEntryPoints:
    """The detector's inference methods record no tape."""

    def test_predict_methods_record_no_ops(self, fitted):
        detector, _ = fitted
        with OpProfiler() as profiler:
            detector.predict_logits()
            detector.predict("article")
            detector.predict_proba("creator")
            detector._validation_accuracy(np.arange(10))
            BaselineProfile.from_detector(detector)
        assert profiler.snapshot()["forward"] == {}

    def test_predict_logits_equal_a_taped_forward(self, fitted):
        detector, _ = fitted
        detector.model.eval()
        taped = detector.model(detector.features, detector.graph)
        assert taped["article"].requires_grad
        got = detector.predict_logits()
        for kind, logits in taped.items():
            assert got[kind].tobytes() == logits.data.tobytes()


CELLS = ("gru", "lstm", "bigru", "rnn", "cnn")


def float32_hflu(cell: str) -> HFLU:
    """An article HFLU at the default widths (a smaller vocabulary)."""
    return HFLU(400, 16, 24, 16, rng=np.random.default_rng(1), rnn_cell=cell).astype(
        np.float32
    )


def hflu_inputs(n: int, seed: int = 0):
    """``n`` float32 explicit rows and ragged, zero-padded sequences."""
    rng = np.random.default_rng(seed)
    explicit = rng.random((n, 40)).astype(np.float32)
    sequences = rng.integers(1, 400, (n, 30))
    sequences[np.arange(30) >= rng.integers(0, 31, n)[:, None]] = 0
    return explicit, sequences


def transient_bytes(hflu: HFLU, n: int) -> int:
    """Traced peak of a tape-free pass over ``n`` rows, less what it keeps."""
    explicit, sequences = hflu_inputs(n)
    tracemalloc.start()
    try:
        with no_tape():
            out = hflu(explicit, sequences)
        _, peak = tracemalloc.get_traced_memory()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (n, 56)
    return peak - retained


class TestBlockedEncoding:
    @pytest.mark.parametrize("cell", CELLS)
    def test_blocks_give_the_bytes_of_one_taped_call(self, cell):
        """2·B + 1 rows, so a fixed-size split would leave a one-row block."""
        n = 2 * BLOCK_ROWS + 1
        hflu = float32_hflu(cell)
        explicit, sequences = hflu_inputs(n)
        taped = hflu(explicit, sequences)
        assert taped.requires_grad
        with no_tape():
            blocked = hflu(explicit, sequences).data
        assert blocked.dtype == np.float32
        assert blocked.tobytes() == taped.data.tobytes()

    def test_transient_memory_does_not_grow_with_rows(self):
        hflu = float32_hflu("gru")
        transient_bytes(hflu, 8)  # first-call allocations stay out of the peaks
        one = transient_bytes(hflu, BLOCK_ROWS)
        eight = transient_bytes(hflu, 8 * BLOCK_ROWS)
        assert eight <= 2 * one, (one, eight)


@pytest.fixture(scope="module")
def fitted_large():
    """A fit at the default widths on more than 2·B articles."""
    dataset = PolitiFactGenerator(GeneratorConfig(
        num_articles=600, num_creators=40, num_subjects=15, seed=5,
        include_case_studies=False,
    )).generate()
    split = next(tri_splits(
        sorted(dataset.articles), sorted(dataset.creators),
        sorted(dataset.subjects), k=5, seed=0,
    ))
    config = FakeDetectorConfig(epochs=2, explicit_dim=40, vocab_size=400, seed=3)
    detector = FakeDetector(config).fit(dataset, split)
    assert detector.features.articles.num > 2 * BLOCK_ROWS
    return detector


class TestBlockedFullGraph:
    """Blocked full-graph passes equal an unblocked pass, byte for byte."""

    @staticmethod
    def unblocked(detector, monkeypatch, compute):
        with monkeypatch.context() as patch:
            patch.setattr(hflu_module, "BLOCK_ROWS", detector.features.articles.num)
            return compute()

    def test_predict_logits(self, fitted_large, monkeypatch):
        blocked = fitted_large.predict_logits()
        reference = self.unblocked(fitted_large, monkeypatch, fitted_large.predict_logits)
        for kind, logits in reference.items():
            assert blocked[kind].tobytes() == logits.tobytes()

    def test_session_cached_logits_and_states(self, fitted_large, monkeypatch):
        blocked = InferenceSession(fitted_large)
        reference = self.unblocked(
            fitted_large, monkeypatch, lambda: InferenceSession(fitted_large)
        )
        for kind, logits in reference._graph_logits.items():
            assert blocked._graph_logits[kind].tobytes() == logits.tobytes()
        assert blocked._h_creator.tobytes() == reference._h_creator.tobytes()
        assert blocked._h_subject.tobytes() == reference._h_subject.tobytes()
