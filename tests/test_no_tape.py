"""No-tape forward mode: constant-only ops, zero bookkeeping, exact logits.

The contract under test (docs/performance.md "No-tape inference"):
``repro.autograd.no_tape`` disables every piece of autograd bookkeeping —
no parent tuples, no backward closures, no ``requires_grad`` propagation,
and nothing for the op observers (profilers / sanitizer / flame tags) to
observe — while forward *values* stay bit-identical to the taped path.
``InferenceSession`` runs all its forwards inside the context.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor, no_tape, tape_enabled
from repro.autograd.kernels import gdu_layer
from repro.core import FakeDetector, FakeDetectorConfig
from repro.obs import OpProfiler
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
        z = np.zeros((len(requests_batch), hidden))
        t = np.zeros((len(requests_batch), hidden))
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
        # Bit-identical logits ⇒ bit-identical softmax through the same code.
        from repro.autograd import functional as F

        np.testing.assert_array_equal(
            probs_untaped, F.softmax(Tensor(taped_logits.data)).data
        )

    def test_session_creates_no_tape_nodes(self, fitted, requests_batch):
        """Regression: the profiler sees zero ops across init and predict."""
        detector, _ = fitted
        with OpProfiler() as profiler:
            session = InferenceSession(detector)
            session.predict(requests_batch)
            session.predict(requests_batch)  # warm/cached path too
        assert profiler.snapshot()["forward"] == {}
