"""FakeDetector trains and serves in float32; a float64 module stays float64.

The op observer registry (:func:`repro.autograd.tensor.add_op_observer`)
sees every op output and backward gradient of a fit, so a site that
silently upcasts to float64 (numpy 2 promotes float32 against a 0-d float64
array or an ``np.float64``) shows up here as a float64 dtype. The two
dtypes are then compared on one minibatch step with the same weights.

Every tolerance below is fixed from float32's machine epsilon.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.analysis import ContractChecker
from repro.autograd import Dropout, Tensor, optim, where
from repro.autograd import functional as F
from repro.autograd.serialization import load_arrays, save_arrays
from repro.autograd.tensor import add_op_observer, no_tape, remove_op_observer
from repro.core import FakeDetector, FakeDetectorConfig
from repro.data import GeneratorConfig, PolitiFactGenerator
from repro.core.model import COMPUTE_DTYPE, FakeDetectorModel
from repro.core.pipeline import subgraph_view, with_explicit_dtype
from repro.serve import ArticleRequest, InferenceSession
from repro.serve import session as session_module
from repro.graph.sampling import tri_splits

#: 1024 float32 ulps of 1: the agreement asked of float32 and float64 runs
#: of the same step, relative to each array's largest magnitude.
TOL = 2.0 ** 10 * np.finfo(np.float32).eps

TOY = dict(
    epochs=2, explicit_dim=20, vocab_size=300, max_seq_len=8, embed_dim=4,
    rnn_hidden=6, latent_dim=4, gdu_hidden=8, seed=13,
)


class DtypeRecorder:
    """Op observer: the dtypes of every op's output and gradients, per op."""

    def __init__(self):
        self.seen = {"forward": {}, "backward": {}}

    def enter(self, op, phase):
        pass

    def exit(self, op, phase, payload):
        if payload is None:
            return
        if phase == "forward":
            dtypes = {str(payload.data.dtype)}
        else:
            dtypes = {str(np.asarray(g).dtype) for g in payload if g is not None}
        self.seen[phase].setdefault(op, set()).update(dtypes)

    def dtypes(self, phase) -> set:
        return set().union(*self.seen[phase].values())

    def __enter__(self):
        add_op_observer(self)
        return self

    def __exit__(self, *exc):
        remove_op_observer(self)


@pytest.fixture(scope="module")
def fitted(request):
    dataset = request.getfixturevalue("tiny_dataset")
    split = request.getfixturevalue("tiny_split")
    return FakeDetector(FakeDetectorConfig(**TOY)).fit(dataset, split), dataset


def bulk_requests(dataset, n=64):
    """``n`` requests over the corpus texts (each text once per id)."""
    articles = [dataset.articles[a] for a in sorted(dataset.articles)]
    requests = []
    for i in range(n):
        article = articles[i % len(articles)]
        creator = article.creator_id if i % 5 else "unknown_creator"
        requests.append(ArticleRequest(
            f"q{i}", article.text + " " * (i // len(articles)), creator,
            list(article.subject_ids),
        ))
    return requests


def explicit_dims(detector):
    return {
        kind: detector.features.by_type(kind).explicit.shape[1]
        for kind in ("article", "creator", "subject")
    }


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "overrides",
    [{}, dict(batch_size=16), dict(class_weighted_loss=True),
     dict(fused_kernels=False)],
    ids=["full_batch", "minibatch", "class_weighted", "unrolled"],
)
def test_fit_computes_only_in_float32(overrides, tiny_dataset, tiny_split, monkeypatch):
    adams = []

    class RecordingAdam(optim.Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            adams.append(self)

    monkeypatch.setattr(optim, "Adam", RecordingAdam)
    config = FakeDetectorConfig(**TOY, **overrides)
    with DtypeRecorder() as recorder:
        detector = FakeDetector(config).fit(tiny_dataset, tiny_split)
    assert "l2_regularization" in recorder.seen["backward"]
    assert recorder.dtypes("forward") == {"float32"}, recorder.seen["forward"]
    assert recorder.dtypes("backward") == {"float32"}, recorder.seen["backward"]

    assert detector.model.dtype == COMPUTE_DTYPE == np.float32
    for name, param in detector.model.named_parameters():
        assert param.data.dtype == np.float32, name
        assert param.grad is not None and param.grad.dtype == np.float32, name
    (adam,) = adams
    for m, v, scratch in zip(adam._m, adam._v, adam._scratch):
        assert m.dtype == v.dtype == np.float32
        assert {s.dtype for s in scratch} == {np.dtype(np.float32)}
    for kind in ("article", "creator", "subject"):
        assert detector.features.by_type(kind).explicit.dtype == np.float32


def test_ops_outside_the_model_keep_float32():
    """Scalar operands, ``where``, dropout and the hinge loss stay float32."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
    signs = np.sign(rng.standard_normal((4, 3)))
    with DtypeRecorder() as recorder:
        outs = [
            1.0 - x, x / 2, 2 / x, x * np.float64(3.0), x ** 2,
            where(x.data > 0, x, 0.0), where(x.data > 0, 0.5, x),
            Dropout(0.5, rng=rng)(x), F.hinge_loss(x, signs),
        ]
        total = outs[0].sum()
        for out in outs[1:]:
            total = total + out.sum()
        total.backward()
    assert recorder.dtypes("forward") == {"float32"}, recorder.seen["forward"]
    assert recorder.dtypes("backward") == {"float32"}, recorder.seen["backward"]
    assert x.grad.dtype == np.float32


def test_float64_module_stays_float64(fitted):
    """A FakeDetectorModel cast to float64 computes and trains in float64."""
    detector, _ = fitted
    model = FakeDetectorModel(
        detector.config, explicit_dims=explicit_dims(detector)
    ).astype(np.float64)
    model.load_state_dict(detector.model.state_dict())
    features = with_explicit_dtype(detector.features, np.float64)
    rows = {
        kind: np.flatnonzero(features.by_type(kind).labels >= 0)
        for kind in ("article", "creator", "subject")
    }
    params = list(model.parameters())
    adam = optim.Adam(params)
    with DtypeRecorder() as recorder:
        logits = model(features, detector.graph)
        total, _ = detector._joint_loss(logits, features, rows, params)
        total.backward()
    adam.step()
    assert recorder.dtypes("forward") == {"float64"}, recorder.seen["forward"]
    assert recorder.dtypes("backward") == {"float64"}, recorder.seen["backward"]
    assert model.dtype == np.float64
    for param, m in zip(params, adam._m):
        assert param.data.dtype == param.grad.dtype == m.dtype == np.float64


def test_minibatch_step_agrees_across_dtypes(fitted):
    """One step on the same weights: float32 matches float64 in loss and grads."""
    detector, _ = fitted
    article_rows = np.flatnonzero(detector.features.articles.labels >= 0)[:16]
    sub, sub_graph = subgraph_view(detector.features, detector.graph, article_rows)
    rows = {
        kind: np.flatnonzero(sub.by_type(kind).labels >= 0)
        for kind in ("article", "creator", "subject")
    }
    state = detector.model.state_dict()

    def step(dtype):
        model = FakeDetectorModel(
            detector.config, explicit_dims=explicit_dims(detector)
        ).astype(dtype)
        model.load_state_dict(state)
        features = with_explicit_dtype(sub, dtype)
        params = list(model.parameters())
        logits = model(features, sub_graph)
        total, _ = detector._joint_loss(logits, features, rows, params)
        total.backward()
        return total.item(), dict(model.named_parameters())

    loss32, params32 = step(np.float32)
    loss64, params64 = step(np.float64)
    assert loss32 == pytest.approx(loss64, rel=TOL)
    for name, p64 in params64.items():
        g32, g64 = params32[name].grad, p64.grad
        assert g32.dtype == np.float32 and g64.dtype == np.float64, name
        np.testing.assert_allclose(
            g32, g64, rtol=TOL, atol=TOL * np.abs(g64).max(), err_msg=name
        )


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def test_served_batch_computes_only_in_float32(fitted, monkeypatch):
    """The serving forward, observed with its tape switched on.

    Without probabilities: their softmax is float64 by design.
    """
    detector, dataset = fitted
    monkeypatch.setattr(session_module, "no_tape", contextlib.nullcontext)
    with DtypeRecorder() as recorder:
        session = InferenceSession(detector)
        session.predict(bulk_requests(dataset))
    assert {"gru_hidden_sum", "gdu_layer"} <= set(recorder.seen["forward"])
    assert recorder.dtypes("forward") == {"float32"}, recorder.seen["forward"]


@pytest.fixture(scope="module")
def fitted_wide():
    """A fit with the default model widths on a corpus of 150 articles.

    The batch-composition pins below depend on which BLAS kernels the
    matmuls reach, so they run at the widths that are trained and served.
    """
    dataset = PolitiFactGenerator(GeneratorConfig(
        num_articles=150, num_creators=20, num_subjects=12, seed=7,
        include_case_studies=False,
    )).generate()
    split = next(tri_splits(
        sorted(dataset.articles), sorted(dataset.creators),
        sorted(dataset.subjects), k=5, seed=0,
    ))
    config = FakeDetectorConfig(epochs=2, explicit_dim=40, vocab_size=400, seed=3)
    return FakeDetector(config).fit(dataset, split), dataset


def test_article_hflu_rows_do_not_depend_on_batch_width(fitted_wide):
    """An article's HFLU row is the same bytes whatever else is batched with it."""
    detector, _ = fitted_wide
    articles = detector.features.articles
    hflu = detector.model.hflu_article
    n = len(articles.ids)
    assert n > 64
    with no_tape():
        whole = hflu(articles.explicit, articles.sequences).data
        assert whole.dtype == np.float32
        for width in (1, 2, 3, 64):
            for start in range(0, n, width):
                rows = slice(start, start + width)
                part = hflu(articles.explicit[rows], articles.sequences[rows]).data
                np.testing.assert_array_equal(
                    part, whole[rows], err_msg=f"width {width}, rows from {start}"
                )


def test_served_probabilities_do_not_depend_on_batch_composition(fitted_wide):
    """64 requests alone and inside a 200-article batch: the same bytes.

    Narrower served batches are not pinned. At width 1 a batch with one
    cache miss takes ``transform_one``, which may differ from the batched
    path in the last bit (see ``InferenceSession._encode_batch``), and at
    widths 2 and 3 the article head's matmul rounds differently.
    """
    detector, dataset = fitted_wide
    requests = bulk_requests(dataset, n=200)
    whole = InferenceSession(detector).predict(requests, return_proba=True)
    for start in (0, 64, 136):
        part = InferenceSession(detector).predict(
            requests[start : start + 64], return_proba=True
        )
        for got, want in zip(part, whole[start : start + 64]):
            assert got.entity_id == want.entity_id
            np.testing.assert_array_equal(got.proba, want.proba)


def test_no_tape_served_batch_builds_only_float32_tensors(fitted, monkeypatch):
    """The real no-tape forward, under the layers' dtype contracts."""
    detector, dataset = fitted
    session = InferenceSession(detector)
    assert session._h_creator.dtype == session._h_subject.dtype == np.float32
    built = []
    init = Tensor.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(str(self.data.dtype))

    requests = bulk_requests(dataset)
    with monkeypatch.context() as patch, ContractChecker(detector.model):
        patch.setattr(Tensor, "__init__", recording_init)
        session.predict(requests)
    assert built and set(built) == {"float32"}
    # Probabilities are a float64 softmax of the float32 logits.
    for prediction in session.predict(requests, return_proba=True):
        assert prediction.proba.dtype == np.float64


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
class TestCheckpointDtype:
    def test_new_checkpoints_store_float32(self, fitted, tmp_path):
        detector, _ = fitted
        detector.save(tmp_path)
        weights = load_arrays(tmp_path / "model.npz")
        assert {str(w.dtype) for w in weights.values()} == {"float32"}
        arrays = load_arrays(tmp_path / "arrays.npz")
        for kind in ("article", "creator", "subject"):
            assert arrays[f"{kind}.explicit"].dtype == np.float32

    def test_float64_checkpoint_serves_in_float32(self, fitted, tmp_path):
        """A checkpoint in the float64 format of earlier builds still serves.

        Its weights and features are float64 values off the float32 grid.
        Loaded, they are cast to float32 and serve the classes a float64
        model serves on the same arrays, with probabilities within TOL.
        """
        detector, dataset = fitted
        detector.save(tmp_path)
        rng = np.random.default_rng(0)
        for archive in ("model.npz", "arrays.npz"):
            arrays = load_arrays(tmp_path / archive)
            for name, value in arrays.items():
                if value.dtype.kind == "f":
                    noise = 1.0 + 1e-3 * rng.standard_normal(value.shape)
                    arrays[name] = value.astype(np.float64) * noise
            save_arrays(arrays, tmp_path / archive)
        assert load_arrays(tmp_path / "model.npz")["head_article.weight"].dtype == np.float64

        served = FakeDetector.load(tmp_path)
        assert served.model.dtype == np.float32
        reference = FakeDetector.load(tmp_path)
        reference.model.astype(np.float64)
        reference.model.load_state_dict(load_arrays(tmp_path / "model.npz"))

        requests = bulk_requests(dataset)
        known = sorted(dataset.articles)[:5] + sorted(dataset.creators)[:3]
        got = InferenceSession(served).predict(
            requests, return_proba=True, known_ids=known
        )
        want = InferenceSession(reference).predict(
            requests, return_proba=True, known_ids=known
        )
        assert [p.entity_id for p in got] == [p.entity_id for p in want]
        assert [p.class_index for p in got] == [p.class_index for p in want]
        np.testing.assert_allclose(
            np.array([p.proba for p in got]),
            np.array([p.proba for p in want]),
            rtol=0, atol=TOL,
        )
