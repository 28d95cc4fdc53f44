"""Property-based tests (hypothesis) for the wire documents' JSON round trip.

A request, a response and an error body must survive ``to_dict`` →
``json.dumps`` → ``json.loads`` → ``from_dict`` unchanged. Probabilities
come from float32 values, as the float32 model serves them: the float64
softmax of float32 logits, and float32 values widened to Python floats.
Both are float64 numbers, which JSON carries exactly.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    ERROR_SCHEMA,
    RESPONSE_REVISION,
    ArticleRequest,
    PredictRequest,
    PredictResponse,
    error_body,
    predictions_from_logits,
)


def through_json(document: dict) -> dict:
    return json.loads(json.dumps(document))


TEXT = st.text(max_size=20)
ARTICLES = st.lists(
    st.builds(
        ArticleRequest,
        article_id=TEXT,
        text=TEXT,
        creator_id=TEXT,
        subject_ids=st.lists(TEXT, max_size=3),
    ),
    min_size=1,
    max_size=5,
    unique_by=lambda a: a.article_id,
)
FLOAT32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
LOGITS = st.lists(
    st.lists(st.floats(-1e4, 1e4, width=32), min_size=6, max_size=6),
    min_size=1,
    max_size=4,
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(articles=ARTICLES, return_proba=st.booleans())
def test_request_round_trips(articles, return_proba):
    request = PredictRequest(articles=articles, return_proba=return_proba)
    assert PredictRequest.from_dict(through_json(request.to_dict())) == request


@settings(max_examples=60, deadline=None)
@given(
    logits=LOGITS,
    extra=st.lists(FLOAT32, max_size=6),
    shard=st.one_of(st.none(), st.integers(0, 7)),
    timing=st.dictionaries(st.sampled_from(["total_ms", "compute_ms"]), FINITE),
    meta=st.dictionaries(st.sampled_from(["request_id", "trace_id"]),
                         st.one_of(st.none(), TEXT)),
    digest=st.text(alphabet="0123456789abcdef", max_size=16),
)
def test_response_round_trips_float32_probabilities(
    logits, extra, shard, timing, meta, digest
):
    logits = np.asarray(logits, dtype=np.float32)
    ids = [f"a{i}" for i in range(len(logits))]
    predictions = predictions_from_logits(ids, logits, return_proba=True)
    response = PredictResponse.from_predictions(
        predictions, model_digest=digest, shards=[shard] * len(ids), timing=timing
    )
    # A raw float32 value widened to a Python float rides along too.
    response.predictions[0]["proba"] += [float(np.float32(x)) for x in extra]
    response.meta = dict(meta)

    decoded = PredictResponse.from_dict(through_json(response.to_dict()))
    assert decoded.predictions == response.predictions
    for wire, prediction in zip(decoded.predictions, predictions):
        assert wire["proba"][:6] == [float(p) for p in prediction.proba]
    assert decoded.model_digest == digest
    assert decoded.timing == {k: float(v) for k, v in timing.items()}
    expected_meta = {k: v for k, v in meta.items() if v is not None}
    assert decoded.meta == {**expected_meta, "revision": RESPONSE_REVISION}
    assert decoded.to_dict() == response.to_dict()


@settings(max_examples=60, deadline=None)
@given(
    code=st.sampled_from(
        ["bad_schema", "bad_request", "overloaded", "unavailable", "timeout"]
    ),
    message=TEXT,
    detail=st.dictionaries(
        st.text(min_size=1, max_size=8).filter(lambda k: k not in ("code", "message")),
        st.one_of(st.integers(), FINITE, TEXT, st.booleans(), st.none()),
        max_size=3,
    ),
)
def test_error_body_round_trips(code, message, detail):
    body = error_body(code, message, **detail)
    decoded = through_json(body)
    assert decoded == body
    assert decoded["schema"] == ERROR_SCHEMA
    assert decoded["error"]["code"] == code
    assert decoded["error"]["message"] == message
    assert decoded["error"].get("detail", {}) == detail
