"""Wire schemas: request/response round-trips and version rejection."""

import json

import numpy as np
import pytest

from repro.serve import (
    ERROR_SCHEMA,
    REQUEST_SCHEMA,
    RESPONSE_REVISION,
    RESPONSE_SCHEMA,
    ArticleRequest,
    PredictRequest,
    PredictResponse,
    ProtocolError,
    encode_prediction,
    error_body,
    predictions_from_logits,
)


def make_predictions(n=2, return_proba=False):
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(n, 6))
    return predictions_from_logits(
        [f"a{i}" for i in range(n)], logits, return_proba=return_proba
    )


class TestPredictRequest:
    def payload(self):
        return {
            "schema": REQUEST_SCHEMA,
            "articles": [
                {"article_id": "a1", "text": "claim one",
                 "creator_id": "c1", "subject_ids": ["s2", "s1"]},
                {"article_id": "a2", "text": "claim two"},
            ],
            "return_proba": True,
        }

    def test_round_trip(self):
        request = PredictRequest.from_dict(self.payload())
        assert request.return_proba is True
        assert [a.article_id for a in request.articles] == ["a1", "a2"]
        assert isinstance(request.articles[0], ArticleRequest)
        assert request.articles[0].subject_ids == ["s2", "s1"]
        assert request.articles[1].creator_id == ""
        # encode → decode is the identity on the wire document
        again = PredictRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        assert again == request

    def test_unknown_schema_version_rejected(self):
        payload = self.payload()
        payload["schema"] = "repro.serve.request/2"
        with pytest.raises(ProtocolError) as err:
            PredictRequest.from_dict(payload)
        assert err.value.code == "bad_schema"
        assert "repro.serve.request/1" in err.value.message

    def test_absent_subject_ids_decode_to_empty_list(self):
        request = PredictRequest.from_dict(self.payload())
        assert request.articles[1].subject_ids == []

    @pytest.mark.parametrize("subject_ids", [
        None, "s_1", 3, 1.5, {"s_1": 1}, ["s_1", 2], [None], [["s_1"]],
    ])
    def test_malformed_subject_ids_rejected(self, subject_ids):
        payload = self.payload()
        payload["articles"][0]["subject_ids"] = subject_ids
        with pytest.raises(ProtocolError) as err:
            PredictRequest.from_dict(payload)
        assert err.value.code == "bad_request"
        assert "articles[0].subject_ids" in err.value.message

    def test_missing_schema_rejected(self):
        payload = self.payload()
        del payload["schema"]
        with pytest.raises(ProtocolError) as err:
            PredictRequest.from_dict(payload)
        assert err.value.code == "bad_schema"

    def test_empty_articles_rejected(self):
        payload = self.payload()
        payload["articles"] = []
        with pytest.raises(ProtocolError) as err:
            PredictRequest.from_dict(payload)
        assert err.value.code == "bad_request"

    def test_article_without_id_rejected(self):
        payload = self.payload()
        payload["articles"][1] = {"text": "no id"}
        with pytest.raises(ProtocolError, match="article_id"):
            PredictRequest.from_dict(payload)

    def test_duplicate_article_ids_rejected(self):
        payload = self.payload()
        payload["articles"][1]["article_id"] = "a1"
        with pytest.raises(ProtocolError, match="duplicate"):
            PredictRequest.from_dict(payload)

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError) as err:
            PredictRequest.from_dict(["not", "a", "dict"])
        assert err.value.code == "bad_request"


class TestPredictResponse:
    def test_from_predictions_round_trip(self):
        preds = make_predictions(2, return_proba=True)
        response = PredictResponse.from_predictions(
            preds, model_digest="abc123", shards=[0, 1],
            timing={"total_ms": 5.0},
        )
        doc = json.loads(json.dumps(response.to_dict()))
        assert doc["schema"] == RESPONSE_SCHEMA
        assert doc["model_digest"] == "abc123"
        assert [p["shard"] for p in doc["predictions"]] == [0, 1]
        again = PredictResponse.from_dict(doc)
        assert again.model_digest == "abc123"
        assert again.timing["total_ms"] == 5.0
        assert [p["entity_id"] for p in again.predictions] == ["a0", "a1"]
        for raw, pred in zip(again.predictions, preds):
            assert raw["class_index"] == pred.class_index
            np.testing.assert_allclose(raw["proba"], pred.proba)

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(ProtocolError) as err:
            PredictResponse.from_dict({"schema": "repro.serve.response/9",
                                       "predictions": []})
        assert err.value.code == "bad_schema"

    def test_prediction_without_entity_id_rejected(self):
        with pytest.raises(ProtocolError, match="entity_id"):
            PredictResponse.from_dict({
                "schema": RESPONSE_SCHEMA,
                "predictions": [{"class_index": 0}],
            })

    def test_encode_prediction_shard_optional(self):
        pred = make_predictions(1)[0]
        assert "shard" not in encode_prediction(pred)
        assert encode_prediction(pred, shard=3)["shard"] == 3


class TestResponseMeta:
    """The additive revision-2 ``meta`` block (request/trace correlation)."""

    def test_meta_round_trip_with_revision_stamp(self):
        response = PredictResponse.from_predictions(
            make_predictions(1), model_digest="abc",
        )
        response.meta = {"request_id": "aa" * 8, "trace_id": "bb" * 16}
        doc = json.loads(json.dumps(response.to_dict()))
        assert doc["meta"]["revision"] == RESPONSE_REVISION
        assert doc["meta"]["request_id"] == "aa" * 8
        assert doc["meta"]["trace_id"] == "bb" * 16
        again = PredictResponse.from_dict(doc)
        assert again.meta["request_id"] == "aa" * 8
        assert again.meta["trace_id"] == "bb" * 16

    def test_none_values_dropped_from_wire(self):
        response = PredictResponse.from_predictions(
            make_predictions(1), model_digest="abc",
        )
        response.meta = {"request_id": None}
        doc = response.to_dict()
        assert "request_id" not in doc["meta"]

    def test_revision_1_document_without_meta_still_parses(self):
        """Old servers emit no meta block; revision-2 decoders accept it."""
        doc = PredictResponse.from_predictions(
            make_predictions(1), model_digest="abc"
        ).to_dict()
        del doc["meta"]
        assert doc["schema"] == RESPONSE_SCHEMA   # same major schema
        again = PredictResponse.from_dict(doc)
        assert again.meta == {}

    def test_non_object_meta_rejected(self):
        doc = PredictResponse.from_predictions(make_predictions(1)).to_dict()
        doc["meta"] = ["not", "a", "dict"]
        with pytest.raises(ProtocolError, match="meta"):
            PredictResponse.from_dict(doc)


class TestErrorBody:
    def test_structure(self):
        body = error_body("overloaded", "queue full", retry_after=1)
        assert body["schema"] == ERROR_SCHEMA
        assert body["error"]["code"] == "overloaded"
        assert body["error"]["message"] == "queue full"
        assert body["error"]["detail"] == {"retry_after": 1}
        json.dumps(body)  # JSON-serializable as-is

    def test_detail_omitted_when_empty(self):
        assert "detail" not in error_body("timeout", "too slow")["error"]
