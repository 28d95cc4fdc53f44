"""Versioned wire schemas for the prediction service.

Every prediction surface — ``POST /v1/predict``, ``repro infer`` and
``repro serve batch`` — serializes through the same two documents instead
of ad-hoc dicts, so clients can pin a schema version and the server can
reject what it does not speak:

- ``repro.serve.request/1`` — a batch of article payloads plus options::

      {"schema": "repro.serve.request/1",
       "articles": [{"article_id": "a1", "text": "claim ...",
                     "creator_id": "creator_3", "subject_ids": ["s_1"]}],
       "return_proba": false}

- ``repro.serve.response/1`` — aligned predictions plus provenance::

      {"schema": "repro.serve.response/1",
       "model_digest": "2f6ab91c03d4e5f6",
       "predictions": [{"entity_id": "a1", "class_index": 4,
                        "label": "Mostly True", "shard": 0}],
       "timing": {"total_ms": 3.1, "compute_ms": 1.4},
       "meta": {"revision": 2, "request_id": "9f2...", "trace_id": "43f..."}}

  The ``meta`` block is an *additive* revision-2 extension: it carries the
  request/trace correlation ids and a ``revision`` marker. Revision-1
  clients that ignore unknown keys keep parsing unchanged, and revision-2
  decoders accept documents without any ``meta`` block at all.

- ``repro.serve.error/1`` — the structured error body every non-2xx HTTP
  reply carries (``code`` is machine-readable: ``bad_schema``,
  ``bad_request``, ``overloaded``, ``unavailable``, ``timeout``).

Decoding raises :class:`ProtocolError` with the matching error ``code``;
:func:`error_body` turns one into the error document. Unknown schema
versions are rejected, never guessed at.

Besides the HTTP documents, the parent↔worker queues carry a small
control plane (:data:`PROFILE_CONTROL`): the profiler messages
``("profile_start", hz)`` / ``("profile_snapshot", req_id)`` /
``("profile_stop",)`` ride the per-worker request queues, and snapshots
come back as ``("profile_result", worker_id, req_id, payload)`` where
``payload`` is a ``repro.obs.profile/1`` document (or ``None`` when the
worker has no armed profiler). Control messages serialize FIFO behind
in-flight predict batches and never count against the admission budget.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..core.predictions import Prediction
from .session import ArticleRequest

#: Schema tags understood by this build.
REQUEST_SCHEMA = "repro.serve.request/1"
RESPONSE_SCHEMA = "repro.serve.response/1"
ERROR_SCHEMA = "repro.serve.error/1"

#: Minor revision of the response document within schema version 1.
#: Revision 2 added the additive ``meta`` block (request_id / trace_id).
RESPONSE_REVISION = 2

#: Profiler control-plane message kinds on the parent↔worker queues (see
#: the module docstring); workers treat any non-``predict`` kind as
#: control and never batch it.
PROFILE_CONTROL = ("profile_start", "profile_snapshot", "profile_stop")


class ProtocolError(ValueError):
    """A malformed or version-incompatible wire document."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def error_body(code: str, message: str, **detail) -> Dict:
    """The ``repro.serve.error/1`` document for one failure."""
    payload: Dict = {
        "schema": ERROR_SCHEMA,
        "error": {"code": code, "message": message},
    }
    if detail:
        payload["error"]["detail"] = dict(detail)
    return payload


def _require_schema(payload: Dict, expected: str) -> None:
    if not isinstance(payload, dict):
        raise ProtocolError("bad_request", "document must be a JSON object")
    schema = payload.get("schema")
    if schema != expected:
        raise ProtocolError(
            "bad_schema",
            f"unsupported schema {schema!r} (this server speaks {expected!r})",
        )


@dataclasses.dataclass
class PredictRequest:
    """One decoded ``repro.serve.request/1`` document."""

    articles: List[ArticleRequest]
    return_proba: bool = False

    def to_dict(self) -> Dict:
        return {
            "schema": REQUEST_SCHEMA,
            "articles": [
                {
                    "article_id": a.article_id,
                    "text": a.text,
                    "creator_id": a.creator_id,
                    "subject_ids": list(a.subject_ids),
                }
                for a in self.articles
            ],
            "return_proba": bool(self.return_proba),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PredictRequest":
        _require_schema(payload, REQUEST_SCHEMA)
        raw_articles = payload.get("articles")
        if not isinstance(raw_articles, list) or not raw_articles:
            raise ProtocolError(
                "bad_request", "request needs a non-empty 'articles' list"
            )
        articles = []
        for i, raw in enumerate(raw_articles):
            if not isinstance(raw, dict) or "article_id" not in raw:
                raise ProtocolError(
                    "bad_request", f"articles[{i}] must be an object with 'article_id'"
                )
            subjects = raw.get("subject_ids", [])
            if not isinstance(subjects, list) or not all(
                isinstance(s, str) for s in subjects
            ):
                raise ProtocolError(
                    "bad_request",
                    f"articles[{i}].subject_ids must be a list of strings",
                )
            articles.append(ArticleRequest.from_dict(raw))
        ids = [a.article_id for a in articles]
        if len(set(ids)) != len(ids):
            raise ProtocolError("bad_request", "duplicate article ids in request")
        return cls(
            articles=articles, return_proba=bool(payload.get("return_proba", False))
        )


def encode_prediction(
    prediction: Prediction, shard: Optional[int] = None
) -> Dict:
    """One prediction as its wire object (proba only when computed)."""
    payload = prediction.to_dict()
    if shard is not None:
        payload["shard"] = int(shard)
    return payload


@dataclasses.dataclass
class PredictResponse:
    """One decoded/deco-dable ``repro.serve.response/1`` document.

    ``predictions`` holds wire objects (plain dicts), not
    :class:`Prediction` records, so a response can round-trip through JSON
    without loss and the decoder needs no numpy.
    """

    predictions: List[Dict]
    model_digest: str = ""
    timing: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Revision-2 correlation ids (``request_id``, ``trace_id``, ...).
    #: ``None`` values are dropped at encode time.
    meta: Dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict:
        meta = {k: v for k, v in self.meta.items() if v is not None}
        meta["revision"] = RESPONSE_REVISION
        return {
            "schema": RESPONSE_SCHEMA,
            "model_digest": self.model_digest,
            "predictions": list(self.predictions),
            "timing": {k: float(v) for k, v in self.timing.items()},
            "meta": meta,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PredictResponse":
        _require_schema(payload, RESPONSE_SCHEMA)
        predictions = payload.get("predictions")
        if not isinstance(predictions, list):
            raise ProtocolError("bad_request", "response needs a 'predictions' list")
        for i, raw in enumerate(predictions):
            if not isinstance(raw, dict) or "entity_id" not in raw:
                raise ProtocolError(
                    "bad_request",
                    f"predictions[{i}] must be an object with 'entity_id'",
                )
        meta = payload.get("meta")
        if meta is not None and not isinstance(meta, dict):
            raise ProtocolError("bad_request", "'meta' must be an object")
        return cls(
            predictions=list(predictions),
            model_digest=str(payload.get("model_digest", "")),
            timing=dict(payload.get("timing", {})),
            # Revision-1 documents have no meta block; absence is valid.
            meta=dict(meta or {}),
        )

    @classmethod
    def from_predictions(
        cls,
        predictions: Sequence[Prediction],
        *,
        model_digest: str = "",
        shards: Optional[Sequence[Optional[int]]] = None,
        timing: Optional[Dict[str, float]] = None,
    ) -> "PredictResponse":
        """Build the wire document from in-process :class:`Prediction`s."""
        if shards is None:
            shards = [None] * len(predictions)
        return cls(
            predictions=[
                encode_prediction(p, shard=s) for p, s in zip(predictions, shards)
            ],
            model_digest=model_digest,
            timing=dict(timing or {}),
        )
