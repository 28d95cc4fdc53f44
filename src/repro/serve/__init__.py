"""Persistent inference subsystem: checkpoints, sessions and the service.

The serving stack, bottom-up:

- :mod:`repro.serve.checkpoint` — ``save_detector``/``load_detector``
  round-trip a fitted :class:`repro.FakeDetector` through an on-disk
  directory (also exposed as ``FakeDetector.save``/``FakeDetector.load``);
  :func:`checkpoint_digest` identifies a build on the wire.
- :class:`InferenceSession` — runs the full-graph forward once, caches the
  creator/subject GDU states, then scores via one keyword-driven
  :meth:`InferenceSession.predict` (new articles and/or known node ids).
- :class:`ShardPlan` — the deterministic article → shard router (a stable
  hash of ``article_id``).
- :mod:`repro.serve.worker` / :class:`PredictionService` — the
  multi-process pool behind ``repro serve http``: model replicas that each
  serve the full graph context, dynamic batching, admission control and
  the versioned HTTP API (``POST /v1/predict``).
- :mod:`repro.serve.protocol` — the ``repro.serve.request/1`` /
  ``response/1`` / ``error/1`` wire schemas every surface serializes
  through.
- :mod:`repro.serve.loadgen` — load harness: concurrency sweeps,
  p50/p95/p99, saturation point.
- :class:`LRUCache` / :class:`ServingMetrics` — feature cache and
  latency/throughput/cache counters.

Typical service::

    service = PredictionService("checkpoints/politifact", workers=4, shards=2)
    with service:
        print(service.url)          # POST /v1/predict, GET /v1/healthz, /metrics
        ...

Typical embedded session::

    detector = FakeDetector.load("checkpoints/politifact")
    session = InferenceSession(detector)
    predictions = session.predict([ArticleRequest("id1", "claim text ...")])
"""

from ..core.predictions import Prediction, predictions_from_logits
from .cache import LRUCache
from .checkpoint import (
    CHECKPOINT_FORMAT,
    checkpoint_digest,
    load_detector,
    save_detector,
)
from .metrics import ServingMetrics
from .protocol import (
    ERROR_SCHEMA,
    REQUEST_SCHEMA,
    RESPONSE_REVISION,
    RESPONSE_SCHEMA,
    PredictRequest,
    PredictResponse,
    ProtocolError,
    encode_prediction,
    error_body,
)
from .service import (
    PredictionService,
    ServiceOverloaded,
    ServiceTimeout,
    ServiceUnavailable,
)
from .loadgen import LoadResult, run_load, saturation_point, sweep_concurrency
from .session import ArticleRequest, InferenceSession
from .shard import ShardPlan

__all__ = [
    "Prediction",
    "predictions_from_logits",
    "InferenceSession",
    "ArticleRequest",
    "LRUCache",
    "ServingMetrics",
    "save_detector",
    "load_detector",
    "checkpoint_digest",
    "CHECKPOINT_FORMAT",
    "PredictRequest",
    "PredictResponse",
    "ProtocolError",
    "encode_prediction",
    "error_body",
    "REQUEST_SCHEMA",
    "RESPONSE_SCHEMA",
    "RESPONSE_REVISION",
    "ERROR_SCHEMA",
    "ShardPlan",
    "PredictionService",
    "ServiceOverloaded",
    "ServiceTimeout",
    "ServiceUnavailable",
    "LoadResult",
    "run_load",
    "saturation_point",
    "sweep_concurrency",
]
