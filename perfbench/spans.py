"""In-memory timing spans around the program's public functions.

A :class:`SpanLog` wraps a function so every call appends one record
``[name, t0, t1, child_seconds, parent_record, key]`` to a process-local
list; nothing is written until :meth:`SpanLog.flush`, which each traced
process calls once as it ends. Times are ``time.perf_counter`` readings.
On Linux that is CLOCK_MONOTONIC, so spans from the server front end, its
forked workers and the load generator share one time axis.

Wrappers are installed where the caller looks the name up (a module
attribute or a class attribute), never by editing the program. The target
tables below are the layer map the ledger in :mod:`ledger` reads.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

REQUEST_ID_HEADER = "X-Request-Id"


class SpanLog:
    """Spans and fire counts of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.fired: Counter = Counter()
        self._local = threading.local()

    def reset(self) -> None:
        """Forget everything (a forked child starts its own log)."""
        self.spans = []
        self.fired = Counter()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, key: Optional[Callable] = None) -> Callable:
        """``fn`` with a span per call; ``key(args, kwargs, result)`` tags it."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            record = [name, clock(), 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if record[4] is not None:
                    record[4][3] += record[2] - record[1]
                self.fired[name] += 1
                self.spans.append(record)
            if key is not None:
                record[5] = key(args, kwargs, result)
            return result

        return traced

    def flush(self, directory, role: str) -> Path:
        """Write this process's spans to ``<directory>/spans-<role>-<pid>.json``."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = [
            [r[0], r[1], r[2], r[3], index.get(id(r[4]), -1), r[5]]
            for r in self.spans
        ]
        path = Path(directory) / f"spans-{role}-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({
            "pid": os.getpid(),
            "role": role,
            "fired": dict(self.fired),
            "spans": rows,
        }))
        tmp.replace(path)
        return path


def load_span_files(directory) -> List[Dict]:
    """Every flushed span file under ``directory``."""
    return [
        json.loads(path.read_text())
        for path in sorted(Path(directory).glob("spans-*.json"))
    ]


# ----------------------------------------------------------------------
# Key extractors: how a span is joined to a benchmark-minted request.
# ----------------------------------------------------------------------
def _header_key(args, kwargs, result):
    headers = getattr(args[0], "headers", None)
    return headers.get(REQUEST_ID_HEADER) if headers is not None else None


def _decode_key(args, kwargs, result):
    return result.articles[0].article_id


def _predict_key(args, kwargs, result):
    return kwargs.get("request_id")


def _to_dict_key(args, kwargs, result):
    return args[0].meta.get("request_id")


def _article_key(args, kwargs, result):
    return args[1].article_id


def _entity_key(args, kwargs, result):
    return args[0].entity_id


def _batch_ids_key(args, kwargs, result):
    articles = args[1] if len(args) > 1 else kwargs.get("articles", ())
    return [a.article_id for a in articles]


def _hit_key(args, kwargs, result):
    return result is not None


def _subgraph_nodes_key(args, kwargs, result):
    sub = result[0]
    return sub.articles.num + sub.creators.num + sub.subjects.num


#: (module, class or None, attribute, span name, key extractor)
Target = Tuple[str, Optional[str], str, str, Optional[Callable]]

TRAIN_TARGETS: Sequence[Target] = (
    ("repro.core.trainer", "FakeDetector", "fit", "trainer.fit", None),
    ("repro.core.trainer", None, "build_features", "pipeline.build_features", None),
    ("repro.core.trainer", None, "build_graph_index", "pipeline.build_graph_index", None),
    ("repro.core.pipeline", None, "subgraph_view", "pipeline.subgraph_view",
     _subgraph_nodes_key),
    ("repro.core.model", "FakeDetectorModel", "forward", "model.forward", None),
    ("repro.core.hflu", "HFLU", "forward", "hflu.forward", None),
    ("repro.core.gdu", "GDU", "forward", "gdu.forward", None),
    ("repro.core.aggregate", "MeanAggregator", "forward", "aggregate.forward", None),
    ("repro.autograd.functional", None, "cross_entropy", "loss.cross_entropy", None),
    ("repro.autograd.functional", None, "l2_regularization", "loss.l2", None),
    ("repro.autograd.tensor", "Tensor", "backward", "autograd.backward", None),
    ("repro.autograd.optim", None, "clip_grad_norm", "optim.clip", None),
    ("repro.autograd.optim", "Adam", "step", "optim.adam_step", None),
)

SERVE_TARGETS: Sequence[Target] = (
    ("http.server", "BaseHTTPRequestHandler", "parse_request",
     "frontend.parse_request", _header_key),
    ("repro.serve.protocol", "PredictRequest", "from_dict", "protocol.decode",
     _decode_key),
    ("repro.serve.service", "PredictionService", "predict", "service.predict",
     _predict_key),
    ("repro.serve.protocol", "PredictResponse", "to_dict", "protocol.to_dict",
     _to_dict_key),
    ("repro.serve.protocol", None, "encode_prediction",
     "protocol.encode_prediction", _entity_key),
    ("repro.serve.shard", "ShardPlan", "route", "shard.route", _article_key),
    ("repro.serve.checkpoint", None, "load_detector", "checkpoint.load", None),
    ("repro.serve.session", "InferenceSession", "__init__", "session.init", None),
    ("repro.serve.session", "InferenceSession", "predict", "session.predict",
     _batch_ids_key),
    ("repro.serve.session", None, "tokenize", "session.tokenize", None),
    ("repro.text.features", "BagOfWordsExtractor", "transform_one",
     "session.transform_one", None),
    ("repro.text.features", "BagOfWordsExtractor", "transform",
     "session.transform", None),
    ("repro.serve.session", None, "encode_batch", "session.encode_batch", None),
    ("repro.serve.cache", "LRUCache", "get", "session.cache_get", _hit_key),
    ("repro.core.hflu", "HFLU", "forward", "hflu.forward", None),
    ("repro.core.gdu", "GDU", "forward", "gdu.forward", None),
    ("repro.autograd.nn", "Linear", "forward", "head.linear", None),
    ("repro.serve.session", None, "predictions_from_logits",
     "session.predictions", None),
)

#: The HTTP handler class is built per service by this factory; its
#: ``do_POST`` is wrapped on the class the factory returns.
DO_POST_SPAN = "frontend.do_post"

#: Groups of span names of which at least one must fire, per workload.
#: A single-name group is a wrapper that must fire; a renamed or bypassed
#: layer then fails the run instead of reading zero.
TRAIN_FULL_EXPECTED = tuple(
    (t[3],) for t in TRAIN_TARGETS if t[3] != "pipeline.subgraph_view"
)
TRAIN_MINIBATCH_EXPECTED = tuple((t[3],) for t in TRAIN_TARGETS)
SERVE_EXPECTED = tuple(
    (t[3],) for t in SERVE_TARGETS
    if t[3] not in ("session.transform_one", "session.transform")
) + (("session.transform_one", "session.transform"), (DO_POST_SPAN,))


def install(log: SpanLog, targets: Sequence[Target]) -> None:
    """Wrap every target; raises if a target no longer exists."""
    for module_name, class_name, attr, span, key in targets:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(log.wrap(span, raw.__func__, key))
        else:
            wrapped = log.wrap(span, raw, key)
        setattr(owner, attr, wrapped)


def install_serve(log: SpanLog, spans_dir) -> None:
    """Serving wrappers, the handler ``do_POST`` and per-worker flushing.

    Workers are forked from the front end, so they inherit every wrapper;
    ``worker_main`` is wrapped to start a fresh log in the child and flush
    it when the worker loop returns.
    """
    install(log, SERVE_TARGETS)
    service = importlib.import_module("repro.serve.service")
    worker = importlib.import_module("repro.serve.worker")
    make_handler = service._make_handler
    worker_main = worker.worker_main

    def traced_make_handler(svc):
        handler = make_handler(svc)
        handler.do_POST = log.wrap(DO_POST_SPAN, handler.do_POST, _header_key)
        return handler

    def traced_worker_main(*args, **kwargs):
        log.reset()
        try:
            return worker_main(*args, **kwargs)
        finally:
            log.flush(spans_dir, "worker")

    service._make_handler = traced_make_handler
    worker.worker_main = traced_worker_main
