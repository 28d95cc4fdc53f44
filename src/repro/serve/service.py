"""The multi-process sharded prediction service behind ``repro serve http``.

Topology::

                      POST /v1/predict (repro.serve.request/1)
                                  |
    client ── HTTP ──► PredictionService (stdlib ThreadingHTTPServer)
                                  |  ShardPlan.route() per article
                    ┌─────────────┼─────────────┐
                 shard 0       shard 1       shard k        (request queues)
                 worker(s)     worker(s)     worker(s)      (OS processes)
                    └─────────────┼─────────────┘
                         shared response queue
                                  |
                        collector thread → pending futures
                                  |
                      repro.serve.response/1 to the client

Every worker holds a model replica loaded from the same directory
checkpoint, with its GDU diffusion context restricted to its shard's
creator/subject communities (:class:`repro.serve.ShardPlan`). The parent
routes each article of a request to its shard, fans the request out to the
least-loaded replica per shard, and reassembles predictions in input order.

Admission control is a bounded per-worker in-flight budget
(``max_queue_depth``): when the budget of any needed worker is exhausted
the request is rejected *before* anything is enqueued, surfacing as HTTP
429 with a ``Retry-After`` header — queues cannot grow without bound.

Observability is the PR 4 stack wired in directly: the service registry
feeds ``GET /metrics`` (Prometheus text format) and an optional
:class:`repro.obs.PeriodicExporter`; an optional
:class:`repro.obs.SloMonitor` sees every request's latency, success/error
flag and the global in-flight depth, and its breaches flip
``GET /v1/healthz`` to 503 — the load-balancer eject signal. With
``profile_hz`` set, every process (front-end and workers) also runs a
continuous :class:`repro.obs.SamplingProfiler`; ``GET
/debug/profile?seconds=N`` windows the counters into one merged
per-shard flamegraph (see :meth:`PredictionService.capture_profile`).
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Sequence
from urllib.parse import parse_qs

from ..obs import get_logger, render_prometheus
from ..obs.context import (
    REQUEST_ID_HEADER,
    TraceContext,
    extract_context,
    new_request_id,
    reset_context,
    set_context,
)
from ..obs.drift import DRIFT_BASELINE_FILE
from ..obs.flame import (
    DEFAULT_HZ,
    Profile,
    SamplingProfiler,
    merge_profiles,
    render_flamegraph_svg,
)
from ..obs.tracing import NULL_SPAN, TraceStore, Tracer
from .checkpoint import checkpoint_digest
from .metrics import ServingMetrics
from .protocol import (
    PredictRequest,
    PredictResponse,
    ProtocolError,
    error_body,
)
from .shard import ShardPlan
from .worker import WorkerHandle, spawn_worker


class ServiceOverloaded(RuntimeError):
    """Admission control rejected the request (HTTP 429)."""


class ServiceUnavailable(RuntimeError):
    """A needed worker is dead or the pool is not ready (HTTP 503)."""


class ServiceTimeout(RuntimeError):
    """A dispatched request missed the deadline (HTTP 504)."""


#: How often :meth:`PredictionService.start` re-checks worker liveness
#: while it waits for the pool to warm.
_READY_POLL_S = 0.05
#: Once one worker has died during warm-up, how long the others get to
#: finish dying of the same cause, so the error names every casualty.
_DEATH_GRACE_S = 0.5


class _PendingCall:
    """Future for one shard-group dispatch."""

    __slots__ = ("event", "predictions", "stats", "error")

    def __init__(self):
        self.event = threading.Event()
        self.predictions: Optional[List[Dict]] = None
        self.stats: Dict = {}
        self.error: Optional[str] = None


class _ProfilePending:
    """Future for one worker's profile snapshot (control plane)."""

    __slots__ = ("event", "payload")

    def __init__(self):
        self.event = threading.Event()
        self.payload: Optional[Dict] = None


def _article_payload(article) -> Dict:
    return {
        "article_id": article.article_id,
        "text": article.text,
        "creator_id": article.creator_id,
        "subject_ids": list(article.subject_ids),
    }


class PredictionService:
    """Worker-pool prediction service with a versioned HTTP API.

    Parameters
    ----------
    checkpoint:
        Detector checkpoint directory; every worker loads its own replica.
    workers:
        Pool size (>= ``shards``); workers are dealt round-robin over
        shards so every shard has at least one replica.
    shards:
        News-HSN partitions (1 = no partitioning, full context per worker).
    host / port:
        HTTP bind address; ``port=0`` picks an ephemeral port.
    max_batch_size / max_wait:
        Per-worker dynamic batching knobs (see :mod:`repro.serve.worker`):
        a worker coalesces whole requests until its batch holds
        ``max_batch_size`` articles, waiting at most ``max_wait`` seconds.
    max_queue_depth:
        Admission control: in-flight request budget per worker; beyond it
        requests get 429 + ``Retry-After``.
    request_timeout:
        Seconds a dispatched request may wait before 504.
    feature_cache_size:
        Per-worker LRU text-feature cache entries.
    slo:
        Optional :class:`repro.obs.SloMonitor`; fed latency/error/depth
        signals (and, when drift monitoring is on, the per-shard class
        PSI under ``drift_class_psi``), drives ``/v1/healthz``.
    trace_dir:
        Optional directory for distributed request traces. When set, every
        ``predict`` call opens a ``serve.request`` root span, propagates a
        :class:`repro.obs.TraceContext` to the workers, and a
        :class:`repro.obs.TraceStore` merges front-end + worker spans into
        one ``<trace_id>.jsonl`` file (schema ``repro.obs.trace/1``).
    drift_baseline:
        Optional path to a ``repro.obs.drift_baseline/1`` JSON profile.
        Each worker arms a :class:`repro.obs.DriftMonitor` against it and
        ships window summaries back with every result; sustained breach on
        any shard degrades ``/v1/healthz``.
    drift_threshold / drift_window / drift_min_samples:
        Worker-side :class:`repro.obs.DriftMonitor` knobs.
    profile_hz:
        When set, continuous profiling: every worker runs a
        :class:`repro.obs.SamplingProfiler` at this rate from warm-up on,
        and the front-end runs one (started post-fork) covering routing,
        admission and HTTP threads. :meth:`capture_profile` (and the
        ``GET /debug/profile?seconds=N`` endpoint) then windows the
        continuous counters; when unset, captures arm temporary samplers
        for just the requested window.
    """

    def __init__(
        self,
        checkpoint,
        *,
        workers: int = 2,
        shards: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch_size: int = 32,
        max_wait: float = 0.002,
        max_queue_depth: int = 32,
        request_timeout: float = 30.0,
        feature_cache_size: int = 2048,
        warmup_timeout: float = 120.0,
        slo=None,
        trace_dir=None,
        drift_baseline=None,
        drift_threshold: float = 0.25,
        drift_window: int = 1024,
        drift_min_samples: int = 50,
        profile_hz: Optional[float] = None,
        mp_context=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if workers < shards:
            raise ValueError(
                f"workers ({workers}) must be >= shards ({shards}) so every "
                "shard has a replica"
            )
        self.checkpoint = str(checkpoint)
        self.num_workers = workers
        self.num_shards = shards
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        self.max_queue_depth = max_queue_depth
        self.request_timeout = request_timeout
        self.feature_cache_size = feature_cache_size
        self.warmup_timeout = warmup_timeout
        self.slo = slo
        self._mp_context = mp_context
        self._host_arg, self._port_arg = host, port
        self._log = get_logger("serve.service")
        self._drift_log = get_logger("obs.drift")

        self.trace_store: Optional[TraceStore] = None
        self._tracer: Optional[Tracer] = None
        if trace_dir is not None:
            self.trace_store = TraceStore(trace_dir)
            # Wall-clock spans: worker spans from other processes must land
            # on the same axis, and perf_counter is per-process.
            self._tracer = Tracer(
                keep=False, sink=self.trace_store.sink, clock=time.time
            )
        if drift_baseline == "auto":
            # Use the checkpoint's own profile when it shipped one; old
            # checkpoints simply serve without drift monitoring.
            candidate = Path(self.checkpoint) / DRIFT_BASELINE_FILE
            drift_baseline = candidate if candidate.exists() else None
        self.drift_baseline = str(drift_baseline) if drift_baseline else None
        self.drift_threshold = drift_threshold
        self.drift_window = drift_window
        self.drift_min_samples = drift_min_samples
        #: latest drift window summary per shard (collector-maintained)
        self._drift_status: Dict[int, Dict] = {}
        self._drift_breached: Dict[int, bool] = {}

        self.metrics = ServingMetrics()
        registry = self.metrics.registry
        self._http_requests = registry.counter("serve.http_requests")
        self._http_rejected = registry.counter("serve.http_rejected")
        self._http_errors = registry.counter("serve.http_errors")
        self._inflight_gauge = registry.gauge("serve.inflight")

        self.plan = (
            ShardPlan.single()
            if shards == 1
            else ShardPlan.from_checkpoint(self.checkpoint, shards)
        )
        self.model_digest = checkpoint_digest(self.checkpoint)

        self._workers: List[WorkerHandle] = []
        self._shard_workers: Dict[int, List[WorkerHandle]] = {}
        self._responses = None
        self._collector: Optional[threading.Thread] = None
        self._pending: Dict[int, _PendingCall] = {}
        # Workers are forked in start() before any request is in flight, so
        # this lock is never held at fork time and children never touch it.
        self._lock = threading.Lock()  # repro: noqa[RA202] created pre-fork, never held across spawn_worker(); children run worker_main from scratch
        self._req_ids = itertools.count(1)
        self.profile_hz = profile_hz
        # The front-end profiler is created in start() *after* the workers
        # fork: it owns a lock and a sampler thread, neither of which may
        # be reachable at fork time (RA202), and children build their own.
        self._profiler: Optional[SamplingProfiler] = None
        self._profile_pending: Dict[int, _ProfilePending] = {}
        self._ready = threading.Event()
        self._ready_count = 0
        self._closing = threading.Event()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PredictionService":
        """Spawn the pool, wait for warm replicas, open the HTTP endpoint.

        Each worker caps its BLAS thread pool at its share of the cores,
        ``max(1, cores // workers)``, so the pool never runs more BLAS
        threads than there are CPUs. Raises :class:`ServiceUnavailable` as
        soon as a worker dies during warm-up, and ``RuntimeError`` when the
        pool is not warm within ``warmup_timeout``.
        """
        if self._started:
            raise RuntimeError("PredictionService already started")
        import multiprocessing

        ctx = self._mp_context or multiprocessing.get_context()
        self._responses = ctx.Queue()
        plan_payload = self.plan.to_dict() if self.num_shards > 1 else None
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity API on this platform
            cores = os.cpu_count() or 1
        blas_limit = max(1, cores // self.num_workers)
        for worker_id in range(self.num_workers):
            shard = worker_id % self.num_shards
            handle = spawn_worker(
                self.checkpoint,
                worker_id,
                shard,
                plan_payload,
                self._responses,
                max_batch_size=self.max_batch_size,
                max_wait=self.max_wait,
                feature_cache_size=self.feature_cache_size,
                drift_baseline=self.drift_baseline,
                drift_threshold=self.drift_threshold,
                drift_window=self.drift_window,
                drift_min_samples=self.drift_min_samples,
                profile_hz=self.profile_hz,
                blas_limit=blas_limit,
                mp_context=ctx,
            )
            self._workers.append(handle)
            self._shard_workers.setdefault(shard, []).append(handle)
        self._collector = threading.Thread(
            target=self._collect, daemon=True, name="repro-serve-collector"
        )
        self._collector.start()
        self._wait_ready()
        if self.profile_hz:
            self._profiler = SamplingProfiler(
                interval=1.0 / self.profile_hz
            ).start()

        self._httpd = ThreadingHTTPServer(
            (self._host_arg, self._port_arg), _make_handler(self)
        )
        self.host, self.port = self._httpd.server_address[:2]
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True, name="repro-serve-http"
        )
        self._http_thread.start()
        self._started = True
        self._log.info(
            "listening",
            url=self.url,
            workers=self.num_workers,
            shards=self.num_shards,
            digest=self.model_digest,
        )
        return self

    def _wait_ready(self) -> None:
        """Block until every worker is warm; close the pool on failure."""
        deadline = time.monotonic() + self.warmup_timeout
        while not self._ready.wait(_READY_POLL_S):
            if any(not handle.alive() for handle in self._workers):
                grace = time.monotonic() + _DEATH_GRACE_S
                for handle in self._workers:
                    handle.process.join(max(0.0, grace - time.monotonic()))
                dead = [
                    f"worker {h.worker_id} exited with code {h.process.exitcode}"
                    for h in self._workers
                    if not h.alive()
                ]
                self.close()
                raise ServiceUnavailable(
                    "worker pool died during warm-up: " + ", ".join(dead)
                )
            if time.monotonic() >= deadline:
                self.close()
                raise RuntimeError(
                    f"worker pool not ready within {self.warmup_timeout}s "
                    f"({self._ready_count}/{self.num_workers} warm)"
                )

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Stop HTTP, workers and the collector; reject anything pending."""
        self._closing.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            if self._http_thread is not None:
                self._http_thread.join(5.0)
            self._httpd = None
            self._http_thread = None
        for handle in self._workers:
            handle.stop()
        if self._responses is not None:
            self._responses.put(("close",))
        if self._collector is not None:
            self._collector.join(5.0)
            self._collector = None
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for call in pending:
            call.error = "service shut down"
            call.event.set()
        with self._lock:
            profile_pending = list(self._profile_pending.values())
            self._profile_pending.clear()
        for entry in profile_pending:
            entry.event.set()
        if self._profiler is not None:
            self._profiler.stop()
            self._profiler = None
        if self._tracer is not None:
            self._tracer.close()
        if self.trace_store is not None:
            self.trace_store.close()
        self._started = False

    def __enter__(self) -> "PredictionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Collector
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        by_id = {handle.worker_id: handle for handle in self._workers}
        while True:
            try:
                message = self._responses.get(timeout=1.0)
            except queue.Empty:
                # The "close" sentinel is the normal exit; the timeout is
                # the fallback for a sentinel lost to a dead worker pipe.
                if self._closing.is_set():
                    return
                continue
            kind = message[0]
            if kind == "close":
                return
            if kind == "ready":
                _, worker_id, digest, blas_threads = message
                by_id[worker_id].model_digest = digest
                by_id[worker_id].blas_threads = blas_threads
                with self._lock:
                    self._ready_count += 1
                    if self._ready_count >= self.num_workers:
                        self._ready.set()
                continue
            if kind == "profile_result":
                # Control-plane reply: resolves a _ProfilePending future,
                # never touches the in-flight budget.
                _, worker_id, req_id, payload = message
                with self._lock:
                    entry = self._profile_pending.pop(req_id, None)
                if entry is not None:
                    entry.payload = payload
                    entry.event.set()
                continue
            if kind == "result":
                worker_id, req_id, predictions, stats = message[1:5]
                error = None
                worker_spans = message[5] if len(message) > 5 else []
                if worker_spans and self.trace_store is not None:
                    trace_id = worker_spans[0].get("trace_id")
                    if trace_id:
                        self.trace_store.add_spans(str(trace_id), worker_spans)
                drift = stats.get("drift")
                if drift is not None:
                    self._note_drift(int(stats.get("shard", 0)), drift)
            else:  # "error"
                _, worker_id, req_id, error = message
                predictions, stats = None, {}
            with self._lock:
                call = self._pending.pop(req_id, None)
                handle = by_id.get(worker_id)
                # Abandoned calls (timeout) already returned their budget in
                # the dispatcher's finally block — don't decrement twice.
                if call is not None and handle is not None and handle.inflight > 0:
                    handle.inflight -= 1
            if call is not None:
                call.predictions = predictions
                call.stats = stats
                call.error = error
                call.event.set()

    # ------------------------------------------------------------------
    # Drift aggregation (collector thread)
    # ------------------------------------------------------------------
    def _note_drift(self, shard: int, summary: Dict) -> None:
        """Fold one worker's drift window summary into parent-side state.

        Exports per-shard ``drift_*`` gauges, feeds the SLO monitor's
        ``drift_class_psi`` signal, and emits edge-triggered
        ``obs.drift.breach`` / ``obs.drift.recover`` events per shard.
        """
        with self._lock:
            self._drift_status[shard] = dict(summary)
        registry = self.metrics.registry
        for key in ("class_psi", "confidence_psi", "feature_psi"):
            value = summary.get(key)
            if value is not None:
                registry.gauge(f"drift.{key}.shard{shard}").set(float(value))
        registry.gauge(f"drift.samples.shard{shard}").set(
            float(summary.get("samples", 0))
        )
        if self.slo is not None and summary.get("class_psi") is not None:
            self.slo.observe("drift_class_psi", float(summary["class_psi"]))
            self.slo.evaluate()
        breached = bool(summary.get("breached"))
        was = self._drift_breached.get(shard, False)
        if breached != was:
            self._drift_breached[shard] = breached
            detail = {
                "shard": shard,
                "class_psi": summary.get("class_psi"),
                "confidence_psi": summary.get("confidence_psi"),
                "samples": summary.get("samples"),
                "threshold": summary.get("threshold"),
            }
            if breached:
                self._drift_log.warning("breach", **detail)
            else:
                self._drift_log.info("recover", **detail)

    def drift_status(self) -> Dict[int, Dict]:
        """Latest per-shard drift window summaries (empty when unarmed)."""
        with self._lock:
            return {shard: dict(s) for shard, s in self._drift_status.items()}

    # ------------------------------------------------------------------
    # Profiling (control plane)
    # ------------------------------------------------------------------
    def _worker_profiles(self, timeout: float = 10.0) -> Dict[int, Optional[Dict]]:
        """One profile snapshot per worker, gathered over the queues.

        Snapshot requests ride the normal request queues (so they serialize
        behind in-flight batches) and come back through the collector as
        ``profile_result`` messages; a worker that does not answer within
        ``timeout`` (dead, or grinding through a huge batch) contributes
        ``None`` rather than stalling the capture forever.
        """
        pending: Dict[int, tuple] = {}
        with self._lock:
            for handle in self._workers:
                req_id = next(self._req_ids)
                entry = _ProfilePending()
                self._profile_pending[req_id] = entry
                pending[handle.worker_id] = (req_id, entry, handle)
        for req_id, entry, handle in pending.values():
            if handle.alive():
                handle.requests.put(("profile_snapshot", req_id))
        results: Dict[int, Optional[Dict]] = {}
        deadline = time.perf_counter() + timeout
        for worker_id, (req_id, entry, handle) in pending.items():
            remaining = max(0.0, deadline - time.perf_counter())
            results[worker_id] = (
                entry.payload if entry.event.wait(remaining) else None
            )
            with self._lock:
                self._profile_pending.pop(req_id, None)
        return results

    def capture_profile(
        self, seconds: float = 1.0, *, hz: Optional[float] = None
    ) -> Profile:
        """A service-wide profile over a ``seconds`` window, merged by shard.

        With continuous profiling armed (``profile_hz``) the window is the
        difference of two cumulative snapshots — zero extra sampling cost.
        Unarmed, temporary samplers run in every process for just the
        window. Worker stacks root under ``shard<k>;worker<i>`` and the
        parent's under ``frontend``, so the flamegraph splits by shard at
        the first level.
        """
        if not self._started:
            raise ServiceUnavailable("service is not running")
        seconds = min(max(float(seconds), 0.05), 60.0)
        armed = self._profiler is not None
        temp: Optional[SamplingProfiler] = None
        rate = hz or self.profile_hz or DEFAULT_HZ
        if armed:
            front_before = self._profiler.snapshot()
            before = self._worker_profiles()
        else:
            temp = SamplingProfiler(interval=1.0 / rate).start()
            for handle in self._workers:
                if handle.alive():
                    handle.requests.put(("profile_start", rate))
            before = {}
        # closing.wait instead of sleep: shutdown aborts the window early
        # instead of holding close() hostage for the full capture.
        self._closing.wait(seconds)
        after = self._worker_profiles()
        if armed:
            frontend = self._profiler.snapshot().subtract(front_before)
        else:
            frontend = temp.snapshot()
            temp.stop()
            for handle in self._workers:
                if handle.alive():
                    handle.requests.put(("profile_stop",))
        parts: Dict[str, Optional[Profile]] = {"frontend": frontend}
        by_id = {handle.worker_id: handle for handle in self._workers}
        for worker_id, payload in after.items():
            if payload is None:
                continue
            profile = Profile.from_dict(payload)
            earlier = before.get(worker_id)
            if earlier is not None:
                profile = profile.subtract(Profile.from_dict(earlier))
            handle = by_id[worker_id]
            # A ";" in the root label yields two prefix frames, so the
            # merged stacks read shard<k> → worker<i> → python frames.
            parts[f"shard{handle.shard};worker{worker_id}"] = profile
        return merge_profiles(
            parts,
            meta={
                "kind": "serve",
                "window_s": seconds,
                "hz": rate,
                "workers": self.num_workers,
                "shards": self.num_shards,
                "model_digest": self.model_digest,
                "continuous": armed,
            },
        )

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _span(self, name: str, **attrs):
        """A front-end span when tracing is on, the shared no-op when off."""
        if self._tracer is None:
            return NULL_SPAN
        return self._tracer.span(name, **attrs)
    def _admit(self, needed: Dict[int, int]) -> Dict[int, WorkerHandle]:
        """Pick one replica per shard and charge the in-flight budget.

        ``needed`` maps shard → request count (always 1 per shard-group
        here, but kept general). All-or-nothing under one lock: either
        every chosen worker has budget and all are charged, or nothing is
        and the caller gets the 429/503.
        """
        with self._lock:
            chosen: Dict[int, WorkerHandle] = {}
            for shard in needed:
                replicas = [
                    h for h in self._shard_workers.get(shard, ()) if h.alive()
                ]
                if not replicas:
                    raise ServiceUnavailable(f"no live worker for shard {shard}")
                handle = min(replicas, key=lambda h: (h.inflight, h.worker_id))
                if handle.inflight + needed[shard] > self.max_queue_depth:
                    raise ServiceOverloaded(
                        f"worker {handle.worker_id} at queue depth "
                        f"{handle.inflight}/{self.max_queue_depth}"
                    )
                chosen[shard] = handle
            for shard, handle in chosen.items():
                handle.inflight += needed[shard]
            self._inflight_gauge.set(sum(h.inflight for h in self._workers))
        return chosen

    def predict(
        self,
        request: PredictRequest,
        *,
        request_id: Optional[str] = None,
        parent_context: Optional[TraceContext] = None,
    ) -> PredictResponse:
        """Route one decoded request through the pool; merge shard results.

        With tracing enabled (``trace_dir``), the whole call runs under a
        ``serve.request`` root span: ``parent_context`` (a client's
        ``traceparent``, when supplied) names the trace and remote parent,
        otherwise a fresh trace id is minted. The root's context is
        rebound via :mod:`contextvars` so dispatch stamps every worker
        queue entry, and the merged trace lands in :attr:`trace_store`.
        """
        if not self._started:
            raise ServiceUnavailable("service is not running")
        if self._tracer is None:
            return self._predict(request, request_id=request_id, trace_ctx=None)
        context = (
            parent_context if parent_context is not None else TraceContext.new()
        )
        token = set_context(context)
        try:
            attrs = {"articles": len(request.articles)}
            if request_id is not None:
                attrs["request_id"] = request_id
            with self._tracer.span("serve.request", **attrs) as root:
                inner = context.child(root.span_id)
                inner_token = set_context(inner)
                try:
                    response = self._predict(
                        request, request_id=request_id, trace_ctx=inner
                    )
                finally:
                    reset_context(inner_token)
            response.meta["trace_id"] = context.trace_id
            return response
        finally:
            reset_context(token)

    def _predict(
        self,
        request: PredictRequest,
        *,
        request_id: Optional[str],
        trace_ctx: Optional[TraceContext],
    ) -> PredictResponse:
        start = time.perf_counter()
        articles = request.articles
        with self._span("serve.route"):
            groups: Dict[int, List[int]] = {}
            for i, article in enumerate(articles):
                groups.setdefault(self.plan.route(article), []).append(i)

        with self._span("serve.admit"):
            chosen = self._admit({shard: 1 for shard in groups})
        calls: List[tuple] = []
        with self._span("serve.dispatch", shards=len(groups)):
            with self._lock:
                for shard, indexes in groups.items():
                    req_id = next(self._req_ids)
                    call = _PendingCall()
                    self._pending[req_id] = call
                    calls.append((shard, indexes, req_id, call))
            for shard, indexes, req_id, call in calls:
                trace_payload = None
                if trace_ctx is not None:
                    trace_payload = {
                        "trace_id": trace_ctx.trace_id,
                        "parent_id": trace_ctx.span_id,
                        "enqueued": time.time(),
                    }
                chosen[shard].requests.put((
                    "predict",
                    req_id,
                    [_article_payload(articles[i]) for i in indexes],
                    request.return_proba,
                    trace_payload,
                ))

        deadline = start + self.request_timeout
        merged: List[Optional[Dict]] = [None] * len(articles)
        compute_ms = 0.0
        try:
            with self._span("serve.collect", shards=len(calls)):
                for shard, indexes, req_id, call in calls:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0 or not call.event.wait(remaining):
                        raise ServiceTimeout(
                            f"shard {shard} did not answer within "
                            f"{self.request_timeout}s"
                        )
                    if call.error is not None:
                        if not chosen[shard].alive():
                            raise ServiceUnavailable(
                                f"worker {chosen[shard].worker_id} died"
                            )
                        raise ServiceUnavailable(call.error)
                    for local, index in enumerate(indexes):
                        merged[index] = call.predictions[local]
                    compute_ms = max(
                        compute_ms, float(call.stats.get("compute_ms", 0.0))
                    )
        finally:
            with self._lock:
                for shard, _, req_id, _ in calls:
                    if self._pending.pop(req_id, None) is not None:
                        # Never answered (timeout/shutdown): the collector
                        # will not decrement for us — return the budget.
                        handle = chosen[shard]
                        if handle.inflight > 0:
                            handle.inflight -= 1
                self._inflight_gauge.set(
                    sum(h.inflight for h in self._workers)
                )

        total_seconds = time.perf_counter() - start
        self.metrics.record_batch(len(articles), total_seconds)
        if self.slo is not None:
            self.slo.observe_latency(total_seconds)
            self.slo.record_success()
            self.slo.observe_queue_depth(
                sum(h.inflight for h in self._workers)
            )
            self.slo.evaluate()
        return PredictResponse(
            predictions=[p for p in merged if p is not None],
            model_digest=self.model_digest,
            timing={
                "total_ms": 1e3 * total_seconds,
                "compute_ms": compute_ms,
                "shards": float(len(groups)),
            },
            meta={"request_id": request_id},
        )

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def health(self) -> Dict:
        """``/v1/healthz`` payload; non-``ok`` status renders as HTTP 503."""
        workers = [
            {
                "worker_id": h.worker_id,
                "shard": h.shard,
                "alive": h.alive(),
                "inflight": h.inflight,
                "blas_threads": h.blas_threads,
            }
            for h in self._workers
        ]
        dead = [w["worker_id"] for w in workers if not w["alive"]]
        payload: Dict = {
            "status": "ok",
            "model_digest": self.model_digest,
            "shards": self.num_shards,
            "workers": workers,
        }
        if self.slo is not None:
            slo_health = self.slo.health()
            payload["slo"] = slo_health
            if slo_health["status"] != "ok":
                payload["status"] = "degraded"
        drift = self.drift_status()
        if drift:
            breached_shards = sorted(
                shard for shard, s in drift.items() if s.get("breached")
            )
            payload["drift"] = {
                "shards": {str(shard): s for shard, s in drift.items()},
                "breached_shards": breached_shards,
            }
            if breached_shards:
                payload["status"] = "degraded"
        if dead or not self._started:
            payload["status"] = "degraded"
            payload["dead_workers"] = dead
        return payload


def _make_handler(service: PredictionService):
    """The stdlib request handler bound to one service instance."""

    class _Handler(BaseHTTPRequestHandler):
        server_version = "repro-serve/1"
        protocol_version = "HTTP/1.1"
        # keep-alive without Nagle: a buffered small reply would otherwise
        # stall ~40ms against the client's delayed ACK
        disable_nagle_algorithm = True

        def do_GET(self) -> None:  # stdlib handler naming contract
            route = self.path.split("?", 1)[0]
            if route == "/v1/healthz":
                payload = service.health()
                status = 200 if payload["status"] == "ok" else 503
                self._reply_json(status, payload)
            elif route == "/metrics":
                body = render_prometheus(service.metrics.registry).encode("utf-8")
                self._reply(200, "text/plain; version=0.0.4; charset=utf-8", body)
            elif route == "/debug/profile":
                self._debug_profile()
            else:
                self._reply_json(404, error_body("not_found", f"no route {route}"))

        def do_POST(self) -> None:  # stdlib handler naming contract
            route = self.path.split("?", 1)[0]
            if route != "/v1/predict":
                self._reply_json(404, error_body("not_found", f"no route {route}"))
                return
            service._http_requests.inc(1)
            # Correlation ids: echo the client's X-Request-Id (or mint one)
            # on every predict reply, success or failure, and adopt the
            # client's traceparent as the distributed trace parent.
            request_id = self.headers.get(REQUEST_ID_HEADER) or new_request_id()
            echo = {REQUEST_ID_HEADER: request_id}
            parent_context = extract_context(self.headers)
            try:
                length = int(self.headers.get("Content-Length", "0"))
                raw = self.rfile.read(length) if length else b""
                document = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self._reply_json(
                    400,
                    error_body("bad_request", "body is not valid JSON"),
                    headers=echo,
                )
                return
            try:
                request = PredictRequest.from_dict(document)
            except ProtocolError as exc:
                self._reply_json(400, error_body(exc.code, exc.message), headers=echo)
                return
            try:
                response = service.predict(
                    request,
                    request_id=request_id,
                    parent_context=parent_context,
                )
            except ServiceOverloaded as exc:
                service._http_rejected.inc(1)
                self._reply_json(
                    429,
                    error_body("overloaded", str(exc)),
                    headers={"Retry-After": "1", **echo},
                )
                return
            except ServiceTimeout as exc:
                self._record_error()
                self._reply_json(504, error_body("timeout", str(exc)), headers=echo)
                return
            except ServiceUnavailable as exc:
                self._record_error()
                self._reply_json(503, error_body("unavailable", str(exc)), headers=echo)
                return
            self._reply_json(200, response.to_dict(), headers=echo)

        def _debug_profile(self) -> None:
            """``GET /debug/profile?seconds=N[&format=json|folded|svg]``.

            An on-demand service-wide capture: blocks this handler thread
            for the window (ThreadingHTTPServer keeps serving traffic),
            then returns the merged per-shard profile.
            """
            params = parse_qs(self.path.partition("?")[2])
            try:
                seconds = float(params.get("seconds", ["1.0"])[0])
            except ValueError:
                self._reply_json(
                    400, error_body("bad_request", "seconds must be a number")
                )
                return
            fmt = params.get("format", ["json"])[0]
            if fmt not in ("json", "folded", "svg"):
                self._reply_json(
                    400,
                    error_body("bad_request", f"unknown profile format {fmt!r}"),
                )
                return
            try:
                profile = service.capture_profile(seconds)
            except ServiceUnavailable as exc:
                self._reply_json(503, error_body("unavailable", str(exc)))
                return
            if fmt == "svg":
                self._reply(
                    200,
                    "image/svg+xml",
                    render_flamegraph_svg(profile).encode("utf-8"),
                )
            elif fmt == "folded":
                self._reply(
                    200,
                    "text/plain; charset=utf-8",
                    profile.folded().encode("utf-8"),
                )
            else:
                self._reply_json(200, profile.to_dict())

        def _record_error(self) -> None:
            service._http_errors.inc(1)
            if service.slo is not None:
                service.slo.record_error()
                service.slo.evaluate()

        def _reply_json(
            self, status: int, payload: Dict, headers: Optional[Dict] = None
        ) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self._reply(status, "application/json", body, headers)

        def _reply(
            self,
            status: int,
            content_type: str,
            body: bytes,
            headers: Optional[Dict] = None,
        ) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt: str, *args) -> None:
            get_logger("serve.http").debug("request", detail=fmt % args)

    return _Handler
