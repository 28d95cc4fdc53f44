"""Worker processes: model replicas with shard-local diffusion context.

Each :class:`WorkerHandle` owns one OS process running :func:`worker_main`:
load the directory checkpoint, build an :class:`repro.serve.InferenceSession`
restricted to the worker's shard context (see :class:`repro.serve.ShardPlan`),
then loop — drain a micro-batch from the request queue (dynamic batching:
whole requests until the batch holds ``max_batch_size`` articles, waiting
at most ``max_wait`` seconds after the first), run one batched forward,
and push per-request results to the shared response queue. The wire
between parent and worker carries only plain dicts (protocol article
payloads in, protocol prediction objects out), so the parent never
touches numpy state and the processes stay restart-equivalent.

Messages
--------
parent → worker:  ``("predict", req_id, [article payload, ...], return_proba,
                  trace)`` — ``trace`` is ``None`` or ``{"trace_id",
                  "parent_id", "enqueued"}`` naming the front-end request
                  span this work belongs to — the profiler control
                  messages ``("profile_start", hz)``, ``("profile_snapshot",
                  req_id)``, ``("profile_stop",)`` — or the stop sentinel
                  ``("stop",)``
worker → parent:  ``("ready", worker_id, model_digest, blas_threads)`` once
                  warm (``blas_threads`` is the worker's effective BLAS
                  thread count, ``None`` when it could not be read), then
                  ``("result", worker_id, req_id, [prediction, ...], stats,
                  spans)`` or ``("error", worker_id, req_id, message)``;
                  a ``("profile_snapshot", req_id)`` is answered with
                  ``("profile_result", worker_id, req_id, profile dict or
                  None)`` carrying the worker's folded-stack aggregate
                  (schema ``repro.obs.profile/1``)

``spans`` are finished span dicts (queue wait, batch assembly, GDU
forward, serialize) parented under the front-end request span; they use
``time.time()`` wall-clock stamps because ``perf_counter`` readings are
not comparable across processes. When a drift monitor is armed (the
checkpoint shipped a baseline), ``stats["drift"]`` carries the worker's
current window summary back on every result.

BLAS sizing
-----------
Every worker inherits the BLAS library's default thread pool (one thread
per core), so a pool of ``workers`` processes would run ``workers × cores``
BLAS threads on ``cores`` CPUs. With ``blas_limit`` set (the service always
sets ``max(1, cores // workers)``), the worker caps its BLAS pool before
it loads the checkpoint, through :func:`_cap_blas_threads`.
"""

from __future__ import annotations

import ctypes
import dataclasses
import multiprocessing
import os
import queue as queue_mod
import time
from typing import Dict, List, Optional

#: Fallback result when a drained request cannot be answered.
_STOP = ("stop",)

#: The shared objects mapped into this process, one per line (Linux).
_PROC_MAPS = "/proc/self/maps"
#: (setter, getter) thread-count entry points, tried in order: the
#: scipy-openblas build bundled with numpy wheels (64-bit integer API,
#: suffixed symbols), then the plain OpenBLAS names.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _cap_blas_threads(limit: int) -> Optional[int]:
    """Cap this process's BLAS thread pool at ``limit``; never raise it.

    The library is found among the shared objects this process has
    already mapped (numpy maps its BLAS on import) and reopened with
    ``RTLD_NOLOAD``, so nothing new is ever loaded. Returns the effective
    thread count read back from the library. When no thread setter is
    found, logs one warning and returns ``None`` with BLAS left alone.
    """
    try:
        with open(_PROC_MAPS) as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        fields = []
    paths = [f[5].strip() for f in fields if len(f) == 6]
    paths = [p for p in dict.fromkeys(paths) if "blas" in os.path.basename(p)]
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for set_name, get_name in _BLAS_THREAD_SYMBOLS:
            setter = getattr(lib, set_name, None)
            getter = getattr(lib, get_name, None)
            if setter is None or getter is None:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            if limit < getter():
                setter(max(1, limit))
            return getter()
    from ..obs import get_logger

    get_logger("serve.worker").warning("blas_threads_unsized", limit=limit)
    return None


def _drain_batch(requests, first, max_batch_size: int, max_wait: float) -> List:
    """Dynamic batching: coalesce queued predict messages behind ``first``.

    The cap counts articles, not messages: draining (and waiting) stops
    once the batch holds ``max_batch_size`` articles, so a bulk request
    that fills the cap on its own runs at once. A message is never split,
    so the last one taken may carry the batch past the cap.
    """
    batch = [first]
    held = len(first[2])
    deadline = time.monotonic() + max_wait
    while held < max_batch_size:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        try:
            message = requests.get(timeout=remaining)
        except queue_mod.Empty:
            break
        if message[0] != "predict":
            # Control message (stop / profiler): re-enqueue so the main
            # loop handles it after this batch.
            requests.put(message)
            break
        batch.append(message)
        held += len(message[2])
    return batch


def _request_trace(message) -> Optional[Dict]:
    """The trace dict of one predict message (``None`` pre-revision)."""
    return message[4] if len(message) > 4 else None


def worker_main(
    checkpoint: str,
    worker_id: int,
    shard: int,
    plan_payload: Optional[Dict],
    requests,
    responses,
    *,
    max_batch_size: int = 32,
    max_wait: float = 0.002,
    feature_cache_size: int = 2048,
    drift_baseline: Optional[str] = None,
    drift_threshold: float = 0.25,
    drift_window: int = 1024,
    drift_min_samples: int = 50,
    profile_hz: Optional[float] = None,
    blas_limit: Optional[int] = None,
) -> None:
    """Process entry point: warm a session, then serve until ``("stop",)``.

    ``blas_limit`` caps the BLAS thread pool before anything computes;
    ``None`` leaves it as inherited.
    """
    from ..obs import get_logger
    from ..obs.drift import BaselineProfile, DriftMonitor
    from ..obs.flame import DEFAULT_HZ, SamplingProfiler, tag
    from ..obs.tracing import span_record
    from .checkpoint import checkpoint_digest, load_detector
    from .protocol import encode_prediction
    from .session import ArticleRequest, InferenceSession
    from .shard import ShardPlan

    log = get_logger("serve.worker")
    blas_threads = None
    if blas_limit is not None:
        blas_threads = _cap_blas_threads(blas_limit)
    detector = load_detector(checkpoint)
    context_ids = None
    if plan_payload is not None:
        plan = ShardPlan.from_dict(plan_payload)
        if plan.num_shards > 1:
            context_ids = plan.context_ids(shard)
    drift = None
    if drift_baseline is not None:
        drift = DriftMonitor(
            BaselineProfile.load(drift_baseline),
            window=drift_window,
            threshold=drift_threshold,
            min_samples=drift_min_samples,
            shard=shard,
        )
    session = InferenceSession(
        detector,
        feature_cache_size=feature_cache_size,
        context_ids=context_ids,
        drift=drift,
    )
    digest = checkpoint_digest(checkpoint)
    # The profiler stays a local (never module state — RA203): it is born
    # after fork in this process, so its sampler thread and counts are
    # this worker's alone. Started post-warmup so checkpoint load and
    # session warming don't dominate the serving profile.
    profiler: Optional[SamplingProfiler] = None
    if profile_hz:
        profiler = SamplingProfiler(interval=1.0 / profile_hz).start()
    responses.put(("ready", worker_id, digest, blas_threads))
    log.info(
        "warm", worker=worker_id, shard=shard, digest=digest,
        blas_threads=blas_threads,
    )

    while True:
        try:
            message = requests.get(timeout=1.0)
        except queue_mod.Empty:
            # The stop sentinel is the normal exit; the timeout lets an
            # orphaned worker notice its parent died without the sentinel.
            parent = multiprocessing.parent_process()
            if parent is not None and not parent.is_alive():
                log.warning("orphaned", worker=worker_id)
                break
            continue
        if message[0] == "stop":
            break
        if message[0] == "profile_start":
            hz = message[1] or DEFAULT_HZ
            if profiler is not None:
                profiler.stop()
            profiler = SamplingProfiler(interval=1.0 / hz).start()
            continue
        if message[0] == "profile_snapshot":
            payload = None
            if profiler is not None:
                payload = profiler.snapshot(
                    meta={"worker": worker_id, "shard": shard}
                ).to_dict()
            responses.put(("profile_result", worker_id, message[1], payload))
            continue
        if message[0] == "profile_stop":
            if profiler is not None:
                profiler.stop()
                profiler = None
            continue
        recv_wall = time.time()
        batch = _drain_batch(requests, message, max_batch_size, max_wait)
        assembled_wall = time.time()
        start = time.perf_counter()
        # One forward for the whole micro-batch; probabilities are computed
        # when any rider asked, then stripped from the ones that did not.
        articles = []
        spans = []
        any_proba = False
        for entry in batch:
            payloads, return_proba = entry[2], entry[3]
            spans.append((len(articles), len(articles) + len(payloads), return_proba))
            articles.extend(ArticleRequest.from_dict(p) for p in payloads)
            any_proba = any_proba or return_proba
        try:
            # Tagged so sampled stacks carry the serving-stage ancestry:
            # workers have no live Tracer (they ship hand-built span
            # records), so the span observer can't label them.
            with tag("worker.forward"):
                predictions = session.predict(articles, return_proba=any_proba)
        except Exception as exc:
            log.error("batch_failed", worker=worker_id, error=repr(exc))
            for entry in batch:
                responses.put(("error", worker_id, entry[1], repr(exc)))
            continue
        forward_wall = time.time()
        seconds = time.perf_counter() - start
        stats = {
            "compute_ms": 1e3 * seconds,
            "batch_size": len(articles),
            "batch_requests": len(batch),
            "shard": shard,
        }
        if drift is not None:
            stats["drift"] = drift.summary()
        for (lo, hi, return_proba), entry in zip(spans, batch):
            req_id, trace = entry[1], _request_trace(entry)
            serialize_start = time.time()
            encoded = []
            for prediction in predictions[lo:hi]:
                if not return_proba:
                    prediction.proba = None
                encoded.append(encode_prediction(prediction, shard=shard))
            trace_spans = []
            if trace is not None:
                common = {
                    "trace_id": trace["trace_id"],
                    "parent_id": trace.get("parent_id"),
                }
                trace_spans = [
                    span_record(
                        "worker.queue_wait",
                        start=float(trace.get("enqueued", recv_wall)),
                        end=recv_wall,
                        worker=worker_id, shard=shard, **common,
                    ),
                    span_record(
                        "worker.batch_assembly",
                        start=recv_wall, end=assembled_wall,
                        batch_requests=len(batch), worker=worker_id, **common,
                    ),
                    span_record(
                        "worker.forward",
                        start=assembled_wall, end=forward_wall,
                        batch=len(articles), worker=worker_id, shard=shard,
                        **common,
                    ),
                    span_record(
                        "worker.serialize",
                        start=serialize_start, end=time.time(),
                        predictions=hi - lo, worker=worker_id, **common,
                    ),
                ]
            responses.put(
                ("result", worker_id, req_id, encoded, stats, trace_spans)
            )
    if profiler is not None:
        profiler.stop()
    log.info("stopped", worker=worker_id, shard=shard)


@dataclasses.dataclass
class WorkerHandle:
    """Parent-side view of one worker process."""

    worker_id: int
    shard: int
    process: multiprocessing.Process
    requests: "multiprocessing.Queue"
    #: outstanding requests (parent-maintained, admission-control input)
    inflight: int = 0
    model_digest: str = ""
    #: effective BLAS threads the worker reported when warm
    blas_threads: Optional[int] = None

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self, timeout: float = 5.0) -> None:
        if self.process.is_alive():
            self.requests.put(_STOP)
            self.process.join(timeout)
        if self.process.is_alive():  # drain-free hard stop
            self.process.terminate()
            self.process.join(timeout)


def spawn_worker(
    checkpoint: str,
    worker_id: int,
    shard: int,
    plan_payload: Optional[Dict],
    responses,
    *,
    max_batch_size: int = 32,
    max_wait: float = 0.002,
    feature_cache_size: int = 2048,
    drift_baseline: Optional[str] = None,
    drift_threshold: float = 0.25,
    drift_window: int = 1024,
    drift_min_samples: int = 50,
    profile_hz: Optional[float] = None,
    blas_limit: Optional[int] = None,
    mp_context=None,
) -> WorkerHandle:
    """Start one worker process and return its parent-side handle."""
    ctx = mp_context or multiprocessing.get_context()
    requests = ctx.Queue()
    process = ctx.Process(
        target=worker_main,
        args=(str(checkpoint), worker_id, shard, plan_payload, requests, responses),
        kwargs={
            "max_batch_size": max_batch_size,
            "max_wait": max_wait,
            "feature_cache_size": feature_cache_size,
            "drift_baseline": drift_baseline,
            "drift_threshold": drift_threshold,
            "drift_window": drift_window,
            "drift_min_samples": drift_min_samples,
            "profile_hz": profile_hz,
            "blas_limit": blas_limit,
        },
        daemon=True,
        name=f"repro-serve-worker-{worker_id}",
    )
    process.start()
    return WorkerHandle(
        worker_id=worker_id, shard=shard, process=process, requests=requests
    )
