"""Micro-batching request queue for the inference server.

Concurrent callers submit single items; a worker thread coalesces them into
batches bounded by ``max_batch_size`` and ``max_wait`` seconds, hands each
batch to a user handler (e.g. ``InferenceSession.predict``), and
resolves every caller's :class:`PendingResult`. Batching amortizes the
per-forward overhead of the numpy substrate across simultaneous requests —
the standard dynamic-batching pattern of model servers.

Observability: :meth:`BatchQueue.submit` stamps each
:class:`PendingResult` with its enqueue time, so when the queue is given a
:class:`repro.serve.ServingMetrics` it records the *true* per-request
latency (queue wait + compute) rather than the handler's compute-share
estimate. Each handler invocation also runs inside a ``serve.batch`` trace
span carrying batch size and queue-wait attributes.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, List, Optional, Sequence

from ..obs import trace

_SENTINEL = object()


class QueueStopped(RuntimeError):
    """Raised by :meth:`PendingResult.result` when the queue shut down first."""


class PendingResult:
    """Future-like handle for one submitted item."""

    def __init__(self):
        self._event = threading.Event()
        self._value: Any = None
        self._error: Optional[BaseException] = None
        #: perf_counter timestamp set by BatchQueue.submit; the basis of
        #: true per-request latency accounting.
        self.enqueued_at: Optional[float] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> Any:
        """Block until the batch containing this item was processed."""
        if not self._event.wait(timeout):
            raise TimeoutError("request did not complete in time")
        if self._error is not None:
            raise self._error
        return self._value

    # internal -----------------------------------------------------------
    def _resolve(self, value: Any) -> None:
        self._value = value
        self._event.set()

    def _reject(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class BatchQueue:
    """Coalesce concurrent single-item submissions into handler batches.

    Parameters
    ----------
    handler:
        ``handler(items) -> results`` with ``len(results) == len(items)``.
    max_batch_size:
        Hard cap on items per handler call. ``repro serve batch`` submits
        one article per item, so there it counts articles, like the
        service worker's cap (:mod:`repro.serve.worker`).
    max_wait:
        Seconds the worker waits for more items after the first one
        arrives. Larger values trade latency for bigger batches.
    metrics:
        Optional :class:`repro.serve.ServingMetrics`. When set, every
        resolved request records its true latency (enqueue to resolve)
        and queue wait; the handler runs under
        :meth:`ServingMetrics.deferred_latency` so a session sharing the
        same metrics object does not double-record.
    slo:
        Optional :class:`repro.obs.SloMonitor`. The queue feeds it the
        signals only it can see — per-batch max queue wait, the post-batch
        queue depth, and handler success/error counts — and evaluates the
        rules after every batch, so breach events fire while the server
        runs. Pass the same monitor to the :class:`InferenceSession` to add
        the compute-latency signal.
    """

    def __init__(
        self,
        handler: Callable[[List[Any]], Sequence[Any]],
        max_batch_size: int = 32,
        max_wait: float = 0.01,
        metrics=None,
        slo=None,
    ):
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_wait < 0:
            raise ValueError("max_wait must be >= 0")
        self.handler = handler
        self.max_batch_size = max_batch_size
        self.max_wait = max_wait
        self.metrics = metrics
        self.slo = slo
        self._queue: "queue.Queue" = queue.Queue()
        self._thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        #: number of handler invocations (exposed for tests/benchmarks)
        self.batches_processed = 0

    # ------------------------------------------------------------------
    def start(self) -> "BatchQueue":
        if self._thread is not None and self._thread.is_alive():
            raise RuntimeError("BatchQueue already started")
        self._stopping.clear()
        self._thread = threading.Thread(target=self._run, daemon=True, name="repro-batch-queue")
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        """Drain-free shutdown: pending items are rejected with QueueStopped."""
        if self._thread is None:
            return
        self._stopping.set()
        self._queue.put(_SENTINEL)
        self._thread.join(timeout)
        self._thread = None
        self._reject_pending()

    def __enter__(self) -> "BatchQueue":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def submit(self, item: Any) -> PendingResult:
        """Enqueue one item; returns a handle to wait on."""
        if self._thread is None or not self._thread.is_alive():
            raise RuntimeError("BatchQueue is not running (call start())")
        pending = PendingResult()
        pending.enqueued_at = time.perf_counter()
        self._queue.put((item, pending))
        return pending

    def predict(self, item: Any, timeout: Optional[float] = None) -> Any:
        """Submit and block for the result (the synchronous client call)."""
        return self.submit(item).result(timeout)

    # ------------------------------------------------------------------
    def _collect_batch(self, first) -> List:
        batch = [first]
        deadline = time.monotonic() + self.max_wait
        while len(batch) < self.max_batch_size:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                entry = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if entry is _SENTINEL:
                # Preserve shutdown: the main loop re-reads it next round.
                self._queue.put(_SENTINEL)
                break
            batch.append(entry)
        return batch

    def _run(self) -> None:
        while True:
            try:
                entry = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._stopping.is_set():
                    return
                continue
            if entry is _SENTINEL:
                return
            batch = self._collect_batch(entry)
            items = [item for item, _ in batch]
            pendings = [pending for _, pending in batch]
            compute_start = time.perf_counter()
            queue_waits = [
                compute_start - p.enqueued_at
                for p in pendings
                if p.enqueued_at is not None
            ]
            with trace("serve.batch", size=len(items)) as span:
                try:
                    if self.metrics is not None:
                        with self.metrics.deferred_latency():
                            results = self.handler(items)
                    else:
                        results = self.handler(items)
                    if len(results) != len(items):
                        raise RuntimeError(
                            f"handler returned {len(results)} results "
                            f"for {len(items)} items"
                        )
                except BaseException as exc:  # propagate to every waiter
                    for pending in pendings:
                        pending._reject(exc)
                    if self.slo is not None:
                        self.slo.record_error(len(pendings))
                        self.slo.evaluate()
                    continue
                done = time.perf_counter()
                span.set(
                    compute_seconds=done - compute_start,
                    queue_wait_max_seconds=max(queue_waits, default=0.0),
                )
            self.batches_processed += 1
            for pending, result in zip(pendings, results):
                pending._resolve(result)
            if self.metrics is not None:
                resolved = time.perf_counter()
                self.metrics.record_queued(
                    latencies=[
                        resolved - p.enqueued_at
                        for p in pendings
                        if p.enqueued_at is not None
                    ],
                    queue_waits=queue_waits,
                )
            if self.slo is not None:
                self.slo.observe_queue_wait(max(queue_waits, default=0.0))
                self.slo.observe_queue_depth(self._queue.qsize())
                self.slo.record_success(len(pendings))
                self.slo.evaluate()

    def _reject_pending(self) -> None:
        while True:
            try:
                entry = self._queue.get_nowait()
            except queue.Empty:
                return
            if entry is _SENTINEL:
                continue
            entry[1]._reject(QueueStopped("BatchQueue stopped before processing"))
