"""Serving SLO monitor: rolling-window alert rules over live signals.

The serving path ("millions of users" on the ROADMAP) needs a health signal
that reacts while the process runs, not a post-mortem snapshot. An
:class:`SloMonitor` holds a set of :class:`SloRule` objects — each one
"aggregate of a signal over a rolling time window, compared to a
threshold" — and is fed observations by
:class:`repro.serve.PredictionService`: each request's latency, its
success or error, and each worker's drift PSI. Its ``drift_psi`` rule is
the service's one drift verdict: :class:`repro.obs.DriftMonitor` only
measures.

Breaches are *edge-triggered* structured events: the monitor emits one
``obs.slo.breach`` warning when a rule crosses into violation and one
``obs.slo.recover`` info event when it heals, rather than spamming every
evaluation. Current state is available as :meth:`health`; the service
nests it under ``slo`` in ``/v1/healthz``, and a breached SLO flips that
endpoint to 503 — the conventional load-balancer eject signal.

Signals are windows of ``(monotonic_ts, value)`` pairs. The ``error_rate``
aggregate treats values as 0/1 failure flags; ``p50``/``p95``/``p99``/
``mean``/``max``/``last`` aggregate the raw values.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .events import get_logger
from .metrics import MetricsRegistry, percentile

#: Aggregates a rule may apply over its window.
AGGREGATES = ("p50", "p95", "p99", "mean", "max", "last", "error_rate")

#: Signal carrying the worse of each drift summary's class and confidence
#: PSI (the ``drift_psi`` rule).
DRIFT_SIGNAL = "drift_psi"


@dataclasses.dataclass(frozen=True)
class SloRule:
    """One alert rule: aggregate(signal over window) must stay ≤ threshold."""

    name: str                   # e.g. "latency_p95"
    signal: str                 # e.g. "latency_seconds"
    aggregate: str              # one of AGGREGATES
    threshold: float
    window_seconds: float = 60.0
    min_samples: int = 3        # don't alert off one unlucky request

    def __post_init__(self):
        if self.aggregate not in AGGREGATES:
            raise ValueError(
                f"unknown aggregate {self.aggregate!r} (expected {AGGREGATES})"
            )
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


@dataclasses.dataclass(frozen=True)
class SloStatus:
    """Point-in-time evaluation of one rule."""

    rule: str
    signal: str
    value: Optional[float]      # None: not enough samples yet
    threshold: float
    breached: bool
    samples: int

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)


def default_serving_rules(
    p95_latency_s: Optional[float] = None,
    error_rate: Optional[float] = None,
    drift_psi: Optional[float] = None,
    window_seconds: float = 60.0,
) -> List[SloRule]:
    """The standard serving rule set, one rule per provided threshold."""
    rules: List[SloRule] = []
    if drift_psi is not None:
        rules.append(SloRule(
            "drift_psi", DRIFT_SIGNAL, "mean", drift_psi,
            window_seconds=window_seconds,
        ))
    if p95_latency_s is not None:
        rules.append(SloRule(
            "latency_p95", "latency_seconds", "p95", p95_latency_s,
            window_seconds=window_seconds,
        ))
    if error_rate is not None:
        rules.append(SloRule(
            "error_rate", "errors", "error_rate", error_rate,
            window_seconds=window_seconds,
        ))
    return rules


class SloMonitor:
    """Evaluates rolling-window rules and emits breach/recover events.

    Parameters
    ----------
    rules:
        The :class:`SloRule` set to evaluate.
    logger:
        Structured event logger; defaults to ``get_logger("obs.slo")``.
        Breaches are ``warning`` events named ``breach``, recoveries are
        ``info`` events named ``recover``.
    registry:
        Optional :class:`MetricsRegistry`; when given, the monitor keeps
        ``obs.slo.breaches`` (counter of breach transitions) and
        ``obs.slo.breached`` (gauge of currently breached rules) so the
        exporter surfaces alert state on ``/metrics``.
    clock:
        Injectable monotonic clock (tests).
    """

    def __init__(
        self,
        rules: List[SloRule],
        logger=None,
        registry: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {names}")
        self.rules = list(rules)
        self._logger = logger if logger is not None else get_logger("obs.slo")
        self._clock = clock
        self._lock = threading.Lock()
        self._windows: Dict[str, Deque[Tuple[float, float]]] = {}
        self._breached: Dict[str, bool] = {rule.name: False for rule in rules}
        self._breach_counter = None
        self._breached_gauge = None
        if registry is not None:
            self._breach_counter = registry.counter("obs.slo.breaches")
            self._breached_gauge = registry.gauge("obs.slo.breached")

    # -- feeding -------------------------------------------------------
    def observe(self, signal: str, value: float) -> None:
        """Append one sample to ``signal``'s rolling window."""
        now = self._clock()
        with self._lock:
            window = self._windows.get(signal)
            if window is None:
                window = self._windows[signal] = deque()
            window.append((now, float(value)))
            self._trim(signal, now)

    def observe_latency(self, seconds: float) -> None:
        self.observe("latency_seconds", seconds)

    def record_success(self, n: int = 1) -> None:
        for _ in range(n):
            self.observe("errors", 0.0)

    def record_error(self, n: int = 1) -> None:
        for _ in range(n):
            self.observe("errors", 1.0)

    def _trim(self, signal: str, now: float) -> None:
        horizon = max(rule.window_seconds for rule in self.rules) if self.rules else 0.0
        window = self._windows[signal]
        while window and now - window[0][0] > horizon:
            window.popleft()

    # -- evaluation ----------------------------------------------------
    def _aggregate(self, rule: SloRule, now: float) -> Tuple[Optional[float], int]:
        with self._lock:
            window = self._windows.get(rule.signal, ())
            values = [v for ts, v in window if now - ts <= rule.window_seconds]
        if len(values) < rule.min_samples:
            return None, len(values)
        if rule.aggregate == "error_rate":
            return sum(1.0 for v in values if v > 0) / len(values), len(values)
        if rule.aggregate == "mean":
            return sum(values) / len(values), len(values)
        if rule.aggregate == "max":
            return max(values), len(values)
        if rule.aggregate == "last":
            return values[-1], len(values)
        ordered = sorted(values)
        fraction = {"p50": 0.50, "p95": 0.95, "p99": 0.99}[rule.aggregate]
        return percentile(ordered, fraction), len(values)

    def evaluate(self) -> List[SloStatus]:
        """Evaluate every rule now; emit events on breach/recover edges."""
        now = self._clock()
        statuses: List[SloStatus] = []
        for rule in self.rules:
            value, samples = self._aggregate(rule, now)
            breached = value is not None and value > rule.threshold
            statuses.append(SloStatus(
                rule=rule.name,
                signal=rule.signal,
                value=value,
                threshold=rule.threshold,
                breached=breached,
                samples=samples,
            ))
            was = self._breached[rule.name]
            if breached and not was:
                self._breached[rule.name] = True
                if self._breach_counter is not None:
                    self._breach_counter.inc(1)
                self._logger.warning(
                    "breach",
                    rule=rule.name,
                    signal=rule.signal,
                    aggregate=rule.aggregate,
                    value=value,
                    threshold=rule.threshold,
                    samples=samples,
                )
            elif was and not breached and value is not None:
                self._breached[rule.name] = False
                self._logger.info(
                    "recover",
                    rule=rule.name,
                    signal=rule.signal,
                    value=value,
                    threshold=rule.threshold,
                )
        if self._breached_gauge is not None:
            self._breached_gauge.set(sum(self._breached.values()))
        return statuses

    # -- reporting -----------------------------------------------------
    @property
    def breached_rules(self) -> List[str]:
        return sorted(name for name, hit in self._breached.items() if hit)

    def health(self) -> Dict:
        """``/healthz`` payload: ``status`` plus per-rule detail."""
        statuses = self.evaluate()
        breached = [s.rule for s in statuses if s.breached]
        return {
            "status": "degraded" if breached else "ok",
            "breached": breached,
            "rules": [s.to_dict() for s in statuses],
        }
