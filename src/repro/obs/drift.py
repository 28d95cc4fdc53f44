"""Prediction-drift telemetry: PSI/KL monitoring against a training baseline.

The serving-time failure mode that accuracy metrics cannot see: the model
keeps answering, but the *inputs* (BoW feature activations) or the
*outputs* (class distribution, confidence) slide away from the corpus it
was fitted on, and quality decays silently. Following the distribution-
shift framing of dynamic-HIN fake news detection (arXiv 2205.07039), this
module captures a :class:`BaselineProfile` at checkpoint-save time and
compares a serving-side rolling window against it with two standard
divergences:

- **PSI** (population stability index): ``sum((a - e) * ln(a / e))`` over
  matched probability bins. The industry rule of thumb reads < 0.1 as
  stable, 0.1–0.25 as drifting, > 0.25 as shifted.
- **KL divergence** ``D(actual || expected)`` as a secondary, asymmetric
  view of the same histograms.

Three profile axes: predicted class distribution, max-softmax confidence
histogram (10 equal bins over [0, 1]), and per-feature Bernoulli
activation rates of the explicit BoW vector (summarized as the mean
per-feature PSI). A :class:`DriftMonitor` windows per-batch aggregates —
counts, not raw rows — so memory stays O(batches). It measures and never
judges: in ``repro serve http`` each worker runs one and ships
:meth:`DriftMonitor.summary` with every result, and the front end exports
the per-shard ``drift_*`` gauges and feeds the worse of the class and
confidence PSI to its SLO monitor, whose ``drift_psi`` rule is the one
drift verdict (:data:`repro.obs.slo.DRIFT_SIGNAL`).
"""

from __future__ import annotations

import dataclasses
import json
import threading
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

import numpy as np

PathLike = Union[str, Path]

BASELINE_SCHEMA = "repro.obs.drift_baseline/1"
DRIFT_BASELINE_FILE = "drift_baseline.json"

#: Bin edges for the max-softmax confidence histogram.
CONFIDENCE_EDGES = tuple(i / 10 for i in range(11))


# ----------------------------------------------------------------------
# Divergence math
# ----------------------------------------------------------------------
def _as_probs(values, eps: float) -> np.ndarray:
    arr = np.asarray(values, dtype=float).clip(min=eps)
    return arr / arr.sum()


def psi(expected, actual, eps: float = 1e-4) -> float:
    """Population stability index between two matched histograms.

    Inputs may be counts or probabilities; both are epsilon-clipped and
    renormalized so empty bins contribute a finite penalty instead of inf.
    """
    e = _as_probs(expected, eps)
    a = _as_probs(actual, eps)
    if e.shape != a.shape:
        raise ValueError(f"shape mismatch: {e.shape} vs {a.shape}")
    return float(np.sum((a - e) * np.log(a / e)))


def kl_divergence(expected, actual, eps: float = 1e-4) -> float:
    """``D_KL(actual || expected)`` over matched histograms (nats)."""
    e = _as_probs(expected, eps)
    a = _as_probs(actual, eps)
    if e.shape != a.shape:
        raise ValueError(f"shape mismatch: {e.shape} vs {a.shape}")
    return float(np.sum(a * np.log(a / e)))


def bernoulli_psi(expected_rates, actual_rates, eps: float = 1e-4) -> float:
    """Mean per-feature PSI between two vectors of activation rates.

    Each feature is a Bernoulli variable (active / inactive), so its PSI is
    the two-bin formula on ``(rate, 1 - rate)``; the summary statistic is
    the mean over features, keeping the scale comparable to :func:`psi`.
    """
    e = np.asarray(expected_rates, dtype=float).clip(eps, 1.0 - eps)
    a = np.asarray(actual_rates, dtype=float).clip(eps, 1.0 - eps)
    if e.shape != a.shape:
        raise ValueError(f"shape mismatch: {e.shape} vs {a.shape}")
    if e.size == 0:
        return 0.0
    per_feature = (a - e) * np.log(a / e) + (e - a) * np.log((1 - a) / (1 - e))
    return float(per_feature.mean())


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _batch_aggregates(
    explicit: np.ndarray, logits: np.ndarray, num_classes: int
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(n, class_counts, confidence_counts, activation_counts) for a batch."""
    explicit = np.atleast_2d(np.asarray(explicit, dtype=float))
    logits = np.atleast_2d(np.asarray(logits, dtype=float))
    probs = _softmax(logits)
    classes = probs.argmax(axis=1)
    class_counts = np.bincount(classes, minlength=num_classes).astype(float)
    confidence = probs.max(axis=1)
    conf_counts, _ = np.histogram(confidence, bins=np.asarray(CONFIDENCE_EDGES))
    activation_counts = (explicit > 0).sum(axis=0).astype(float)
    return len(logits), class_counts, conf_counts.astype(float), activation_counts


# ----------------------------------------------------------------------
# Baseline profile
# ----------------------------------------------------------------------
@dataclasses.dataclass
class BaselineProfile:
    """The training-time reference distribution a serving window drifts from."""

    class_probs: List[float]
    confidence_probs: List[float]
    feature_rates: List[float]
    samples: int

    @property
    def num_classes(self) -> int:
        return len(self.class_probs)

    @classmethod
    def from_observations(
        cls, explicit: np.ndarray, logits: np.ndarray
    ) -> "BaselineProfile":
        logits = np.atleast_2d(np.asarray(logits, dtype=float))
        n, class_counts, conf_counts, act_counts = _batch_aggregates(
            explicit, logits, logits.shape[1]
        )
        return cls(
            class_probs=list(class_counts / max(n, 1)),
            confidence_probs=list(conf_counts / max(n, 1)),
            feature_rates=list(act_counts / max(n, 1)),
            samples=n,
        )

    @classmethod
    def from_detector(cls, detector) -> "BaselineProfile":
        """Profile a fitted detector over its own training articles.

        One tape-free full-graph forward (:meth:`FakeDetector.predict_logits`)
        yields the article logits; the explicit BoW matrix is already
        materialized on the features object.
        """
        if detector.model is None or detector.features is None:
            raise RuntimeError("cannot profile an unfitted FakeDetector")
        return cls.from_observations(
            detector.features.articles.explicit,
            detector.predict_logits()["article"],
        )

    # -- persistence ---------------------------------------------------
    def to_dict(self) -> Dict:
        return {
            "schema": BASELINE_SCHEMA,
            "class_probs": [float(v) for v in self.class_probs],
            "confidence_probs": [float(v) for v in self.confidence_probs],
            "confidence_edges": list(CONFIDENCE_EDGES),
            "feature_rates": [float(v) for v in self.feature_rates],
            "samples": int(self.samples),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "BaselineProfile":
        schema = payload.get("schema")
        if schema != BASELINE_SCHEMA:
            raise ValueError(
                f"unsupported drift baseline schema {schema!r} "
                f"(expected {BASELINE_SCHEMA!r})"
            )
        return cls(
            class_probs=[float(v) for v in payload["class_probs"]],
            confidence_probs=[float(v) for v in payload["confidence_probs"]],
            feature_rates=[float(v) for v in payload["feature_rates"]],
            samples=int(payload["samples"]),
        )

    def save(self, directory: PathLike) -> Path:
        path = Path(directory) / DRIFT_BASELINE_FILE
        path.write_text(json.dumps(self.to_dict()))
        return path

    @classmethod
    def load(cls, path: PathLike) -> "BaselineProfile":
        return cls.from_dict(json.loads(Path(path).read_text()))


def load_baseline(checkpoint_dir: PathLike) -> Optional[BaselineProfile]:
    """The checkpoint's baseline profile, or ``None`` for pre-drift
    checkpoints saved before the profile existed (monitoring just stays
    off — old checkpoints keep serving)."""
    path = Path(checkpoint_dir) / DRIFT_BASELINE_FILE
    if not path.exists():
        return None
    return BaselineProfile.load(path)


# ----------------------------------------------------------------------
# Rolling-window monitor
# ----------------------------------------------------------------------
class DriftMonitor:
    """Rolling-window PSI/KL against a :class:`BaselineProfile`.

    The window holds per-batch *aggregates* (class counts, confidence
    histogram counts, feature activation counts) and evicts whole batches
    once retained samples exceed ``window`` — raw feature rows never
    accumulate. The divergences are computed once the window holds
    ``min_samples`` predictions; below that they read ``None``. The
    monitor only measures: deciding whether a divergence is a breach is
    the SLO monitor's ``drift_psi`` rule.

    Parameters
    ----------
    baseline: the reference profile.
    window: max prediction samples retained (by whole batches).
    min_samples: observations required before any divergence is reported.
    """

    def __init__(
        self,
        baseline: BaselineProfile,
        *,
        window: int = 1024,
        min_samples: int = 50,
    ):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.baseline = baseline
        self.window = window
        self.min_samples = min_samples
        self._lock = threading.Lock()
        self._batches: Deque[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = deque()
        self._samples = 0
        # Running window totals, updated on append/evict so evaluation is
        # O(bins) per batch instead of re-summing the whole deque.
        self._class_totals = np.zeros(baseline.num_classes)
        self._conf_totals = np.zeros(len(CONFIDENCE_EDGES) - 1)
        self._act_totals = np.zeros(len(baseline.feature_rates))
        self._last_summary: Optional[Dict] = None

    # -- feeding -------------------------------------------------------
    def observe_batch(self, explicit: np.ndarray, logits: np.ndarray) -> None:
        """Fold one prediction batch's features + logits into the window."""
        aggregates = _batch_aggregates(
            explicit, logits, self.baseline.num_classes
        )
        if aggregates[0] == 0:
            return
        with self._lock:
            self._batches.append(aggregates)
            self._samples += aggregates[0]
            self._class_totals += aggregates[1]
            self._conf_totals += aggregates[2]
            self._act_totals += aggregates[3]
            while self._samples - self._batches[0][0] >= self.window:
                dropped = self._batches.popleft()
                self._samples -= dropped[0]
                self._class_totals -= dropped[1]
                self._conf_totals -= dropped[2]
                self._act_totals -= dropped[3]
        self.evaluate()

    # -- evaluation ----------------------------------------------------
    def _window_totals(self):
        with self._lock:
            if not self._batches:
                return 0, None, None, None
            return (
                self._samples,
                self._class_totals.copy(),
                self._conf_totals.copy(),
                self._act_totals.copy(),
            )

    def evaluate(self) -> Dict:
        """Compute the window's divergences against the baseline."""
        n, class_counts, conf_counts, act_counts = self._window_totals()
        summary: Dict = {
            "samples": n,
            "class_psi": None,
            "confidence_psi": None,
            "feature_psi": None,
            "class_kl": None,
        }
        if n >= self.min_samples:
            # One normalization serves both class divergences.
            e = _as_probs(self.baseline.class_probs, 1e-4)
            a = _as_probs(class_counts, 1e-4)
            log_ratio = np.log(a / e)
            summary["class_psi"] = float(np.sum((a - e) * log_ratio))
            summary["class_kl"] = float(np.sum(a * log_ratio))
            summary["confidence_psi"] = psi(
                self.baseline.confidence_probs, conf_counts
            )
            summary["feature_psi"] = bernoulli_psi(
                self.baseline.feature_rates, act_counts / n
            )
        self._last_summary = summary
        return summary

    # -- reporting -----------------------------------------------------
    def summary(self) -> Dict:
        """Current window divergences — the dict workers ship to the parent.

        Returns the cached result of the last :meth:`evaluate` (every
        ``observe_batch`` evaluates), so the per-result hot path pays one
        dict read, not a divergence recomputation.
        """
        if self._last_summary is None:
            return self.evaluate()
        return self._last_summary
