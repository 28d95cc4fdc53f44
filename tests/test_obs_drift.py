"""Drift telemetry: PSI/KL math, baseline round-trips, the window monitor."""

import json
import math

import numpy as np
import pytest

from repro.obs import (
    BASELINE_SCHEMA,
    BaselineProfile,
    DriftMonitor,
    bernoulli_psi,
    kl_divergence,
    load_baseline,
    psi,
)


class TestDivergences:
    def test_identical_distributions_are_zero(self):
        assert psi([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == pytest.approx(0.0, abs=1e-9)
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-9)
        assert bernoulli_psi([0.1, 0.9], [0.1, 0.9]) == pytest.approx(0.0, abs=1e-9)

    def test_counts_and_probs_are_equivalent(self):
        assert psi([2, 3, 5], [20, 30, 50]) == pytest.approx(0.0, abs=1e-9)

    def test_psi_known_value(self):
        # Hand-computed: sum((a-e)*ln(a/e)) for e=(.5,.5), a=(.8,.2).
        expected = (0.8 - 0.5) * math.log(0.8 / 0.5) + (0.2 - 0.5) * math.log(
            0.2 / 0.5
        )
        assert psi([0.5, 0.5], [0.8, 0.2]) == pytest.approx(expected)

    def test_kl_known_value(self):
        expected = 0.8 * math.log(0.8 / 0.5) + 0.2 * math.log(0.2 / 0.5)
        assert kl_divergence([0.5, 0.5], [0.8, 0.2]) == pytest.approx(expected)

    def test_psi_is_symmetric_kl_is_not(self):
        e, a = [0.7, 0.3], [0.3, 0.7]
        assert psi(e, a) == pytest.approx(psi(a, e))
        assert kl_divergence(e, a) != pytest.approx(kl_divergence([0.6, 0.4], a))

    def test_empty_bin_is_finite(self):
        value = psi([0.5, 0.5], [1.0, 0.0])
        assert np.isfinite(value) and value > 0.25

    def test_flipped_distribution_breaches_rule_of_thumb(self):
        assert psi([0.9, 0.1], [0.1, 0.9]) > 0.25

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            psi([0.5, 0.5], [1.0])
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [1.0])
        with pytest.raises(ValueError):
            bernoulli_psi([0.5], [0.5, 0.5])

    def test_bernoulli_psi_empty_features(self):
        assert bernoulli_psi([], []) == 0.0

    def test_bernoulli_psi_grows_with_rate_gap(self):
        near = bernoulli_psi([0.5, 0.5], [0.55, 0.5])
        far = bernoulli_psi([0.5, 0.5], [0.95, 0.5])
        assert 0.0 < near < far


def make_baseline(num_classes=2, num_features=3):
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(200, num_classes))
    explicit = (rng.random((200, num_features)) > 0.5).astype(float)
    return BaselineProfile.from_observations(explicit, logits)


class TestBaselineProfile:
    def test_from_observations_normalizes(self):
        baseline = make_baseline()
        assert baseline.samples == 200
        assert sum(baseline.class_probs) == pytest.approx(1.0)
        assert sum(baseline.confidence_probs) == pytest.approx(1.0)
        assert all(0.0 <= r <= 1.0 for r in baseline.feature_rates)

    def test_dict_round_trip(self):
        baseline = make_baseline()
        doc = json.loads(json.dumps(baseline.to_dict()))
        assert doc["schema"] == BASELINE_SCHEMA
        again = BaselineProfile.from_dict(doc)
        assert again == baseline

    def test_bad_schema_rejected(self):
        doc = make_baseline().to_dict()
        doc["schema"] = "repro.obs.drift_baseline/9"
        with pytest.raises(ValueError, match="schema"):
            BaselineProfile.from_dict(doc)

    def test_save_load_round_trip(self, tmp_path):
        baseline = make_baseline()
        path = baseline.save(tmp_path)
        assert path.name == "drift_baseline.json"
        assert BaselineProfile.load(path) == baseline
        assert load_baseline(tmp_path) == baseline

    def test_load_baseline_missing_is_none(self, tmp_path):
        assert load_baseline(tmp_path) is None


class TestDriftMonitor:
    def _stable_batch(self, n=60, seed=1):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(n, 2))
        explicit = (rng.random((n, 3)) > 0.5).astype(float)
        return explicit, logits

    def _shifted_batch(self, n=60):
        # Every prediction lands in class 1 at extreme confidence.
        logits = np.tile([[-9.0, 9.0]], (n, 1))
        explicit = np.ones((n, 3))
        return explicit, logits

    def test_below_min_samples_no_verdict(self):
        monitor = DriftMonitor(make_baseline(), min_samples=50)
        explicit, logits = self._stable_batch(n=10)
        monitor.observe_batch(explicit, logits)
        summary = monitor.evaluate()
        assert summary["samples"] == 10
        assert summary["class_psi"] is None
        assert summary["confidence_psi"] is None
        # The monitor measures; the SLO monitor's drift_psi rule judges.
        assert "breached" not in summary and "threshold" not in summary

    def test_stable_stream_stays_green(self):
        monitor = DriftMonitor(make_baseline(), min_samples=50)
        for seed in range(3):
            monitor.observe_batch(*self._stable_batch(seed=seed + 10))
        assert monitor.evaluate()["class_psi"] < 0.25

    def test_shifted_stream_reads_above_rule_of_thumb(self):
        monitor = DriftMonitor(make_baseline(), window=120, min_samples=50)
        monitor.observe_batch(*self._shifted_batch())
        summary = monitor.summary()
        assert summary["class_psi"] > 0.25
        assert summary["confidence_psi"] > 0.25
        # Stable traffic evicts the shifted batch out of the window.
        for seed in range(4):
            monitor.observe_batch(*self._stable_batch(seed=seed + 20))
        assert monitor.summary()["class_psi"] < 0.25

    def test_window_evicts_whole_batches(self):
        monitor = DriftMonitor(make_baseline(), window=100, min_samples=10)
        for seed in range(5):
            monitor.observe_batch(*self._stable_batch(n=60, seed=seed))
        assert monitor.evaluate()["samples"] <= 100 + 60

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            DriftMonitor(make_baseline(), window=0)
