"""Tests for the Adam optimizer and gradient clipping."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd import optim


def quadratic_minimize(optimizer_factory, steps=300, dim=5, seed=0):
    """Minimize ||x - target||^2; return final distance to optimum."""
    rng = np.random.default_rng(seed)
    target = rng.standard_normal(dim)
    x = Tensor(rng.standard_normal(dim) * 3, requires_grad=True)
    opt = optimizer_factory([x])
    for _ in range(steps):
        diff = x - Tensor(target)
        loss = (diff * diff).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
    return float(np.abs(x.data - target).max())


class TestAdam:
    def test_converges_on_quadratic(self):
        assert quadratic_minimize(lambda p: optim.Adam(p, lr=0.1), steps=500) < 1e-4

    def test_bias_correction_first_step(self):
        # With bias correction the first Adam step has magnitude ~lr.
        x = Tensor(np.array([10.0]), requires_grad=True)
        opt = optim.Adam([x], lr=0.01)
        x.grad = np.array([4.0])
        opt.step()
        np.testing.assert_allclose(10.0 - x.data[0], 0.01, rtol=1e-5)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            optim.Adam([Tensor([1.0], requires_grad=True)], betas=(1.0, 0.9))

    def test_weight_decay(self):
        x = Tensor(np.ones(2), requires_grad=True)
        opt = optim.Adam([x], lr=0.1, weight_decay=0.5)
        x.grad = np.zeros(2)
        opt.step()
        assert (x.data < 1.0).all()

    def test_skips_params_without_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        opt = optim.Adam([x], lr=0.1)
        opt.step()  # no grad set -> no change, no crash
        np.testing.assert_allclose(x.data, np.ones(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            optim.Adam([], lr=0.1)
        with pytest.raises(ValueError):
            optim.Adam([Tensor([1.0], requires_grad=True)], lr=-1)


class TestClipGradNorm:
    def test_no_clip_below_threshold(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        x.grad = np.array([0.1, 0.1, 0.1])
        norm = optim.clip_grad_norm([x], max_norm=10.0)
        np.testing.assert_allclose(x.grad, [0.1, 0.1, 0.1])
        np.testing.assert_allclose(norm, np.sqrt(0.03))

    def test_clips_to_max_norm(self):
        x = Tensor(np.zeros(2), requires_grad=True)
        x.grad = np.array([30.0, 40.0])  # norm 50
        optim.clip_grad_norm([x], max_norm=5.0)
        np.testing.assert_allclose(np.linalg.norm(x.grad), 5.0)

    def test_global_norm_across_params(self):
        a = Tensor(np.zeros(1), requires_grad=True)
        b = Tensor(np.zeros(1), requires_grad=True)
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        norm = optim.clip_grad_norm([a, b], max_norm=1.0)
        np.testing.assert_allclose(norm, 5.0)
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        np.testing.assert_allclose(total, 1.0)

    def test_requires_positive_max_norm(self):
        with pytest.raises(ValueError):
            optim.clip_grad_norm([], max_norm=0)

    def test_ignores_gradless_params(self):
        x = Tensor(np.zeros(2), requires_grad=True)
        assert optim.clip_grad_norm([x], max_norm=1.0) == 0.0
