"""The training step's fast paths equal their plain references bit for bit.

``tests/training_oracles.py`` keeps the plain forms: L2 as a ``mul``/
``sum``/``add`` chain per parameter, ``Adam.step`` with temporaries, a
backward pass that copies every stored grad, the ``np.add.at`` embedding
scatter and the trainer's own norm loop. Every comparison here is exact:
same shape, same dtype, same bytes.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, optim
from repro.autograd import functional as F
from repro.autograd.kernels import embedding_gather
from repro.core import FakeDetector, FakeDetectorConfig

from tests import training_oracles as ref

SHAPES = [(4, 3), (3,), (), (5, 2), (1, 4), (6,)]


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)
    assert actual.tobytes() == expected.tobytes()  # also tells -0.0 from +0.0


def make_params(seed=0, shapes=SHAPES, frozen=()):
    rng = np.random.default_rng(seed)
    return [
        Tensor(rng.standard_normal(shape), requires_grad=i not in frozen)
        for i, shape in enumerate(shapes)
    ]


def clone(params):
    return [Tensor(p.data.copy(), requires_grad=p.requires_grad) for p in params]


def task_loss(params, seed=1):
    """A loss that reaches every parameter before L2 does, like the heads'."""
    rng = np.random.default_rng(seed)
    total = None
    for p in params:
        term = (p * Tensor(rng.standard_normal(p.shape))).sum()
        total = term if total is None else total + term
    return total


class TestL2Regularization:
    @pytest.mark.parametrize("alpha", [1e-3, 0.37, 0.0])
    def test_value_and_grads_match_per_parameter_chain(self, alpha):
        fast, slow = make_params(frozen={3}), make_params(frozen={3})
        loss = task_loss(fast) + F.l2_regularization(fast, alpha)
        loss.backward()
        expected = task_loss(slow) + ref.l2_regularization(slow, alpha)
        ref.tensor_backward(expected)
        assert_same_bits(loss.data, expected.data)
        for p, q in zip(fast, slow):
            if q.grad is None:
                assert p.grad is None
            else:
                assert_same_bits(p.grad, q.grad)
                assert p.grad.flags.c_contiguous

    def test_alone_and_under_the_reference_engine(self):
        for backward in (Tensor.backward, ref.tensor_backward):
            fast, slow = make_params(seed=4), make_params(seed=4)
            backward(F.l2_regularization(fast, 0.25))
            backward(ref.l2_regularization(slow, 0.25))
            for p, q in zip(fast, slow):
                assert_same_bits(p.grad, q.grad)

    def test_negative_weights_with_zero_alpha_keep_signed_zeros(self):
        fast = [Tensor(-np.ones(3), requires_grad=True)]
        slow = clone(fast)
        F.l2_regularization(fast, 0.0).backward()
        ref.tensor_backward(ref.l2_regularization(slow, 0.0))
        assert_same_bits(fast[0].grad, slow[0].grad)
        assert np.signbit(fast[0].grad).all()

    def test_records_one_tape_node_with_each_parameter_twice(self):
        params = make_params()
        out = F.l2_regularization(params, 0.1)
        assert out._parents == tuple(q for p in params for q in (p, p))
        assert F.l2_regularization([], 0.1).requires_grad is False

    def test_frozen_parameters_only_give_a_constant(self):
        params = make_params(frozen=set(range(len(SHAPES))))
        out = F.l2_regularization(params, 0.1)
        assert not out.requires_grad
        assert_same_bits(out.data, ref.l2_regularization(clone(params), 0.1).data)


class TestGradientAccumulation:
    def test_zero_d_gradient_accumulated_many_times(self):
        # ``add`` passes its 0-d seed through, so x gets 0-d ndarray terms
        # as well as the np.float64 terms of the products.
        def build(x):
            return x + x + x + x * 3.0 + x * 4.0 + x * x

        fast = Tensor(1.5, requires_grad=True)
        slow = Tensor(1.5, requires_grad=True)
        build(fast).backward()
        ref.tensor_backward(build(slow))
        assert_same_bits(fast.grad, slow.grad)
        assert float(fast.grad) == 3.0 + 3.0 + 4.0 + 2 * 1.5

    def test_transposed_gradients_reach_a_leaf_c_ordered(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((3, 4))
        scales = [Tensor(rng.standard_normal((4, 3))) for _ in range(4)]

        def build(w):
            terms = [(w.T * c).sum() for c in scales]
            return terms[0] + terms[1] + terms[2] + terms[3]

        fast = Tensor(data.copy(), requires_grad=True)
        slow = Tensor(data.copy(), requires_grad=True)
        build(fast).backward()
        ref.tensor_backward(build(slow))
        assert_same_bits(fast.grad, slow.grad)
        assert fast.grad.flags.c_contiguous

    def test_many_terms_into_interior_and_leaf_nodes(self):
        rng = np.random.default_rng(5)
        data, other = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))

        def build(w):
            h = (w * Tensor(other)).tanh()
            return ((h * h).sum() + (h * 2.0).sum() + h.sum() + (w * w).sum()
                    + w.sum() + (w * h).mean())

        fast = Tensor(data.copy(), requires_grad=True)
        slow = Tensor(data.copy(), requires_grad=True)
        build(fast).backward()
        ref.tensor_backward(build(slow))
        assert_same_bits(fast.grad, slow.grad)

    def test_accumulates_across_backward_calls(self):
        fast = Tensor(np.arange(4.0), requires_grad=True)
        slow = Tensor(np.arange(4.0), requires_grad=True)
        for _ in range(3):
            ((fast * fast).sum() + fast.sum() + (fast * 3.0).sum()).backward()
            ref.tensor_backward((slow * slow).sum() + slow.sum() + (slow * 3.0).sum())
        assert_same_bits(fast.grad, slow.grad)

    def test_caller_seed_is_never_mutated_or_kept(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        seed = np.ones(3)
        (x * 2.0 + x + x).backward(seed)
        assert_same_bits(seed, np.ones(3))
        leaf = Tensor(np.arange(3.0), requires_grad=True)
        leaf.backward(seed)
        assert leaf.grad is not seed


class TestAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_steps_match_temporaries_form(self, weight_decay):
        fast_params, slow_params = make_params(seed=7), make_params(seed=7)
        fast = optim.Adam(fast_params, lr=0.01, weight_decay=weight_decay)
        slow = optim.Adam(slow_params, lr=0.01, weight_decay=weight_decay)
        rng = np.random.default_rng(8)
        for step in range(6):
            for i, (p, q) in enumerate(zip(fast_params, slow_params)):
                if i == 2 and step % 2:
                    p.grad = q.grad = None  # a parameter with no grad this step
                    continue
                grad = rng.standard_normal(p.shape)
                if i == 0:
                    grad = np.asfortranarray(grad)
                p.grad, q.grad = grad, grad.copy()
            fast.step()
            ref.adam_step(slow)
            fast.lr = slow.lr = fast.lr * 0.9  # a scheduler between steps
        for p, q in zip(fast_params, slow_params):
            assert_same_bits(p.data, q.data)
        for a, b in zip(fast._m + fast._v, slow._m + slow._v):
            assert_same_bits(a, b)

    def test_step_leaves_the_gradients_alone(self):
        params = make_params(seed=9)
        grads = [np.full(p.shape, 0.5) for p in params]
        for p, g in zip(params, grads):
            p.grad = g
        optim.Adam(params, lr=0.1).step()
        for p, g in zip(params, grads):
            assert p.grad is g
            assert_same_bits(g, np.full(p.shape, 0.5))


class TestGradNorm:
    def test_helper_matches_the_trainer_loop(self):
        params = make_params(seed=3)
        rng = np.random.default_rng(3)
        for p in params[1:]:
            p.grad = rng.standard_normal(p.shape)
        assert optim.global_grad_norm(params).hex() == ref.grad_norm(params).hex()
        assert optim.clip_grad_norm(params, 1e9).hex() == ref.grad_norm(params).hex()

    def test_clip_rebinds_instead_of_mutating(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        supplied = np.full(4, 3.0)
        p.grad = supplied
        assert optim.clip_grad_norm([p], 1.0) == 6.0
        assert_same_bits(supplied, np.full(4, 3.0))
        assert p.grad is not supplied


class TestEmbeddingScatter:
    @pytest.mark.parametrize(
        "indices",
        [
            np.array([[1, 1, 4], [4, 0, 1], [1, 1, 1]]),  # repeated rows
            np.zeros((2, 0), dtype=np.intp),  # no tokens at all
            np.array([6]),
        ],
    )
    def test_backward_matches_add_at(self, indices):
        rng = np.random.default_rng(1)
        weight = Tensor(rng.standard_normal((7, 3)), requires_grad=True)
        grad = rng.standard_normal(indices.shape + (3,))
        grad[grad > 1.0] = -0.0
        (fast,) = embedding_gather(weight, indices)._backward(grad)
        (slow,) = ref.embedding_gather(weight, indices)._backward(grad)
        assert_same_bits(fast, slow)
        assert fast.flags.c_contiguous

    def test_transposed_upstream_gradient(self):
        rng = np.random.default_rng(2)
        weight = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        indices = np.array([[0, 2, 2, 4, 0], [2, 2, 1, 0, 3]])
        grad = np.asfortranarray(rng.standard_normal((2, 5, 4)))
        (fast,) = embedding_gather(weight, indices)._backward(grad)
        (slow,) = ref.embedding_gather(weight, indices)._backward(grad)
        assert_same_bits(fast, slow)


TOY = dict(
    epochs=3, explicit_dim=20, vocab_size=300, max_seq_len=8, embed_dim=4,
    rnn_hidden=6, latent_dim=4, gdu_hidden=8, seed=5,
)


@pytest.mark.parametrize(
    "overrides", [dict(grad_clip=0.0), dict(batch_size=16)],
    ids=["full_batch_unclipped", "minibatch_clipped"],
)
def test_fit_matches_reference_step(overrides, tiny_dataset, tiny_split, monkeypatch):
    config = FakeDetectorConfig(**TOY, **overrides)
    fast = FakeDetector(config).fit(tiny_dataset, tiny_split)
    with monkeypatch.context() as patch:
        ref.patch_references(patch)
        slow = FakeDetector(config).fit(tiny_dataset, tiny_split)
    for series in ("total", "article", "creator", "subject", "grad_norms"):
        assert [x.hex() for x in getattr(fast.record, series)] == [
            x.hex() for x in getattr(slow.record, series)
        ], series
    fast_state, slow_state = fast.model.state_dict(), slow.model.state_dict()
    assert sorted(fast_state) == sorted(slow_state)
    for name in fast_state:
        assert_same_bits(fast_state[name], slow_state[name])
