"""Tests for recurrent cells and the GRU sequence encoder."""

import numpy as np
import pytest

from repro.autograd import (
    GRUCell,
    GRUEncoder,
    LSTMCell,
    RNNCell,
    Tensor,
)
from repro.autograd import functional as F
from repro.autograd import optim

from tests.helpers import finite_difference_check


class TestRNNCell:
    def test_output_shape(self, rng):
        cell = RNNCell(4, 6, rng=rng)
        h = cell(Tensor(rng.standard_normal((3, 4))), cell.initial_state(3))
        assert h.shape == (3, 6)

    def test_output_bounded_by_tanh(self, rng):
        cell = RNNCell(4, 6, rng=rng)
        h = cell(Tensor(rng.standard_normal((3, 4)) * 100), cell.initial_state(3))
        assert np.all(np.abs(h.data) <= 1.0)

    def test_gradcheck(self, rng):
        cell = RNNCell(3, 4, rng=rng)
        x = Tensor(rng.standard_normal((2, 3)))
        h0 = Tensor(rng.standard_normal((2, 4)))
        params = [cell.w_ih, cell.w_hh, cell.bias]
        finite_difference_check(lambda *p: (cell(x, h0) ** 2).sum(), params, tol=1e-4)


class TestGRUCell:
    def test_output_shape(self, rng):
        cell = GRUCell(4, 6, rng=rng)
        h = cell(Tensor(rng.standard_normal((3, 4))), cell.initial_state(3))
        assert h.shape == (3, 6)

    def test_zero_update_gate_keeps_state(self, rng):
        cell = GRUCell(2, 3, rng=rng)
        # Force update gate towards 0 -> new state == old state.
        cell.b_z.data[:] = -50.0
        h0 = Tensor(rng.standard_normal((1, 3)))
        h1 = cell(Tensor(rng.standard_normal((1, 2))), h0)
        np.testing.assert_allclose(h1.data, h0.data, atol=1e-6)

    def test_full_update_gate_replaces_state(self, rng):
        cell = GRUCell(2, 3, rng=rng)
        cell.b_z.data[:] = 50.0  # update gate ≈ 1 -> h' = candidate only
        h0 = Tensor(np.full((1, 3), 5.0))
        h1 = cell(Tensor(rng.standard_normal((1, 2))), h0)
        assert np.all(np.abs(h1.data) <= 1.0)  # candidate is tanh-bounded

    def test_gradcheck_through_two_steps(self, rng):
        cell = GRUCell(2, 3, rng=rng)
        x1 = Tensor(rng.standard_normal((2, 2)))
        x2 = Tensor(rng.standard_normal((2, 2)))

        def loss(*params):
            h = cell(x1, cell.initial_state(2))
            h = cell(x2, h)
            return (h ** 2).sum()

        finite_difference_check(loss, list(cell.parameters()), tol=1e-4)

    def test_param_count(self, rng):
        cell = GRUCell(4, 6, rng=rng)
        # 3 gates x (input weight + hidden weight + bias)
        expected = 3 * (4 * 6 + 6 * 6 + 6)
        assert cell.num_parameters() == expected


class TestLSTMCell:
    def test_output_shapes(self, rng):
        cell = LSTMCell(4, 5, rng=rng)
        h, c = cell(Tensor(rng.standard_normal((3, 4))), cell.initial_state(3))
        assert h.shape == (3, 5) and c.shape == (3, 5)

    def test_forget_bias_initialized_to_one(self, rng):
        cell = LSTMCell(4, 5, rng=rng)
        np.testing.assert_allclose(cell.b_f.data, np.ones(5))

    def test_state_propagates(self, rng):
        cell = LSTMCell(2, 3, rng=rng)
        state = cell.initial_state(1)
        x = Tensor(rng.standard_normal((1, 2)))
        h1, c1 = cell(x, state)
        h2, c2 = cell(x, (h1, c1))
        assert not np.allclose(h1.data, h2.data)

    def test_gradcheck(self, rng):
        cell = LSTMCell(2, 3, rng=rng)
        x = Tensor(rng.standard_normal((2, 2)))

        def loss(*params):
            h, c = cell(x, cell.initial_state(2))
            return (h ** 2).sum() + (c ** 2).sum()

        finite_difference_check(loss, list(cell.parameters()), tol=1e-4)


class TestGRUEncoder:
    def test_output_shape_and_range(self, rng):
        enc = GRUEncoder(vocab_size=20, embed_dim=4, hidden_size=6, output_size=5, rng=rng)
        out = enc(rng.integers(1, 20, size=(3, 8)))
        assert out.shape == (3, 5)
        assert np.all((out.data >= 0) & (out.data <= 1))  # sigmoid fusion

    def test_single_sequence_promoted_to_batch(self, rng):
        enc = GRUEncoder(vocab_size=20, embed_dim=4, hidden_size=6, output_size=5, rng=rng)
        out = enc(rng.integers(1, 20, size=10))
        assert out.shape == (1, 5)

    def test_padding_is_ignored(self, rng):
        enc = GRUEncoder(vocab_size=20, embed_dim=4, hidden_size=6, output_size=5, rng=rng)
        seq = np.array([[3, 7, 5, 0, 0, 0]])
        longer_pad = np.array([[3, 7, 5, 0, 0, 0, 0, 0, 0]])
        np.testing.assert_allclose(enc(seq).data, enc(longer_pad).data, atol=1e-12)

    def test_all_padding_gives_constant(self, rng):
        enc = GRUEncoder(vocab_size=20, embed_dim=4, hidden_size=6, output_size=5, rng=rng)
        out = enc(np.zeros((2, 5), dtype=int))
        # Zero hidden sum -> sigmoid(bias) rows, identical across batch.
        np.testing.assert_allclose(out.data[0], out.data[1])

    def test_order_sensitivity(self, rng):
        # The GRU must distinguish word order (unlike bag-of-words).
        enc = GRUEncoder(vocab_size=20, embed_dim=4, hidden_size=8, output_size=5, rng=rng)
        a = enc(np.array([[1, 2, 3, 4]]))
        b = enc(np.array([[4, 3, 2, 1]]))
        assert not np.allclose(a.data, b.data)

    def test_invalid_cell(self, rng):
        with pytest.raises(ValueError):
            GRUEncoder(10, 4, 4, 4, rng=rng, cell="transformer")

    def test_rnn_cell_variant(self, rng):
        enc = GRUEncoder(10, 4, 4, 3, rng=rng, cell="rnn")
        assert enc(rng.integers(1, 10, size=(2, 5))).shape == (2, 3)

    def test_learns_sequence_classification(self, rng):
        """The encoder + head must learn a simple token-presence task."""
        enc = GRUEncoder(vocab_size=12, embed_dim=6, hidden_size=10, output_size=6, rng=rng)
        from repro.autograd import Linear

        head = Linear(6, 2, rng=rng)
        # Class 1 iff token 5 appears.
        seqs = rng.integers(1, 12, size=(60, 6))
        labels = (seqs == 5).any(axis=1).astype(int)
        params = list(enc.parameters()) + list(head.parameters())
        opt = optim.Adam(params, lr=0.02)
        for _ in range(60):
            logits = head(enc(seqs))
            loss = F.cross_entropy(logits, labels)
            opt.zero_grad()
            loss.backward()
            opt.step()
        accuracy = (head(enc(seqs)).data.argmax(axis=1) == labels).mean()
        assert accuracy > 0.9
