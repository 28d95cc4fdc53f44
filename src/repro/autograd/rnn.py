"""Recurrent cells: vanilla RNN, GRU (used by the paper's HFLU), and LSTM.

The paper's latent-feature extractor is an RNN with GRU hidden units over the
token sequence; the fusion layer is ``x_l = σ(Σ_t W h_t)`` (a mean/sum pool of
hidden states through a learned projection). :class:`GRUEncoder` packages
that exact architecture.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import init
from .tensor import Tensor, concatenate, ensure_tensor
from .nn import Linear, Module, Parameter


class RNNCell(Module):
    """Elman cell: ``h' = tanh(x W_ih + h W_hh + b)``."""

    def __init__(self, input_size: int, hidden_size: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()  # repro: noqa[RA002] explicit opt-in randomness when no generator is supplied
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_ih = Parameter(init.xavier_uniform((input_size, hidden_size), rng))
        self.w_hh = Parameter(init.orthogonal((hidden_size, hidden_size), rng))
        self.bias = Parameter(init.zeros((hidden_size,)))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        x, h = ensure_tensor(x), ensure_tensor(h)
        return (x @ self.w_ih + h @ self.w_hh + self.bias).tanh()

    def initial_state(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((batch_size, self.hidden_size), self.bias.data.dtype))


class GRUCell(Module):
    """Gated Recurrent Unit cell (Cho et al. 2014).

    update gate  z = σ(x W_xz + h W_hz + b_z)
    reset gate   r = σ(x W_xr + h W_hr + b_r)
    candidate    ĥ = tanh(x W_xh + (r ⊙ h) W_hh + b_h)
    new state    h' = (1 − z) ⊙ h + z ⊙ ĥ
    """

    def __init__(self, input_size: int, hidden_size: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()  # repro: noqa[RA002] explicit opt-in randomness when no generator is supplied
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_xz = Parameter(init.xavier_uniform((input_size, hidden_size), rng))
        self.w_hz = Parameter(init.orthogonal((hidden_size, hidden_size), rng))
        self.b_z = Parameter(init.zeros((hidden_size,)))
        self.w_xr = Parameter(init.xavier_uniform((input_size, hidden_size), rng))
        self.w_hr = Parameter(init.orthogonal((hidden_size, hidden_size), rng))
        self.b_r = Parameter(init.zeros((hidden_size,)))
        self.w_xh = Parameter(init.xavier_uniform((input_size, hidden_size), rng))
        self.w_hh = Parameter(init.orthogonal((hidden_size, hidden_size), rng))
        self.b_h = Parameter(init.zeros((hidden_size,)))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        x, h = ensure_tensor(x), ensure_tensor(h)
        z = (x @ self.w_xz + h @ self.w_hz + self.b_z).sigmoid()
        r = (x @ self.w_xr + h @ self.w_hr + self.b_r).sigmoid()
        cand = (x @ self.w_xh + (r * h) @ self.w_hh + self.b_h).tanh()
        return (1.0 - z) * h + z * cand

    def initial_state(self, batch_size: int) -> Tensor:
        return Tensor(np.zeros((batch_size, self.hidden_size), self.b_h.data.dtype))


class LSTMCell(Module):
    """Long Short-Term Memory cell (provided as an HFLU drop-in alternative)."""

    def __init__(self, input_size: int, hidden_size: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()  # repro: noqa[RA002] explicit opt-in randomness when no generator is supplied
        self.input_size = input_size
        self.hidden_size = hidden_size
        # One fused weight per gate family: input, forget, cell, output.
        self.w_xi = Parameter(init.xavier_uniform((input_size, hidden_size), rng))
        self.w_hi = Parameter(init.orthogonal((hidden_size, hidden_size), rng))
        self.b_i = Parameter(init.zeros((hidden_size,)))
        self.w_xf = Parameter(init.xavier_uniform((input_size, hidden_size), rng))
        self.w_hf = Parameter(init.orthogonal((hidden_size, hidden_size), rng))
        # Forget-gate bias starts at 1 so memories persist early in training.
        self.b_f = Parameter(np.ones((hidden_size,)))
        self.w_xc = Parameter(init.xavier_uniform((input_size, hidden_size), rng))
        self.w_hc = Parameter(init.orthogonal((hidden_size, hidden_size), rng))
        self.b_c = Parameter(init.zeros((hidden_size,)))
        self.w_xo = Parameter(init.xavier_uniform((input_size, hidden_size), rng))
        self.w_ho = Parameter(init.orthogonal((hidden_size, hidden_size), rng))
        self.b_o = Parameter(init.zeros((hidden_size,)))

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        h, c = state
        x, h, c = ensure_tensor(x), ensure_tensor(h), ensure_tensor(c)
        i = (x @ self.w_xi + h @ self.w_hi + self.b_i).sigmoid()
        f = (x @ self.w_xf + h @ self.w_hf + self.b_f).sigmoid()
        g = (x @ self.w_xc + h @ self.w_hc + self.b_c).tanh()
        o = (x @ self.w_xo + h @ self.w_ho + self.b_o).sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new

    def initial_state(self, batch_size: int) -> tuple[Tensor, Tensor]:
        zeros = np.zeros((batch_size, self.hidden_size), self.b_c.data.dtype)
        return Tensor(zeros.copy()), Tensor(zeros.copy())


class GRUEncoder(Module):
    """The paper's latent feature extractor.

    3-layer architecture per §4.1.2: input layer (embedded word vectors),
    hidden layer of GRU cells unrolled over the sequence, and a fusion layer
    ``x^l_i = σ(Σ_t W h_{i,t})`` that pools the hidden trajectory into a
    fixed-size latent feature vector.

    Zero-padded positions (index == ``padding_idx`` in the raw sequences) are
    masked out of both the recurrence and the fusion sum, matching the
    paper's "zero-padding will be adopted" treatment without letting padding
    tokens perturb the state.

    The gru/lstm/bigru recurrences run through :mod:`repro.autograd.kernels`:
    the whole sequence is a single tape node with a hand-written BPTT
    backward, several times faster than a per-timestep tape because it
    spends its time in large numpy matmuls rather than Python closure
    dispatch. ``tests/training_oracles.py`` keeps the per-timestep tape as
    the reference the kernels are tested against. The 'rnn' cell has no
    kernel and unrolls its cell over the sequence.
    """

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int,
        hidden_size: int,
        output_size: int,
        rng: Optional[np.random.Generator] = None,
        padding_idx: int = 0,
        cell: str = "gru",
    ):
        super().__init__()
        from .nn import Embedding  # local import to avoid a cycle at module load

        rng = rng or np.random.default_rng()  # repro: noqa[RA002] explicit opt-in randomness when no generator is supplied
        self.padding_idx = padding_idx
        self.hidden_size = hidden_size
        self.output_size = output_size
        self.cell_type = cell
        self.embedding = Embedding(vocab_size, embed_dim, rng=rng, padding_idx=padding_idx)
        if cell == "gru":
            self.cell = GRUCell(embed_dim, hidden_size, rng=rng)
        elif cell == "rnn":
            self.cell = RNNCell(embed_dim, hidden_size, rng=rng)
        elif cell == "lstm":
            self.cell = LSTMCell(embed_dim, hidden_size, rng=rng)
        elif cell == "bigru":
            # Bidirectional: independent forward/backward GRUs, states
            # concatenated per position before the fusion layer.
            self.cell = GRUCell(embed_dim, hidden_size, rng=rng)
            self.cell_backward = GRUCell(embed_dim, hidden_size, rng=rng)
        else:
            raise ValueError(
                f"unknown cell type {cell!r} "
                "(expected 'gru', 'rnn', 'lstm' or 'bigru')"
            )
        fusion_in = hidden_size * (2 if cell == "bigru" else 1)
        self.fusion = Linear(fusion_in, output_size, rng=rng)

    def forward(self, sequences: np.ndarray) -> Tensor:
        """Encode integer sequences (batch, seq_len) into (batch, output_size)."""
        seq = np.asarray(
            sequences.data if isinstance(sequences, Tensor) else sequences, dtype=np.intp
        )
        if seq.ndim == 1:
            seq = seq[None, :]
        batch, length = seq.shape
        # The mask and zero states below are in the parameters' dtype.
        dtype = self.embedding.weight.data.dtype
        mask = (seq != self.padding_idx).astype(dtype)  # (batch, seq_len)
        # Trailing-pad truncation: columns past the longest real sequence in
        # the batch cannot change any state (padded positions carry the
        # previous state) nor the fusion sum (their mask is 0), so clipping
        # the recurrence there is free speedup on ragged batches.
        valid_cols = np.flatnonzero(mask.any(axis=0))
        effective = int(valid_cols[-1]) + 1 if valid_cols.size else 0
        if effective < length:
            seq = seq[:, :effective]
            mask = mask[:, :effective]
            length = effective
        if length == 0:
            width = self.hidden_size * (2 if self.cell_type == "bigru" else 1)
            return self.fusion(Tensor(np.zeros((batch, width), dtype))).sigmoid()
        if self.cell_type != "rnn":
            return self._forward_fused(seq, mask)
        h = self.cell.initial_state(batch)
        m_cols = mask[:, :, None]            # hoisted out of the time loop
        keep_cols = 1.0 - m_cols
        hidden_sum: Optional[Tensor] = None
        for t in range(length):
            x_t = self.embedding(seq[:, t])
            m = Tensor(m_cols[:, t])
            keep = Tensor(keep_cols[:, t])
            h_new = self.cell(x_t, h)
            # Carry the previous state through padded positions.
            h = m * h_new + keep * h
            contribution = m * h
            hidden_sum = contribution if hidden_sum is None else hidden_sum + contribution
        return self.fusion(hidden_sum).sigmoid()

    @staticmethod
    def _stacked_gru_gates(cell: GRUCell) -> tuple:
        """Stack a GRUCell's per-gate parameters for the fused kernel.

        One :func:`concatenate` tape node per matrix; its backward splits
        the kernel's stacked gradient back onto the per-gate Parameters, so
        checkpoints keep the historical per-gate state-dict layout.
        """
        return (
            concatenate([cell.w_xz, cell.w_xr, cell.w_xh], axis=1),
            concatenate([cell.w_hz, cell.w_hr, cell.w_hh], axis=1),
            concatenate([cell.b_z, cell.b_r, cell.b_h], axis=0),
        )

    def _forward_fused(self, seq: np.ndarray, mask: np.ndarray) -> Tensor:
        """Single-tape-node path: fused gather + fused recurrence + pool."""
        from .kernels import embedding_gather, gru_hidden_sum, lstm_hidden_sum

        embedded = embedding_gather(self.embedding.weight, seq)  # (B, T, E)
        if self.cell_type == "lstm":
            cell = self.cell
            w_x = concatenate([cell.w_xi, cell.w_xf, cell.w_xc, cell.w_xo], axis=1)
            w_h = concatenate([cell.w_hi, cell.w_hf, cell.w_hc, cell.w_ho], axis=1)
            b = concatenate([cell.b_i, cell.b_f, cell.b_c, cell.b_o], axis=0)
            hidden_sum = lstm_hidden_sum(embedded, mask, w_x, w_h, b)
        elif self.cell_type == "bigru":
            hidden_sum = concatenate(
                [
                    gru_hidden_sum(
                        embedded, mask, *self._stacked_gru_gates(self.cell)
                    ),
                    gru_hidden_sum(
                        embedded, mask,
                        *self._stacked_gru_gates(self.cell_backward),
                        reverse=True,
                    ),
                ],
                axis=1,
            )
        else:
            hidden_sum = gru_hidden_sum(
                embedded, mask, *self._stacked_gru_gates(self.cell)
            )
        return self.fusion(hidden_sum).sigmoid()
