"""Hybrid Feature Learning Unit (HFLU), paper §4.1 and Figure 3(a).

``x_i = [ (x^e_i)ᵀ , (x^l_i)ᵀ ]ᵀ`` — the concatenation of the fixed explicit
bag-of-words feature with the learned latent feature from a GRU over the
token sequence. The explicit half has no parameters; the latent half is the
:class:`repro.autograd.GRUEncoder` (input layer, GRU hidden layer, sigmoid
fusion layer — exactly the 3-layer structure of §4.1.2).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import GRUEncoder, Module, Tensor, concatenate
from ..autograd.tensor import tape_enabled

#: Most rows one tape-free encoder call takes. The encoder's buffers grow
#: with the rows of a call (the GRU's ``(T, 3H, rows)`` projection alone is
#: 8.6 KB per float32 row at the default widths), so a full-graph inference
#: pass encodes in blocks instead of all n rows at once.
BLOCK_ROWS = 256


class HFLU(Module):
    """Per-node-type hybrid feature extractor.

    Parameters
    ----------
    vocab_size, embed_dim, rnn_hidden, latent_dim, max_seq_len:
        Latent (GRU) branch dimensions.
    use_explicit / use_latent:
        Ablation switches; the full model keeps both (disabling one
        reproduces the paper's SVM-style or RNN-style feature family).
    fused:
        Route the recurrence through the fused sequence kernels
        (:mod:`repro.autograd.kernels`) instead of the unrolled tape.
    """

    def __init__(
        self,
        vocab_size: int,
        embed_dim: int,
        rnn_hidden: int,
        latent_dim: int,
        rng: Optional[np.random.Generator] = None,
        use_explicit: bool = True,
        use_latent: bool = True,
        rnn_cell: str = "gru",
        fused: bool = True,
    ):
        super().__init__()
        if not (use_explicit or use_latent):
            raise ValueError("HFLU needs at least one feature family enabled")
        self.use_explicit = use_explicit
        self.use_latent = use_latent
        if use_latent:
            if rnn_cell == "cnn":
                from ..autograd.conv import CNNEncoder

                # Kim (2014)-style sentence CNN — the paper's reference [32]
                # for latent feature extraction.
                self.encoder = CNNEncoder(
                    vocab_size=vocab_size,
                    embed_dim=embed_dim,
                    num_filters=rnn_hidden,
                    output_size=latent_dim,
                    rng=rng,
                )
            else:
                self.encoder = GRUEncoder(
                    vocab_size=vocab_size,
                    embed_dim=embed_dim,
                    hidden_size=rnn_hidden,
                    output_size=latent_dim,
                    rng=rng,
                    cell=rnn_cell,
                    fused=fused,
                )
        else:
            self.encoder = None

    def forward(self, explicit: np.ndarray, sequences: np.ndarray) -> Tensor:
        """Fuse explicit count vectors with the GRU latent encoding.

        Parameters
        ----------
        explicit:
            (n, d) precomputed bag-of-words features (constant w.r.t. the
            graph; gradients do not flow into them).
        sequences:
            (n, q) padded token-index matrix.

        A numpy ``explicit`` is cast to the latent encoding's dtype (the
        parameters' dtype); callers that score many batches against one
        feature matrix cast it once up front, which makes this a no-op.
        """
        parts = []
        latent = self._encode(sequences) if self.use_latent else None
        if self.use_explicit:
            if isinstance(explicit, Tensor):
                # Pass through (keeps requires_grad inputs in the graph —
                # used by input-gradient saliency).
                parts.append(explicit)
            elif latent is not None:
                parts.append(Tensor(np.asarray(explicit, dtype=latent.dtype)))
            else:
                parts.append(Tensor(np.asarray(explicit)))
        if latent is not None:
            parts.append(latent)
        if len(parts) == 1:
            return parts[0]
        if not tape_enabled():
            # Inference: same bytes as the taped concatenate, no split-grad
            # node (this is the hot seam of the per-request serving path).
            return Tensor(np.concatenate([p.data for p in parts], axis=1))
        return concatenate(parts, axis=1)

    def _encode(self, sequences) -> Tensor:
        """The latent rows of ``sequences``, in blocks when the tape is off.

        A taped call encodes all n rows at once. Without a tape, n >
        :data:`BLOCK_ROWS` rows run as ``ceil(n / BLOCK_ROWS)`` near-equal
        blocks (each of at least ``BLOCK_ROWS / 2`` rows), so the encoder's
        transient memory stays bounded whatever n is. A float32 row's
        latent vector does not depend on the other rows of its call, so the
        concatenated blocks are the bytes of one call (pinned in
        ``tests/test_no_tape.py``). The cnn encoder is the exception at a
        one-row call, which near-equal blocks never make.
        """
        n = len(sequences)
        if tape_enabled() or n <= BLOCK_ROWS:
            return self.encoder(sequences)
        blocks = -(-n // BLOCK_ROWS)
        edges = np.arange(blocks + 1) * n // blocks
        return Tensor(np.concatenate([
            self.encoder(sequences[lo:hi]).data
            for lo, hi in zip(edges[:-1], edges[1:])
        ]))
