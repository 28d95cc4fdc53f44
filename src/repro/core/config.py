"""Configuration for the FakeDetector model and trainer."""

from __future__ import annotations

import dataclasses
from typing import Optional


@dataclasses.dataclass
class FakeDetectorConfig:
    """Hyperparameters of the full deep diffusive network.

    Defaults are sized for CPU-scale synthetic corpora (hundreds to a few
    thousand nodes); they preserve the architecture of the paper while
    keeping a pure-numpy training run in seconds-to-minutes.
    """

    # HFLU — explicit features (§4.1.1)
    explicit_dim: int = 120            # |W_n| = |W_u| = |W_s| = d
    word_selection: str = "chi2"       # 'chi2' or 'freq_ratio'
    explicit_weighting: str = "count"  # 'count' (paper) or 'tfidf'
    normalize_explicit: bool = True

    # HFLU — latent features (§4.1.2)
    vocab_size: int = 4000
    embed_dim: int = 16
    rnn_hidden: int = 24
    latent_dim: int = 16
    max_seq_len: int = 30
    rnn_cell: str = "gru"
    # Run the latent-branch recurrence AND the GDU diffusion layer through
    # the fused kernels (repro.autograd.kernels): one tape node per
    # sequence (gru/lstm_hidden_sum) and one per GDU call (gdu_layer), each
    # with a hand-written backward, numerically equivalent to the unrolled
    # tape but several times faster (see docs/performance.md,
    # results/BENCH_training.json and results/BENCH_diffusion.json).
    # `repro train --no-fused` is the escape hatch back to the reference
    # path.
    fused_kernels: bool = True

    # GDU / diffusion (§4.2)
    gdu_hidden: int = 32
    diffusion_iterations: int = 2
    # Neighbor pooling: 'mean' (the paper's Figure 3(b)) or 'attention'
    # (GAT-style extension, see repro.core.aggregate).
    aggregation: str = "mean"

    # GDU ablation switches (full model keeps all True)
    use_forget_gate: bool = True
    use_adjust_gate: bool = True
    use_selection_gates: bool = True
    use_diffusion: bool = True
    use_explicit_features: bool = True
    use_latent_features: bool = True

    # Training (§4.3)
    epochs: int = 60
    # None = full-batch (the paper's setting). An int enables minibatch
    # training over induced article subgraphs (neighbor-sampling style),
    # which is how a full-scale corpus stays trainable on CPU.
    batch_size: Optional[int] = None
    learning_rate: float = 0.01
    alpha: float = 1e-3                # regularization weight α
    # Weight each class's loss by inverse training frequency (counters the
    # Truth-O-Meter imbalance; off by default to match the paper's plain
    # cross-entropy).
    class_weighted_loss: bool = False
    grad_clip: float = 5.0
    seed: int = 13
    log_every: int = 0                 # 0 disables progress printing
    early_stop_patience: int = 0       # 0 disables; else epochs without improvement
    early_stop_min_epochs: int = 0     # never stop before this many epochs
    # Fraction of *training* articles held out as a validation set. When > 0,
    # early stopping watches validation bi-class accuracy (instead of train
    # loss) and the best-scoring parameters are restored after fitting —
    # the standard guard against the overfitting the convergence benchmark
    # documents (results/convergence.txt).
    validation_fraction: float = 0.0

    def __post_init__(self):
        if self.explicit_dim <= 0 and self.use_explicit_features:
            raise ValueError("explicit_dim must be positive")
        if self.latent_dim <= 0 and self.use_latent_features:
            raise ValueError("latent_dim must be positive")
        if not (self.use_explicit_features or self.use_latent_features):
            raise ValueError("at least one HFLU feature family must be enabled")
        if self.diffusion_iterations < 0:
            raise ValueError("diffusion_iterations must be >= 0")
        if self.explicit_weighting not in ("count", "tfidf"):
            raise ValueError(
                f"explicit_weighting must be 'count' or 'tfidf', "
                f"got {self.explicit_weighting!r}"
            )
        if self.aggregation not in ("mean", "attention"):
            raise ValueError(
                f"aggregation must be 'mean' or 'attention', got {self.aggregation!r}"
            )
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size is not None and self.batch_size <= 0:
            raise ValueError("batch_size must be positive (or None for full batch)")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.validation_fraction > 0 and self.early_stop_patience <= 0:
            raise ValueError(
                "validation_fraction requires early_stop_patience > 0"
            )
        if not 0 < self.learning_rate:
            raise ValueError("learning_rate must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")

    @property
    def feature_dim(self) -> int:
        """Dimension of the HFLU output x_i = [x_e ; x_l]."""
        dim = 0
        if self.use_explicit_features:
            dim += self.explicit_dim
        if self.use_latent_features:
            dim += self.latent_dim
        return dim
