"""Gated Diffusive Unit (GDU), paper §4.2 and Figure 3(b).

The GDU fuses three inputs — the node's own HFLU feature ``x_i`` and the
diffused neighbor states ``z_i`` (e.g. from subjects) and ``t_i`` (e.g. from
creators) — through four gates:

    forget gate   f_i = σ(W_f [xᵀ, zᵀ, tᵀ]ᵀ),   z̃_i = f_i ⊗ z_i
    adjust gate   e_i = σ(W_e [xᵀ, zᵀ, tᵀ]ᵀ),   t̃_i = e_i ⊗ t_i
    select gates  g_i = σ(W_g [·]), r_i = σ(W_r [·])

    h_i =   g⊗r⊗tanh(W_u[x, z̃, t̃]) ⊕ (1−g)⊗r⊗tanh(W_u[x, z, t̃])
          ⊕ g⊗(1−r)⊗tanh(W_u[x, z̃, t]) ⊕ (1−g)⊗(1−r)⊗tanh(W_u[x, z, t])

with a single shared candidate weight ``W_u`` across the four mixtures,
exactly as the paper writes it. Ablation switches can bypass each gate
family (used by the ablation benchmarks).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Module, Parameter, Tensor, concatenate, gdu_layer, init


class GDU(Module):
    """One gated diffusive unit for a node type.

    Parameters
    ----------
    input_dim:
        Dimension of the HFLU feature ``x_i``.
    hidden_dim:
        Dimension of the states ``z_i``, ``t_i`` and output ``h_i``.
    use_forget_gate / use_adjust_gate / use_selection_gates:
        Ablation switches. Disabling a gate replaces it with the identity
        (forget/adjust) or with the plain candidate ``tanh(W_u[x,z,t])``
        (selection).
    fused:
        Route :meth:`forward` through the single-tape-node
        :func:`repro.autograd.gdu_layer` kernel (the default, toggled
        model-wide by ``FakeDetectorConfig.fused_kernels``). Parameters,
        ``state_dict`` layout, and checkpoints are identical either way;
        outputs match the unrolled path to 1e-12.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: Optional[np.random.Generator] = None,
        use_forget_gate: bool = True,
        use_adjust_gate: bool = True,
        use_selection_gates: bool = True,
        fused: bool = True,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()  # repro: noqa[RA002] explicit opt-in randomness when no generator is supplied
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.use_forget_gate = use_forget_gate
        self.use_adjust_gate = use_adjust_gate
        self.use_selection_gates = use_selection_gates
        self.fused = fused

        concat_dim = input_dim + 2 * hidden_dim
        if use_forget_gate:
            self.w_f = Parameter(init.xavier_uniform((concat_dim, hidden_dim), rng))
            self.b_f = Parameter(init.zeros((hidden_dim,)))
        if use_adjust_gate:
            self.w_e = Parameter(init.xavier_uniform((concat_dim, hidden_dim), rng))
            self.b_e = Parameter(init.zeros((hidden_dim,)))
        if use_selection_gates:
            self.w_g = Parameter(init.xavier_uniform((concat_dim, hidden_dim), rng))
            self.b_g = Parameter(init.zeros((hidden_dim,)))
            self.w_r = Parameter(init.xavier_uniform((concat_dim, hidden_dim), rng))
            self.b_r = Parameter(init.zeros((hidden_dim,)))
        self.w_u = Parameter(init.xavier_uniform((concat_dim, hidden_dim), rng))
        self.b_u = Parameter(init.zeros((hidden_dim,)))

    def forward(self, x: Tensor, z: Tensor, t: Tensor) -> Tensor:
        """Compute h_i from (x_i, z_i, t_i); all inputs are (n, ·) batches."""
        if x.shape[0] != z.shape[0] or x.shape[0] != t.shape[0]:
            raise ValueError(
                f"batch mismatch: x={x.shape}, z={z.shape}, t={t.shape}"
            )
        if self.fused:
            return gdu_layer(
                x,
                z,
                t,
                self.w_u,
                self.b_u,
                forget=(self.w_f, self.b_f) if self.use_forget_gate else None,
                adjust=(self.w_e, self.b_e) if self.use_adjust_gate else None,
                select=(self.w_g, self.b_g, self.w_r, self.b_r)
                if self.use_selection_gates
                else None,
            )
        xzt = concatenate([x, z, t], axis=1)

        z_tilde = (xzt @ self.w_f + self.b_f).sigmoid() * z if self.use_forget_gate else z
        t_tilde = (xzt @ self.w_e + self.b_e).sigmoid() * t if self.use_adjust_gate else t

        def candidate(z_in: Tensor, t_in: Tensor) -> Tensor:
            return (concatenate([x, z_in, t_in], axis=1) @ self.w_u + self.b_u).tanh()

        if not self.use_selection_gates:
            return candidate(z_tilde, t_tilde)

        g = (xzt @ self.w_g + self.b_g).sigmoid()
        r = (xzt @ self.w_r + self.b_r).sigmoid()
        # ``1 - g`` routes through ``__rsub__`` against a scalar constant —
        # no per-call ones-tensor allocation (same shape-saving as the
        # GRUCell fix in PR 5).
        one_m_g = 1 - g
        one_m_r = 1 - r
        return (
            g * r * candidate(z_tilde, t_tilde)
            + one_m_g * r * candidate(z, t_tilde)
            + g * one_m_r * candidate(z_tilde, t)
            + one_m_g * one_m_r * candidate(z, t)
        )

    def zero_state(self, batch: int) -> Tensor:
        """The all-zero default input for an unused GDU port (§4.2).

        In the unit's parameter dtype, so a float32 unit stays float32.
        """
        return Tensor(np.zeros((batch, self.hidden_dim), self.w_u.data.dtype))
