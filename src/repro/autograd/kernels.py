"""Fused sequence kernels: whole recurrences as single tape nodes.

Unrolled, the :class:`repro.autograd.GRUEncoder` recurrence emits ~10 tape
nodes per timestep per node type (embedding gather, three gate matmuls,
sigmoid/tanh, mask blends); one full-graph training epoch therefore builds
tens of thousands of Python closures whose dispatch overhead dwarfs the
numpy FLOPs. The kernels here collapse each sequence op into **one** tape
node with a hand-written backward-through-time:

- :func:`embedding_gather` — one ``(B, T)`` index take forward, one
  ``np.bincount`` scatter backward, replacing ``T`` per-timestep lookups;
- :func:`gru_hidden_sum` — the full masked GRU recurrence, pooled into
  the ``(B, H)`` masked time-sum ``Σ_t m_t h_t`` that the encoder's fusion
  layer reads (the ``(B, T, H)`` trajectory never leaves the kernel). Gate
  weights arrive stacked (``(E, 3H)`` input, ``(H, 3H)`` hidden, ``(3H,)``
  bias, in update/reset/candidate order). The recurrence runs
  feature-major: the input projections of all timesteps are one batched
  matmul into a ``(T, 3H, B)`` buffer, and every per-step operand is a
  contiguous ``(·, B)`` block. The backward builds its gradient-free
  factors for all timesteps at once, runs a ten-call BPTT step, and
  batches the weight and input gradients into matmuls over ``T``;
- :func:`lstm_hidden_sum` — the LSTM equivalent with ``(E, 4H)`` /
  ``(H, 4H)`` stacking in input/forget/cell/output order, on the same
  contract, with a row-major time loop.

All three are registered through :func:`repro.autograd.tensor.instrument_op`
so the op profiler (``repro train --profile``) and the tape sanitizer
(``--sanitize``) observe them like any other op. Numerical equivalence with
the unrolled reference in ``tests/training_oracles.py`` — forward values,
parameter gradients, and whole training trajectories — is asserted by
``tests/test_kernels.py`` and re-asserted inside
``benchmarks/test_training_throughput.py``.

Masking semantics match the encoder exactly: ``mask`` is a ``(B, T)``
``{0, 1}`` array, padded positions carry the previous hidden (and LSTM
cell) state through unchanged and add nothing to the sum, so a kernel fed
trailing all-pad columns returns the same sum as one fed the truncated
sequence.

Every kernel computes in the dtype of its inputs: buffers, masks and zero
states are allocated in it, so a float32 model stays float32 and the
float64 equivalence suites stay float64. The one exception is the
embedding scatter, which ``np.bincount`` accumulates in float64 before a
single cast to the table's dtype.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, ensure_tensor, instrument_op


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically-stable logistic via ``σ(x) = (1 + tanh(x/2)) / 2``.

    Mathematically identical to the two-branch ``exp`` formula
    ``Tensor.sigmoid`` uses and equally overflow-safe (``tanh`` saturates),
    but a single transcendental evaluation instead of two ``exp`` calls
    plus a branchy ``np.where`` — the cheapest stable logistic numpy can
    express. The two formulas agree to ≤ 2 ulp per element; the encoder
    equivalence suite (tests/test_kernels.py) asserts the fused and
    unrolled paths still match to 1e-12 after full recurrences and to
    1e-6 across whole training trajectories.
    """
    if out is None:
        out = np.empty_like(x)
    np.tanh(x * 0.5, out=out)
    out += 1.0
    out *= 0.5
    return out


def _as_mask(mask, batch: int, length: int, dtype) -> np.ndarray:
    m = np.asarray(mask.data if isinstance(mask, Tensor) else mask, dtype=dtype)
    if m.shape != (batch, length):
        raise ValueError(
            f"mask shape {m.shape} does not match sequence batch/length "
            f"({batch}, {length})"
        )
    return m


def _check_gate_shapes(
    op: str, E: int, H3: int, w_x: Tensor, w_h: Tensor, b: Tensor, gates: int
) -> int:
    """Validate stacked-gate shapes; returns the hidden size ``H``."""
    if H3 % gates != 0:
        raise ValueError(f"{op}: stacked width {H3} is not divisible by {gates}")
    H = H3 // gates
    if w_x.shape != (E, gates * H):
        raise ValueError(f"{op}: w_x shape {w_x.shape} != ({E}, {gates * H})")
    if w_h.shape != (H, gates * H):
        raise ValueError(f"{op}: w_h shape {w_h.shape} != ({H}, {gates * H})")
    if b.shape != (gates * H,):
        raise ValueError(f"{op}: bias shape {b.shape} != ({gates * H},)")
    return H


def embedding_gather(weight, indices) -> Tensor:
    """Full-sequence embedding lookup as one tape node.

    ``weight`` is the ``(V, E)`` embedding table; ``indices`` any integer
    array (typically ``(B, T)``). Forward is a single take producing
    ``indices.shape + (E,)``; backward scatters with one ``np.bincount``
    over ``row * E + column`` keys instead of ``T`` separate index nodes.
    ``bincount`` adds each bucket's weights in index order starting from
    +0.0, as ``np.add.at`` into a zero table does, so the two are equal bit
    for bit; it is several times faster on the vocabulary-sized tables.
    ``bincount`` sums in float64 whatever the weights' dtype, so a float32
    table gets float64 sums cast once to float32. The keys are built inside
    the closure, so a no-tape forward never pays for them.
    """
    weight = ensure_tensor(weight)
    idx = np.asarray(
        indices.data if isinstance(indices, Tensor) else indices, dtype=np.intp
    )
    vocab, dim = weight.shape
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        raise IndexError(
            f"embedding index out of range [0, {vocab}): "
            f"min={idx.min()}, max={idx.max()}"
        )
    flat_idx = idx.ravel()

    def backward(grad):
        keys = (flat_idx * dim)[:, None] + np.arange(dim)
        full = np.bincount(
            keys.ravel(), weights=grad.ravel(), minlength=vocab * dim
        )
        # A batch with no tokens comes back as integer zeros.
        return (full.reshape(vocab, dim).astype(weight.data.dtype, copy=False),)

    return Tensor._make(weight.data[idx], (weight,), backward)


def gru_hidden_sum(seq_embedded, mask, w_x, w_h, b, reverse: bool = False) -> Tensor:
    """Masked GRU recurrence pooled over time, as one tape node.

    Parameters
    ----------
    seq_embedded:
        ``(B, T, E)`` embedded inputs.
    mask:
        ``(B, T)`` array, 1.0 on real tokens, 0.0 on padding. Padded
        positions carry the previous hidden state through unchanged and
        add nothing to the sum.
    w_x, w_h, b:
        Gate weights stacked in update/reset/candidate order:
        ``(E, 3H)``, ``(H, 3H)`` and ``(3H,)``.
    reverse:
        Run the recurrence from the last timestep to the first (the
        backward direction of a bidirectional encoder).

    Returns the ``(B, H)`` masked time-sum ``Σ_t m_t h_t`` — what the
    encoder's fusion layer reads; the trajectory itself never leaves the
    kernel.

    Internally the recurrence runs feature-major: states, gates and
    projections are ``(·, B)`` blocks, so every per-step operand is a
    contiguous array rather than a column slice of a ``(B, 3H)`` buffer.
    The hidden matmuls use the transposed views ``W.T``, with which a
    float32 article's column comes out bit-identical at any batch width.
    """
    seq_embedded = ensure_tensor(seq_embedded)
    w_x, w_h, b = ensure_tensor(w_x), ensure_tensor(w_h), ensure_tensor(b)
    x = seq_embedded.data
    if x.ndim != 3:
        raise ValueError(f"gru_hidden_sum expects (B, T, E) inputs, got {x.shape}")
    B, T, E = x.shape
    H = _check_gate_shapes("gru_hidden_sum", E, w_x.shape[1], w_x, w_h, b, gates=3)
    Wx, Wh, bias = w_x.data, w_h.data, b.data
    # Every buffer, mask and zero state below is in the inputs' dtype.
    dtype = np.result_type(x, Wx, Wh, bias)
    m = _as_mask(mask, B, T, dtype)
    if reverse:
        x = x[:, ::-1]
        m = m[:, ::-1]
    mT = np.ascontiguousarray(m.T)  # (T, B)
    # σ(a) = (1 + tanh(a/2)) / 2. Halving the z/r columns of the weights and
    # bias once is exact, so the loop takes tanh, +1, ×0.5 of them directly.
    half = np.ones(3 * H, dtype)
    half[: 2 * H] = 0.5
    Wh_zr = Wh[:, : 2 * H]
    Wh_c = Wh[:, 2 * H :]
    Wh_zr_half_T = (Wh_zr * 0.5).T
    Wh_c_T = Wh_c.T
    # (T, 3H, B): one batched matmul projects every timestep's input. The
    # z/r rows become σ(z), σ(r) in place and the c rows tanh(candidate),
    # so after the loop this buffer holds the activations the backward
    # replays.
    gates = np.matmul((Wx * half).T, x.transpose(1, 2, 0))
    gates += (bias * half)[:, None]
    # Columns where every row is a real token skip the mask entirely.
    full_cols = mT.all(axis=1)
    # states[t] is h_{t-1}: the zero initial state, then the trajectory.
    states = np.empty((T + 1, H, B), dtype)
    states[0] = 0.0
    rhs = np.empty((T, H, B), dtype)  # r ⊙ h_{t-1}, for dW_hc
    acc_zr = np.empty((2 * H, B), dtype)
    acc_c = np.empty((H, B), dtype)
    for t in range(T):
        g = gates[t]
        h = states[t]
        zr = g[: 2 * H]
        np.matmul(Wh_zr_half_T, h, out=acc_zr)
        zr += acc_zr
        np.tanh(zr, out=zr)
        zr += 1.0
        zr *= 0.5
        z = g[:H]
        if not full_cols[t]:
            # z ⊙ m: a padded row keeps h exactly, and every backward
            # factor built from this z vanishes there too.
            z *= mT[t]
        rh = rhs[t]
        np.multiply(g[H : 2 * H], h, out=rh)
        c = g[2 * H :]
        np.matmul(Wh_c_T, rh, out=acc_c)
        c += acc_c
        np.tanh(c, out=c)
        # (1 − z) ⊙ h + z ⊙ c, regrouped as h + z ⊙ (c − h).
        h_new = states[t + 1]
        np.subtract(c, h, out=h_new)
        h_new *= z
        h_new += h
    hidden_sum = (states[1:] * mT[:, None, :]).sum(axis=0)  # (H, B)

    def backward(grad):
        Z = gates[:, :H]
        R = gates[:, H : 2 * H]
        C = gates[:, 2 * H :]
        H_prev = states[:-1]
        # Gradient-free factors for all timesteps at once:
        # dh_prev = g(1 − z) + …, da_c = g·z(1 − c²), da_z = g·(c − h)z(1 − z),
        # and da_r = (W_hc da_c)·h r(1 − r).
        keep = 1.0 - Z
        f_c = C * C
        np.subtract(1.0, f_c, out=f_c)
        f_c *= Z
        f_z = C - H_prev
        f_z *= Z
        f_z *= keep
        f_r = 1.0 - R
        f_r *= R
        f_r *= H_prev
        # ∂/∂h_t of the pooled sum, masked per timestep.
        g_sum = grad.T[None] * mT[:, None, :]
        # (T, 3H, B) pre-activation gradients in the gates' layout.
        dgates = np.empty((T, 3 * H, B), dtype)
        gh = np.zeros((H, B), dtype)
        drh = np.empty((H, B), dtype)
        dh = np.empty((H, B), dtype)
        for t in range(T - 1, -1, -1):
            gh += g_sum[t]
            d = dgates[t]
            np.multiply(gh, f_z[t], out=d[:H])
            np.multiply(gh, f_c[t], out=d[2 * H :])
            np.matmul(Wh_c, d[2 * H :], out=drh)
            np.multiply(drh, f_r[t], out=d[H : 2 * H])
            if t == 0:
                break
            gh *= keep[t]
            drh *= R[t]
            gh += drh
            np.matmul(Wh_zr, d[: 2 * H], out=dh)
            gh += dh
        del keep, f_c, f_z, f_r, g_sum
        # Weight and input gradients: batched matmuls over T.
        d_bt = dgates.transpose(0, 2, 1)  # (T, B, 3H)
        dWx = np.matmul(x.transpose(1, 2, 0), d_bt).sum(axis=0)
        dWh = np.empty_like(Wh)
        dWh[:, : 2 * H] = np.matmul(H_prev, d_bt[:, :, : 2 * H]).sum(axis=0)
        dWh[:, 2 * H :] = np.matmul(rhs, d_bt[:, :, 2 * H :]).sum(axis=0)
        db = dgates.sum(axis=(0, 2))
        dx = np.empty((B, T, E), dtype)
        np.matmul(d_bt, Wx.T, out=(dx[:, ::-1] if reverse else dx).transpose(1, 0, 2))
        return (dx, dWx, dWh, db)

    return Tensor._make(
        np.ascontiguousarray(hidden_sum.T), (seq_embedded, w_x, w_h, b), backward
    )


def lstm_hidden_sum(seq_embedded, mask, w_x, w_h, b, reverse: bool = False) -> Tensor:
    """Masked LSTM recurrence pooled over time, as one tape node.

    Same contract as :func:`gru_hidden_sum` with four stacked gates in
    input/forget/cell/output order: ``(E, 4H)``, ``(H, 4H)``, ``(4H,)``.
    Padded positions carry both the hidden and the cell state through.
    Returns the ``(B, H)`` masked time-sum ``Σ_t m_t h_t``.
    """
    seq_embedded = ensure_tensor(seq_embedded)
    w_x, w_h, b = ensure_tensor(w_x), ensure_tensor(w_h), ensure_tensor(b)
    x = seq_embedded.data
    if x.ndim != 3:
        raise ValueError(f"lstm_hidden_sum expects (B, T, E) inputs, got {x.shape}")
    B, T, E = x.shape
    H = _check_gate_shapes("lstm_hidden_sum", E, w_x.shape[1], w_x, w_h, b, gates=4)
    Wx, Wh, bias = w_x.data, w_h.data, b.data
    dtype = np.result_type(x, Wx, Wh, bias)
    m = _as_mask(mask, B, T, dtype)
    if reverse:
        x = x[:, ::-1]
        m = m[:, ::-1]
    # Time-major internal layout: every per-step slice below (projections,
    # saved activations, gradients) is a contiguous (B, ·) block.
    xT = np.ascontiguousarray(np.swapaxes(x, 0, 1))
    mT = np.ascontiguousarray(m.T)
    proj = (xT.reshape(T * B, E) @ Wx + bias).reshape(T, B, 4 * H)
    m3 = mT[:, :, None]
    keep3 = 1.0 - m3
    # Columns where every row is a real token need no mask blend at all —
    # with trailing padding that is most of the sequence.
    full_cols = mT.all(axis=1)
    h = np.zeros((B, H), dtype)
    c = np.zeros((B, H), dtype)
    states = np.empty((T, B, H), dtype)
    cells = np.empty((T, B, H), dtype)
    # i/f/g/o activations, stored stacked the same way the weights are.
    gates = np.empty((T, B, 4 * H), dtype)
    tanhc = np.empty((T, B, H), dtype)
    for t in range(T):
        gt = gates[t]
        p = proj[t] + h @ Wh
        i_f = _sigmoid(p[:, : 2 * H], out=gt[:, : 2 * H])
        i = i_f[:, :H]
        f = i_f[:, H:]
        g_gate = np.tanh(p[:, 2 * H : 3 * H], out=gt[:, 2 * H : 3 * H])
        o = _sigmoid(p[:, 3 * H :], out=gt[:, 3 * H :])
        c_new = f * c + i * g_gate
        tc = np.tanh(c_new, out=tanhc[t])
        h_new = o * tc
        if not full_cols[t]:
            mt = m3[t]
            kt = keep3[t]
            h_new = mt * h_new + kt * h
            c_new = mt * c_new + kt * c
        states[t] = h_new
        cells[t] = c_new
        h = h_new
        c = c_new

    def backward(grad):
        dproj = np.empty((T, B, 4 * H), dtype)
        zeros_h = np.zeros((B, H), dtype)
        gh = np.zeros((B, H), dtype)
        gc = np.zeros((B, H), dtype)
        for t in range(T - 1, -1, -1):
            full = full_cols[t]
            # ∂/∂h_t of the pooled sum.
            gh = gh + (grad if full else grad * m3[t])
            h_prev = states[t - 1] if t > 0 else zeros_h
            c_prev = cells[t - 1] if t > 0 else zeros_h
            gt = gates[t]
            i = gt[:, :H]
            f = gt[:, H : 2 * H]
            g_gate = gt[:, 2 * H : 3 * H]
            o = gt[:, 3 * H :]
            tc = tanhc[t]
            dh_new = gh if full else gh * m3[t]
            # h_new = o ⊙ tanh(c_new); masked cell carry adds gc ⊙ m.
            dc_new = dh_new * o * (1.0 - tc * tc)
            dc_new += gc if full else gc * m3[t]
            do = dh_new * tc
            # c_new = f ⊙ c_prev + i ⊙ g — pre-activation grads go straight
            # into dproj so the weight/bias/input grads batch after the loop.
            dpt = dproj[t]
            dpt[:, :H] = (dc_new * g_gate) * i * (1.0 - i)
            dpt[:, H : 2 * H] = (dc_new * c_prev) * f * (1.0 - f)
            dpt[:, 2 * H : 3 * H] = (dc_new * i) * (1.0 - g_gate * g_gate)
            dpt[:, 3 * H :] = do * o * (1.0 - o)
            dh_prev = dpt @ Wh.T
            if not full:
                dh_prev += gh * keep3[t]
                gc = dc_new * f + gc * keep3[t]
            else:
                gc = dc_new * f
            gh = dh_prev
        # h_{t-1} trajectory: zeros at t=0, then the saved states shifted.
        h_prev_all = np.empty((T, B, H), dtype)
        if T:
            h_prev_all[0] = 0.0
            h_prev_all[1:] = states[:-1]
        flat = dproj.reshape(T * B, 4 * H)
        dWh = h_prev_all.reshape(T * B, H).T @ flat
        dxT = (flat @ Wx.T).reshape(T, B, E)
        if reverse:
            dxT = dxT[::-1]
        dx = np.ascontiguousarray(np.swapaxes(dxT, 0, 1))
        dWx = xT.reshape(T * B, E).T @ flat
        db = flat.sum(axis=0)
        return (dx, dWx, dWh, db)

    hidden_sum = (states * m3).sum(axis=0)
    return Tensor._make(hidden_sum, (seq_embedded, w_x, w_h, b), backward)


def _gdu_t_zero(
    parents, gate_ws, gate_bs, gate_slots, has_forget, has_select,
    xd, zd, Wu, Wux, Wuz, bu, D, H,
) -> Tensor:
    """:func:`gdu_layer` fast path for an exactly-zero, no-grad t port.

    With ``t = 0`` the adjust product vanishes (``e ⊙ t = 0``, so the
    adjust gate and the ``W_ut`` rows are dead) and the four selection
    candidates pairwise coincide (``c(z̃,t̃) = c(z̃,t)``, ``c(z,t̃) =
    c(z,t)``), which sums the r gate out of the mixture::

        h = g ⊙ tanh(W_u[x, z̃, 0]) + (1 − g) ⊙ tanh(W_u[x, z, 0])

    Only the forget gate and (when forget is present, so z̃ ≠ z) the g
    gate survive, on the ``[x|z]`` block of their weights. Dead gates get
    explicit all-zero gradients so every parameter still receives a grad.
    """
    k = len(gate_ws)
    need_f = has_forget
    # Without a forget gate z̃ == z, the two surviving candidates coincide
    # and g sums out of the mixture as well.
    need_g = has_select and has_forget
    f = g = None
    S2 = W2 = None
    stack = []  # gate-stack layout: (slot, column) in f-then-g order
    if need_f or need_g:
        ws, bs = [], []
        if need_f:
            stack.append(gate_slots["forget"])
            ws.append(gate_ws[stack[-1]][: D + H])
            bs.append(gate_bs[stack[-1]])
        if need_g:
            stack.append(gate_slots["select-g"])
            ws.append(gate_ws[stack[-1]][: D + H])
            bs.append(gate_bs[stack[-1]])
        S2 = np.concatenate((xd, zd), axis=1)
        W2 = np.concatenate(ws, axis=1) if len(ws) > 1 else ws[0]
        G2 = _sigmoid(S2 @ W2 + np.concatenate(bs))
        if need_f:
            f = G2[:, :H]
        if need_g:
            g = G2[:, H:] if need_f else G2

    z1 = f * zd if need_f else zd
    px = xd @ Wux + bu
    if need_g:
        ca = np.tanh(px + z1 @ Wuz)
        cb = np.tanh(px + zd @ Wuz)
        one_m_g = 1.0 - g
        out = g * ca + one_m_g * cb
    else:
        c = np.tanh(px + z1 @ Wuz)
        out = c

    def backward(gh):
        if need_g:
            da_a = (gh * g) * (1.0 - ca * ca)
            da_b = (gh * one_m_g) * (1.0 - cb * cb)
            da_sum = da_a + da_b
            dg = gh * (ca - cb)
            dz1 = da_a @ Wuz.T
            df = dz1 * zd
            dz = dz1 * f + da_b @ Wuz.T
        else:
            da_sum = gh * (1.0 - c * c)
            dz1 = da_sum @ Wuz.T
            dg = None
            if need_f:
                df = dz1 * zd
                dz = dz1 * f
            else:
                df = None
                dz = dz1

        dWu = np.zeros_like(Wu)
        dWu[:D] = xd.T @ da_sum
        if need_g:
            dWu[D : D + H] = z1.T @ da_a + zd.T @ da_b
        else:
            dWu[D : D + H] = z1.T @ da_sum
        db_u = da_sum.sum(axis=0)
        dx = da_sum @ Wux.T

        gate_grads = [None] * (2 * k)
        if stack:
            dus = []
            if need_f:
                dus.append(df * f * (1.0 - f))
            if need_g:
                dus.append(dg * g * (1.0 - g))
            dU2 = np.concatenate(dus, axis=1) if len(dus) > 1 else dus[0]
            dW2 = S2.T @ dU2
            db2 = dU2.sum(axis=0)
            dS2 = dU2 @ W2.T
            dx = dx + dS2[:, :D]
            dz = dz + dS2[:, D:]
            for col, slot in enumerate(stack):
                dw = np.zeros_like(Wu)
                dw[: D + H] = dW2[:, col * H : (col + 1) * H]
                gate_grads[2 * slot] = dw
                gate_grads[2 * slot + 1] = db2[col * H : (col + 1) * H]
        # Dead gates (adjust always; r always; f/g when not stacked) have
        # exactly-zero gradients — materialize them so optimizers and
        # grad-coverage checks see every parameter.
        for slot in range(k):
            if gate_grads[2 * slot] is None:
                gate_grads[2 * slot] = np.zeros_like(gate_ws[slot])
                gate_grads[2 * slot + 1] = np.zeros_like(gate_bs[slot])

        grads = [dx, dz, None]
        grads.extend(gate_grads)
        grads.append(dWu)
        grads.append(db_u)
        return tuple(grads)

    return Tensor._make(out, tuple(parents), backward)


def gdu_layer(x, z, t, w_u, b_u, forget=None, adjust=None, select=None) -> Tensor:
    """Whole Gated Diffusive Unit (paper §4.2) as one fused tape node.

    Unrolled (the reference in ``tests/training_oracles.py``), one
    :class:`repro.core.GDU` call builds ~25 tape nodes:
    a ``concatenate``, one matmul+bias+sigmoid per gate, and the four
    ``tanh(W_u[·])`` candidates blended by the g/r selection mixture. This
    kernel stacks every *active* gate weight column-wise so the entire gate
    block is a single ``[x|z|t] @ W_gates`` matmul, splits the shared
    candidate weight into its x/z/t row blocks (so the four candidates
    reuse one ``x @ W_ux`` projection and four cheap ``(n, H)`` state
    projections), and evaluates the whole mixture in raw numpy. The
    handwritten backward replays the saved activations and accumulates all
    five weight gradients (plus x/z/t input grads) in closed form.

    Parameters
    ----------
    x, z, t:
        ``(n, D)`` HFLU features and the two ``(n, H)`` diffused states.
    w_u, b_u:
        Shared candidate weight ``(D + 2H, H)`` and bias ``(H,)``.
    forget / adjust / select:
        Optional gate parameter tuples — ``(w_f, b_f)``, ``(w_e, b_e)`` and
        ``(w_g, b_g, w_r, b_r)`` respectively, each weight ``(D + 2H, H)``.
        ``None`` reproduces the matching ablation switch of the GDU:
        identity forget/adjust, or the plain ``tanh(W_u[x, z̃, t̃])``
        candidate when the selection pair is absent.

    Returns the ``(n, H)`` diffused hidden state ``h``. Forward values and
    all parameter/input gradients match the unrolled path to 1e-12
    (``tests/test_kernels.py``); gate sigmoids use :func:`_sigmoid`, which
    agrees with ``Tensor.sigmoid`` to ≤ 2 ulp.
    """
    x, z, t = ensure_tensor(x), ensure_tensor(z), ensure_tensor(t)
    w_u, b_u = ensure_tensor(w_u), ensure_tensor(b_u)
    if x.ndim != 2 or z.ndim != 2 or t.ndim != 2:
        raise ValueError(
            f"gdu_layer expects (n, ·) batches, got x={x.shape}, "
            f"z={z.shape}, t={t.shape}"
        )
    n = x.shape[0]
    D = x.shape[1]
    if z.shape[0] != n or t.shape[0] != n:
        raise ValueError(
            f"batch mismatch: x={x.shape}, z={z.shape}, t={t.shape}"
        )
    H = z.shape[1]
    if t.shape[1] != H:
        raise ValueError(f"state width mismatch: z={z.shape}, t={t.shape}")
    C = D + 2 * H
    if w_u.shape != (C, H):
        raise ValueError(f"gdu_layer: w_u shape {w_u.shape} != ({C}, {H})")
    if b_u.shape != (H,):
        raise ValueError(f"gdu_layer: b_u shape {b_u.shape} != ({H},)")

    parents = [x, z, t]
    gate_ws: list = []
    gate_bs: list = []
    gate_slots: dict = {}

    def _add_gate(name: str, w, bias) -> None:
        w, bias = ensure_tensor(w), ensure_tensor(bias)
        if w.shape != (C, H) or bias.shape != (H,):
            raise ValueError(
                f"gdu_layer: {name} gate shapes {w.shape}/{bias.shape} "
                f"!= ({C}, {H})/({H},)"
            )
        parents.append(w)
        parents.append(bias)
        gate_slots[name] = len(gate_ws)
        gate_ws.append(w.data)
        gate_bs.append(bias.data)

    if forget is not None:
        _add_gate("forget", forget[0], forget[1])
    if adjust is not None:
        _add_gate("adjust", adjust[0], adjust[1])
    if select is not None:
        _add_gate("select-g", select[0], select[1])
        _add_gate("select-r", select[2], select[3])
    parents.append(w_u)
    parents.append(b_u)

    xd, zd, td = x.data, z.data, t.data
    k = len(gate_ws)

    # Candidate weight split by input port: W_u = [W_ux; W_uz; W_ut].
    Wu = w_u.data
    Wux = Wu[:D]
    Wuz = Wu[D : D + H]
    Wut = Wu[D + H :]

    # ------------------------------------------------------------------
    # Zero-port fast paths. ``FakeDetectorModel.diffuse`` feeds the §4.2
    # zero defaults through these ports constantly: round 1 starts from
    # all-zero states (both ports zero for every unit) and the creator/
    # subject units never receive a t input at all. With an exactly-zero,
    # no-grad port the gate algebra collapses — the forget/adjust products
    # vanish, candidates that differ only in the dead port coincide, and
    # the mixture weights sum out — so most of the gate matmul and half
    # the candidate work is provably dead. Both paths keep every parent
    # grad exact: dead gates receive explicit all-zero gradient arrays.
    z_inert = not z.requires_grad and not zd.any()
    t_inert = not t.requires_grad and not td.any()
    if t_inert and z_inert:
        # Every candidate is tanh(W_ux x + b_u) and the mixture weights
        # sum to one, so no gate influences the output (or any gradient).
        out = np.tanh(xd @ Wux + b_u.data)

        def backward_zz(gh):
            da = gh * (1.0 - out * out)
            dWu = np.zeros_like(Wu)
            dWu[:D] = xd.T @ da
            grads = [da @ Wux.T, None, None]
            for gw, gb in zip(gate_ws, gate_bs):
                grads.append(np.zeros_like(gw))
                grads.append(np.zeros_like(gb))
            grads.append(dWu)
            grads.append(da.sum(axis=0))
            return tuple(grads)

        return Tensor._make(out, tuple(parents), backward_zz)
    if t_inert:
        return _gdu_t_zero(
            parents, gate_ws, gate_bs, gate_slots,
            forget is not None, select is not None,
            xd, zd, Wu, Wux, Wuz, b_u.data, D, H,
        )
    # ------------------------------------------------------------------

    f = e = g = r = None
    S = Wg = None
    if k:
        # One stacked matmul for every active gate: σ([x|z|t] @ (C, kH)).
        S = np.concatenate((xd, zd, td), axis=1)
        Wg = np.concatenate(gate_ws, axis=1)
        G = _sigmoid(S @ Wg + np.concatenate(gate_bs))
        col = 0
        if forget is not None:
            f = G[:, col : col + H]
            col += H
        if adjust is not None:
            e = G[:, col : col + H]
            col += H
        if select is not None:
            g = G[:, col : col + H]
            r = G[:, col + H : col + 2 * H]

    z1 = f * zd if forget is not None else zd  # z̃ = f ⊙ z
    t1 = e * td if adjust is not None else td  # t̃ = e ⊙ t

    px = xd @ Wux + b_u.data

    if select is not None:
        pz1 = z1 @ Wuz
        pz0 = zd @ Wuz if forget is not None else pz1
        pt1 = t1 @ Wut
        pt0 = td @ Wut if adjust is not None else pt1
        # The four shared-weight candidates of the selection mixture, in
        # the paper's (z̃,t̃) / (z,t̃) / (z̃,t) / (z,t) order, built with
        # in-place adds (commutative, so bit-identical to the naive form).
        ca = px + pz1
        ca += pt1
        np.tanh(ca, out=ca)
        cb = px + pz0
        cb += pt1
        np.tanh(cb, out=cb)
        cc = px + pz1
        cc += pt0
        np.tanh(cc, out=cc)
        cd = px + pz0
        cd += pt0
        np.tanh(cd, out=cd)
        one_m_g = 1.0 - g
        one_m_r = 1.0 - r
        ma = g * r
        mb = one_m_g * r
        mc = g * one_m_r
        md = one_m_g * one_m_r
        out = ma * ca
        out += mb * cb
        out += mc * cc
        out += md * cd
    else:
        c_single = np.tanh(px + z1 @ Wuz + t1 @ Wut)
        out = c_single

    def backward(gh):
        if select is not None:
            # h = Σ m_k ⊙ c_k with m ∈ {gr, (1−g)r, g(1−r), (1−g)(1−r)}.
            daa = (gh * ma) * (1.0 - ca * ca)
            dab = (gh * mb) * (1.0 - cb * cb)
            dac = (gh * mc) * (1.0 - cc * cc)
            dad = (gh * md) * (1.0 - cd * cd)
            da_sum = daa + dab + dac + dad
            da_z1 = daa + dac  # candidates reading the z̃ port
            da_z0 = dab + dad  # candidates reading the raw z port
            da_t1 = daa + dab
            da_t0 = dac + dad
            dg = gh * (r * (ca - cb) + one_m_r * (cc - cd))
            dr = gh * (g * (ca - cc) + one_m_g * (cb - cd))
        else:
            da_sum = gh * (1.0 - c_single * c_single)
            da_z1 = da_t1 = da_sum
            da_z0 = da_t0 = None
            dg = dr = None

        dz1 = da_z1 @ Wuz.T
        dt1 = da_t1 @ Wut.T
        if forget is not None:
            df = dz1 * zd
            dz = dz1 * f
        else:
            df = None
            dz = dz1
        if adjust is not None:
            de = dt1 * td
            dt = dt1 * e
        else:
            de = None
            dt = dt1
        if da_z0 is not None:
            dz = dz + da_z0 @ Wuz.T
            dt = dt + da_t0 @ Wut.T

        dWu = np.empty_like(Wu)
        dWu[:D] = xd.T @ da_sum
        if da_z0 is not None:
            dWu[D : D + H] = z1.T @ da_z1 + zd.T @ da_z0
            dWu[D + H :] = t1.T @ da_t1 + td.T @ da_t0
        else:
            dWu[D : D + H] = z1.T @ da_z1
            dWu[D + H :] = t1.T @ da_t1
        db_u = da_sum.sum(axis=0)
        dx = da_sum @ Wux.T

        grads = [dx, dz, dt]
        if k:
            # Pre-activation grads for the stacked gate block, in the same
            # f/e/g/r stacking order as the forward matmul.
            d_gates = []
            if forget is not None:
                d_gates.append(df * f * (1.0 - f))
            if adjust is not None:
                d_gates.append(de * e * (1.0 - e))
            if select is not None:
                d_gates.append(dg * g * (1.0 - g))
                d_gates.append(dr * r * (1.0 - r))
            dU = np.concatenate(d_gates, axis=1)
            dWg = S.T @ dU
            dbg = dU.sum(axis=0)
            dS = dU @ Wg.T
            grads[0] = grads[0] + dS[:, :D]
            grads[1] = grads[1] + dS[:, D : D + H]
            grads[2] = grads[2] + dS[:, D + H :]
            for i in range(k):
                grads.append(np.ascontiguousarray(dWg[:, i * H : (i + 1) * H]))
                grads.append(dbg[i * H : (i + 1) * H])
        grads.append(dWu)
        grads.append(db_u)
        return tuple(grads)

    return Tensor._make(out, tuple(parents), backward)


# Register with the op profiler / tape sanitizer like every other tape op.
embedding_gather = instrument_op("embedding_gather", embedding_gather)
gru_hidden_sum = instrument_op("gru_hidden_sum", gru_hidden_sum)
lstm_hidden_sum = instrument_op("lstm_hidden_sum", lstm_hidden_sum)
gdu_layer = instrument_op("gdu_layer", gdu_layer)
