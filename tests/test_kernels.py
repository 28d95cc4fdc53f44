"""Fused sequence kernels: gradchecks and equivalence with the unrolled tape.

The contract under test (docs/performance.md): ``repro.autograd.kernels``
runs each gru/lstm/bigru recurrence, pooled into the encoder's masked
hidden sum, as a single tape node with a hand-written BPTT backward, and
is numerically equivalent to the unrolled per-timestep reference path —
same forward values, same parameter gradients, same training trajectories,
interchangeable checkpoints.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import GRUEncoder, Tensor, gradcheck
from repro.autograd.kernels import (
    embedding_gather,
    gdu_layer,
    gru_hidden_sum,
    lstm_hidden_sum,
)

pytestmark = pytest.mark.kernels

#: mask with a padded tail, a full row, an all-pad row and an interior pad —
#: the shapes the encoder produces, plus one it never does.
MASK = np.array(
    [[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0], [0.0] * 4, [1.0, 0.0, 1.0, 1.0]]
)

HIDDEN_SUMS = {"gru": (gru_hidden_sum, 3), "lstm": (lstm_hidden_sum, 4)}


def _stacked(rng, E, H, gates):
    return (
        Tensor(rng.standard_normal((E, gates * H)) * 0.5, requires_grad=True),
        Tensor(rng.standard_normal((H, gates * H)) * 0.5, requires_grad=True),
        Tensor(rng.standard_normal(gates * H) * 0.1, requires_grad=True),
    )


def _gradcheck_hidden_sum(rng, cell, mask, reverse):
    kernel, gates = HIDDEN_SUMS[cell]
    B, T = mask.shape
    x = Tensor(rng.standard_normal((B, T, 2)), requires_grad=True)
    w_x, w_h, b = _stacked(rng, 2, 3, gates=gates)

    def loss(x, w_x, w_h, b):
        return (kernel(x, mask, w_x, w_h, b, reverse=reverse) ** 2).sum()

    return gradcheck(loss, [x, w_x, w_h, b], tolerance=1e-5)


class TestGradcheck:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_gru_hidden_sum(self, rng, reverse):
        assert _gradcheck_hidden_sum(rng, "gru", MASK, reverse)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_hidden_sum(self, rng, reverse):
        assert _gradcheck_hidden_sum(rng, "lstm", MASK, reverse)

    @pytest.mark.parametrize("cell", ["gru", "lstm"])
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize(
        "mask", [MASK[3:], MASK[:, :1]], ids=["batch-1", "length-1"]
    )
    def test_hidden_sum_single_row_and_single_step(self, rng, cell, reverse, mask):
        assert _gradcheck_hidden_sum(rng, cell, mask, reverse)

    def test_embedding_gather(self, rng):
        weight = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
        idx = np.array([[1, 5, 5, 0], [7, 1, 2, 3]])  # repeats accumulate

        def loss(weight):
            return (embedding_gather(weight, idx) ** 2).sum()

        assert gradcheck(loss, [weight])


class TestKernelSemantics:
    @staticmethod
    def _padded_and_dropped(rng, cell, reverse):
        kernel, gates = HIDDEN_SUMS[cell]
        x_data = rng.standard_normal((1, 4, 2))
        w_x, w_h, b = _stacked(rng, 2, 3, gates=gates)
        padded = kernel(
            Tensor(x_data), np.array([[1.0, 0.0, 1.0, 1.0]]), w_x, w_h, b,
            reverse=reverse,
        )
        dropped = kernel(
            Tensor(x_data[:, [0, 2, 3]]), np.ones((1, 3)), w_x, w_h, b,
            reverse=reverse,
        )
        return padded.data, dropped.data

    def test_gru_masked_positions_carry_state(self, rng):
        """A padded position carries the state and adds nothing to the sum,
        so interior padding equals dropping that position."""
        for reverse in (False, True):
            padded, dropped = self._padded_and_dropped(rng, "gru", reverse)
            np.testing.assert_array_equal(padded, dropped, err_msg=f"{reverse=}")

    def test_lstm_masked_positions_carry_state(self, rng):
        for reverse in (False, True):
            padded, dropped = self._padded_and_dropped(rng, "lstm", reverse)
            np.testing.assert_array_equal(padded, dropped, err_msg=f"{reverse=}")

    def test_empty_sequence(self, rng):
        for cell, (kernel, gates) in HIDDEN_SUMS.items():
            x = Tensor(rng.standard_normal((2, 0, 2)))
            w_x, w_h, b = _stacked(rng, 2, 3, gates=gates)
            out = kernel(x, np.zeros((2, 0)), w_x, w_h, b)
            np.testing.assert_array_equal(out.data, np.zeros((2, 3)), err_msg=cell)

    def test_reverse_equals_flipped_forward(self, rng):
        """reverse=True is the recurrence over the time-flipped input."""
        mask = np.array(
            [[1.0] * 5, [1.0, 1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 1.0, 0.0]]
        )
        for cell, (kernel, gates) in HIDDEN_SUMS.items():
            x_data = rng.standard_normal((3, 5, 2))
            w_x, w_h, b = _stacked(rng, 2, 3, gates=gates)
            rev = kernel(Tensor(x_data), mask, w_x, w_h, b, reverse=True)
            fwd = kernel(
                Tensor(x_data[:, ::-1].copy()), mask[:, ::-1].copy(), w_x, w_h, b
            )
            np.testing.assert_allclose(rev.data, fwd.data, atol=1e-12, err_msg=cell)

    def test_shape_validation(self, rng):
        x = Tensor(rng.standard_normal((2, 4, 2)))
        for kernel, gates in HIDDEN_SUMS.values():
            w_x, w_h, b = _stacked(rng, 2, 3, gates=gates)
            with pytest.raises(ValueError):
                kernel(x, np.ones((2, 5)), w_x, w_h, b)  # bad mask
            with pytest.raises(ValueError):
                kernel(Tensor(rng.standard_normal((2, 4))), np.ones((2, 4)),
                       w_x, w_h, b)  # not 3-d
            bad_wh = Tensor(rng.standard_normal((4, 3 * gates)))
            with pytest.raises(ValueError):
                kernel(x, np.ones((2, 4)), w_x, bad_wh, b)

    def test_embedding_gather_range_check(self, rng):
        weight = Tensor(rng.standard_normal((4, 2)))
        with pytest.raises(IndexError):
            embedding_gather(weight, np.array([[0, 4]]))


def _pair(cell, rng_seed=0, **kwargs):
    """Two identically-initialized encoders, fused and unrolled."""
    make = lambda fused: GRUEncoder(
        vocab_size=20, embed_dim=4, hidden_size=6, output_size=5,
        rng=np.random.default_rng(rng_seed), cell=cell, fused=fused, **kwargs
    )
    return make(True), make(False)


SEQ = np.array(
    [
        [3, 7, 5, 0, 0, 0],
        [1, 2, 3, 4, 5, 6],
        [9, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],  # all-pad row
    ]
)


class TestEncoderEquivalence:
    @pytest.mark.parametrize("cell", ["gru", "lstm", "bigru"])
    def test_forward_and_gradients_match_unrolled(self, cell):
        fused, unrolled = _pair(cell)
        out_f, out_u = fused(SEQ), unrolled(SEQ)
        np.testing.assert_allclose(out_f.data, out_u.data, atol=1e-12)
        (out_f ** 2).sum().backward()
        (out_u ** 2).sum().backward()
        for (name, p_f), (_, p_u) in zip(
            fused.named_parameters(), unrolled.named_parameters()
        ):
            g_f = p_f.grad if p_f.grad is not None else np.zeros_like(p_f.data)
            g_u = p_u.grad if p_u.grad is not None else np.zeros_like(p_u.data)
            np.testing.assert_allclose(g_f, g_u, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("cell", ["gru", "lstm", "bigru"])
    def test_trailing_padding_is_free_and_ignored(self, cell):
        fused, _ = _pair(cell)
        seq = np.array([[3, 7, 5, 0, 0, 0]])
        longer = np.array([[3, 7, 5] + [0] * 9])
        np.testing.assert_allclose(fused(seq).data, fused(longer).data, atol=1e-12)

    @pytest.mark.parametrize("cell", ["gru", "lstm", "bigru"])
    def test_all_padding_batch(self, cell):
        fused, unrolled = _pair(cell)
        seq = np.zeros((2, 5), dtype=int)
        np.testing.assert_allclose(fused(seq).data, unrolled(seq).data, atol=1e-12)
        np.testing.assert_allclose(fused(seq).data[0], fused(seq).data[1])

    def test_state_dict_round_trips_across_modes(self):
        """Fused and unrolled modes share one checkpoint format."""
        fused, unrolled = _pair("gru", rng_seed=1)
        other = GRUEncoder(
            vocab_size=20, embed_dim=4, hidden_size=6, output_size=5,
            rng=np.random.default_rng(99), cell="gru", fused=False,
        )
        other.load_state_dict(fused.state_dict())
        np.testing.assert_allclose(other(SEQ).data, fused(SEQ).data, atol=1e-12)
        fused.load_state_dict(other.state_dict())
        np.testing.assert_allclose(fused(SEQ).data, unrolled(SEQ).data, atol=1e-12)


class TestObservabilityIntegration:
    def test_profiler_sees_fused_ops(self):
        from repro.obs import OpProfiler

        fused, _ = _pair("gru")
        with OpProfiler() as profiler:
            (fused(SEQ) ** 2).sum().backward()
        snap = profiler.snapshot()
        assert "gru_hidden_sum" in snap["forward"]
        assert "embedding_gather" in snap["forward"]
        assert "gru_hidden_sum" in snap["backward"]

    def test_sanitizer_accepts_fused_ops(self):
        from repro.analysis.sanitize import Sanitizer

        fused, _ = _pair("lstm")
        with Sanitizer() as sanitizer:
            (fused(SEQ) ** 2).sum().backward()
        assert sanitizer.stats.forward_ops > 0
        assert sanitizer.stats.backward_ops > 0


#: Every (use_forget_gate, use_adjust_gate, use_selection_gates) combination.
GDU_ABLATIONS = [
    (f, a, s) for f in (True, False) for a in (True, False) for s in (True, False)
]


def _gdu_pair(flags=(True, True, True), seed=3, input_dim=5, hidden_dim=4):
    """Two identically-initialized GDUs, fused and unrolled."""
    from repro.core.gdu import GDU

    forget, adjust, select = flags
    make = lambda fused: GDU(
        input_dim, hidden_dim, rng=np.random.default_rng(seed),
        use_forget_gate=forget, use_adjust_gate=adjust,
        use_selection_gates=select, fused=fused,
    )
    return make(True), make(False)


def _gdu_inputs(rng, n=7, input_dim=5, hidden_dim=4, requires_grad=False):
    return (
        Tensor(rng.standard_normal((n, input_dim)), requires_grad=requires_grad),
        Tensor(rng.standard_normal((n, hidden_dim)), requires_grad=requires_grad),
        Tensor(rng.standard_normal((n, hidden_dim)), requires_grad=requires_grad),
    )


class TestGduGradcheck:
    @pytest.mark.parametrize("flags", GDU_ABLATIONS)
    def test_gdu_layer(self, rng, flags):
        fused, _ = _gdu_pair(flags)
        x, z, t = _gdu_inputs(rng, requires_grad=True)
        params = [p for _, p in fused.named_parameters()]

        def loss(x, z, t, *_params):
            return (fused(x, z, t) ** 2).sum()

        assert gradcheck(loss, [x, z, t] + params, tolerance=1e-5)


class TestGduEquivalence:
    @pytest.mark.parametrize("flags", GDU_ABLATIONS)
    def test_forward_and_gradients_match_unrolled(self, rng, flags):
        fused, unrolled = _gdu_pair(flags)
        x_f, z_f, t_f = _gdu_inputs(rng, requires_grad=True)
        x_u = Tensor(x_f.data.copy(), requires_grad=True)
        z_u = Tensor(z_f.data.copy(), requires_grad=True)
        t_u = Tensor(t_f.data.copy(), requires_grad=True)
        h_f, h_u = fused(x_f, z_f, t_f), unrolled(x_u, z_u, t_u)
        np.testing.assert_allclose(h_f.data, h_u.data, atol=1e-12)
        (h_f ** 2).sum().backward()
        (h_u ** 2).sum().backward()
        for (name, p_f), (_, p_u) in zip(
            fused.named_parameters(), unrolled.named_parameters()
        ):
            np.testing.assert_allclose(
                p_f.grad, p_u.grad, atol=1e-12, err_msg=name
            )
        for name, a, b in (("x", x_f, x_u), ("z", z_f, z_u), ("t", t_f, t_u)):
            np.testing.assert_allclose(a.grad, b.grad, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("flags", GDU_ABLATIONS)
    @pytest.mark.parametrize("zero_ports", [("t",), ("z", "t")])
    def test_zero_port_fast_paths_match_unrolled(self, rng, flags, zero_ports):
        """Exactly-zero no-grad ports (the §4.2 defaults) stay equivalent.

        ``diffuse`` feeds zero states through z and t in round 1 and through
        t on creator/subject units every round; the fused kernel serves
        those calls from collapsed fast paths, which must agree with the
        unrolled tape and still deliver a gradient to *every* parameter
        (dead gates get exact zeros, not None).
        """
        fused, unrolled = _gdu_pair(flags)
        x_f, _, _ = _gdu_inputs(rng, requires_grad=True)
        x_u = Tensor(x_f.data.copy(), requires_grad=True)
        zero = lambda: Tensor(np.zeros((7, 4)))  # zero_state: no grad
        live = lambda: rng.standard_normal((7, 4))
        z_data = zero().data if "z" in zero_ports else live()
        h_f = fused(
            x_f,
            Tensor(z_data, requires_grad=False) if "z" in zero_ports
            else Tensor(z_data.copy(), requires_grad=True),
            zero(),
        )
        h_u = unrolled(
            x_u,
            Tensor(z_data, requires_grad=False) if "z" in zero_ports
            else Tensor(z_data.copy(), requires_grad=True),
            zero(),
        )
        np.testing.assert_allclose(h_f.data, h_u.data, atol=1e-12)
        (h_f ** 2).sum().backward()
        (h_u ** 2).sum().backward()
        for (name, p_f), (_, p_u) in zip(
            fused.named_parameters(), unrolled.named_parameters()
        ):
            assert p_f.grad is not None, f"fast path dropped grad for {name}"
            np.testing.assert_allclose(
                p_f.grad, p_u.grad, atol=1e-12, err_msg=name
            )
        np.testing.assert_allclose(x_f.grad, x_u.grad, atol=1e-12)

    @pytest.mark.parametrize("flags", GDU_ABLATIONS)
    def test_zero_port_fast_paths_pass_gradcheck(self, rng, flags):
        """Numerical gradcheck through the t-zero fast path's x/z inputs."""
        fused, _ = _gdu_pair(flags)
        x = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
        z = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        t = Tensor(np.zeros((5, 4)))
        params = [p for _, p in fused.named_parameters()]

        def loss(x, z, *_params):
            return (fused(x, z, t) ** 2).sum()

        assert gradcheck(loss, [x, z] + params, tolerance=1e-5)

    def test_state_dict_round_trips_across_modes(self, rng):
        """Fused and unrolled GDUs share one checkpoint format."""
        from repro.core.gdu import GDU

        fused, unrolled = _gdu_pair(seed=1)
        other = GDU(5, 4, rng=np.random.default_rng(99), fused=False)
        other.load_state_dict(fused.state_dict())
        x, z, t = _gdu_inputs(rng)
        np.testing.assert_allclose(other(x, z, t).data, fused(x, z, t).data,
                                   atol=1e-12)
        fused.load_state_dict(other.state_dict())
        np.testing.assert_allclose(fused(x, z, t).data, unrolled(x, z, t).data,
                                   atol=1e-12)

    def test_single_tape_node(self, rng):
        """The whole fused GDU is one node: h's parents are the raw inputs."""
        fused, unrolled = _gdu_pair()
        x, z, t = _gdu_inputs(rng, requires_grad=True)
        h = fused(x, z, t)
        assert x in h._parents and z in h._parents and t in h._parents
        deep = unrolled(x, z, t)
        assert x not in deep._parents  # the unrolled tape is nested

    def test_shape_validation(self, rng):
        x, z, t = _gdu_inputs(rng)
        w_u = Tensor(rng.standard_normal((13, 4)))
        b_u = Tensor(rng.standard_normal(4))
        with pytest.raises(ValueError):
            gdu_layer(x, z, Tensor(rng.standard_normal((3, 4))), w_u, b_u)
        with pytest.raises(ValueError):
            gdu_layer(x, z, t, Tensor(rng.standard_normal((12, 4))), b_u)
        with pytest.raises(ValueError):
            gdu_layer(x, z, t, w_u, b_u,
                      forget=(Tensor(rng.standard_normal((13, 5))),
                              Tensor(rng.standard_normal(5))))


class TestGduObservability:
    def test_profiler_sees_gdu_layer(self, rng):
        from repro.obs import OpProfiler

        fused, _ = _gdu_pair()
        x, z, t = _gdu_inputs(rng, requires_grad=True)
        with OpProfiler() as profiler:
            (fused(x, z, t) ** 2).sum().backward()
        snap = profiler.snapshot()
        assert snap["forward"]["gdu_layer"]["calls"] == 1
        assert "gdu_layer" in snap["backward"]

    def test_sanitizer_accepts_gdu_layer(self, rng):
        from repro.analysis.sanitize import Sanitizer

        fused, _ = _gdu_pair()
        x, z, t = _gdu_inputs(rng, requires_grad=True)
        with Sanitizer() as sanitizer:
            (fused(x, z, t) ** 2).sum().backward()
        assert sanitizer.stats.forward_ops > 0
        assert sanitizer.stats.backward_ops > 0


def _fit_both_modes(dataset, split):
    """Loss curves and article logits of a fused and an unrolled fit."""
    from repro.core import FakeDetector, FakeDetectorConfig

    curves = {}
    for fused in (True, False):
        config = FakeDetectorConfig(
            epochs=4, explicit_dim=30, vocab_size=300, max_seq_len=12,
            seed=5, fused_kernels=fused,
        )
        detector = FakeDetector(config).fit(dataset, split)
        curves[fused] = (
            np.asarray(detector.record.total),
            detector.predict_logits()["article"],
        )
    return curves


class TestTrainingEquivalence:
    def test_fit_loss_curves_match(self, tiny_dataset, tiny_split, monkeypatch):
        """Judged in float64, the reference dtype, so the tolerances measure
        the two paths and not float32 rounding."""
        from repro.core import model as model_module

        monkeypatch.setattr(model_module, "COMPUTE_DTYPE", np.float64)
        curves = _fit_both_modes(tiny_dataset, tiny_split)
        assert curves[True][1].dtype == np.float64
        np.testing.assert_allclose(
            curves[True][0], curves[False][0], rtol=1e-6, atol=1e-8
        )
        np.testing.assert_allclose(
            curves[True][1], curves[False][1], rtol=1e-5, atol=1e-7
        )

    def test_fit_agrees_in_float32(self, tiny_dataset, tiny_split):
        """The compute dtype: both paths round differently, by a few ulps.

        The budget is 2^8 float32 ulps of the largest logit, and 2^8 ulps
        relative on the loss curve: far above the reordered sums of the two
        paths, far below what a wrong gate or mask would move.
        """
        curves = _fit_both_modes(tiny_dataset, tiny_split)
        assert curves[True][1].dtype == np.float32
        budget = 2.0 ** 8 * np.finfo(np.float32).eps
        scale = np.abs(curves[False][1]).max()
        np.testing.assert_allclose(curves[True][0], curves[False][0], rtol=budget)
        np.testing.assert_allclose(
            curves[True][1], curves[False][1], rtol=0, atol=budget * scale
        )

    def test_detector_checkpoint_round_trip_across_modes(
        self, tiny_dataset, tiny_split, tmp_path
    ):
        from repro.core import FakeDetector, FakeDetectorConfig

        config = FakeDetectorConfig(
            epochs=2, explicit_dim=30, vocab_size=300, max_seq_len=12,
            seed=5, fused_kernels=True,
        )
        detector = FakeDetector(config).fit(tiny_dataset, tiny_split)
        detector.save(tmp_path / "ckpt")
        loaded = FakeDetector.load(tmp_path / "ckpt")
        assert loaded.config.fused_kernels is True
        np.testing.assert_array_equal(
            loaded.predict_logits()["article"], detector.predict_logits()["article"]
        )
        # The same weights evaluated on the unrolled path agree too: the
        # checkpoint is mode-independent. Both paths run in float64, cast
        # the way the model and the trainer cast, so the tolerance measures
        # the paths and not float32 rounding.
        state = detector.model.state_dict()
        from repro.core.model import FakeDetectorModel
        from repro.core.pipeline import with_explicit_dtype

        explicit_dims = {
            kind: detector.features.by_type(kind).explicit.shape[1]
            for kind in ("article", "creator", "subject")
        }
        features = with_explicit_dtype(detector.features, np.float64)
        logits = {}
        for fused in (True, False):
            mode_cfg = FakeDetectorConfig(
                epochs=2, explicit_dim=30, vocab_size=300, max_seq_len=12,
                seed=5, fused_kernels=fused,
            )
            model = FakeDetectorModel(
                mode_cfg, rng=np.random.default_rng(0), explicit_dims=explicit_dims
            ).astype(np.float64)
            model.load_state_dict(state)
            model.eval()
            logits[fused] = model(features, detector.graph)["article"].data
        assert logits[False].dtype == np.float64
        np.testing.assert_allclose(
            logits[False], logits[True], rtol=1e-8, atol=1e-10
        )
