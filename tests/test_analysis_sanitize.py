"""Runtime tape sanitizer tests: injected faults must be caught and named,
and a clean sanitized run must be bit-identical to an unsanitized one."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.analysis import (
    ContractChecker,
    ContractViolation,
    NumericalFaultError,
    Sanitizer,
    TapeCorruptionError,
    audit_parameters,
    named_modules,
)
from repro.autograd.nn import Linear
from repro.autograd.rnn import GRUCell
from repro.autograd.tensor import Tensor
from repro.core.config import FakeDetectorConfig
from repro.core.gdu import GDU
from repro.core.trainer import FakeDetector
from repro.obs import MemoryProfiler, OpProfiler
from tests.helpers import op_observers

pytestmark = [
    pytest.mark.analysis,
    # The injected faults legitimately trip numpy's warnings on the way to
    # the sanitizer's exception; keep the test output quiet.
    pytest.mark.filterwarnings("ignore::RuntimeWarning"),
]


# ----------------------------------------------------------------------
# NaN/Inf guard
# ----------------------------------------------------------------------
class TestNumericalGuard:
    def test_nan_forward_caught_with_op_name(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        with pytest.raises(NumericalFaultError) as excinfo, Sanitizer():
            x.log()
        assert excinfo.value.phase == "forward"
        assert excinfo.value.op == "log"
        assert excinfo.value.shape == (2,)
        assert "1/2 elements" in str(excinfo.value)

    def test_inf_forward_caught(self):
        x = Tensor(np.array([1.0, 0.0]), requires_grad=True)
        one = Tensor(np.array([1.0, 1.0]))
        with pytest.raises(NumericalFaultError) as excinfo, Sanitizer():
            one / x
        assert excinfo.value.phase == "forward"
        assert excinfo.value.op == "div"

    def test_inf_backward_caught_with_op_name(self):
        x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
        with Sanitizer():
            y = x.sqrt()  # forward is finite: [0, 2]
            with pytest.raises(NumericalFaultError) as excinfo:
                y.sum().backward()  # d sqrt/dx at 0 is inf
        assert excinfo.value.phase == "backward"
        assert excinfo.value.op == "sqrt"
        assert "gradient for input" in str(excinfo.value)

    def test_clean_graph_passes(self):
        x = Tensor(np.linspace(0.1, 1.0, 8).reshape(2, 4), requires_grad=True)
        with Sanitizer() as sanitizer:
            loss = (x.log().exp() * x).sum()
            loss.backward()
        assert x.grad is not None
        assert sanitizer.stats.forward_ops > 0
        assert sanitizer.stats.backward_ops > 0

    def test_nan_check_can_be_disabled(self):
        x = Tensor(np.array([-1.0]), requires_grad=True)
        with Sanitizer(check_nan=False):
            y = x.log()  # no raise
        assert np.isnan(y.data).all()


# ----------------------------------------------------------------------
# In-place mutation detector
# ----------------------------------------------------------------------
class TestMutationDetector:
    def test_mutated_input_between_forward_and_backward(self):
        x = Tensor(np.ones(4), requires_grad=True)
        # Verification happens at the step boundary (context exit / flush),
        # and the report blames the op that first captured the array.
        with pytest.raises(TapeCorruptionError) as excinfo:
            with Sanitizer():
                y = x * 2.0
                x.data += 1.0  # the classic tape-corruption bug
                y.sum().backward()
        assert excinfo.value.op == "mul"
        assert excinfo.value.shape == (4,)
        assert "mutated in place" in str(excinfo.value)

    def test_mutated_output_caught(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with pytest.raises(TapeCorruptionError) as excinfo:
            with Sanitizer():
                y = x.tanh()
                y.data[0] = 99.0
                y.sum().backward()
        assert excinfo.value.op == "tanh"

    def test_flush_verifies_and_raises(self):
        x = Tensor(np.ones(4), requires_grad=True)
        sanitizer = Sanitizer().start()
        try:
            _ = x * 2.0
            x.data += 1.0
            with pytest.raises(TapeCorruptionError) as excinfo:
                sanitizer.flush()
            assert excinfo.value.op == "mul"
            sanitizer.flush()  # cache was dropped despite the raise
        finally:
            sanitizer.stop()

    def test_untouched_graph_verifies_everything(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        with Sanitizer() as sanitizer:
            (x @ x).sum().backward()
        # One verification per distinct array; registration counts captures.
        assert 0 < sanitizer.stats.arrays_verified <= sanitizer.stats.arrays_registered

    def test_flush_drops_pending_entries(self):
        x = Tensor(np.ones(4), requires_grad=True)
        sanitizer = Sanitizer().start()
        try:
            y = x * 2.0
            sanitizer.flush()
            x.data += 1.0  # after the flush boundary: treated as a new step
            y.sum().backward()
            sanitizer.flush()  # no raise: x.data was never re-captured
        finally:
            sanitizer.stop()

    def test_fault_inside_context_not_masked_by_exit_verify(self):
        x = Tensor(np.ones(4), requires_grad=True)
        bad = Tensor(np.array([-1.0]), requires_grad=True)
        with pytest.raises(NumericalFaultError):
            with Sanitizer():
                _ = x * 2.0
                x.data += 1.0  # a mutation is pending when the fault fires:
                bad.log()  # the original fault must win over exit-verify

    def test_mutation_check_can_be_disabled(self):
        x = Tensor(np.ones(4), requires_grad=True)
        with Sanitizer(check_mutation=False):
            y = x * 2.0
            x.data += 1.0
            y.sum().backward()  # no raise (grads are wrong; caller opted out)

    def test_needs_at_least_one_check(self):
        with pytest.raises(ValueError):
            Sanitizer(check_nan=False, check_mutation=False)


# ----------------------------------------------------------------------
# Observer lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_hook_installed_and_restored(self):
        x = Tensor(np.array([-1.0]), requires_grad=True)
        with pytest.raises(NumericalFaultError), Sanitizer():
            x.log()
        assert op_observers() == ()
        x.log()  # no longer guarded once stopped

    def test_nested_sanitizers_compose(self):
        outer = Sanitizer().start()
        inner = Sanitizer().start()
        try:
            (Tensor(np.ones(2), requires_grad=True) * 2.0).sum().backward()
        finally:
            inner.stop()
        assert inner.stats.forward_ops == outer.stats.forward_ops == 2
        assert inner.stats.backward_ops == outer.stats.backward_ops == 2
        Tensor(np.ones(2)).sum()  # only the outer one is still running
        outer.stop()
        assert (inner.stats.forward_ops, outer.stats.forward_ops) == (2, 3)
        assert op_observers() == ()

    @pytest.mark.parametrize("stop_order", list(itertools.permutations(range(3))))
    @pytest.mark.parametrize("start_order", list(itertools.permutations(range(3))))
    def test_tools_stop_in_any_order(self, start_order, stop_order):
        tools = [Sanitizer(), MemoryProfiler(), OpProfiler()]
        for i in start_order:
            tools[i].start()
        x = Tensor(np.array([-1.0]), requires_grad=True)
        for i in stop_order:
            if tools[0].running:
                with pytest.raises(NumericalFaultError):
                    x.log()
            else:
                x.log()  # a stopped sanitizer guards nothing
            tools[i].stop()
            assert op_observers() == tuple(tools[j] for j in start_order if tools[j].running)
        memory, profiler = tools[1], tools[2]
        # Each profiler saw every log() issued while it ran, sanitizer or not.
        assert memory.snapshot()["forward"]["log"]["allocs"] == stop_order.index(1) + 1
        assert profiler.snapshot()["forward"]["log"]["calls"] == stop_order.index(2) + 1

    def test_double_start_rejected(self):
        sanitizer = Sanitizer().start()
        try:
            with pytest.raises(RuntimeError):
                sanitizer.start()
        finally:
            sanitizer.stop()

    def test_no_overhead_structures_without_hook(self):
        # Without an observer, backward closures are the ops' own.
        x = Tensor(np.ones(2), requires_grad=True)
        y = x * 2.0
        y.sum().backward()
        assert x.grad is not None


# ----------------------------------------------------------------------
# Dead-parameter audit
# ----------------------------------------------------------------------
class TestDeadParameters:
    def _gdu_with_dead_selection_gates(self):
        rng = np.random.default_rng(0)
        gdu = GDU(input_dim=6, hidden_dim=4, rng=rng)
        # Simulate the mis-wired-gate bug: the parameters exist but forward
        # bypasses them.
        gdu.use_selection_gates = False
        x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        z = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        t = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        gdu(x, z, t).sum().backward()
        return gdu

    def test_disconnected_gdu_gates_reported_by_name(self):
        gdu = self._gdu_with_dead_selection_gates()
        dead = audit_parameters(gdu.named_parameters())
        missing = {d.name for d in dead if d.reason == "missing"}
        assert missing == {"w_g", "b_g", "w_r", "b_r"}

    def test_fully_wired_gdu_is_clean(self):
        rng = np.random.default_rng(1)
        gdu = GDU(input_dim=6, hidden_dim=4, rng=rng)
        x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        z = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        t = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        gdu(x, z, t).sum().backward()
        dead = audit_parameters(gdu.named_parameters())
        assert [d for d in dead if d.reason == "missing"] == []

    def test_zero_gradient_reason(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        x = Tensor(np.zeros((4, 3)))
        layer(x).sum().backward()
        dead = {d.name: d.reason for d in audit_parameters(layer.named_parameters())}
        assert dead.get("weight") == "zero"  # zero inputs -> zero weight grad
        assert "bias" not in dead  # bias grad is the ones vector

    def test_to_dict_round_trip(self):
        gdu = self._gdu_with_dead_selection_gates()
        payload = [d.to_dict() for d in audit_parameters(gdu.named_parameters())]
        assert {"name", "shape", "reason"} <= set(payload[0])


# ----------------------------------------------------------------------
# Shape/dtype contracts
# ----------------------------------------------------------------------
class TestContracts:
    def test_linear_wrong_width_named_by_path(self):
        layer = Linear(4, 2, rng=np.random.default_rng(0))
        with ContractChecker(layer):
            with pytest.raises(ContractViolation, match="expected input width 4"):
                layer(Tensor(np.ones((3, 5))))

    def test_gdu_wrong_state_width(self):
        gdu = GDU(input_dim=6, hidden_dim=4, rng=np.random.default_rng(0))
        x = Tensor(np.ones((2, 6)))
        bad_z = Tensor(np.ones((2, 3)))
        t = Tensor(np.ones((2, 4)))
        with ContractChecker(gdu):
            with pytest.raises(ContractViolation, match="expected z width 4"):
                gdu(x, bad_z, t)

    def test_gru_cell_state_mismatch(self):
        cell = GRUCell(3, 5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((2, 3)))
        bad_h = Tensor(np.ones((2, 4)))
        with ContractChecker(cell):
            with pytest.raises(ContractViolation, match="expected h width 5"):
                cell(x, bad_h)

    def test_valid_calls_pass_and_forward_is_restored(self):
        layer = Linear(4, 2, rng=np.random.default_rng(0))
        x = Tensor(np.ones((3, 4)))
        with ContractChecker(layer):
            out = layer(x)
        assert out.shape == (3, 2)
        assert "forward" not in layer.__dict__  # original method restored
        layer(x)  # still works after exit

    def test_named_modules_paths(self):
        gdu = GDU(input_dim=2, hidden_dim=2, rng=np.random.default_rng(0))
        paths = [path for path, _ in named_modules(gdu)]
        assert paths[0] == "<root>"


# ----------------------------------------------------------------------
# End-to-end: sanitized training is bit-identical
# ----------------------------------------------------------------------
class TestTrainerIntegration:
    def test_sanitized_fit_losses_bit_identical(self, tiny_dataset, tiny_split):
        config = FakeDetectorConfig(epochs=2, log_every=0)
        plain = FakeDetector(config).fit(tiny_dataset, tiny_split)
        sanitized = FakeDetector(config).fit(tiny_dataset, tiny_split, sanitize=True)
        assert sanitized.record.total == plain.record.total
        assert sanitized.record.article == plain.record.article
        assert sanitized.record.grad_norms == plain.record.grad_norms

    def test_sanitizer_uninstalled_after_fit(self, tiny_dataset, tiny_split):
        config = FakeDetectorConfig(epochs=1, log_every=0)
        with MemoryProfiler() as memory:
            FakeDetector(config).fit(tiny_dataset, tiny_split, sanitize=True)
            assert op_observers() == (memory,)
        assert memory.snapshot()["forward"]  # it saw the sanitized steps
        assert op_observers() == ()

    def test_sanitizer_uninstalled_after_training_fault(
        self, tiny_dataset, tiny_split, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("injected training fault")

        monkeypatch.setattr(FakeDetector, "_full_batch_step", boom)
        config = FakeDetectorConfig(epochs=1, log_every=0)
        with pytest.raises(RuntimeError, match="injected"):
            FakeDetector(config).fit(tiny_dataset, tiny_split, sanitize=True)
        assert op_observers() == ()
