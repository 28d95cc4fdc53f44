"""Autograd op profiler: attribution on a tiny known graph, observer lifecycle,
zero-cost disabled path, and table rendering."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd import tensor as tensor_mod
from repro.obs import OpProfiler, render_profile
from tests.helpers import op_observers


@pytest.fixture(autouse=True)
def _no_leftover_observer():
    yield
    assert op_observers() == ()


def _step() -> None:
    """Three ops forward and three backward: six op calls."""
    (Tensor(np.ones(3), requires_grad=True) * 2.0).tanh().sum().backward()


def _calls(prof: OpProfiler) -> float:
    return sum(
        entry["calls"] for phase in prof.snapshot().values() for entry in phase.values()
    )


class TestAttribution:
    def test_tiny_graph_forward_and_backward_counts(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((3, 4)), requires_grad=True)
        with OpProfiler() as prof:
            loss = (a @ b).tanh().sum()
            loss.backward()
        snap = prof.snapshot()
        for op in ("matmul", "tanh", "sum"):
            assert snap["forward"][op]["calls"] == 1
            assert snap["backward"][op]["calls"] == 1
            assert snap["forward"][op]["seconds"] >= 0.0

    def test_repeated_ops_accumulate_calls(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with OpProfiler() as prof:
            y = x
            for _ in range(5):
                y = y * 2.0
            y.sum().backward()
        snap = prof.snapshot()
        assert snap["forward"]["mul"]["calls"] == 5
        assert snap["backward"]["mul"]["calls"] == 5

    def test_backward_time_lands_on_creating_op(self):
        # Only ops executed inside the profiled window are attributed; a
        # backward() through nodes created while profiling reports both
        # phases for exactly those ops.
        x = Tensor(np.ones(3), requires_grad=True)
        with OpProfiler() as prof:
            (x.exp() + x).sum().backward()
        snap = prof.snapshot()
        assert set(snap["backward"]) == {"exp", "add", "sum"}

    def test_ops_outside_window_not_recorded(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x.exp()  # created before the profiler starts
        with OpProfiler() as prof:
            z = y.sum()
        snap = prof.snapshot()
        assert "exp" not in snap["forward"]
        assert snap["forward"]["sum"]["calls"] == 1
        assert z.data == pytest.approx(float(np.exp(1.0) * 3))

    def test_total_seconds_by_phase(self):
        x = Tensor(np.ones((4, 4)), requires_grad=True)
        with OpProfiler() as prof:
            (x @ x).sum().backward()
        total = prof.total_seconds()
        assert total == pytest.approx(
            prof.total_seconds("forward") + prof.total_seconds("backward")
        )


class TestLifecycle:
    def test_disabled_records_nothing(self):
        prof = OpProfiler()
        x = Tensor(np.ones(2), requires_grad=True)
        x.sum().backward()
        assert prof.snapshot()["forward"] == {}

    def test_double_start_raises(self):
        prof = OpProfiler().start()
        try:
            with pytest.raises(RuntimeError):
                prof.start()
        finally:
            prof.stop()

    def test_stop_restores_previous_hook(self):
        with OpProfiler() as outer:
            with OpProfiler():
                pass
            Tensor(np.ones(2), requires_grad=True).sum()
        assert _calls(outer) == 1  # the outer profiler kept observing

    def test_nested_profilers_each_count_their_window(self):
        with OpProfiler() as outer:
            _step()
            with OpProfiler() as inner:
                _step()
            _step()
        assert _calls(inner) == 6
        assert _calls(outer) == 18

    def test_nested_ops_still_time(self):
        softplus = tensor_mod.instrument_op("softplus", lambda x: (x.exp() + 1.0).log())
        with OpProfiler() as prof:
            softplus(Tensor(np.ones(2), requires_grad=True)).sum().backward()
        forward = prof.snapshot()["forward"]
        inner = ("exp", "add", "log")
        assert all(forward[op]["calls"] == 1 for op in ("softplus",) + inner)
        assert forward["softplus"]["seconds"] >= sum(forward[op]["seconds"] for op in inner)

    def test_failed_op_not_counted(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        with OpProfiler() as prof:
            with pytest.raises(ValueError):
                a @ a  # shape mismatch
            a.sum()
        assert set(prof.snapshot()["forward"]) == {"sum"}

    def test_stop_is_idempotent(self):
        prof = OpProfiler().start()
        prof.stop()
        prof.stop()
        assert not prof.running

    def test_reset_clears_stats(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with OpProfiler() as prof:
            x.sum()
        prof.reset()
        assert prof.total_seconds() == 0.0


class TestRendering:
    def test_table_lists_ops_and_totals(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        with OpProfiler() as prof:
            (x @ x).tanh().sum().backward()
        table = prof.table()
        for op in ("matmul", "tanh", "sum", "total"):
            assert op in table

    def test_render_profile_round_trips_through_dict(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with OpProfiler() as prof:
            x.sum().backward()
        import json
        profile = json.loads(json.dumps(prof.to_dict()))
        assert profile["type"] == "profile"
        assert "sum" in render_profile(profile)

    def test_limit_truncates_rows(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with OpProfiler() as prof:
            (x.exp() + x.tanh() * x.sigmoid()).sum().backward()
        short = prof.table(limit=1)
        # header + one op row + total row
        op_rows = [
            line for line in short.splitlines()[2:] if not line.strip().startswith("total")
        ]
        assert len(op_rows) == 1
