"""Tape memory profiler: per-op byte attribution, live census, lifetimes."""

import gc

import numpy as np
import pytest

from repro.analysis import Sanitizer
from repro.autograd import Tensor
from repro.core.gdu import GDU
from repro.obs import MemoryProfiler, render_memory
from tests.helpers import op_observers


def _gdu_step() -> None:
    """Forward and backward through one GDU; the graph dies on return."""
    rng = np.random.default_rng(1)
    gdu = GDU(input_dim=6, hidden_dim=4, rng=rng)
    x, z, t = (
        Tensor(rng.normal(size=(5, n)), requires_grad=True) for n in (6, 4, 4)
    )
    (gdu(x, z, t) * 2.0).sum().backward()


def _bytes_by_op(prof: MemoryProfiler) -> dict:
    return {
        (phase, op): (stats["allocs"], stats["bytes"])
        for phase, ops in prof.snapshot().items()
        for op, stats in ops.items()
    }


@pytest.fixture()
def profiler():
    prof = MemoryProfiler()
    prof.start()
    yield prof
    prof.stop()


class TestForwardAttribution:
    def test_matmul_bytes_attributed(self, profiler):
        a = Tensor(np.ones((8, 16)), requires_grad=True)
        b = Tensor(np.ones((16, 4)), requires_grad=True)
        out = a @ b
        snap = profiler.snapshot()
        assert snap["forward"]["matmul"]["allocs"] == 1.0
        assert snap["forward"]["matmul"]["bytes"] == float(out.data.nbytes)

    def test_fused_gdu_forward_is_one_op(self, profiler):
        rng = np.random.default_rng(0)
        gdu = GDU(input_dim=6, hidden_dim=4, rng=rng)  # fused by default
        x = Tensor(rng.normal(size=(5, 6)))
        z = Tensor(rng.normal(size=(5, 4)))
        t = Tensor(rng.normal(size=(5, 4)))
        gdu(x, z, t)
        forward = profiler.snapshot()["forward"]
        assert forward["gdu_layer"]["allocs"] == 1.0
        assert "matmul" not in forward  # the whole unit is one tape node

    def test_unrolled_gdu_forward_touches_expected_ops(self, profiler):
        rng = np.random.default_rng(0)
        gdu = GDU(input_dim=6, hidden_dim=4, rng=rng, fused=False)
        x = Tensor(rng.normal(size=(5, 6)))
        z = Tensor(rng.normal(size=(5, 4)))
        t = Tensor(rng.normal(size=(5, 4)))
        gdu(x, z, t)
        forward = profiler.snapshot()["forward"]
        assert "matmul" in forward and "sigmoid" in forward and "tanh" in forward
        for stats in forward.values():
            assert stats["bytes"] > 0
            assert stats["peak_live_bytes"] >= stats["live_bytes"]

    @pytest.mark.parametrize("fused", [True, False])
    def test_gdu_backward_attributes_grad_bytes(self, profiler, fused):
        rng = np.random.default_rng(1)
        gdu = GDU(input_dim=6, hidden_dim=4, rng=rng, fused=fused)
        x = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        z = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        t = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        gdu(x, z, t).sum().backward()
        backward = profiler.snapshot()["backward"]
        assert backward  # gradient arrays were produced
        key = "gdu_layer" if fused else "matmul"
        assert backward[key]["allocs"] >= 1.0
        assert profiler.total_bytes("backward") > 0


class TestLiveTracking:
    def test_freed_tensors_leave_the_census(self, profiler):
        a = Tensor(np.ones((32, 32)))
        b = Tensor(np.ones((32, 32)))
        out = a + b
        nbytes = out.data.nbytes
        assert profiler.live_bytes >= nbytes
        del out
        gc.collect()
        assert profiler.live_bytes < nbytes
        snap = profiler.snapshot()["forward"]["add"]
        assert snap["freed"] == 1.0
        assert snap["mean_lifetime_s"] >= 0.0

    def test_peak_live_is_high_water_mark(self, profiler):
        a = Tensor(np.ones((64, 64)))
        out = a * a
        peak_with_live = profiler.peak_live_bytes
        del out
        gc.collect()
        assert profiler.peak_live_bytes == peak_with_live
        assert profiler.live_bytes < peak_with_live

    def test_graph_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            with MemoryProfiler() as prof:
                _gdu_step()
                assert prof.peak_live_bytes > 0
            assert prof.live_bytes == 0  # refcounting alone freed the graph
        finally:
            gc.enable()

    def test_census_groups_by_shape_and_dtype(self, profiler):
        a = Tensor(np.ones((4, 4)))
        kept = [a + a, a + a, a + a]
        census = profiler.census()
        row = next(r for r in census if r["shape"] == [4, 4])
        assert row["count"] >= 3
        assert row["dtype"] == "float64"
        assert kept  # keep the outputs alive until the census was taken


class TestLifecycleAndRendering:
    def test_double_start_rejected(self):
        prof = MemoryProfiler().start()
        try:
            with pytest.raises(RuntimeError):
                prof.start()
        finally:
            prof.stop()

    def test_stop_uninstalls_hook(self):
        prof = MemoryProfiler().start()
        prof.stop()
        Tensor(np.ones(3)) + Tensor(np.ones(3))
        assert prof.snapshot()["forward"] == {}

    def test_composes_with_previous_hook(self):
        with Sanitizer() as sanitizer, MemoryProfiler() as prof:
            Tensor(np.ones(3)) + Tensor(np.ones(3))
        assert sanitizer.stats.forward_ops == 1  # the earlier observer still ran
        assert prof.snapshot()["forward"]["add"]["allocs"] == 1.0
        assert op_observers() == ()

    def test_same_bytes_when_started_before_a_sanitizer(self):
        with MemoryProfiler() as alone:
            _gdu_step()
        with MemoryProfiler() as prof, Sanitizer():
            _gdu_step()
        assert _bytes_by_op(prof) == _bytes_by_op(alone)
        assert alone.snapshot()["forward"]  # the step did allocate

    def test_to_dict_and_render(self, profiler):
        Tensor(np.ones((8, 8))) + Tensor(np.ones((8, 8)))
        record = profiler.to_dict()
        assert record["type"] == "memory"
        text = render_memory(record)
        assert "memory profile" in text
        assert "add" in text
        assert profiler.table()  # instance wrapper agrees

    def test_reset_clears_counters(self, profiler):
        Tensor(np.ones(4)) + Tensor(np.ones(4))
        profiler.reset()
        assert profiler.total_bytes() == 0.0
        assert profiler.live_bytes == 0
        assert profiler.census() == []
