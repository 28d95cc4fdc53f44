"""Sampling profiler: tagging, folded stacks, merge/diff, SVG, fork safety."""

import json
import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.analysis import NumericalFaultError, Sanitizer
from repro.autograd.tensor import Tensor, add_op_observer, remove_op_observer
from repro.obs import (
    PROFILE_DIFF_SCHEMA,
    PROFILE_SCHEMA,
    OpProfiler,
    Profile,
    SamplingProfiler,
    Tracer,
    current_tags,
    diff_profiles,
    install_tracer,
    merge_profiles,
    render_diff,
    render_flamegraph_svg,
    render_top,
    tag,
    trace,
    uninstall_tracer,
    write_flamegraph,
)
from repro.obs.flame import pop_tag, push_tag
from tests.helpers import op_observers

pytestmark = pytest.mark.profile


def _busy(seconds):
    """Burn CPU in a recognizably named frame until ``seconds`` elapse."""
    deadline = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < deadline:
        total += sum(i * i for i in range(500))
    return total


class TestTags:
    def test_tag_nests_and_unwinds(self):
        assert current_tags() == ()
        with tag("outer"):
            assert current_tags() == ("outer",)
            with tag("inner"):
                assert current_tags() == ("outer", "inner")
            assert current_tags() == ("outer",)
        assert current_tags() == ()

    def test_tags_are_per_thread(self):
        seen = {}

        def other():
            seen["before"] = current_tags()
            with tag("other-thread"):
                seen["during"] = current_tags()

        with tag("main-thread"):
            worker = threading.Thread(target=other, name="t", daemon=True)
            worker.start()
            worker.join(5.0)
        assert seen["before"] == ()
        assert seen["during"] == ("other-thread",)

    def test_unbalanced_pop_is_noop(self):
        pop_tag()  # must not raise on an empty stack
        push_tag("x")
        pop_tag()
        pop_tag()
        assert current_tags() == ()


class TestSamplingProfiler:
    def test_samples_busy_thread_with_tags(self):
        profiler = SamplingProfiler(interval=0.002)
        with profiler:
            with tag("hot.section"):
                _busy(0.15)
        profile = profiler.snapshot()
        assert profile.samples > 5
        assert profiler.sample_errors == 0
        tagged = [s for s in profile.stacks if "hot.section" in s]
        assert tagged, profile.folded()[:500]
        # Tag sits between the thread name and the python frames.
        stack = tagged[0].split(";")
        busy = [i for i, f in enumerate(stack) if f.endswith("._busy")]
        assert busy and stack.index("hot.section") < busy[0]

    def test_double_start_rejected(self):
        profiler = SamplingProfiler(interval=0.01)
        profiler.start()
        try:
            with pytest.raises(RuntimeError):
                profiler.start()
        finally:
            profiler.stop()

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0.0)

    def test_effective_interval_tracks_wall_clock(self):
        profiler = SamplingProfiler(interval=0.002)
        with profiler:
            _busy(0.2)
        profile = profiler.snapshot()
        assert profile.duration_s == pytest.approx(0.2, abs=0.1)
        # self-seconds across all frames ≈ sampled wall time
        assert sum(profile.self_seconds().values()) == pytest.approx(
            profile.duration_s, rel=0.01
        )

    def test_snapshot_while_running_and_reset(self):
        profiler = SamplingProfiler(interval=0.002)
        with profiler:
            _busy(0.1)
            first = profiler.snapshot()
            profiler.reset()
            _busy(0.05)
            second = profiler.snapshot()
        assert first.samples > 0
        assert second.samples > 0
        assert second.duration_s < first.duration_s + 0.04

    def test_span_names_tag_samples(self):
        tracer = install_tracer(Tracer())
        profiler = SamplingProfiler(interval=0.002)
        try:
            with profiler:
                with trace("train.step"):
                    _busy(0.15)
        finally:
            uninstall_tracer()
        profile = profiler.snapshot()
        assert any("train.step" in s for s in profile.stacks), (
            profile.folded()[:500]
        )

    def test_restores_previous_hooks_on_stop(self):
        with OpProfiler() as ops:
            with SamplingProfiler(interval=0.01):
                pass
            (Tensor([1.0], requires_grad=True) * 2.0).backward()
        assert ops.snapshot()["backward"]["mul"]["calls"] == 1
        assert op_observers() == ()


class _TagProbe:
    """Op observer recording the tag stack each op body sees."""

    def __init__(self):
        self.seen = []

    def enter(self, op, phase):
        self.seen.append((phase, current_tags()))

    def exit(self, op, phase, payload):
        pass


class TestOpTagHook:
    def test_enter_exit_bracket_forward_and_backward(self):
        probe = _TagProbe()
        with SamplingProfiler(interval=0.01):
            add_op_observer(probe)  # enters after the profiler's push
            try:
                out = Tensor([2.0], requires_grad=True) * Tensor([3.0])
                out.backward()
            finally:
                remove_op_observer(probe)
            assert current_tags() == ()  # balanced
        assert probe.seen == [("forward", ("mul",)), ("backward", ("mul",))]

    def test_hook_cleared_leaves_fast_path(self):
        with SamplingProfiler(interval=0.01):
            pass
        assert op_observers() == ()
        a = Tensor([2.0], requires_grad=True)
        (a * Tensor([3.0])).backward()  # no observer: the undecorated path
        assert a.grad.tolist() == [3.0]

    def test_tags_balanced_when_op_raises(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        with SamplingProfiler(interval=0.01):
            with tag("step"), pytest.raises(ValueError):
                a @ a  # shape mismatch raises inside the op body
            assert current_tags() == ()

    @pytest.mark.parametrize("sanitizer_first", [True, False])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_tags_balanced_when_sanitizer_raises(self, sanitizer_first):
        tools = [Sanitizer(), SamplingProfiler(interval=0.01)]
        if not sanitizer_first:
            tools.reverse()
        for tool in tools:
            tool.start()
        try:
            with pytest.raises(NumericalFaultError):
                Tensor(np.array([-1.0]), requires_grad=True).log()
            assert current_tags() == ()
        finally:
            for tool in tools:
                tool.stop()
        assert op_observers() == ()


class TestProfile:
    def _profile(self, stacks, interval=0.01):
        return Profile(
            stacks=dict(stacks),
            samples=sum(stacks.values()),
            duration_s=interval * sum(stacks.values()),
            interval_s=interval,
        )

    def test_round_trip(self, tmp_path):
        profile = self._profile({"a;b;c": 3, "a;b": 1})
        clone = Profile.from_dict(profile.to_dict())
        assert clone.stacks == profile.stacks
        assert clone.to_dict()["schema"] == PROFILE_SCHEMA
        path = profile.save(tmp_path / "p.json")
        assert Profile.load(path).stacks == profile.stacks

    def test_rejects_foreign_schema(self):
        with pytest.raises(ValueError):
            Profile.from_dict({"schema": "repro.obs.run/1"})

    def test_folded_round_trip(self):
        profile = self._profile({"a;b;c": 3, "x": 2})
        text = profile.folded()
        assert "a;b;c 3" in text.splitlines()
        clone = Profile.from_folded(text)
        assert clone.stacks == profile.stacks
        assert clone.samples == profile.samples

    def test_self_and_total_counts(self):
        profile = self._profile({"a;b;c": 3, "a;b": 2, "a;c": 1})
        selfs = profile.self_counts()
        assert selfs == {"c": 4, "b": 2}
        totals = profile.total_counts()
        assert totals["a"] == 6
        assert totals["b"] == 5
        assert totals["c"] == 4

    def test_merge_prefixes_by_part(self):
        a = self._profile({"f;g": 2})
        b = self._profile({"f;h": 3})
        merged = merge_profiles(
            {"shard0;worker0": a, "frontend": b, "dead": None}
        )
        assert set(merged.stacks) == {"shard0;worker0;f;g", "frontend;f;h"}
        assert merged.samples == 5
        assert set(merged.meta["parts"]) == {"shard0;worker0", "frontend"}
        # a ";" in the part label becomes two tree levels
        assert merged.stacks["shard0;worker0;f;g"] == 2


class TestDiff:
    def test_diff_orders_by_absolute_delta(self):
        a = Profile(stacks={"r;hot": 10, "r;warm": 5}, samples=15,
                    duration_s=0.15, interval_s=0.01)
        b = Profile(stacks={"r;hot": 40, "r;warm": 6}, samples=46,
                    duration_s=0.46, interval_s=0.01)
        diff = diff_profiles(a, b)
        assert diff["schema"] == PROFILE_DIFF_SCHEMA
        assert diff["entries"][0]["frame"] == "hot"
        assert diff["entries"][0]["delta_seconds"] == pytest.approx(0.3)
        shares = {e["frame"]: e for e in diff["entries"]}
        assert shares["hot"]["b_share"] > shares["hot"]["a_share"]
        text = render_diff(diff)
        assert "hot" in text and "Δ" in text

    def test_limit(self):
        a = Profile(stacks={f"r;f{i}": i + 1 for i in range(10)}, samples=55)
        diff = diff_profiles(a, a, limit=3)
        assert len(diff["entries"]) == 3


class TestFlamegraphSvg:
    def _profile(self):
        return Profile(
            stacks={"main;train;gru": 60, "main;train;loss": 30, "main;io": 10},
            samples=100, duration_s=1.0, interval_s=0.01,
        )

    def test_renders_self_contained_svg(self):
        svg = render_flamegraph_svg(self._profile())
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert "http://www.w3.org/2000/svg" in svg
        for frame in ("train", "gru", "loss"):
            assert frame in svg
        assert "href" not in svg and "script" not in svg  # no external deps

    def test_deterministic(self):
        assert render_flamegraph_svg(self._profile()) == render_flamegraph_svg(
            self._profile()
        )

    def test_escapes_markup_in_frame_names(self):
        profile = Profile(stacks={'m;<evil>&"x': 5}, samples=5)
        svg = render_flamegraph_svg(profile)
        assert "<evil>" not in svg
        assert "&lt;evil&gt;" in svg

    def test_differential_coloring_against_baseline(self):
        base = self._profile()
        current = Profile(
            stacks={"main;train;gru": 90, "main;train;loss": 5, "main;io": 5},
            samples=100, duration_s=1.0, interval_s=0.01,
        )
        svg = render_flamegraph_svg(current, baseline=base)
        assert "differential" in svg
        assert svg != render_flamegraph_svg(current)

    def test_write_flamegraph(self, tmp_path):
        out = write_flamegraph(
            self._profile(), tmp_path / "deep" / "flame.svg"
        )
        assert out.read_text().startswith("<svg")
        assert render_top(self._profile(), 2).count("\n") == 3


class TestRunRegistryProfiles:
    def test_save_and_load_by_run_id_and_path(self, tmp_path):
        from repro.obs import RunRegistry

        registry = RunRegistry(tmp_path)
        record = registry.record(kind="train", metrics={"loss": 1.0})
        profile = Profile(stacks={"a;b": 2}, samples=2)
        path = registry.save_profile(record.run_id, profile)
        assert path == registry.profile_path_for(record.run_id)
        assert registry.load_profile(record.run_id).stacks == {"a;b": 2}
        assert registry.load_profile(path).stacks == {"a;b": 2}
        with pytest.raises(FileNotFoundError):
            registry.load_profile("no-such-run")

    def test_profile_artifacts_invisible_to_list(self, tmp_path):
        from repro.obs import RunRegistry

        registry = RunRegistry(tmp_path)
        record = registry.record(kind="train", metrics={})
        registry.save_profile(record.run_id, Profile(stacks={"a": 1}, samples=1))
        assert [r.run_id for r in registry.list()] == [record.run_id]


def _fork_child_profile(out):
    """Forked child: inherited profiler state must reset, then restart."""
    profiler = _FORK_PROFILER
    inherited = profiler.snapshot()
    running_after_fork = profiler.running
    profiler.start()  # must not raise: the parent's sampler is not ours
    with tag("child.work"):
        _busy(0.1)
    profiler.stop()
    own = profiler.snapshot()
    out.put({
        "running_after_fork": running_after_fork,
        "inherited_samples": inherited.samples,
        "inherited_stacks": len(inherited.stacks),
        "own_samples": own.samples,
        "child_tagged": any("child.work" in s for s in own.stacks),
        "parent_frames": any("parent.work" in s for s in own.stacks),
    })


_FORK_PROFILER = SamplingProfiler(interval=0.002)


class TestForkSafety:
    def test_child_restarts_sampler_and_drops_parent_counts(self):
        """Mirror of the pid-salted span-id regression: a forked child
        inherits the profiler object and the parent's accumulated counts;
        it must come up not-running, discard those counts, and profile
        only its own stacks."""
        ctx = multiprocessing.get_context("fork")
        out = ctx.Queue()
        profiler = _FORK_PROFILER
        profiler.start()
        try:
            with tag("parent.work"):
                _busy(0.1)
                child = ctx.Process(target=_fork_child_profile, args=(out,))
                child.start()
                report = out.get(timeout=30.0)
                child.join(timeout=30.0)
        finally:
            profiler.stop()
        assert report["running_after_fork"] is False
        assert report["inherited_samples"] == 0
        assert report["inherited_stacks"] == 0
        assert report["own_samples"] > 0
        assert report["child_tagged"] is True
        assert report["parent_frames"] is False
        # The parent's own profile is unharmed by the child's lifecycle.
        parent = profiler.snapshot()
        assert parent.samples > 0
        assert any("parent.work" in s for s in parent.stacks)
