"""Exit-time flushing: buffered obs writers drain without explicit close()."""

import json
import subprocess
import sys
from pathlib import Path

from repro.obs import JsonlSink, Tracer, flush_all, flush_at_exit, trace
from repro.obs import install_tracer, uninstall_tracer
from repro.obs.lifecycle import unregister_flush
from repro.obs.tracing import TraceStore, span_record


class TestFlushRegistry:
    def test_flush_all_calls_registered_flush(self):
        class Writer:
            flushed = 0

            def flush(self):
                self.flushed += 1

        writer = Writer()
        flush_at_exit(writer)
        try:
            assert flush_all() >= 1
            assert writer.flushed == 1
        finally:
            unregister_flush(writer)

    def test_unregistered_writer_not_flushed(self):
        class Writer:
            flushed = 0

            def flush(self):
                self.flushed += 1

        writer = Writer()
        flush_at_exit(writer)
        unregister_flush(writer)
        flush_all()
        assert writer.flushed == 0

    def test_flush_all_survives_broken_writers(self):
        class Broken:
            def flush(self):
                raise RuntimeError("disk gone")

        broken = Broken()
        flush_at_exit(broken)
        try:
            flush_all()  # must not raise
        finally:
            unregister_flush(broken)


class TestWriterRegistration:
    def test_jsonl_sink_flushes_via_registry(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        try:
            from repro.obs import Event

            sink.emit(Event(name="x", level="info", ts=0.0, fields={}))
            flush_all()
            lines = path.read_text().strip().splitlines()
            assert json.loads(lines[0])["name"] == "x"
        finally:
            sink.close()

    def test_tracer_stream_flushes_via_registry(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path=path)
        install_tracer(tracer)
        try:
            with trace("unit"):
                pass
            flush_all()
            types = [
                json.loads(line)["type"]
                for line in path.read_text().strip().splitlines()
            ]
            assert "span" in types
        finally:
            uninstall_tracer()
            tracer.close()

    def test_close_unregisters_tracer(self, tmp_path):
        tracer = Tracer(path=tmp_path / "t.jsonl")
        tracer.close()
        flush_all()  # a second flush on the closed file must be harmless


class TestTraceStoreLifecycle:
    def _span(self, trace_id):
        return span_record(
            "unit", trace_id=trace_id, parent_id=None, start=1.0, end=2.0
        )

    def test_store_flushes_via_registry(self, tmp_path):
        store = TraceStore(tmp_path)
        try:
            # One span sits inside the 50 ms buffered-write window …
            store.add_spans("ab12", [self._span("ab12")])
            flush_all()
            # … yet a registry flush makes it durable without close().
            lines = (tmp_path / "ab12.jsonl").read_text().strip().splitlines()
            assert json.loads(lines[0])["type"] == "trace_meta"
            assert json.loads(lines[1])["name"] == "unit"
        finally:
            store.close()

    def test_close_unregisters_store(self, tmp_path):
        store = TraceStore(tmp_path)
        store.add_spans("cd34", [self._span("cd34")])
        store.close()
        flush_all()  # must not touch the closed handles
        records = store.read("cd34")
        assert [r["type"] for r in records] == ["trace_meta", "span"]

    def test_short_lived_process_leaves_complete_trace_file(self, tmp_path):
        """Regression: a process that exits inside the flush window without
        calling close() must not leave a truncated (mid-line) trace file."""
        script = (
            "import sys; sys.path.insert(0, sys.argv[2])\n"
            "from repro.obs.tracing import TraceStore, span_record\n"
            "store = TraceStore(sys.argv[1])\n"
            "spans = [span_record('burst', trace_id='feed', parent_id=None,\n"
            "                     start=float(i), end=float(i) + 0.5,\n"
            "                     payload='x' * 512) for i in range(40)]\n"
            # First call flushes eagerly; the second burst lands inside the
            # 50 ms window and stays in the userspace buffer.
            "store.add_spans('feed', spans[:20])\n"
            "store.add_spans('feed', spans[20:])\n"
            # no store.close(): exit relies on the atexit flush registry
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path), "src"],
            cwd=Path(__file__).resolve().parents[1],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "feed.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]  # every line complete
        assert len(records) == 41  # trace_meta + 40 spans
        assert all(r["name"] == "burst" for r in records[1:])
