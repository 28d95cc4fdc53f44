"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.data import load_dataset


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(["generate", "out.jsonl", "--scale", "0.01"])
        assert args.command == "generate"
        assert args.scale == 0.01

    def test_evaluate_methods_subset(self):
        args = build_parser().parse_args(["evaluate", "--methods", "svm", "lp"])
        assert args.methods == ["svm", "lp"]


class TestCommands:
    def test_generate_writes_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        code = main(["generate", str(out), "--scale", "0.01", "--seed", "3"])
        assert code == 0
        dataset = load_dataset(out)
        assert dataset.num_articles > 50
        assert "wrote" in capsys.readouterr().out

    def test_analyze_prints_table1(self, tmp_path, capsys):
        code = main(["analyze", "--scale", "0.01", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Figure 1(a)" in out

    def test_analyze_from_file(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        main(["generate", str(path), "--scale", "0.01"])
        capsys.readouterr()
        code = main(["analyze", "--dataset", str(path)])
        assert code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_train_reports_metrics(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        code = main([
            "train", "--scale", "0.01", "--seed", "3", "--epochs", "3",
            "--explicit-dim", "30", "--max-seq-len", "10",
            "--save", str(ckpt),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "article" in out and "bi-acc=" in out
        assert (ckpt / "model.npz").exists()

    def test_train_profile_memory_with_sanitize(self, capsys):
        code = main([
            "train", "--scale", "0.01", "--seed", "3", "--epochs", "2",
            "--explicit-dim", "30", "--max-seq-len", "10",
            "--profile-memory", "--sanitize",
        ])
        assert code == 0
        err = capsys.readouterr().err
        table = err[err.index("memory profile"):].splitlines()
        footer = next(i for i, line in enumerate(table) if "peak live" in line)
        assert footer > 2, "\n".join(table)  # op rows between header and footer
        assert "peak live 0.00 MiB" not in table[footer]

    def test_evaluate_subset(self, capsys):
        code = main([
            "evaluate", "--scale", "0.01", "--seed", "3",
            "--thetas", "1.0", "--methods", "svm", "lp",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4(a)" in out
        assert "svm" in out


class TestServing:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("serve") / "detector"
        code = main([
            "train", "--scale", "0.01", "--seed", "3", "--epochs", "2",
            "--explicit-dim", "20", "--max-seq-len", "8",
            "--save", str(path),
        ])
        assert code == 0
        return path

    @staticmethod
    def _write_requests(path):
        import json

        lines = [
            {"article_id": "r1", "text": "secret rigged hoax conspiracy"},
            {"article_id": "r2", "text": "census report data analysis",
             "creator_id": "creator_0", "subject_ids": ["subject_0"]},
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        return [line["article_id"] for line in lines]

    def test_train_save_writes_checkpoint(self, checkpoint):
        assert (checkpoint / "detector.json").exists()
        assert (checkpoint / "arrays.npz").exists()
        assert (checkpoint / "model.npz").exists()

    def test_infer_emits_response_document(self, checkpoint, tmp_path, capsys):
        import json

        requests = tmp_path / "requests.jsonl"
        ids = self._write_requests(requests)
        code = main(["infer", str(checkpoint), "--articles", str(requests), "--proba"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip())
        assert doc["schema"] == "repro.serve.response/1"
        assert len(doc["model_digest"]) == 16
        assert doc["timing"]["total_ms"] > 0
        assert [p["entity_id"] for p in doc["predictions"]] == ids
        for p in doc["predictions"]:
            assert 0 <= p["class_index"] <= 5
            assert len(p["proba"]) == 6

    def test_serve_http_round_trip(self, checkpoint, tmp_path, capsys):
        import json
        import urllib.request

        from repro.serve import REQUEST_SCHEMA, PredictionService

        service = PredictionService(checkpoint, workers=2, shards=2,
                                    max_wait=0.001)
        payload = {
            "schema": REQUEST_SCHEMA,
            "articles": [{"article_id": "h1",
                          "text": "secret rigged hoax conspiracy"}],
        }
        with service:
            request = urllib.request.Request(
                service.url + "/v1/predict",
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with urllib.request.urlopen(request, timeout=60.0) as reply:
                doc = json.loads(reply.read().decode("utf-8"))
        assert doc["schema"] == "repro.serve.response/1"
        assert doc["predictions"][0]["entity_id"] == "h1"

    def test_drift_baseline_arms_drift_psi_rule(self, checkpoint, tmp_path,
                                                monkeypatch):
        """``--drift-baseline auto`` alone holds drift to PSI 0.25 through
        the SLO monitor's ``drift_psi`` rule; without a baseline there is
        no drift rule."""
        import shutil

        import repro.serve
        from repro.obs.slo import DRIFT_SIGNAL

        built = []

        class PoolFree(repro.serve.PredictionService):
            """The CLI's service wiring, with no worker pool behind it."""

            def start(self):
                self.host, self.port = "127.0.0.1", 0
                built.append(self)
                return self

            def close(self):
                pass

        monkeypatch.setattr(repro.serve, "PredictionService", PoolFree)
        bare = tmp_path / "bare"
        shutil.copytree(checkpoint, bare)
        (bare / "drift_baseline.json").unlink()
        runs = [
            [str(checkpoint), "--drift-baseline", "auto"],
            [str(bare), "--drift-baseline", "auto"],
            [str(checkpoint)],
            [str(bare), "--drift-baseline", "auto", "--slo-p95-ms", "250"],
        ]
        for extra in runs:
            assert main(["serve", "http", *extra, "--duration", "0"]) == 0
        armed, bare_auto, unarmed, latency_only = built
        (rule,) = armed.slo.rules
        assert (rule.name, rule.signal, rule.threshold) == (
            "drift_psi", DRIFT_SIGNAL, 0.25
        )
        assert bare_auto.drift_baseline is None and bare_auto.slo is None
        assert unarmed.slo is None
        assert [r.name for r in latency_only.slo.rules] == ["latency_p95"]

    def test_serve_http_parser_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "http", "ckpt", "--workers", "4", "--shards", "2",
            "--queue-depth", "8", "--duration", "0.5",
        ])
        assert args.workers == 4
        assert args.shards == 2
        assert args.queue_depth == 8
        assert args.duration == 0.5


class TestFlameCli:
    @pytest.fixture(scope="class")
    def flame_run(self, tmp_path_factory):
        runs = tmp_path_factory.mktemp("runs")
        svg = runs / "train.svg"
        code = main([
            "train", "--scale", "0.01", "--seed", "3", "--epochs", "2",
            "--explicit-dim", "20", "--max-seq-len", "8",
            "--flame", "--flame-hz", "250", "--flame-svg", str(svg),
            "--runs-dir", str(runs),
        ])
        assert code == 0
        from repro.obs import RunRegistry

        run_id = RunRegistry(runs).list(kind="train")[-1].run_id
        return runs, run_id, svg

    def test_train_flame_saves_profile_artifact(self, flame_run):
        from repro.obs import RunRegistry

        runs, run_id, svg = flame_run
        registry = RunRegistry(runs)
        assert registry.profile_path_for(run_id).exists()
        profile = registry.load_profile(run_id)
        assert profile.samples > 0
        assert profile.meta["kind"] == "train"
        assert profile.meta["epochs"] == 2
        assert svg.read_text().startswith("<svg")

    def test_obs_flame_renders_table(self, flame_run, capsys):
        runs, run_id, _ = flame_run
        code = main(["obs", "flame", run_id, "--runs-dir", str(runs)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sampling profile:" in out
        assert "self s" in out

    def test_obs_flame_json(self, flame_run, capsys):
        import json

        runs, run_id, _ = flame_run
        code = main(["obs", "flame", run_id, "--runs-dir", str(runs),
                     "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.obs.profile/1"
        assert doc["samples"] > 0

    def test_obs_flame_diff_and_svg(self, flame_run, tmp_path, capsys):
        import json

        runs, run_id, _ = flame_run
        svg = tmp_path / "diff.svg"
        code = main([
            "obs", "flame", run_id, "--diff", run_id,
            "--runs-dir", str(runs), "--svg", str(svg), "--json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.obs.profile_diff/1"
        # Self-diff: every per-frame delta is exactly zero.
        assert all(e["delta_seconds"] == 0.0 for e in doc["entries"])
        assert "differential" in svg.read_text()

    def test_obs_flame_missing_ref_errors(self, tmp_path, capsys):
        code = main(["obs", "flame", "no-such-run",
                     "--runs-dir", str(tmp_path)])
        assert code == 1
        assert "no profile" in capsys.readouterr().err

    def test_obs_trace_json_emits_trace_render(self, tmp_path, capsys):
        import json

        from repro.obs import TraceStore, span_record

        tid = "ab" * 16
        store = TraceStore(tmp_path)
        store.add_spans(tid, [
            span_record("serve.request", trace_id=tid, parent_id=None,
                        start=5.0, end=5.2, span_id=1),
        ])
        store.close()
        code = main(["obs", "trace", tid, "--trace-dir", str(tmp_path),
                     "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.obs.trace_render/1"
        assert doc["trace_id"] == tid
        assert doc["spans"][0]["name"] == "serve.request"

    def test_flame_parser_flags(self):
        args = build_parser().parse_args([
            "train", "--flame", "--flame-hz", "50",
            "--flame-svg", "out.svg",
        ])
        assert args.flame is True
        assert args.flame_hz == 50.0


class TestTune:
    def test_parse_grid(self):
        from repro.cli import _parse_grid

        grid = _parse_grid("gdu_hidden=8,16;alpha=0.001,0.01;rnn_cell=gru,cnn")
        assert grid["gdu_hidden"] == [8, 16]
        assert grid["alpha"] == [0.001, 0.01]
        assert grid["rnn_cell"] == ["gru", "cnn"]

    def test_parse_grid_validation(self):
        from repro.cli import _parse_grid

        with pytest.raises(ValueError):
            _parse_grid("")
        with pytest.raises(ValueError):
            _parse_grid("no-equals-here")

    def test_tune_command_runs(self, capsys):
        code = main([
            "tune", "--scale", "0.01", "--seed", "3", "--epochs", "2",
            "--inner-folds", "2", "--grid", "gdu_hidden=8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ranking" in out
        assert "gdu_hidden=8" in out
