"""The benchmark's own tests: toy-size runs of every workload.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import spans  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "5", "--seconds", "1",
         "--toy", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_benchmark_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--trace", "0"))
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_emits_every_layer_metric(workload):
    proc = bench("--workload", workload, "--trace", "1")
    result = result_of(proc)
    assert result["correct"] is True
    assert "gate ledger_adds_up" in proc.stdout
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    kind = workload.split("_")[0]
    assert 0.0 <= metrics[f"{kind}.unattributed_share"]["value"] < 1.0
    assert metrics[f"{kind}.trace_overhead"]["value"] > 0.0
    per_step = metrics["pipeline.subgraph_view_ms_per_step"]["value"]
    assert (per_step > 0.0) == (workload == "train_minibatch")


def test_malformed_requests_count_as_failures():
    proc = bench("--workload", "serve_single", "--trace", "0",
                 "--inject-malformed", "3")
    result = result_of(proc)
    assert result["failed"] == 3
    success = result["metrics"]["success_ratio"]["value"]
    assert success == pytest.approx(1.0 - 3 / result["attempted"])
    assert "4xx=3" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_wrapper_that_never_fires_fails_the_run():
    files = [{"fired": {"trainer.fit": 1}}]
    with pytest.raises(ledger.LedgerError, match="optim.adam_step"):
        ledger.check_fired(files, spans.TRAIN_FULL_EXPECTED)


def test_an_unjoined_request_fails_the_run():
    class Timed:
        request_id, t_send, t_recv = "r0", 0.0, 1.0

    frontend = {"role": "frontend", "pid": 1, "fired": {}, "spans": []}
    with pytest.raises(ledger.LedgerError, match="did not join"):
        ledger.serve_layers([frontend], [Timed()], (0.0, 1.0))
