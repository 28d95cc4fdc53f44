"""The repository benchmark: training and serving, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md beside this file for why each exists):

``train_full``       ``FakeDetector.fit``, default config, full batch, on the
                     scale-0.1 corpus;
``train_minibatch``  the same with ``batch_size=64``;
``serve_single``     one-article requests, Zipf-popular texts, against
                     ``repro serve http`` with CLI defaults;
``serve_bulk``       64-article requests cycling through the corpus.

Every run generates its corpus from ``--seed`` before timing starts and runs
each workload process fresh. ``--trace 0`` prints the end-to-end metrics of
an untraced run; ``--trace 1`` prints the per-layer metrics of a traced run
plus the tracing overhead against an untraced run of the same length. The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import http.client
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402
import ledger  # noqa: E402
import spans  # noqa: E402
from client import Article, ClosedLoop  # noqa: E402

#: End-to-end metrics and their units (every workload reports all of them).
E2E_UNITS = {
    "setup_s": "s",
    "lat_p50_ms": "ms",
    "lat_p90_ms": "ms",
    "throughput": "articles/s",
    "rss_peak_mb": "MB",
    "success_ratio": "ratio",
    "article_acc": "ratio",
    "article_f1": "ratio",
}

WORKLOADS = {
    "train_full": {"kind": "train", "scale": 0.1, "batch_size": None, "epochs": None},
    "train_minibatch": {"kind": "train", "scale": 0.1, "batch_size": 64, "epochs": 5},
    "serve_single": {"kind": "serve", "scale": 0.2, "per_request": 1},
    "serve_bulk": {"kind": "serve", "scale": 0.2, "per_request": 64},
}
TOY = {"scale": 0.02, "epochs": 20, "checkpoint_epochs": 2}

#: A p90 is reported from at least this many timed samples (10 beyond it).
MIN_SAMPLES = 100
#: Training times at least this many steps (a few more than a p90 needs,
#: so screening can set some aside).
MIN_TRAIN_STEPS = 110
#: Samples from monitor intervals with more CPU steal than this are set
#: aside while enough others remain (see screen()).
STEAL_LIMIT = 0.05
#: Timed training never runs longer than this, whatever the sample count.
MAX_TRAIN_SECONDS = 120.0
#: Set-up samples per run (the median is reported).
TRAIN_SETUPS = 7
SERVE_SETUPS = 3
#: Serving: closed-loop keep-alive connections (nproc of the reference VM),
#: warm-up excluded from timing, checkpoint epochs, Zipf exponent.
CONNECTIONS = 2
WARMUP_SECONDS = 2.0
CHECKPOINT_EPOCHS = 8
ZIPF_EXPONENT = 1.1
#: Served articles re-scored in process by the reference check.
REFERENCE_SAMPLE = 200
PROBA_TOLERANCE = 1e-9
#: Wall time no wrapped layer accounts for may be at most this share.
UNATTRIBUTED_LIMIT = 0.10
CHILD_TIMEOUT = 170.0
STOP_GRACE_SECONDS = 0.2


class BenchError(RuntimeError):
    """The run cannot produce a result."""


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def quantile(samples: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method)."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def screen(samples: Sequence[tuple], intervals: Sequence[tuple], report: List[str],
           label: str) -> tuple:
    """The timed samples taken while the hypervisor stole little CPU time.

    ``samples`` are ``(seconds, articles, start, end)``; ``intervals`` the
    steal monitor's ``(start, end, share)``. A sample belongs to the
    interval its start falls in. Intervals whose steal share exceeds
    :data:`STEAL_LIMIT` are set aside, unless that leaves fewer than
    ``max(MIN_SAMPLES, half the samples)``; then the least-stolen intervals
    are kept until that many samples are. Returns the kept samples in time
    order and the kept intervals.
    """
    if len(samples) < MIN_SAMPLES:
        raise BenchError(
            f"{label}: {len(samples)} timed samples, need {MIN_SAMPLES} for a p90"
        )
    starts = [iv[0] for iv in intervals]
    members = defaultdict(list)
    for x in samples:
        members[bisect.bisect_right(starts, x[2]) - 1].append(x)

    def share(i: int) -> float:
        return intervals[i][2] if i >= 0 else 1.0

    need = max(MIN_SAMPLES, (len(samples) + 1) // 2)
    kept_ids: List[int] = []
    count = 0
    for i in sorted(members, key=share):
        if count >= need and share(i) > STEAL_LIMIT:
            break
        kept_ids.append(i)
        count += len(members[i])
    kept = sorted((x for i in kept_ids for x in members[i]), key=lambda x: x[2])
    report.append(
        f"samples {label}: {len(samples)} timed, {len(kept)} kept from "
        f"{len(kept_ids)} of {len(members)} monitor intervals "
        f"(steal <= {STEAL_LIMIT:g} or least stolen); p50 and p90 from these"
    )
    return kept, [intervals[i] if i >= 0 else None for i in kept_ids]


def latency(kept: Sequence[tuple]) -> Dict[str, float]:
    values = [x[0] for x in kept]
    return {"lat_p50_ms": 1e3 * quantile(values, 50),
            "lat_p90_ms": 1e3 * quantile(values, 90)}


class Runner:
    """Shared state of one benchmark invocation."""

    def __init__(self, root: Path, work: Path, args):
        self.root, self.work, self.args = root, work, args
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.report: List[str] = []
        self.checks: Dict[str, bool] = {}
        self.monitor = envinfo.StealMonitor()
        self.server_workers = 0  # as the server reports itself

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one output check; ``correct`` is the conjunction of all."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        self.report.append(f"check {name}: {'ok' if ok else 'FAILED'} {detail}".rstrip())

    def child(self, *argv: str) -> float:
        """Run ``child.py argv``; returns the spawn time (perf_counter)."""
        cmd = [sys.executable, str(HERE / "child.py"), *argv]
        if self.args.toy and argv[0] != "reference":
            cmd.append("--toy")
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=self.root, timeout=CHILD_TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        if proc.returncode != 0:
            raise BenchError(f"child {argv[0]} failed:\n{proc.stderr[-2000:]}")
        return start


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------
def train_child(runner: Runner, spec: Dict, name: str, *, seconds: float,
                min_samples: int, setup_only=False, trace_dir=None) -> Dict:
    out = runner.work / f"{name}.json"
    argv = ["train", "--corpus", str(runner.work / "corpus.jsonl"),
            "--seconds", str(seconds),
            "--min-samples", str(min_samples),
            "--max-seconds", str(MAX_TRAIN_SECONDS), "--out", str(out)]
    if spec["epochs"]:
        argv += ["--epochs", str(spec["epochs"])]
    if spec["batch_size"]:
        argv += ["--batch-size", str(spec["batch_size"])]
    if setup_only:
        argv.append("--setup-only")
    if trace_dir:
        argv += ["--trace-dir", str(trace_dir)]
    spawned = runner.child(*argv)
    result = json.loads(out.read_text())
    if result["error"]:
        raise BenchError(f"training failed: {result['error']}")
    result["spawned"] = spawned
    return result


def step_records(result: Dict, batch_size: Optional[int]) -> List[tuple]:
    """``(seconds, articles, start, end)`` of every timed step.

    A full-batch step consumes every labelled training article; a minibatch
    step its batch (the last batch of an epoch is smaller). Each fit's first
    step is warm-up and excluded.
    """
    n = result["train_articles"]
    per_epoch = 1 if batch_size is None else math.ceil(n / batch_size)
    records = []
    for fit in result["fits"]:
        marks = fit["marks"]
        for step in range(1, len(marks) - 1):
            j = step % per_epoch
            articles = n if batch_size is None else min(batch_size, n - j * batch_size)
            start, end = marks[step], marks[step + 1]
            records.append((end - start, articles, start, end))
    return records


def report_unattributed(runner: Runner, layers: Dict, kind: str) -> None:
    """The ledger gate: wrapped layers must account for the wall time.

    Reported, not part of ``correct``: it judges the ledger's coverage,
    not the program's outputs, and socket and wake-up time (which no layer
    owns) grows with CPU steal.
    """
    share = layers[f"{kind}.unattributed_share"]
    verdict = "ok" if 0.0 <= share <= UNATTRIBUTED_LIMIT else "EXCEEDED"
    runner.report.append(f"gate ledger_adds_up: {verdict} ({kind}.unattributed_share "
                         f"{share:.4f}, limit {UNATTRIBUTED_LIMIT:g})")


def check_training(runner: Runner, results: Sequence[Dict]) -> None:
    losses = [x for r in results for f in r["fits"] for x in f["losses"]]
    runner.check("losses_finite", all(math.isfinite(x) for x in losses),
                 f"({len(losses)} epoch losses)")
    digests = {f["digest"] for r in results for f in r["fits"]}
    fits = sum(len(r["fits"]) for r in results)
    runner.check("loss_curve_reproducible", len(digests) == 1,
                 f"({fits} fits of one seed in {len(results)} process(es), "
                 f"digest {sorted(digests)[0]})")


def run_train(runner: Runner, spec: Dict) -> Dict:
    args = runner.args
    runner.child("prepare", "--scale", str(spec["scale"]), "--seed", str(args.seed),
                 "--out", str(runner.work))
    if args.trace:
        half = args.seconds / 2.0
        plain = train_child(runner, spec, "untraced", seconds=half, min_samples=0)
        trace_dir = runner.work / "spans"
        trace_dir.mkdir()
        traced = train_child(runner, spec, "traced", seconds=half, min_samples=0,
                             trace_dir=trace_dir)
        check_training(runner, [plain, traced])
        files = spans.load_span_files(trace_dir)
        expected = (spans.TRAIN_FULL_EXPECTED if spec["batch_size"] is None
                    else spans.TRAIN_MINIBATCH_EXPECTED)
        ledger.check_fired(files, expected)
        marks = [f["marks"] for f in traced["fits"]]
        layers = ledger.train_layers(files[0]["spans"], marks)
        report_unattributed(runner, layers, "train")
        layers["train.trace_overhead"] = (
            statistics.median(x[0] for x in step_records(traced, spec["batch_size"]))
            / statistics.median(x[0] for x in step_records(plain, spec["batch_size"]))
        )
        steps = sum(len(m) - 1 for m in marks)
        return {"layers": layers, "attempted": steps,
                "failed": traced["failed_steps"]}

    setups = []
    for i in range(TRAIN_SETUPS - 1):
        r = train_child(runner, spec, f"setup{i}", seconds=0, min_samples=0,
                        setup_only=True)
        setups.append(r["setup_end"] - r["spawned"])
    timed = train_child(runner, spec, "timed", seconds=args.seconds,
                        min_samples=MIN_TRAIN_STEPS)
    marks = [f["marks"] for f in timed["fits"]]
    setups.append(marks[0][0] - timed["spawned"])
    kept, _ = screen(step_records(timed, spec["batch_size"]),
                     runner.monitor.intervals(), runner.report, "steps")
    check_training(runner, [timed])
    acc, f1 = bi_class(timed["fits"][0]["test"])
    attempted = sum(len(m) - 1 for m in marks)
    runner.report.append(f"samples setup_s: {len(setups)} processes")
    metrics = {
        "setup_s": statistics.median(setups),
        **latency(kept),
        # articles per second of step time (fits are not back to back)
        "throughput": sum(x[1] for x in kept) / sum(x[0] for x in kept),
        "rss_peak_mb": timed["rss_peak_mb"],
        "success_ratio": 1.0 - timed["failed_steps"] / attempted,
        "article_acc": acc,
        "article_f1": f1,
    }
    return {"metrics": metrics, "attempted": attempted,
            "failed": timed["failed_steps"]}


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class Server:
    """One ``repro serve http`` process, from launch to accepting requests."""

    def __init__(self, runner: Runner, traced_dir: Optional[Path] = None):
        ckpt = str(runner.work / "ckpt")
        if traced_dir is None:
            cmd = [sys.executable, "-m", "repro", "serve", "http", ckpt, "--port", "0"]
        else:
            cmd = [sys.executable, str(HERE / "serve_launch.py"), str(traced_dir),
                   "serve", "http", ckpt, "--port", "0"]
        self.lines: List[str] = []
        self.url: Optional[str] = None
        self._ready = threading.Event()
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=runner.env, cwd=runner.root,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True,
                                        name="bench-server-stderr")
        self._reader.start()
        if not self._ready.wait(CHILD_TIMEOUT) or self.url is None:
            self.stop()
            raise BenchError("server did not start:\n" + "".join(self.lines[-30:]))
        runner.server_workers = self.workers
        # Accepting requests: the first health check answered 200.
        host, port = self.address
        conn = http.client.HTTPConnection(host, port, timeout=CHILD_TIMEOUT)
        try:
            conn.request("GET", "/v1/healthz")
            status = conn.getresponse().status
        finally:
            conn.close()
        if status != 200:
            self.stop()
            raise BenchError(f"server health check answered {status}")
        self.setup_s = time.perf_counter() - self.spawned

    def _read(self) -> None:
        for line in self.proc.stderr:
            if self.url is None and line.startswith("serving "):
                self.url = line.split(" at ", 1)[1].split()[0]
                self.workers = int(line.split("workers=", 1)[1].split(",")[0])
                self._ready.set()
            self.lines.append(line)
        self._ready.set()

    @property
    def address(self):
        host, port = self.url.split("//", 1)[1].rsplit(":", 1)
        return host, int(port)

    def _tree(self) -> List[int]:
        """The server's pid and its descendants' (workers and helpers)."""
        parents = {}
        for stat in Path("/proc").glob("[0-9]*/stat"):
            try:
                fields = stat.read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            parents[int(stat.parent.name)] = int(fields[1])
        tree, frontier = [self.proc.pid], [self.proc.pid]
        while frontier:
            pid = frontier.pop()
            kids = [c for c, p in parents.items() if p == pid and c not in tree]
            tree.extend(kids)
            frontier.extend(kids)
        return tree

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of the server and its descendant processes."""
        total_kb = 0
        for pid in self._tree():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> int:
        """SIGINT (the CLI's shutdown path); wait for every process to end."""
        tree = self._tree()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(30)
        self._reader.join(30)
        deadline = time.monotonic() + 30
        while any(_running(pid) for pid in tree[1:]):
            if time.monotonic() > deadline:
                raise BenchError(f"server processes {tree[1:]} did not exit")
            time.sleep(0.05)
        return self.proc.returncode


def load_articles(work: Path) -> List[Article]:
    table = json.loads((work / "articles.json").read_text())
    return [Article(text, creator, subjects, label)
            for text, creator, subjects, label in table]


def request_stream(articles: Sequence[Article], per_request: int, seed: int):
    """``(article index, variant)`` pairs of request ``n``.

    Single requests draw Zipf-popular articles, so most texts repeat and
    hit the feature cache. Bulk requests cycle through the corpus in order;
    each pass uses a new text variant, so no text repeats and every cache
    lookup misses however the requests spread over the workers' caches.
    """
    n_articles = len(articles)
    if per_request > 1:
        def bulk(n: int):
            first = n * per_request
            return tuple(divmod(first + k, n_articles)[::-1]
                         for k in range(per_request))

        return bulk
    rng = random.Random(seed)
    ranked = list(range(n_articles))
    rng.shuffle(ranked)
    cum, acc = [], 0.0
    for rank in range(n_articles):
        acc += 1.0 / (rank + 1) ** ZIPF_EXPONENT
        cum.append(acc)
    draws = rng.choices(ranked, cum_weights=cum, k=200_000)
    return lambda n: ((draws[n % len(draws)], 0),)


def check_phases(runner: Runner, loop: ClosedLoop, label: str) -> None:
    """Report sent / 200 / 429 / 4xx / 5xx / transport counts per phase."""
    for phase in loop.phase_bounds:
        records = [r for r in loop.records if r.phase == phase]
        c = {"sent": len(records), "200": 0, "429": 0, "4xx": 0, "5xx": 0,
             "transport": 0}
        for r in records:
            if r.error is not None:
                c["transport"] += 1
            elif r.status == 200:
                c["200"] += 1
            elif r.status == 429:
                c["429"] += 1
            elif r.status >= 500:
                c["5xx"] += 1
            else:
                c["4xx"] += 1
        runner.report.append(
            f"phase {label}/{phase}: " + " ".join(f"{k}={v}" for k, v in c.items())
        )


def check_bodies(runner: Runner, loop: ClosedLoop, label: str):
    """Parse every 200 body; returns {article id: (prediction, article, variant)}."""
    served = {}
    schema_ok = ids_ok = True
    for r in loop.records:
        if r.error is not None or r.status != 200:
            continue
        try:
            doc = json.loads(r.body)
        except ValueError:
            schema_ok = ids_ok = False
            continue
        schema_ok &= doc.get("schema") == "repro.serve.response/1"
        predictions = doc.get("predictions", [])
        ids_ok &= [p.get("entity_id") for p in predictions] == r.article_ids()
        for p, (i, variant) in zip(predictions, r.articles):
            served[p.get("entity_id")] = (p, loop.articles[i], variant)
    runner.check(f"{label}_response_schema", schema_ok, "(every 200 body)")
    runner.check(f"{label}_one_prediction_per_article_in_order", ids_ok)
    return served


def check_reference(runner: Runner, served: Dict, label: str) -> None:
    ids = sorted(served)
    step = max(1, len(ids) // REFERENCE_SAMPLE)
    sample = ids[::step][:REFERENCE_SAMPLE]
    requests = []
    for aid in sample:
        _, article, variant = served[aid]
        requests.append({"article_id": aid, **article.payload(variant)})
    req_path = runner.work / f"reference-{label}.json"
    out = runner.work / f"reference-{label}-out.json"
    req_path.write_text(json.dumps(requests))
    runner.child("reference", "--checkpoint", str(runner.work / "ckpt"),
                 "--requests", str(req_path), "--out", str(out))
    expected = json.loads(out.read_text())
    mismatches = 0
    for aid, ref in zip(sample, expected):
        got = served[aid][0]
        proba = got.get("proba") or []
        same = (got.get("entity_id") == ref["entity_id"]
                and got.get("class_index") == ref["class_index"]
                and len(proba) == len(ref["proba"])
                and all(abs(a - b) <= PROBA_TOLERANCE
                        for a, b in zip(proba, ref["proba"])))
        mismatches += not same
    runner.check(f"{label}_matches_in_process_session", mismatches == 0,
                 f"({len(sample) - mismatches}/{len(sample)} sampled articles)")


def serve_load(server: Server, articles, stream, seconds: float,
               malformed: int = 0) -> ClosedLoop:
    host, port = server.address
    loop = ClosedLoop(host, port, articles, stream, CONNECTIONS, malformed)
    loop.run([("warmup", WARMUP_SECONDS), ("timed", seconds)])
    return loop


def timed_records(loop: ClosedLoop):
    return [r for r in loop.records if r.phase == "timed"]


def bi_class(pairs) -> tuple:
    """Bi-class accuracy and F1 of ``(predicted, true)`` class indexes.

    Classes 3..5 (Half True and above) are the true-leaning, positive side,
    as in the paper's bi-class evaluation.
    """
    sides = [(p >= 3, t >= 3) for p, t in pairs]
    tp = sum(p and t for p, t in sides)
    fp = sum(p and not t for p, t in sides)
    fn = sum(t and not p for p, t in sides)
    f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    return sum(p == t for p, t in sides) / len(sides), f1


def served_pairs(served: Dict, records) -> list:
    """``(predicted, true)`` per distinct article answered.

    Each corpus article counts once however often it was sent (predictions
    of one text are deterministic), so Zipf-popular articles do not decide
    the figure alone.
    """
    seen = {}
    for r in records:
        if r.error is None and r.status == 200:
            for aid in r.article_ids():
                prediction, article, _ = served[aid]
                seen[id(article)] = (prediction["class_index"], article.label)
    return list(seen.values())


def run_serve(runner: Runner, spec: Dict) -> Dict:
    args = runner.args
    epochs = TOY["checkpoint_epochs"] if args.toy else CHECKPOINT_EPOCHS
    runner.child("prepare", "--scale", str(spec["scale"]), "--seed", str(args.seed),
                 "--checkpoint-epochs", str(epochs), "--out", str(runner.work))
    articles = load_articles(runner.work)
    stream = request_stream(articles, spec["per_request"], args.seed)

    if args.trace:
        half = args.seconds / 2.0
        server = Server(runner)
        try:
            plain = serve_load(server, articles, stream, half)
        finally:
            code = server.stop()
        runner.check("untraced_server_exit", code == 0, f"(exit {code})")
        trace_dir = runner.work / "spans"
        trace_dir.mkdir()
        server = Server(runner, trace_dir)
        try:
            loop = serve_load(server, articles, stream, half)
        finally:
            code = server.stop()
        runner.check("traced_server_exit", code == 0, f"(exit {code})")
        check_phases(runner, plain, "untraced")
        check_bodies(runner, plain, "untraced")
        check_phases(runner, loop, "traced")
        check_reference(runner, check_bodies(runner, loop, "traced"), "traced")
        files = spans.load_span_files(trace_dir)
        ledger.check_fired(files, spans.SERVE_EXPECTED)
        timed = [r for r in timed_records(loop) if r.error is None and r.status == 200]
        layers = ledger.serve_layers(files, timed, loop.phase_bounds["timed"])
        runner.report.append(f"joined: all {len(timed)} timed requests to their "
                             "front-end and worker spans")
        report_unattributed(runner, layers, "serve")
        all_timed = timed_records(loop)
        layers["serve.rejected_429"] = sum(r.status == 429 for r in all_timed)
        layers["serve.errors"] = sum(
            r.error is not None or (r.status != 200 and r.status != 429)
            for r in all_timed)
        lat = lambda recs: statistics.median(  # noqa: E731
            r.t_recv - r.t_send for r in recs if r.error is None and r.status == 200)
        layers["serve.trace_overhead"] = lat(all_timed) / lat(timed_records(plain))
        return {"layers": layers, "attempted": len(all_timed),
                "failed": sum(r.error is not None or r.status != 200
                              for r in all_timed)}

    setups = []
    for _ in range(SERVE_SETUPS - 1):
        server = Server(runner)
        setups.append(server.setup_s)
        # The CLI installs its SIGINT handling just after it reports the
        # address; give it that moment before stopping.
        time.sleep(STOP_GRACE_SECONDS)
        code = server.stop()
        runner.check("setup_server_exit", code == 0, f"(exit {code})")
    server = Server(runner)
    setups.append(server.setup_s)
    try:
        loop = serve_load(server, articles, stream, args.seconds,
                          args.inject_malformed)
        rss = server.peak_rss_mb()
    finally:
        code = server.stop()
    runner.check("server_exit", code == 0, f"(exit {code})")
    check_phases(runner, loop, "serve")
    served = check_bodies(runner, loop, "serve")
    check_reference(runner, served, "serve")
    records = timed_records(loop)
    ok = [r for r in records if r.error is None and r.status == 200]
    acc, f1 = bi_class(served_pairs(served, records))
    kept, kept_intervals = screen(
        [(r.t_recv - r.t_send, len(r.articles), r.t_send, r.t_recv)
         for r in sorted(ok, key=lambda r: r.t_send)],
        runner.monitor.intervals(), runner.report, "requests")
    # Closed loop: requests start at the rate they are answered, so the
    # articles of the kept requests over the kept time is the throughput.
    start, end = loop.phase_bounds["timed"]
    kept_time = sum(min(iv[1], end) - max(iv[0], start)
                    for iv in kept_intervals if iv is not None)
    runner.report.append(f"samples setup_s: {len(setups)} server launches")
    metrics = {
        "setup_s": statistics.median(setups),
        **latency(kept),
        "throughput": sum(x[1] for x in kept) / kept_time,
        "rss_peak_mb": rss,
        "success_ratio": len(ok) / len(records),
        "article_acc": acc,
        "article_f1": f1,
    }
    return {"metrics": metrics, "attempted": len(records),
            "failed": len(records) - len(ok)}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny corpus and model (the benchmark's own tests)")
    parser.add_argument("--inject-malformed", type=int, default=0,
                        help="send this many malformed serving requests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {root / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = dict(WORKLOADS[args.workload])
    if args.toy:
        spec["scale"] = TOY["scale"]
        spec["epochs"] = TOY["epochs"]
    work = root / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(root, work, args)
    try:
        load_before = os.getloadavg()
        environment = envinfo.collect(root, sys.executable, runner.env)
        run = run_train if spec["kind"] == "train" else run_serve
        with runner.monitor:
            result = run(runner, spec)
        environment["cpu_steal_share"] = runner.monitor.share()
        environment["server_workers"] = runner.server_workers
        environment["loadavg_1m"] = [load_before[0], os.getloadavg()[0]]
    except (BenchError, ledger.LedgerError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = {name: 0.0 for name in ledger.UNITS}
        values.update(result["layers"])
        metrics = {n: {"value": values[n], "unit": u} for n, u in ledger.UNITS.items()}
    else:
        metrics = {n: {"value": result["metrics"][n], "unit": u}
                   for n, u in E2E_UNITS.items()}
    correct = all(runner.checks.values())
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment, sort_keys=True))
    for line in runner.report:
        print(line)
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_ratio: {failed / attempted:.6f} ({failed} of {attempted} failed)")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"verdict: {'PASS' if correct else 'FAIL'} "
          f"({sum(runner.checks.values())}/{len(runner.checks)} checks)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
