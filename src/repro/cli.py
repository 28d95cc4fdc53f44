"""Command-line interface: ``python -m repro <command>``.

Commands
--------
generate   write a synthetic PolitiFact-like corpus to JSON lines
analyze    print Table 1 + Figure 1 for a corpus (file or synthetic)
train      train FakeDetector on a corpus and report held-out metrics
           (--trace t.jsonl records a span trace, --profile adds an
           autograd op profile, --profile-memory a tape memory profile,
           --sanitize runs the tape sanitizer; every run leaves a
           results/runs/<id>.json record unless --no-run-record)
evaluate   run the Figure 4/5 θ-sweep over the comparison methods
tune       grid-search FakeDetector hyperparameters with inner CV
report     write the complete reproduction artifact set to a directory
infer      one-shot inductive scoring from a saved detector checkpoint
           (emits one repro.serve.response/1 document)
serve      prediction serving, two modes:
           ``serve http`` runs the multi-process sharded service
           (POST /v1/predict + /v1/healthz + /metrics; --workers/--shards
           size the pool, --slo-* budgets drive /v1/healthz);
           ``serve batch`` is the micro-batched JSONL replay loop
           (--metrics-port exposes /metrics + /healthz).
           Bare ``serve MODEL --input F`` still works (deprecated alias
           for ``serve batch``).
obs        observability utilities: ``obs report`` renders a trace
           (including drift breach/recover summaries when present),
           ``obs trace`` renders one merged distributed request timeline
           from a ``--trace-dir`` store, ``obs diff`` regression-gates
           two run records, ``obs runs`` lists the registry
lint       run the repro.analysis static rules over source trees
analysis   static-analysis utilities (``analysis report`` summarizes by rule)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .core import FakeDetector, FakeDetectorConfig
from .data import generate_dataset, load_dataset, save_dataset
from .data.schema import NewsDataset
from .graph.sampling import tri_splits
from .metrics import BinaryMetrics, MultiClassMetrics


def _load_or_generate(args) -> NewsDataset:
    if args.dataset:
        return load_dataset(args.dataset)
    return generate_dataset(scale=args.scale, seed=args.seed)


def _add_corpus_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", type=Path, default=None,
        help="JSON-lines corpus to load (default: generate synthetically)",
    )
    parser.add_argument("--scale", type=float, default=0.05,
                        help="synthetic corpus scale (1.0 = paper size)")
    parser.add_argument("--seed", type=int, default=7)


def cmd_generate(args) -> int:
    dataset = generate_dataset(scale=args.scale, seed=args.seed)
    save_dataset(dataset, args.output)
    print(
        f"wrote {dataset.num_articles} articles / {dataset.num_creators} "
        f"creators / {dataset.num_subjects} subjects to {args.output}"
    )
    return 0


def cmd_analyze(args) -> int:
    from .experiments import figure1, table1

    dataset = _load_or_generate(args)
    print(table1(dataset))
    print()
    print(figure1(dataset))
    return 0


def cmd_train(args) -> int:
    import dataclasses

    from .obs import (
        MemoryProfiler,
        OpProfiler,
        RunRegistry,
        SamplingProfiler,
        Tracer,
        install_tracer,
        render_top,
        uninstall_tracer,
        write_flamegraph,
    )

    dataset = _load_or_generate(args)
    split = next(
        tri_splits(
            sorted(dataset.articles),
            sorted(dataset.creators),
            sorted(dataset.subjects),
            k=args.folds,
            seed=args.seed,
        )
    )
    config = FakeDetectorConfig(
        epochs=args.epochs,
        explicit_dim=args.explicit_dim,
        max_seq_len=args.max_seq_len,
        log_every=max(1, args.epochs // 5),
        seed=args.seed,
        fused_kernels=not args.no_fused,
    )
    tracer = Tracer(path=args.trace) if args.trace else None
    profiler = OpProfiler() if args.profile else None
    memory = MemoryProfiler() if args.profile_memory else None
    flame = SamplingProfiler(interval=1.0 / args.flame_hz) if args.flame else None
    flame_tracer = None
    if flame is not None and tracer is None:
        # The sampler learns span names through the tracer's observer
        # hook; without --trace, a keep-nothing tracer exists purely so
        # training-phase spans tag the sampled stacks.
        flame_tracer = Tracer(keep=False)
    if tracer:
        install_tracer(tracer)
    elif flame_tracer:
        install_tracer(flame_tracer)
    if profiler:
        profiler.start()
    if memory:
        memory.start()
    if flame:
        flame.start()
    try:
        detector = FakeDetector(config).fit(dataset, split, sanitize=args.sanitize)
    finally:
        if flame:
            flame.stop()
        if memory:
            memory.stop()
        if profiler:
            profiler.stop()
        if flame_tracer:
            uninstall_tracer()
        if tracer:
            if profiler:
                tracer.write(profiler.to_dict())
            if memory:
                tracer.write(memory.to_dict())
            uninstall_tracer()
            tracer.close()
            print(f"wrote trace to {args.trace}", file=sys.stderr)
    if profiler:
        print(profiler.table(), file=sys.stderr)
    if memory:
        print(memory.table(), file=sys.stderr)
    flame_profile = None
    if flame:
        flame_profile = flame.snapshot(
            meta={
                "kind": "train",
                "fused_kernels": config.fused_kernels,
                "epochs": args.epochs,
            }
        )
        print(render_top(flame_profile), file=sys.stderr)
        if args.flame_svg:
            write_flamegraph(flame_profile, args.flame_svg)
            print(f"wrote flamegraph to {args.flame_svg}", file=sys.stderr)
    if args.checkpoint:
        from .autograd import save_state

        save_state(detector.model, args.checkpoint)
        print(f"saved checkpoint to {args.checkpoint}")
    if args.save:
        detector.save(args.save)
        print(f"saved detector to {args.save}")

    run_metrics = {
        "final_loss": detector.record.final_loss,
        "total_seconds": detector.record.total_seconds,
        "epochs_run": float(len(detector.record.total)),
    }
    if detector.record.epoch_seconds:
        run_metrics["mean_epoch_seconds"] = (
            detector.record.total_seconds / len(detector.record.epoch_seconds)
        )
    if memory:
        run_metrics["peak_live_mib"] = memory.peak_live_bytes / (1024.0 * 1024.0)
    for kind, store, test_ids in (
        ("article", dataset.articles, split.articles.test),
        ("creator", dataset.creators, split.creators.test),
        ("subject", dataset.subjects, split.subjects.test),
    ):
        predictions = detector.predict(kind)
        labeled = [e for e in test_ids if store[e].label is not None]
        if not labeled:
            continue
        y_true = [store[e].label.class_index for e in labeled]
        y_pred = [predictions[e] for e in labeled]
        binary = BinaryMetrics.compute(
            [int(c >= 3) for c in y_true], [int(c >= 3) for c in y_pred]
        )
        multi = MultiClassMetrics.compute(y_true, y_pred)
        run_metrics[f"{kind}_bi_accuracy"] = binary.accuracy
        run_metrics[f"{kind}_bi_f1"] = binary.f1
        run_metrics[f"{kind}_multi_accuracy"] = multi.accuracy
        run_metrics[f"{kind}_macro_f1"] = multi.macro_f1
        print(
            f"{kind:8s} bi-acc={binary.accuracy:.3f} bi-f1={binary.f1:.3f} "
            f"multi-acc={multi.accuracy:.3f} macro-f1={multi.macro_f1:.3f}"
        )
    if not args.no_run_record:
        registry = RunRegistry(args.runs_dir)
        record = registry.record(
            kind="train",
            config=dataclasses.asdict(config),
            metrics=run_metrics,
            series=detector.record.to_dict(),
        )
        print(
            f"recorded run {record.run_id} in {registry.root} "
            f"(diff with `repro obs diff`)",
            file=sys.stderr,
        )
        if flame_profile is not None:
            profile_path = registry.save_profile(record.run_id, flame_profile)
            print(
                f"saved profile to {profile_path} "
                f"(render with `repro obs flame {record.run_id}`)",
                file=sys.stderr,
            )
    return 0


def cmd_evaluate(args) -> int:
    from .experiments import (
        check_paper_claims,
        default_methods,
        figure4,
        figure5,
        render_claims,
        run_sweep,
    )

    dataset = _load_or_generate(args)
    methods = default_methods(fast=True, only=args.methods)
    thetas = tuple(float(t) for t in args.thetas.split(","))
    result = run_sweep(
        dataset, methods, thetas=thetas, folds=args.folds_run, seed=args.seed,
        verbose=True,
    )
    print(figure4(result))
    print()
    print(figure5(result))
    print()
    print(render_claims(check_paper_claims(result)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FakeDetector (ICDE 2020) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic corpus")
    p_gen.add_argument("output", type=Path)
    p_gen.add_argument("--scale", type=float, default=0.05)
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.set_defaults(func=cmd_generate)

    p_analyze = sub.add_parser("analyze", help="Table 1 + Figure 1 analyses")
    _add_corpus_args(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_train = sub.add_parser("train", help="train FakeDetector")
    _add_corpus_args(p_train)
    p_train.add_argument("--epochs", type=int, default=50)
    p_train.add_argument("--explicit-dim", type=int, default=100)
    p_train.add_argument("--max-seq-len", type=int, default=24)
    p_train.add_argument("--folds", type=int, default=10)
    p_train.add_argument("--no-fused", action="store_true",
                         help="disable the fused sequence kernels and train "
                              "on the unrolled per-timestep tape (the slow "
                              "reference path; see docs/performance.md)")
    p_train.add_argument("--checkpoint", type=Path, default=None,
                         help="write model weights only (.npz)")
    p_train.add_argument("--save", type=Path, default=None,
                         help="write a full detector checkpoint directory "
                              "(loadable by `repro infer`/`repro serve`)")
    p_train.add_argument("--trace", type=Path, default=None,
                         help="write a JSONL span trace of the run "
                              "(render with `repro obs report`)")
    p_train.add_argument("--profile", action="store_true",
                         help="profile autograd ops; prints a per-op table "
                              "and embeds it in --trace output")
    p_train.add_argument("--sanitize", action="store_true",
                         help="run training under the tape sanitizer "
                              "(NaN/Inf guards, in-place mutation checks, "
                              "dead-parameter audit)")
    p_train.add_argument("--profile-memory", action="store_true",
                         help="profile tape memory: per-op allocated/peak "
                              "bytes, live-tensor census and lifetimes "
                              "(printed and embedded in --trace output)")
    p_train.add_argument("--flame", action="store_true",
                         help="run the 100 Hz sampling profiler over the "
                              "whole run; prints a self-time table, saves a "
                              "repro.obs.profile/1 artifact next to the run "
                              "record (render with `repro obs flame`)")
    p_train.add_argument("--flame-hz", type=float, default=100.0,
                         help="sampling rate for --flame (default 100)")
    p_train.add_argument("--flame-svg", type=Path, default=None,
                         help="also write the --flame profile as a "
                              "flamegraph SVG to this path")
    p_train.add_argument("--runs-dir", type=Path, default=None,
                         help="run-record directory (default: $REPRO_RUNS_DIR "
                              "or results/runs)")
    p_train.add_argument("--no-run-record", action="store_true",
                         help="skip writing the results/runs/<id>.json record")
    p_train.set_defaults(func=cmd_train)

    p_infer = sub.add_parser(
        "infer", help="score new articles against a saved detector"
    )
    p_infer.add_argument("model", type=Path, help="detector checkpoint directory")
    p_infer.add_argument(
        "--articles", type=Path, default=None,
        help="JSONL requests ({article_id, text, creator_id, subject_ids}); "
             "default: stdin",
    )
    p_infer.add_argument("--proba", action="store_true",
                         help="include the 6-class softmax distribution")
    p_infer.set_defaults(func=cmd_infer)

    p_serve = sub.add_parser(
        "serve", help="prediction serving (http service / batch replay)"
    )
    serve_sub = p_serve.add_subparsers(dest="serve_command", required=True)

    def _add_slo_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--slo-p95-ms", type=float, default=None,
                            help="SLO: rolling p95 per-request latency budget "
                                 "in milliseconds")
        parser.add_argument("--slo-error-rate", type=float, default=None,
                            help="SLO: rolling error-rate budget (0..1)")
        parser.add_argument("--slo-queue-wait-ms", type=float, default=None,
                            help="SLO: rolling p95 queue-wait budget in "
                                 "milliseconds")
        parser.add_argument("--slo-drift-psi", type=float, default=None,
                            help="SLO: rolling mean class-distribution PSI "
                                 "budget (needs a drift baseline)")
        parser.add_argument("--slo-window", type=float, default=60.0,
                            help="rolling SLO window in seconds")

    p_serve_http = serve_sub.add_parser(
        "http", help="multi-process sharded HTTP prediction service"
    )
    p_serve_http.add_argument("model", type=Path,
                              help="detector checkpoint directory")
    p_serve_http.add_argument("--host", default="127.0.0.1")
    p_serve_http.add_argument("--port", type=int, default=0,
                              help="bind port (0 = ephemeral, printed to "
                                   "stderr)")
    p_serve_http.add_argument("--workers", type=int, default=2,
                              help="worker processes (model replicas)")
    p_serve_http.add_argument("--shards", type=int, default=1,
                              help="News-HSN community shards (workers are "
                                   "dealt round-robin over shards)")
    p_serve_http.add_argument("--max-batch-size", type=int, default=32,
                              help="per-worker dynamic-batching cap in "
                                   "articles (whole requests are coalesced "
                                   "until a batch holds this many)")
    p_serve_http.add_argument("--max-wait", type=float, default=0.002,
                              help="seconds a worker coalesces a micro-batch")
    p_serve_http.add_argument("--queue-depth", type=int, default=32,
                              help="admission control: in-flight requests "
                                   "per worker before 429")
    p_serve_http.add_argument("--timeout", type=float, default=30.0,
                              help="seconds before a dispatched request 504s")
    p_serve_http.add_argument("--cache-size", type=int, default=2048,
                              help="per-worker LRU text-feature cache entries")
    p_serve_http.add_argument("--trace-dir", type=Path, default=None,
                              help="distributed-trace store directory: every "
                                   "request's front-end + worker spans merge "
                                   "into one <trace_id>.jsonl (render with "
                                   "`repro obs trace`)")
    p_serve_http.add_argument("--drift-baseline", default=None,
                              metavar="auto|PATH",
                              help="arm per-worker drift monitors: 'auto' "
                                   "uses the checkpoint's "
                                   "drift_baseline.json, or give an explicit "
                                   "profile path")
    p_serve_http.add_argument("--drift-threshold", type=float, default=0.25,
                              help="PSI level that flags a drift breach")
    p_serve_http.add_argument("--duration", type=float, default=None,
                              help="serve for this many seconds then exit "
                                   "(default: until interrupted)")
    p_serve_http.add_argument("--export", type=Path, default=None,
                              help="periodically flush /metrics to this file "
                                   "(node-exporter textfile style)")
    p_serve_http.add_argument("--export-interval", type=float, default=5.0,
                              help="seconds between --export flushes")
    p_serve_http.add_argument("--export-format", default="prometheus",
                              choices=("prometheus", "json"))
    p_serve_http.add_argument("--profile-hz", type=float, default=None,
                              help="continuous profiling: run a sampling "
                                   "profiler at this rate in every process; "
                                   "GET /debug/profile?seconds=N returns the "
                                   "merged per-shard capture (works unarmed "
                                   "too, via temporary samplers)")
    _add_slo_args(p_serve_http)
    p_serve_http.set_defaults(func=cmd_serve_http)

    p_serve_batch = serve_sub.add_parser(
        "batch", help="micro-batched serving loop over JSONL requests"
    )
    p_serve_batch.add_argument("model", type=Path,
                               help="detector checkpoint directory")
    p_serve_batch.add_argument("--input", type=Path, default=None,
                               help="JSONL request stream (default: stdin)")
    p_serve_batch.add_argument("--proba", action="store_true")
    p_serve_batch.add_argument("--max-batch-size", type=int, default=32,
                               help="micro-batch cap in requests (one "
                                    "article each)")
    p_serve_batch.add_argument("--max-wait", type=float, default=0.01,
                               help="seconds to coalesce a micro-batch")
    p_serve_batch.add_argument("--cache-size", type=int, default=2048,
                               help="LRU text-feature cache entries "
                                    "(0 disables)")
    p_serve_batch.add_argument("--metrics-port", type=int, default=None,
                               help="expose /metrics (Prometheus) and "
                                    "/healthz on this port (0 = ephemeral, "
                                    "printed to stderr)")
    p_serve_batch.add_argument("--drift-baseline", default=None,
                               metavar="auto|PATH",
                               help="arm an in-process drift monitor: 'auto' "
                                    "uses the checkpoint's "
                                    "drift_baseline.json, or give an "
                                    "explicit profile path")
    p_serve_batch.add_argument("--drift-threshold", type=float, default=0.25,
                               help="PSI level that flags a drift breach")
    _add_slo_args(p_serve_batch)
    p_serve_batch.set_defaults(func=cmd_serve_batch)

    p_obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_report = obs_sub.add_parser(
        "report", help="render a JSONL trace (span tree + op profile)"
    )
    p_obs_report.add_argument("trace", type=Path, help="trace JSONL file")
    p_obs_report.add_argument("--json", action="store_true", dest="as_json",
                              help="emit the stable repro.obs.report/1 JSON "
                                   "instead of text")
    p_obs_report.set_defaults(func=cmd_obs_report)
    p_obs_trace = obs_sub.add_parser(
        "trace", help="render one merged distributed request timeline"
    )
    p_obs_trace.add_argument("trace_id",
                             help="32-hex trace id (from the response meta "
                                  "block or the X-Request-Id echo)")
    p_obs_trace.add_argument("--trace-dir", type=Path, required=True,
                             help="trace store directory the service wrote "
                                  "(`repro serve http --trace-dir`)")
    p_obs_trace.add_argument("--json", action="store_true", dest="as_json",
                             help="emit the repro.obs.trace_render/1 JSON "
                                  "timeline (sorted, depth-annotated spans)")
    p_obs_trace.set_defaults(func=cmd_obs_trace)
    p_obs_flame = obs_sub.add_parser(
        "flame", help="render or diff sampling profiles (repro.obs.profile/1)"
    )
    p_obs_flame.add_argument("ref",
                             help="run id (with a saved profile artifact) or "
                                  "a profile JSON path")
    p_obs_flame.add_argument("--diff", default=None, metavar="REF",
                             help="second run id / profile path; report "
                                  "per-frame self-time deltas (REF − ref) "
                                  "instead of a single-profile table")
    p_obs_flame.add_argument("--svg", type=Path, default=None,
                             help="write a flamegraph SVG (differential "
                                  "coloring when --diff is given)")
    p_obs_flame.add_argument("--limit", type=int, default=25,
                             help="table rows to print (default 25)")
    p_obs_flame.add_argument("--runs-dir", type=Path, default=None,
                             help="run-record directory (default: "
                                  "$REPRO_RUNS_DIR or results/runs)")
    p_obs_flame.add_argument("--json", action="store_true", dest="as_json",
                             help="emit repro.obs.profile/1 (or "
                                  "repro.obs.profile_diff/1 with --diff) "
                                  "JSON instead of text")
    p_obs_flame.set_defaults(func=cmd_obs_flame)
    p_obs_diff = obs_sub.add_parser(
        "diff", help="compare two run records; exit 1 on metric regression"
    )
    p_obs_diff.add_argument("a", help="baseline run id or record path")
    p_obs_diff.add_argument("b", help="candidate run id or record path")
    p_obs_diff.add_argument("--runs-dir", type=Path, default=None,
                            help="run-record directory (default: "
                                 "$REPRO_RUNS_DIR or results/runs)")
    p_obs_diff.add_argument(
        "--threshold", action="append", default=[], metavar="METRIC=TOL[,DIR]",
        help="override a gate, e.g. final_loss=0.02 or "
             "throughput_rps=0.1,higher (repeatable)",
    )
    p_obs_diff.add_argument("--json", action="store_true", dest="as_json",
                            help="emit the repro.obs.diff/1 JSON report")
    p_obs_diff.set_defaults(func=cmd_obs_diff)
    p_obs_runs = obs_sub.add_parser(
        "runs", help="list persisted run records, oldest first"
    )
    p_obs_runs.add_argument("--runs-dir", type=Path, default=None,
                            help="run-record directory (default: "
                                 "$REPRO_RUNS_DIR or results/runs)")
    p_obs_runs.add_argument("--kind", default=None,
                            help="only this run kind (train/benchmark/serve)")
    p_obs_runs.set_defaults(func=cmd_obs_runs)

    p_lint = sub.add_parser(
        "lint", help="run the repro.analysis static rules over source trees"
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src/repro"], type=Path,
        help="files or directories to lint (default: src/repro)",
    )
    p_lint.add_argument("--select", default=None,
                        help="comma-separated rule ids or RAnXX wildcards "
                             "to run (e.g. RA001,RA2XX)")
    p_lint.add_argument("--pass", default=None, dest="passes",
                        help="comma-separated pass families to run "
                             "(file,arch,concurrency,shapes; default: all)")
    p_lint.add_argument("--fix-hints", action="store_true",
                        help="print a fix hint under each rule's first finding")
    p_lint.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the stable JSON report instead of text")
    p_lint.add_argument("--baseline", type=Path, default=None,
                        help="committed baseline file; with --fail-on-new, "
                             "only findings absent from it fail the run")
    p_lint.add_argument("--fail-on-new", action="store_true",
                        help="exit non-zero only on findings not in --baseline")
    p_lint.add_argument("--write-baseline", type=Path, default=None,
                        help="write the current findings as a baseline file "
                             "and exit 0")
    p_lint.set_defaults(func=cmd_lint)

    p_analysis = sub.add_parser("analysis", help="static-analysis utilities")
    analysis_sub = p_analysis.add_subparsers(dest="analysis_command", required=True)
    p_analysis_report = analysis_sub.add_parser(
        "report", help="per-rule summary of lint findings over source trees"
    )
    p_analysis_report.add_argument(
        "paths", nargs="*", default=["src/repro"], type=Path,
        help="files or directories to analyze (default: src/repro)",
    )
    p_analysis_report.add_argument("--select", default=None,
                                   help="comma-separated rule ids to run")
    p_analysis_report.add_argument("--json", action="store_true", dest="as_json",
                                   help="emit JSON instead of the table")
    p_analysis_report.set_defaults(func=cmd_analysis_report)
    p_analysis_deps = analysis_sub.add_parser(
        "deps", help="render the eager import graph with layer ranks"
    )
    p_analysis_deps.add_argument(
        "paths", nargs="*", default=["src/repro"], type=Path,
        help="source tree to index (default: src/repro)",
    )
    p_analysis_deps.add_argument("--dot", action="store_true",
                                 help="emit Graphviz DOT instead of text")
    p_analysis_deps.add_argument("--modules", action="store_true",
                                 help="module-level graph (default collapses "
                                      "to subpackages)")
    p_analysis_deps.set_defaults(func=cmd_analysis_deps)

    p_eval = sub.add_parser("evaluate", help="Figure 4/5 method sweep")
    _add_corpus_args(p_eval)
    p_eval.add_argument("--thetas", default="0.1,0.5,1.0")
    p_eval.add_argument("--folds-run", type=int, default=1)
    p_eval.add_argument(
        "--methods", nargs="*", default=None,
        help="subset of: FakeDetector lp deepwalk line svm rnn",
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_tune = sub.add_parser("tune", help="grid-search FakeDetector hyperparameters")
    _add_corpus_args(p_tune)
    p_tune.add_argument("--epochs", type=int, default=30)
    p_tune.add_argument("--inner-folds", type=int, default=3)
    p_tune.add_argument(
        "--grid", default="gdu_hidden=16,32;diffusion_iterations=1,2",
        help="semicolon-separated field=v1,v2 axes",
    )
    p_tune.set_defaults(func=cmd_tune)

    p_report = sub.add_parser(
        "report", help="write the full reproduction artifact set to a directory"
    )
    _add_corpus_args(p_report)
    p_report.add_argument("output", type=Path)
    p_report.add_argument("--thetas", default="0.1,0.5,1.0")
    p_report.add_argument("--folds-run", type=int, default=1)
    p_report.set_defaults(func=cmd_report)
    return parser


def cmd_obs_report(args) -> int:
    """Render a trace JSONL file: span self-time tree + op profile tables."""
    import json

    from .obs import render_trace_file, report_to_dict

    if args.as_json:
        print(json.dumps(report_to_dict(args.trace), indent=2, sort_keys=True))
    else:
        print(render_trace_file(args.trace))
    return 0


def cmd_obs_trace(args) -> int:
    """Render one merged per-request timeline from a trace-dir store."""
    import json

    from .obs import TraceStore, render_timeline, timeline_to_dict

    store = TraceStore(args.trace_dir)
    try:
        records = store.read(args.trace_id)
    except (FileNotFoundError, ValueError) as exc:
        print(f"trace {args.trace_id} not found in {args.trace_dir}: {exc}",
              file=sys.stderr)
        return 1
    finally:
        store.close()
    if args.as_json:
        print(json.dumps(timeline_to_dict(records), indent=2, sort_keys=True))
    else:
        print(render_timeline(records))
    return 0


def cmd_obs_flame(args) -> int:
    """Render one sampling profile, or diff two by per-frame self time."""
    import json

    from .obs import (
        RunRegistry,
        diff_profiles,
        render_diff,
        render_top,
        write_flamegraph,
    )

    registry = RunRegistry(args.runs_dir)
    try:
        profile = registry.load_profile(args.ref)
        other = (
            registry.load_profile(args.diff) if args.diff is not None else None
        )
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if other is not None:
        diff = diff_profiles(profile, other, limit=args.limit)
        if args.as_json:
            print(json.dumps(diff, indent=2, sort_keys=True))
        else:
            print(render_diff(diff, limit=args.limit))
    elif args.as_json:
        print(json.dumps(profile.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_top(profile, limit=args.limit))
    if args.svg:
        # Single profile: its own flamegraph. With --diff: the OTHER
        # profile's tree, heat-colored by self-share movement vs ref.
        write_flamegraph(
            profile if other is None else other,
            args.svg,
            baseline=None if other is None else profile,
        )
        print(f"wrote flamegraph to {args.svg}", file=sys.stderr)
    return 0


def cmd_obs_diff(args) -> int:
    """Regression-gate two run records; exit 1 when a metric regressed."""
    import json

    from .obs import RunRegistry, diff_runs, parse_threshold_specs

    registry = RunRegistry(args.runs_dir)
    diff = diff_runs(
        registry.load(args.a),
        registry.load(args.b),
        thresholds=parse_threshold_specs(args.threshold),
    )
    if args.as_json:
        print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
    else:
        print(diff.render())
    return 0 if diff.ok else 1


def cmd_obs_runs(args) -> int:
    """Tabulate the persisted run records of one registry directory."""
    from time import gmtime, strftime

    from .obs import RunRegistry

    registry = RunRegistry(args.runs_dir)
    records = registry.list(kind=args.kind)
    if not records:
        print(f"no run records in {registry.root}")
        return 0
    print(f"{'run_id':<36s} {'kind':<10s} {'created (UTC)':<20s} "
          f"{'git':<8s} metrics")
    for record in records:
        created = strftime("%Y-%m-%d %H:%M:%S", gmtime(record.created_ts))
        sha = (record.git_sha or "-")[:7]
        headline = ", ".join(
            f"{k}={record.metrics[k]:.4g}"
            for k in sorted(record.metrics)[:4]
        )
        print(f"{record.run_id:<36s} {record.kind:<10s} {created:<20s} "
              f"{sha:<8s} {headline}")
    return 0


def _parse_select(spec: Optional[str]) -> Optional[List[str]]:
    if spec is None:
        return None
    return [r.strip() for r in spec.split(",") if r.strip()]


def cmd_lint(args) -> int:
    """Run the selected passes; exit 0 only when the tree is clean.

    With ``--baseline FILE --fail-on-new``, pre-existing findings (by
    line-insensitive fingerprint) are tolerated and only new ones fail.
    """
    import json

    from .analysis import (
        baseline_payload,
        lint_paths,
        load_baseline,
        new_findings,
        render_findings,
    )

    result = lint_paths(
        args.paths,
        select=_parse_select(args.select),
        passes=_parse_select(args.passes),
    )
    if args.write_baseline is not None:
        args.write_baseline.parent.mkdir(parents=True, exist_ok=True)
        args.write_baseline.write_text(
            json.dumps(baseline_payload(result), indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(
            f"wrote baseline ({len(result.findings)} fingerprints) to "
            f"{args.write_baseline}"
        )
        return 0
    if args.as_json:
        print(result.to_json())
    else:
        print(render_findings(result, fix_hints=args.fix_hints))
    if args.baseline is not None and args.fail_on_new:
        fresh = new_findings(result, load_baseline(args.baseline))
        if fresh:
            print(f"{len(fresh)} findings not in baseline {args.baseline}")
            return 1
        return 1 if result.errors else 0
    return 0 if result.clean else 1


def cmd_analysis_report(args) -> int:
    """Per-rule summary over the same findings ``repro lint`` reports."""
    import json

    from .analysis import lint_paths, render_summary, summarize

    result = lint_paths(args.paths, select=_parse_select(args.select))
    if args.as_json:
        print(json.dumps(summarize(result), indent=2, sort_keys=True))
    else:
        print(render_summary(result))
    return 0 if result.clean else 1


def cmd_analysis_deps(args) -> int:
    """Render the eager import graph (text adjacency or Graphviz DOT)."""
    from .analysis import ProgramIndex, render_deps
    from .analysis.lint import iter_python_files

    index = ProgramIndex(package="repro")
    for path in iter_python_files(args.paths):
        index.add_source(path.as_posix(), path.read_text(encoding="utf-8"))
    print(render_deps(index, dot=args.dot, collapse=not args.modules))
    return 0


def cmd_report(args) -> int:
    from .experiments import generate_full_report

    dataset = _load_or_generate(args)
    thetas = tuple(float(t) for t in args.thetas.split(","))
    paths = generate_full_report(
        dataset, args.output, thetas=thetas, folds=args.folds_run,
        seed=args.seed, verbose=True,
    )
    print(paths.summary.read_text())
    print(f"artifacts written to {paths.directory}")
    return 0


def _read_requests(path: Optional[Path]):
    """Parse JSONL article requests from a file or stdin."""
    import json

    from .serve import ArticleRequest

    stream = path.open() if path else sys.stdin
    try:
        requests = []
        for line in stream:
            line = line.strip()
            if not line:
                continue
            requests.append(ArticleRequest.from_dict(json.loads(line)))
        return requests
    finally:
        if path:
            stream.close()


def cmd_infer(args) -> int:
    """One-shot scoring: load checkpoint, answer a batch, exit.

    Emits a single ``repro.serve.response/1`` document on stdout, the same
    schema the HTTP service speaks.
    """
    import json
    from time import perf_counter

    from .serve import InferenceSession, PredictResponse, checkpoint_digest

    detector = FakeDetector.load(args.model)
    requests = _read_requests(args.articles)
    session = InferenceSession(detector)
    start = perf_counter()
    predictions = session.predict(requests, return_proba=args.proba)
    response = PredictResponse.from_predictions(
        predictions,
        model_digest=checkpoint_digest(args.model),
        timing={"total_ms": 1e3 * (perf_counter() - start)},
    )
    print(json.dumps(response.to_dict()))
    print(session.metrics.render(), file=sys.stderr)
    return 0


def _build_slo_rules(args):
    from .obs import default_serving_rules

    return default_serving_rules(
        p95_latency_s=(
            args.slo_p95_ms / 1e3 if args.slo_p95_ms is not None else None
        ),
        error_rate=args.slo_error_rate,
        queue_wait_p95_s=(
            args.slo_queue_wait_ms / 1e3
            if args.slo_queue_wait_ms is not None else None
        ),
        drift_psi=args.slo_drift_psi,
        window_seconds=args.slo_window,
    )


def cmd_serve_http(args) -> int:
    """Run the multi-process sharded prediction service.

    ``POST /v1/predict`` speaks ``repro.serve.request/1`` →
    ``response/1``; ``GET /v1/healthz`` reports pool + SLO state (503 when
    degraded); ``GET /metrics`` serves the Prometheus registry;
    ``GET /debug/profile?seconds=N`` captures a merged per-shard sampling
    profile (continuous when ``--profile-hz`` is set, on-demand otherwise).
    ``--export`` additionally flushes the registry to a file on an
    interval (the PR 4 :class:`repro.obs.PeriodicExporter`).
    """
    import time as time_mod

    from .obs import PeriodicExporter, SloMonitor
    from .serve import PredictionService

    service = PredictionService(
        args.model,
        workers=args.workers,
        shards=args.shards,
        host=args.host,
        port=args.port,
        max_batch_size=args.max_batch_size,
        max_wait=args.max_wait,
        max_queue_depth=args.queue_depth,
        request_timeout=args.timeout,
        feature_cache_size=args.cache_size,
        trace_dir=args.trace_dir,
        drift_baseline=args.drift_baseline,
        drift_threshold=args.drift_threshold,
        profile_hz=args.profile_hz,
    )
    rules = _build_slo_rules(args)
    monitor = None
    if rules:
        monitor = SloMonitor(rules, registry=service.metrics.registry)
        service.slo = monitor
    exporter = None
    try:
        service.start()
        print(
            f"serving {args.model} at {service.url} "
            f"(workers={args.workers}, shards={args.shards}, "
            f"digest={service.model_digest})",
            file=sys.stderr,
        )
        if args.export is not None:
            exporter = PeriodicExporter(
                service.metrics.registry,
                args.export,
                interval=args.export_interval,
                fmt=args.export_format,
            ).start()
        if args.duration is not None:
            time_mod.sleep(args.duration)
        else:
            try:
                while True:
                    time_mod.sleep(3600.0)
            except KeyboardInterrupt:
                print("interrupted, shutting down", file=sys.stderr)
    finally:
        if exporter is not None:
            exporter.stop()
        service.close()
    print(service.metrics.render(), file=sys.stderr)
    if monitor is not None and monitor.breached_rules:
        print(f"SLO breached: {', '.join(monitor.breached_rules)}",
              file=sys.stderr)
        return 2
    return 0


def cmd_serve_batch(args) -> int:
    """Long-lived loop: cached-state session + micro-batching queue.

    Reads JSONL requests, submits each through the :class:`BatchQueue`
    (exercising the same coalescing path a network front-end would), emits
    one ``repro.serve.response/1`` line per request, and reports serving
    metrics on exit. ``--metrics-port`` adds a live Prometheus scrape
    endpoint; the ``--slo-*`` budgets attach an
    :class:`repro.obs.SloMonitor` whose breaches flip ``/healthz`` to 503
    and emit structured warning events.
    """
    import json

    from .obs import MetricsServer, SloMonitor
    from .serve import (
        BatchQueue,
        InferenceSession,
        PredictResponse,
        checkpoint_digest,
    )

    detector = FakeDetector.load(args.model)
    digest = checkpoint_digest(args.model)
    rules = _build_slo_rules(args)
    metrics = None
    monitor = None
    session = InferenceSession(detector, feature_cache_size=args.cache_size)
    if rules:
        monitor = SloMonitor(rules, registry=session.metrics.registry)
        session.slo = monitor
    if args.drift_baseline is not None:
        from .obs.drift import BaselineProfile, DriftMonitor, load_baseline

        if args.drift_baseline == "auto":
            baseline = load_baseline(args.model)
        else:
            baseline = BaselineProfile.load(args.drift_baseline)
        if baseline is not None:
            session.drift = DriftMonitor(
                baseline,
                threshold=args.drift_threshold,
                registry=session.metrics.registry,
                slo=monitor,
            )
        else:
            print(f"no drift baseline in {args.model}; monitor disarmed",
                  file=sys.stderr)
    if args.metrics_port is not None:
        metrics = MetricsServer(
            session.metrics.registry,
            port=args.metrics_port,
            health=monitor.health if monitor else None,
        ).start()
        print(f"metrics at {metrics.url}/metrics", file=sys.stderr)
    print(
        f"serving {args.model} "
        f"(max_batch_size={args.max_batch_size}, max_wait={args.max_wait}s)",
        file=sys.stderr,
    )

    def handle(batch):
        return session.predict(batch, return_proba=args.proba)

    try:
        with BatchQueue(handle, max_batch_size=args.max_batch_size,
                        max_wait=args.max_wait,
                        metrics=session.metrics, slo=monitor) as batch_queue:
            pending = [
                (request, batch_queue.submit(request))
                for request in _read_requests(args.input)
            ]
            for _, handle_ in pending:
                response = PredictResponse.from_predictions(
                    [handle_.result(timeout=60.0)], model_digest=digest
                )
                print(json.dumps(response.to_dict()))
    finally:
        if metrics is not None:
            metrics.close()
    print(session.metrics.render(), file=sys.stderr)
    if monitor is not None and monitor.breached_rules:
        print(f"SLO breached: {', '.join(monitor.breached_rules)}",
              file=sys.stderr)
        return 2
    return 0


def _parse_grid(spec: str) -> dict:
    """Parse 'a=1,2;b=0.5,1.0' into {a: [1, 2], b: [0.5, 1.0]}."""
    grid = {}
    for axis in spec.split(";"):
        axis = axis.strip()
        if not axis:
            continue
        if "=" not in axis:
            raise ValueError(f"malformed grid axis {axis!r} (expected field=v1,v2)")
        field, values = axis.split("=", 1)
        parsed = []
        for raw in values.split(","):
            raw = raw.strip()
            try:
                parsed.append(int(raw))
            except ValueError:
                try:
                    parsed.append(float(raw))
                except ValueError:
                    parsed.append(raw)
        grid[field.strip()] = parsed
    if not grid:
        raise ValueError("empty grid")
    return grid


def cmd_tune(args) -> int:
    from .core import FakeDetectorConfig
    from .experiments.tuning import grid_search

    dataset = _load_or_generate(args)
    split = next(
        tri_splits(
            sorted(dataset.articles),
            sorted(dataset.creators),
            sorted(dataset.subjects),
            k=10,
            seed=args.seed,
        )
    )
    base = FakeDetectorConfig(epochs=args.epochs, seed=args.seed)
    grid = _parse_grid(args.grid)
    print(f"grid: {grid}")
    trials = grid_search(
        dataset, split, grid, base_config=base,
        inner_folds=args.inner_folds, seed=args.seed, verbose=True,
    )
    print("\nranking (inner-CV bi-class article accuracy):")
    for trial in trials:
        print(f"  {trial}")
    return 0


def _compat_serve_argv(argv: List[str]) -> List[str]:
    """Rewrite the pre-split ``repro serve MODEL ...`` form to ``serve batch``.

    ``repro serve`` grew ``http``/``batch`` sub-modes; the bare historical
    invocation keeps working (as ``batch``) with a deprecation notice.
    """
    if not argv or argv[0] != "serve" or len(argv) < 2:
        return argv
    mode = argv[1]
    if mode in ("http", "batch") or mode.startswith("-"):
        return argv
    print(
        "deprecated: bare `repro serve MODEL` is now `repro serve batch "
        "MODEL` (see also `repro serve http`)",
        file=sys.stderr,
    )
    return [argv[0], "batch", *argv[1:]]


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_compat_serve_argv(list(argv)))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
