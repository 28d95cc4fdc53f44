"""Benchmark child processes: corpus preparation, training, reference scoring.

Each subcommand runs in a fresh interpreter started by ``run.py`` with the
checkout's ``src`` on ``PYTHONPATH``:

``prepare``    generate the seed's corpus file (and, for serving, train and
               save the checkpoint and write the article table);
``train``      one training workload process: load the corpus through
               ``repro.data.load_dataset``, fit, and write the step clock,
               loss curves and test-split classes to a JSON file;
``reference``  score served articles with an in-process InferenceSession.

The untraced training process has one hook, the step clock: it patches
``Adam.__init__`` (the trainer builds its optimizer right before the first
step) and ``Adam.step`` to read ``perf_counter``. Step ``k`` lasts from the
end of step ``k-1`` (or the optimizer's construction) to the end of step
``k``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

TRAIN_FOLDS = 10

#: Model sizes for the benchmark's own tests (``run.py --toy``).
TOY_MODEL = dict(explicit_dim=20, vocab_size=300, max_seq_len=8, embed_dim=4,
                 rnn_hidden=6, latent_dim=4, gdu_hidden=8)


class SetupDone(Exception):
    """Raised by the step clock of a set-up-only process at its first step."""


class StepClock:
    """``perf_counter`` at each fit's optimizer construction and step ends."""

    def __init__(self, setup_only: bool):
        self.setup_only = setup_only
        self.fits = []  # one list of marks per fit

    def install(self) -> None:
        from repro.autograd import optim

        init, step = optim.Adam.__init__, optim.Adam.step
        clock = self

        def timed_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            clock.fits.append([time.perf_counter()])
            if clock.setup_only:
                raise SetupDone()

        def timed_step(self):
            step(self)
            clock.fits[-1].append(time.perf_counter())

        optim.Adam.__init__ = timed_init
        optim.Adam.step = timed_step


def _split(dataset):
    from repro.graph.sampling import tri_splits

    return next(tri_splits(
        sorted(dataset.articles), sorted(dataset.creators),
        sorted(dataset.subjects), k=TRAIN_FOLDS, seed=0,
    ))


def _config(args, **overrides):
    from repro import FakeDetectorConfig

    sizes = TOY_MODEL if args.toy else {}
    return FakeDetectorConfig(**{**sizes, **overrides})


def loss_digest(losses) -> str:
    """SHA-256 of the exact float64 loss curve."""
    return hashlib.sha256(
        ",".join(float(x).hex() for x in losses).encode()
    ).hexdigest()[:16]


def cmd_prepare(args) -> None:
    from repro.data import generate_dataset, load_dataset, save_dataset

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus = out / "corpus.jsonl"
    save_dataset(generate_dataset(scale=args.scale, seed=args.seed), corpus)
    if args.checkpoint_epochs:
        from repro import FakeDetector

        dataset = load_dataset(corpus)
        detector = FakeDetector(_config(args, epochs=args.checkpoint_epochs))
        detector.fit(dataset, _split(dataset)).save(out / "ckpt")
        table = [
            [a.text, a.creator_id, list(a.subject_ids), a.label.class_index]
            for a in dataset.articles.values()
        ]
        (out / "articles.json").write_text(json.dumps(table))


def cmd_train(args) -> None:
    clock = StepClock(args.setup_only)
    result = {"fits": [], "failed_steps": 0, "error": None}
    out = Path(args.out)
    log = None
    try:
        from repro import FakeDetector
        from repro.data import load_dataset

        dataset = load_dataset(args.corpus)
        split = _split(dataset)
        sizes = {"epochs": args.epochs} if args.epochs else {}
        config = _config(args, batch_size=args.batch_size, **sizes)
        if args.trace_dir:
            from spans import TRAIN_TARGETS, SpanLog, install

            log = SpanLog()
            install(log, TRAIN_TARGETS)
        clock.install()
        result["train_articles"] = len(split.articles.train)
        while True:
            try:
                detector = FakeDetector(config).fit(dataset, split)
            except SetupDone:
                result["setup_end"] = clock.fits[0][0]
                return
            losses = detector.record.total
            fit = {"marks": clock.fits[-1], "losses": losses,
                   "digest": loss_digest(losses)}
            if not result["fits"]:
                predicted = detector.predict("article")
                fit["test"] = [
                    [predicted[a], dataset.articles[a].label.class_index]
                    for a in split.articles.test
                ]
            result["fits"].append(fit)
            # The record keeps one loss per epoch (a minibatch epoch's is
            # the mean of its steps), so a non-finite epoch fails its steps.
            steps_per_epoch = (len(clock.fits[-1]) - 1) // len(losses)
            result["failed_steps"] += steps_per_epoch * sum(
                1 for x in losses if not math.isfinite(x)
            )
            timed = sum(len(f["marks"]) - 2 for f in result["fits"])
            elapsed = clock.fits[-1][-1] - clock.fits[0][0]
            if elapsed >= args.max_seconds:
                break
            if elapsed >= args.seconds and timed >= args.min_samples:
                break
    except Exception:  # reported, and fails the run in run.py
        result["error"] = traceback.format_exc()
    finally:
        result["rss_peak_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if log is not None:
            log.flush(args.trace_dir, "train")
        out.write_text(json.dumps(result))


def cmd_reference(args) -> None:
    from repro.serve import InferenceSession, load_detector
    from repro.serve.protocol import encode_prediction
    from repro.serve.session import ArticleRequest

    payloads = json.loads(Path(args.requests).read_text())
    session = InferenceSession(load_detector(args.checkpoint))
    predictions = session.predict(
        [ArticleRequest.from_dict(p) for p in payloads], return_proba=True
    )
    Path(args.out).write_text(
        json.dumps([encode_prediction(p) for p in predictions])
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    prep = sub.add_parser("prepare")
    prep.add_argument("--scale", type=float, required=True)
    prep.add_argument("--seed", type=int, required=True)
    prep.add_argument("--checkpoint-epochs", type=int, default=0)
    prep.add_argument("--toy", action="store_true")
    prep.add_argument("--out", required=True)
    train = sub.add_parser("train")
    train.add_argument("--corpus", required=True)
    train.add_argument("--batch-size", type=int, default=None)
    train.add_argument("--epochs", type=int, default=None,
                       help="epochs per fit (default: the config's)")
    train.add_argument("--seconds", type=float, required=True)
    train.add_argument("--min-samples", type=int, required=True)
    train.add_argument("--max-seconds", type=float, required=True)
    train.add_argument("--setup-only", action="store_true")
    train.add_argument("--trace-dir", default=None)
    train.add_argument("--toy", action="store_true")
    train.add_argument("--out", required=True)
    ref = sub.add_parser("reference")
    ref.add_argument("--checkpoint", required=True)
    ref.add_argument("--requests", required=True)
    ref.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    {"prepare": cmd_prepare, "train": cmd_train,
     "reference": cmd_reference}[args.command](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
