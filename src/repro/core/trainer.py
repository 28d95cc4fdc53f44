"""Training and inference for FakeDetector (paper §4.3).

The objective is the paper's joint loss

    min_W  L(T_n) + L(T_u) + L(T_s) + α · L_reg(W)

optimized full-batch with backpropagation (Adam + gradient clipping). The
trainer owns the feature pipeline so ``fit``/``predict`` operate directly on
a :class:`NewsDataset` and a :class:`TriSplit`.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from ..autograd import functional as F
from ..autograd import no_tape, optim
from ..data.schema import NewsDataset
from ..graph.sampling import TriSplit
from ..obs import get_logger, get_registry, trace
from .config import FakeDetectorConfig
from .model import FakeDetectorModel
from .pipeline import (
    GraphIndex,
    PipelineOutput,
    build_features,
    build_graph_index,
    with_explicit_dtype,
)
from .predictions import Prediction, predictions_from_logits


@dataclasses.dataclass
class TrainingRecord:
    """Loss trajectory of one fit() call.

    Alongside the paper's per-kind loss curves this keeps the operational
    trajectory — per-epoch wall time and pre-clip gradient norm — so a run
    is diagnosable after the fact without re-training (and the convergence
    figures can be annotated with cost).
    """

    total: List[float] = dataclasses.field(default_factory=list)
    article: List[float] = dataclasses.field(default_factory=list)
    creator: List[float] = dataclasses.field(default_factory=list)
    subject: List[float] = dataclasses.field(default_factory=list)
    #: per-epoch validation bi-class article accuracy (only populated when
    #: FakeDetectorConfig.validation_fraction > 0)
    validation: List[float] = dataclasses.field(default_factory=list)
    #: per-epoch wall-clock seconds
    epoch_seconds: List[float] = dataclasses.field(default_factory=list)
    #: per-epoch global gradient L2 norm before clipping (mean over
    #: minibatch steps when batch_size is set)
    grad_norms: List[float] = dataclasses.field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.total[-1] if self.total else float("nan")

    @property
    def total_seconds(self) -> float:
        return sum(self.epoch_seconds)

    def per_kind(self, epoch: int) -> Dict[str, float]:
        """The three per-kind losses of one (0-based) epoch."""
        return {
            "article": self.article[epoch],
            "creator": self.creator[epoch],
            "subject": self.subject[epoch],
        }

    def to_dict(self) -> Dict[str, List[float]]:
        """JSON-ready form: every per-epoch series plus summary scalars.

        This is the payload :class:`repro.obs.RunRecord` stores under
        ``series``, so a persisted run can be diffed and re-plotted without
        re-training.
        """
        return {
            "total": list(self.total),
            "article": list(self.article),
            "creator": list(self.creator),
            "subject": list(self.subject),
            "validation": list(self.validation),
            "epoch_seconds": list(self.epoch_seconds),
            "grad_norms": list(self.grad_norms),
        }


class FakeDetector:
    """High-level estimator: fit on a split, predict credibility labels.

    This is the public entry point of the reproduction::

        detector = FakeDetector(FakeDetectorConfig(epochs=40))
        detector.fit(dataset, split)
        predictions = detector.predict("article")   # {article_id: class_index}
    """

    def __init__(self, config: Optional[FakeDetectorConfig] = None):
        self.config = config or FakeDetectorConfig()
        self.model: Optional[FakeDetectorModel] = None
        self.features: Optional[PipelineOutput] = None
        self.graph: Optional[GraphIndex] = None
        self.record = TrainingRecord()
        self._session = None  # lazily-built repro.serve.InferenceSession
        self._sanitizer = None  # active repro.analysis Sanitizer during fit
        self.sanitizer_stats = None  # counters from the last sanitized fit

    # ------------------------------------------------------------------
    def fit(
        self, dataset: NewsDataset, split: TriSplit, sanitize: bool = False
    ) -> "FakeDetector":
        """Train on the split's training ids; test labels are never read.

        With ``sanitize=True`` every tape op runs under the
        :class:`repro.analysis.Sanitizer` — NaN/Inf guards on forward
        outputs and backward gradients, plus in-place-mutation checksums on
        arrays captured by backward closures — and a dead-parameter audit
        is logged after the first epoch. The sanitizer is read-only, so
        losses are bit-identical with or without it.
        """
        config = self.config
        rng = np.random.default_rng(config.seed)
        self.features = build_features(
            dataset,
            split.articles.train,
            split.creators.train,
            split.subjects.train,
            explicit_dim=config.explicit_dim,
            vocab_size=config.vocab_size,
            max_seq_len=config.max_seq_len,
            word_selection=config.word_selection,
            normalize_explicit=config.normalize_explicit,
            explicit_weighting=config.explicit_weighting,
        )
        self.graph = build_graph_index(dataset, self.features)
        explicit_dims = {
            "article": self.features.articles.explicit.shape[1],
            "creator": self.features.creators.explicit.shape[1],
            "subject": self.features.subjects.explicit.shape[1],
        }
        self.model = FakeDetectorModel(
            config, rng=rng, explicit_dims=explicit_dims,
            vocab_rows=len(self.features.vocab),
        )
        # One cast per fit; every step's HFLU then receives float32 as is.
        self.features = with_explicit_dtype(self.features, self.model.dtype)

        train_rows = {
            "article": self._labeled_rows(self.features.articles, split.articles.train),
            "creator": self._labeled_rows(self.features.creators, split.creators.train),
            "subject": self._labeled_rows(self.features.subjects, split.subjects.train),
        }
        validation_rows = np.array([], dtype=np.intp)
        if config.validation_fraction > 0:
            articles = train_rows["article"]
            k = max(1, int(round(config.validation_fraction * articles.size)))
            if k >= articles.size:
                raise ValueError("validation split would consume the whole train set")
            chosen = rng.choice(articles.size, size=k, replace=False)
            mask = np.zeros(articles.size, dtype=bool)
            mask[chosen] = True
            validation_rows = articles[mask]
            train_rows = dict(train_rows)
            train_rows["article"] = articles[~mask]

        params = list(self.model.parameters())
        optimizer = optim.Adam(params, lr=config.learning_rate)
        self.record = TrainingRecord()
        logger = get_logger("train")

        if sanitize:
            from ..analysis.sanitize import Sanitizer

            self._sanitizer = Sanitizer()
            self._sanitizer.start()
        try:
            self._fit_loop(config, train_rows, validation_rows, params,
                           optimizer, rng, logger)
        finally:
            if self._sanitizer is not None:
                stats = self._sanitizer.stats
                self._sanitizer.stop()
                self._sanitizer = None
                self.sanitizer_stats = stats.to_dict()
                logger.info("sanitizer", **self.sanitizer_stats)
        self._session = None  # cached serve state is stale after refitting
        return self

    def _fit_loop(
        self, config, train_rows, validation_rows, params, optimizer, rng, logger
    ) -> None:
        """The epoch loop of :meth:`fit` (split out so the sanitizer wraps it)."""
        best_score = -float("inf")  # watched quantity, higher = better
        best_state = None
        stale = 0
        registry = get_registry()
        with trace(
            "fit",
            epochs=config.epochs,
            batch_size=config.batch_size,
            train_articles=int(train_rows["article"].size),
        ) as fit_span:
            for epoch in range(config.epochs):
                epoch_start = perf_counter()
                with trace("epoch", epoch=epoch + 1) as span:
                    self.model.train()
                    if config.batch_size is None:
                        losses, stats = self._full_batch_step(
                            train_rows, params, optimizer
                        )
                    else:
                        losses, stats = self._minibatch_epoch(
                            train_rows, params, optimizer, rng
                        )

                    seconds = perf_counter() - epoch_start
                    self.record.total.append(losses["total"])
                    self.record.article.append(losses.get("article", 0.0))
                    self.record.creator.append(losses.get("creator", 0.0))
                    self.record.subject.append(losses.get("subject", 0.0))
                    self.record.epoch_seconds.append(seconds)
                    self.record.grad_norms.append(stats["grad_norm"])
                    # Publish the epoch to the global registry so a live
                    # PeriodicExporter can flush training progress while
                    # fit() runs.
                    registry.counter("train.epochs").inc()
                    registry.gauge("train.loss").set(losses["total"])
                    registry.gauge("train.grad_norm").set(stats["grad_norm"])
                    registry.histogram("train.epoch_seconds").observe(seconds)
                    span.set(
                        loss_total=losses["total"],
                        loss_article=losses.get("article", 0.0),
                        loss_creator=losses.get("creator", 0.0),
                        loss_subject=losses.get("subject", 0.0),
                        grad_norm=stats["grad_norm"],
                        steps=stats["steps"],
                        seconds=seconds,
                    )
                    if config.log_every and (epoch + 1) % config.log_every == 0:
                        logger.info(
                            "epoch",
                            epoch=epoch + 1,
                            loss=losses["total"],
                            loss_article=losses.get("article", 0.0),
                            loss_creator=losses.get("creator", 0.0),
                            loss_subject=losses.get("subject", 0.0),
                            grad_norm=stats["grad_norm"],
                            seconds=seconds,
                        )

                    if self._sanitizer is not None and epoch == 0:
                        for dead in self._audit_dead_parameters():
                            logger.warning(
                                "dead_parameter",
                                parameter=dead.name,
                                shape=str(dead.shape),
                                reason=dead.reason,
                            )

                    if config.early_stop_patience:
                        if validation_rows.size:
                            score = self._validation_accuracy(validation_rows)
                            self.record.validation.append(score)
                            span.set(validation_accuracy=score)
                        else:
                            score = -self.record.total[-1]
                        if score > best_score + 1e-5:
                            best_score = score
                            stale = 0
                            if validation_rows.size:
                                best_state = self.model.state_dict()
                        else:
                            stale += 1
                            if (
                                stale >= config.early_stop_patience
                                and epoch + 1 >= config.early_stop_min_epochs
                            ):
                                logger.debug(
                                    "early_stop", epoch=epoch + 1, best=best_score
                                )
                                break
            fit_span.set(
                epochs_run=len(self.record.total),
                final_loss=self.record.final_loss,
                total_seconds=self.record.total_seconds,
            )
        if best_state is not None:
            self.model.load_state_dict(best_state)

    def _audit_dead_parameters(self):
        """Dead-parameter audit on the grads of the step just taken."""
        from ..analysis.sanitize import audit_parameters

        return audit_parameters(self.model.named_parameters())

    def _validation_accuracy(self, validation_rows: np.ndarray) -> float:
        """Bi-class article accuracy on the held-out validation rows."""
        logits = self.predict_logits()["article"]
        predictions = logits[validation_rows].argmax(axis=1)
        truth = self.features.articles.labels[validation_rows]
        return float(((predictions >= 3) == (truth >= 3)).mean())

    # ------------------------------------------------------------------
    def _joint_loss(self, logits, features: PipelineOutput, rows_by_kind, params):
        """L(T_n) + L(T_u) + L(T_s) + α·L_reg over the given label rows."""
        from ..data.schema import NUM_CLASSES

        config = self.config
        losses = {}
        total = None
        for kind, ent in (
            ("article", features.articles),
            ("creator", features.creators),
            ("subject", features.subjects),
        ):
            rows = rows_by_kind[kind]
            if rows.size == 0:
                losses[kind] = 0.0
                continue
            class_weights = None
            if config.class_weighted_loss:
                class_weights = F.inverse_frequency_weights(
                    ent.labels[rows], NUM_CLASSES
                )
            loss = F.cross_entropy(
                logits[kind][rows], ent.labels[rows], class_weights=class_weights
            )
            losses[kind] = float(loss.item())
            total = loss if total is None else total + loss
        if total is None:
            raise ValueError("no labeled training nodes in any split")
        if config.alpha > 0:
            total = total + F.l2_regularization(params, config.alpha)
        losses["total"] = float(total.item())
        return total, losses

    def _apply_gradients(self, total, params, optimizer) -> float:
        """Backward + clip + step; returns the pre-clip global grad norm."""
        optimizer.zero_grad()
        with trace("backward"):
            total.backward()
        if self.config.grad_clip > 0:
            norm = optim.clip_grad_norm(params, self.config.grad_clip)
        else:
            norm = optim.global_grad_norm(params)
        if self._sanitizer is not None:
            # Verify mutation checksums before the optimizer's sanctioned
            # in-place parameter update, then drop them so the cache cannot
            # pin old graphs alive across steps.
            self._sanitizer.flush()
        optimizer.step()
        return norm

    def _full_batch_step(self, train_rows, params, optimizer):
        """One full-graph gradient step (the paper's training regime)."""
        with trace("step"):
            with trace("forward"):
                logits = self.model(self.features, self.graph)
            total, losses = self._joint_loss(
                logits, self.features, train_rows, params
            )
            norm = self._apply_gradients(total, params, optimizer)
        return losses, {"grad_norm": norm, "steps": 1}

    def _minibatch_epoch(self, train_rows, params, optimizer, rng):
        """One epoch of neighbor-sampled subgraph steps.

        Each step induces the subgraph of a batch of *training* articles
        plus their creators/subjects; supervision covers the batch articles
        and any train-labeled creators/subjects that landed in the subgraph.
        """
        from .pipeline import subgraph_view

        config = self.config
        article_rows = train_rows["article"]
        if article_rows.size == 0:
            raise ValueError("minibatch training requires labeled train articles")
        train_creator_set = set(train_rows["creator"].tolist())
        train_subject_set = set(train_rows["subject"].tolist())
        order = rng.permutation(article_rows.size)
        accumulated = {"total": 0.0, "article": 0.0, "creator": 0.0, "subject": 0.0}
        norm_sum = 0.0
        steps = 0
        for start in range(0, order.size, config.batch_size):
            batch = article_rows[order[start : start + config.batch_size]]
            sub_features, sub_graph = subgraph_view(self.features, self.graph, batch)
            # Map train-labeled creators/subjects into subgraph rows.
            creator_rows = np.asarray(
                [
                    i
                    for i, eid in enumerate(sub_features.creators.ids)
                    if self.features.creators.index[eid] in train_creator_set
                    and sub_features.creators.labels[i] >= 0
                ],
                dtype=np.intp,
            )
            subject_rows = np.asarray(
                [
                    i
                    for i, eid in enumerate(sub_features.subjects.ids)
                    if self.features.subjects.index[eid] in train_subject_set
                    and sub_features.subjects.labels[i] >= 0
                ],
                dtype=np.intp,
            )
            rows_by_kind = {
                "article": np.arange(batch.size, dtype=np.intp),
                "creator": creator_rows,
                "subject": subject_rows,
            }
            with trace("step", batch=int(batch.size)):
                with trace("forward"):
                    logits = self.model(sub_features, sub_graph)
                total, losses = self._joint_loss(
                    logits, sub_features, rows_by_kind, params
                )
                norm_sum += self._apply_gradients(total, params, optimizer)
            for key in accumulated:
                accumulated[key] += losses.get(key, 0.0)
            steps += 1
        losses = {key: value / max(1, steps) for key, value in accumulated.items()}
        return losses, {"grad_norm": norm_sum / max(1, steps), "steps": steps}

    @staticmethod
    def _labeled_rows(entity, train_ids) -> np.ndarray:
        rows = entity.rows(train_ids)
        return rows[entity.labels[rows] >= 0]

    # ------------------------------------------------------------------
    def predict_logits(self) -> Dict[str, np.ndarray]:
        """Raw (n, 6) logits per node type for the whole network.

        A tape-free forward (the same bytes as a taped one), so it records
        nothing for the op observers.
        """
        if self.model is None:
            raise RuntimeError("fit() must be called before predict")
        self.model.eval()
        with no_tape():
            logits = self.model(self.features, self.graph)
        return {kind: t.data.copy() for kind, t in logits.items()}

    def predictions(self, kind: str, *, return_proba: bool = False) -> List[Prediction]:
        """The unified prediction path: one :class:`Prediction` per node.

        Every other transductive surface (``predict``, ``predict_proba``)
        is a thin view over this list, so class decisions and probability
        numerics are computed in exactly one place.
        """
        logits = self.predict_logits()[kind]
        return predictions_from_logits(
            self.features.by_type(kind).ids, logits, return_proba=return_proba
        )

    def predict(self, kind: str, *, return_proba: bool = False):
        """Predicted class for every node of ``kind``.

        By default returns the historical ``{entity_id: class index 0..5}``
        dict; with ``return_proba=True`` returns ``{entity_id:
        Prediction}`` records carrying the full softmax distribution.
        """
        preds = self.predictions(kind, return_proba=return_proba)
        if return_proba:
            return {p.entity_id: p for p in preds}
        return {p.entity_id: p.class_index for p in preds}

    def predict_proba(self, kind: str) -> Dict[str, np.ndarray]:
        """Softmax class distribution for every node of ``kind``.

        Thin wrapper over :meth:`predictions`; probabilities come from the
        autograd ``functional.softmax`` so serve-time and train-time
        numerics can never drift.
        """
        preds = self.predictions(kind, return_proba=True)
        return {p.entity_id: p.proba for p in preds}

    # ------------------------------------------------------------------
    def session(self, refresh: bool = False, **kwargs):
        """The detector's cached :class:`repro.serve.InferenceSession`.

        Built lazily on first use (one full-graph forward pass) and reused
        until the next :meth:`fit`. Pass ``refresh=True`` after mutating
        the model/features out-of-band; keyword arguments (cache size,
        shard context, drift monitor) force a fresh, uncached session.
        """
        from ..serve.session import InferenceSession

        if self.model is None:
            raise RuntimeError("fit() must be called before building a session")
        if kwargs:
            return InferenceSession(self, **kwargs)
        if refresh or self._session is None:
            self._session = InferenceSession(self)
        return self._session

    def predict_new_articles(self, articles) -> Dict[str, int]:
        """Inductive inference: credibility of articles NOT in the trained graph.

        Each :class:`repro.data.Article` must reference creators/subjects by
        id; ids present in the trained network contribute their learned GDU
        states, unknown ids fall back to the zero default (§4.2's unused-port
        convention). The article's own features come from the fitted
        pipeline's vocabulary and word sets.

        Routed through the cached :meth:`session`, so transient scripts and
        the long-lived server share one code path — the full-graph state
        pass runs once per fitted model, not once per call.

        Returns ``{article_id: class index 0..5}``.
        """
        if self.model is None:
            raise RuntimeError("fit() must be called before predict_new_articles")
        if not articles:
            return {}
        ids = [a.article_id for a in articles]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate article ids in inductive batch")
        preds = self.session().predict(articles)
        return {p.entity_id: p.class_index for p in preds}

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist the fitted detector (config, pipeline, graph, weights).

        See :mod:`repro.serve.checkpoint` for the directory layout; the
        round trip reproduces bit-identical :meth:`predict_logits` output.
        """
        from ..serve.checkpoint import save_detector

        save_detector(self, path)

    @classmethod
    def load(cls, path) -> "FakeDetector":
        """Rebuild a fitted detector from a :meth:`save` directory."""
        from ..serve.checkpoint import load_detector

        return load_detector(path)
