"""Cached-state inference sessions: O(batch) scoring against a fitted graph.

``FakeDetector.predict_new_articles`` historically re-ran the full-graph
``forward_with_states`` on *every* call, so per-request latency scaled with
the whole News-HSN. Following the amortization argument of "Fake News Quick
Detection on Dynamic Heterogeneous Information Networks" (arXiv 2205.07039),
an :class:`InferenceSession` runs that expensive pass exactly once at
construction, caches the creator/subject GDU hidden states and row indices,
and then answers article queries with a forward over the batch alone:
HFLU(text) → article GDU against cached neighbor states → softmax head.
Unknown creators/subjects fall back to the zero state — FAKEDETECTOR §4.2's
unused-port convention.
"""

from __future__ import annotations

import dataclasses
import hashlib
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..autograd import Tensor, no_tape
from ..core.pipeline import with_explicit_dtype
from ..core.predictions import Prediction, predictions_from_logits
from ..obs import trace
from ..text.sequences import encode_batch
from ..text.tokenizer import tokenize
from .cache import LRUCache
from .metrics import ServingMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.trainer import FakeDetector


@dataclasses.dataclass
class ArticleRequest:
    """A serve-time scoring request: the duck-typed subset of ``Article``.

    Incoming statements have no ground-truth label, so the server accepts
    this lightweight record (or any object with the same attributes,
    including :class:`repro.data.Article`).
    """

    article_id: str
    text: str
    creator_id: str = ""
    subject_ids: List[str] = dataclasses.field(default_factory=list)

    @classmethod
    def from_dict(cls, payload: Dict) -> "ArticleRequest":
        return cls(
            article_id=str(payload["article_id"]),
            text=str(payload.get("text", "")),
            creator_id=str(payload.get("creator_id", "") or ""),
            subject_ids=[str(s) for s in payload.get("subject_ids", [])],
        )


def _text_key(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


class InferenceSession:
    """Persistent serving wrapper around a fitted :class:`FakeDetector`.

    Parameters
    ----------
    detector:
        A fitted detector (freshly trained or :meth:`FakeDetector.load`-ed).
    feature_cache_size:
        LRU capacity for per-text feature vectors (0 disables the cache).
    drift:
        Optional :class:`repro.obs.DriftMonitor`. When set, every article
        batch's explicit features and logits feed the monitor's rolling
        window, so PSI/KL drift is measured exactly where the prediction
        happens.

    The constructor performs the single full-graph forward pass; afterwards
    :meth:`predict` never touches the graph again.
    """

    def __init__(
        self,
        detector: "FakeDetector",
        *,
        feature_cache_size: int = 2048,
        drift=None,
    ):
        if detector.model is None or detector.features is None:
            raise RuntimeError("InferenceSession requires a fitted detector")
        self.detector = detector
        self.config = detector.config
        self.metrics = ServingMetrics()
        self.drift = drift
        self._feature_cache = LRUCache(feature_cache_size)

        model = detector.model
        model.eval()
        # Features and cached states are in the model's dtype; a checkpoint
        # that stored float64 features is cast here, once.
        self._dtype = model.dtype
        # The one-and-only full-graph pass: cache every node type's final
        # GDU state plus the row indices needed to look neighbors up.
        with trace(
            "serve.session_init", articles=detector.features.articles.num
        ):
            # Inference-only pass: no_tape skips all autograd bookkeeping.
            with no_tape():
                logits, states = model.forward_with_states(
                    with_explicit_dtype(detector.features, self._dtype),
                    detector.graph,
                )
        self._graph_logits = {kind: t.data.copy() for kind, t in logits.items()}
        self._h_creator = states["creator"].data.copy()
        self._h_subject = states["subject"].data.copy()
        self._creator_rows = dict(detector.features.creators.index)
        self._subject_rows = dict(detector.features.subjects.index)
        self._extractor = detector.features.extractors["article"]
        self._vocab = detector.features.vocab
        # id -> (kind, row) lookup for known-node predictions, resolved in
        # article → creator → subject order (entity namespaces are disjoint
        # in every loader; the order only matters for pathological corpora).
        self._known_nodes: Dict[str, tuple] = {}
        for kind in ("subject", "creator", "article"):
            for eid, row in detector.features.by_type(kind).index.items():
                self._known_nodes[eid] = (kind, row)

    # ------------------------------------------------------------------
    def _encode_batch(self, texts: Sequence[str]):
        """Batched ``(explicit (n, d), sequences (n, T))`` feature encode.

        Cache hits are served from the LRU; all misses in the batch are
        featurized together — the explicit vectors through the CSR sparse
        path (:meth:`repro.text.BagOfWordsExtractor.transform_csr`) instead
        of per-row dense building, the token ids in one ``encode_batch``.
        Explicit vectors are cast to the model's dtype before they are
        cached, so a cache hit needs no cast.
        """
        encoded: List = [None] * len(texts)
        keys: List[str] = []
        miss_idx: List[int] = []
        miss_tokens: List = []
        for i, text in enumerate(texts):
            key = _text_key(text)
            keys.append(key)
            cached = self._feature_cache.get(key)
            if cached is not None:
                self.metrics.record_cache(hit=True)
                encoded[i] = cached
            else:
                self.metrics.record_cache(hit=False)
                miss_idx.append(i)
                miss_tokens.append(tokenize(text))
        if miss_idx:
            explicit = self._extractor.transform(miss_tokens).astype(
                self._dtype, copy=False
            )
            sequences = encode_batch(
                miss_tokens, self._vocab, self.config.max_seq_len
            )
            for j, i in enumerate(miss_idx):
                pair = (explicit[j], sequences[j])
                encoded[i] = pair
                self._feature_cache.put(keys[i], pair)
        return (
            np.stack([e for e, _ in encoded]),
            np.stack([s for _, s in encoded]),
        )

    def predict(
        self,
        articles: Sequence = (),
        *,
        return_proba: bool = False,
        known_ids: Optional[Sequence[str]] = None,
    ) -> List[Prediction]:
        """The one serving entry point: score new articles and/or known nodes.

        Parameters
        ----------
        articles:
            New (inductive) articles — anything with ``article_id``,
            ``text``, ``creator_id`` and ``subject_ids`` attributes
            (``Article`` or :class:`ArticleRequest`). Scored against the
            cached graph states with one batched forward.
        return_proba:
            Attach the 6-class softmax distribution to every prediction.
        known_ids:
            Entity ids already in the trained graph (any node type). Their
            predictions are served from the logits cached at construction —
            no forward pass. Unknown ids raise ``KeyError``.

        Returns one :class:`Prediction` per input — articles first, then
        known ids, each group in input order.
        """
        result = self._predict_articles(articles, return_proba=return_proba)
        if known_ids is not None:
            result.extend(self._predict_known_ids(known_ids, return_proba))
        return result

    def _predict_known_ids(
        self, known_ids: Sequence[str], return_proba: bool
    ) -> List[Prediction]:
        """Cached-logit lookups for nodes already in the trained graph."""
        out: List[Prediction] = []
        for eid in known_ids:
            try:
                kind, row = self._known_nodes[eid]
            except KeyError:
                raise KeyError(
                    f"{eid!r} is not a node of the trained graph "
                    "(new articles go in the 'articles' argument)"
                ) from None
            out.extend(
                predictions_from_logits(
                    [eid],
                    self._graph_logits[kind][row : row + 1],
                    return_proba=return_proba,
                )
            )
        return out

    def _neighbour_states(self, articles: Sequence):
        """Cached ``(z, t)`` GDU inputs: pooled known-subject and creator states.

        The subject states are pooled by the model's own
        ``agg_article_subjects``, over each article's known subjects in
        listed order, so a checkpoint trained with attention pooling is
        served attention-pooled states. Unknown or absent neighbours leave a
        zero row.
        """
        n = len(articles)
        subject_rows = self._subject_rows
        owners, rows = np.array(
            [
                (i, subject_rows[s])
                for i, article in enumerate(articles)
                for s in article.subject_ids
                if s in subject_rows
            ],
            dtype=np.intp,
        ).reshape(-1, 2).T
        with no_tape():
            z = self.detector.model.agg_article_subjects(
                Tensor(self._h_subject), rows, owners, n
            ).data
        creators = [self._creator_rows.get(a.creator_id) for a in articles]
        known = [i for i, row in enumerate(creators) if row is not None]
        t = np.zeros((n, self._h_creator.shape[1]), self._dtype)
        t[known] = self._h_creator[[creators[i] for i in known]]
        return z, t

    def _predict_articles(
        self, articles: Sequence, *, return_proba: bool
    ) -> List[Prediction]:
        if not articles:
            return []
        with trace("serve.predict", batch=len(articles)) as span:
            start = perf_counter()
            # The model went into eval mode at construction; re-walking the
            # module tree per request costs more than the head matmul.
            model = self.detector.model

            with trace("serve.encode", batch=len(articles)):
                explicit, sequences = self._encode_batch(
                    [a.text for a in articles]
                )

            z, t = self._neighbour_states(articles)

            # Forward-only scoring: no_tape skips graph/grad bookkeeping.
            with no_tape():
                x = model.hflu_article(explicit, sequences)
                h = model.gdu_article(x, Tensor(z), Tensor(t))
                logits = model.head_article(h).data
            if self.drift is not None:
                self.drift.observe_batch(explicit, logits)
            ids = [a.article_id for a in articles]
            result = predictions_from_logits(ids, logits, return_proba=return_proba)
            seconds = perf_counter() - start
            self.metrics.record_batch(len(articles), seconds)
            span.set(compute_seconds=seconds)
        return result

    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, float]:
        return self._feature_cache.stats()

    def snapshot(self) -> Dict[str, float]:
        """Serving report: metrics counters plus cache occupancy."""
        snap = self.metrics.snapshot()
        snap["feature_cache_size"] = float(len(self._feature_cache))
        return snap
