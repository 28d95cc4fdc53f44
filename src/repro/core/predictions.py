"""The unified prediction record shared by training-time and serving-time APIs.

Every prediction path — transductive :meth:`FakeDetector.predict`, inductive
:meth:`FakeDetector.predict_new_articles`, and the long-lived
:class:`repro.serve.InferenceSession` — funnels through
:func:`predictions_from_logits`, so class decisions and probability numerics
can never drift between the trainer and the server.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

from ..autograd import Tensor, no_tape
from ..autograd import functional as F
from ..data.schema import CredibilityLabel


@dataclasses.dataclass
class Prediction:
    """One scored entity.

    Attributes
    ----------
    entity_id:
        The article/creator/subject id the score belongs to.
    class_index:
        Argmax class, 0 (Pants on Fire!) .. 5 (True).
    label:
        The same decision as a :class:`CredibilityLabel`.
    proba:
        Softmax distribution over the 6 classes, or ``None`` when the
        caller did not request probabilities.
    """

    entity_id: str
    class_index: int
    label: CredibilityLabel
    proba: Optional[np.ndarray] = None

    @property
    def is_credible(self) -> bool:
        """Paper's bi-class grouping of the predicted label."""
        return self.label.is_true_class

    def to_dict(self) -> dict:
        """JSON-serializable form (used by the serving CLI)."""
        payload = {
            "entity_id": self.entity_id,
            "class_index": self.class_index,
            "label": self.label.display_name,
        }
        if self.proba is not None:
            payload["proba"] = [float(p) for p in self.proba]
        return payload


def predictions_from_logits(
    ids: Sequence[str],
    logits: np.ndarray,
    *,
    return_proba: bool = False,
) -> List[Prediction]:
    """Turn an aligned (n, 6) logit matrix into :class:`Prediction` records.

    Probabilities come from the autograd :func:`repro.autograd.functional
    .softmax`, taken in float64 whatever the logits' dtype: the cast of
    float32 logits is exact, so classes are unchanged, and the wire
    probabilities and ``predict_proba`` stay float64. The softmax runs
    under ``no_tape()``, so no caller records it.
    """
    logits = np.asarray(logits)
    if logits.ndim != 2 or logits.shape[0] != len(ids):
        raise ValueError(
            f"logits shape {logits.shape} does not align with {len(ids)} ids"
        )
    classes = logits.argmax(axis=1)
    probs = None
    if return_proba:
        with no_tape():
            probs = F.softmax(Tensor(logits.astype(np.float64, copy=False))).data
    return [
        Prediction(
            entity_id=eid,
            class_index=int(classes[i]),
            label=CredibilityLabel.from_class_index(int(classes[i])),
            proba=probs[i].copy() if probs is not None else None,
        )
        for i, eid in enumerate(ids)
    ]
