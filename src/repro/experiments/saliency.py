"""Input-gradient saliency for FakeDetector's explicit features.

Which of the discriminative words (W_n / W_u / W_s) pushed a node toward
its predicted label? We differentiate the predicted-class logit with
respect to the node's explicit feature vector; positive gradient × positive
count means the word's presence supported the prediction.

This is the "vanilla gradient × input" attribution — coarse but faithful to
the actual trained model, and it exercises the engine's input gradients.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from ..autograd import Tensor
from ..core.trainer import FakeDetector


@dataclasses.dataclass
class WordAttribution:
    """One word's contribution to a prediction."""

    word: str
    count: float        # (possibly weighted) occurrences in the node's text
    gradient: float     # d logit / d feature
    attribution: float  # gradient * count

    def __str__(self):
        sign = "+" if self.attribution >= 0 else "-"
        return f"{sign}{abs(self.attribution):.3f}  {self.word} (count {self.count:.2f})"


def _explain(
    detector: FakeDetector,
    kind: str,
    entity_id: str,
    target_class: Optional[int],
    top_k: int,
) -> List[WordAttribution]:
    if detector.model is None:
        raise RuntimeError("detector must be fitted first")
    features = detector.features
    entity = features.by_type(kind)
    if entity_id not in entity.index:
        raise KeyError(f"unknown {kind} {entity_id!r}")
    row = entity.index[entity_id]

    model = detector.model
    model.eval()

    # Make the target type's explicit features differentiable; the other two
    # stay constants. HFLU passes Tensors through, keeping them in the graph.
    explicit_inputs = {
        "article": features.articles.explicit,
        "creator": features.creators.explicit,
        "subject": features.subjects.explicit,
    }
    grad_input = Tensor(explicit_inputs[kind].astype(model.dtype), requires_grad=True)
    explicit_inputs = dict(explicit_inputs)
    explicit_inputs[kind] = grad_input

    x_n = model.hflu_article(explicit_inputs["article"], features.articles.sequences)
    x_u = model.hflu_creator(explicit_inputs["creator"], features.creators.sequences)
    x_s = model.hflu_subject(explicit_inputs["subject"], features.subjects.sequences)
    states = model.diffuse(x_n, x_u, x_s, detector.graph)
    head = {
        "article": model.head_article,
        "creator": model.head_creator,
        "subject": model.head_subject,
    }[kind]
    logits = head(states[kind])

    if target_class is None:
        target_class = int(logits.data[row].argmax())
    if not 0 <= target_class < logits.shape[1]:
        raise ValueError(f"target_class out of range: {target_class}")

    logits[np.array([row]), np.array([target_class])].sum().backward()
    gradients = grad_input.grad[row]
    counts = entity.explicit[row]
    words = features.extractors[kind].words

    attributions = [
        WordAttribution(
            word=words[k],
            count=float(counts[k]),
            gradient=float(gradients[k]),
            attribution=float(gradients[k] * counts[k]),
        )
        for k in range(len(words))
        if counts[k] != 0
    ]
    attributions.sort(key=lambda a: -abs(a.attribution))
    return attributions[:top_k]


def explain_article(
    detector: FakeDetector,
    article_id: str,
    target_class: Optional[int] = None,
    top_k: int = 10,
) -> List[WordAttribution]:
    """Top W_n word attributions for one article's predicted (or given) class."""
    return _explain(detector, "article", article_id, target_class, top_k)


def explain_creator(
    detector: FakeDetector,
    creator_id: str,
    target_class: Optional[int] = None,
    top_k: int = 10,
) -> List[WordAttribution]:
    """Top W_u profile-word attributions for a creator's prediction."""
    return _explain(detector, "creator", creator_id, target_class, top_k)


def explain_subject(
    detector: FakeDetector,
    subject_id: str,
    target_class: Optional[int] = None,
    top_k: int = 10,
) -> List[WordAttribution]:
    """Top W_s description-word attributions for a subject's prediction."""
    return _explain(detector, "subject", subject_id, target_class, top_k)
