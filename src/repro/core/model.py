"""The FakeDetector deep diffusive network, paper §4 and Figure 3(c).

One HFLU + one GDU per node *type* (weights shared across nodes of a type,
as in the paper's Figure 3(c) where every article cell is the same unit),
wired along the News-HSN edges:

- article GDU inputs: x = HFLU(article), z = mean of its subjects' states,
  t = its creator's state;
- creator GDU inputs: x = HFLU(creator), z = mean of its articles' states,
  t = 0 (unused port gets the zero default, §4.2);
- subject GDU inputs: x = HFLU(subject), z = mean of its articles' states,
  t = 0.

States are updated synchronously for ``diffusion_iterations`` rounds
starting from zeros, then projected to per-type softmax heads (§4.3).

The model trains and serves in float32 (:data:`COMPUTE_DTYPE`): the
parameters are drawn in float64, exactly as before, and cast once.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..autograd import Linear, Module, Tensor

from ..data.schema import NUM_CLASSES
from .config import FakeDetectorConfig
from .gdu import GDU
from .hflu import HFLU
from .pipeline import GraphIndex, PipelineOutput

#: The one dtype FakeDetector trains and serves in. Gradient checks and the
#: reference oracles build their own float64 modules instead.
COMPUTE_DTYPE = np.float32


class FakeDetectorModel(Module):
    """End-to-end differentiable FakeDetector network.

    Parameters
    ----------
    config:
        Hyperparameters.
    explicit_dims:
        Actual explicit-feature width per node type (``{"article": d_n,
        "creator": d_u, "subject": d_s}``). Tiny corpora can yield fewer
        discriminative words than ``config.explicit_dim``, so the realized
        widths come from the feature pipeline. Defaults to
        ``config.explicit_dim`` for every type.
    """

    def __init__(
        self,
        config: FakeDetectorConfig,
        rng: Optional[np.random.Generator] = None,
        explicit_dims: Optional[Dict[str, int]] = None,
    ):
        super().__init__()
        self.config = config
        rng = rng or np.random.default_rng(config.seed)
        if explicit_dims is None:
            explicit_dims = {k: config.explicit_dim for k in ("article", "creator", "subject")}

        def make_hflu() -> HFLU:
            return HFLU(
                vocab_size=config.vocab_size + 2,  # +2 for pad/unk specials
                embed_dim=config.embed_dim,
                rnn_hidden=config.rnn_hidden,
                latent_dim=config.latent_dim,
                rng=rng,
                use_explicit=config.use_explicit_features,
                use_latent=config.use_latent_features,
                rnn_cell=config.rnn_cell,
            )

        def feature_dim(kind: str) -> int:
            dim = 0
            if config.use_explicit_features:
                dim += explicit_dims[kind]
            if config.use_latent_features:
                dim += config.latent_dim
            return dim

        def make_gdu(kind: str) -> GDU:
            return GDU(
                input_dim=feature_dim(kind),
                hidden_dim=config.gdu_hidden,
                rng=rng,
                use_forget_gate=config.use_forget_gate,
                use_adjust_gate=config.use_adjust_gate,
                use_selection_gates=config.use_selection_gates,
            )

        self.hflu_article = make_hflu()
        self.hflu_creator = make_hflu()
        self.hflu_subject = make_hflu()
        self.gdu_article = make_gdu("article")
        self.gdu_creator = make_gdu("creator")
        self.gdu_subject = make_gdu("subject")
        # Neighbor pooling (mean per the paper; attention as an extension),
        # one aggregator per edge direction so attention weights specialize.
        from .aggregate import make_aggregator

        self.agg_article_subjects = make_aggregator(
            config.aggregation, config.gdu_hidden, rng
        )
        self.agg_creator_articles = make_aggregator(
            config.aggregation, config.gdu_hidden, rng
        )
        self.agg_subject_articles = make_aggregator(
            config.aggregation, config.gdu_hidden, rng
        )
        self.head_article = Linear(config.gdu_hidden, NUM_CLASSES, rng=rng)
        self.head_creator = Linear(config.gdu_hidden, NUM_CLASSES, rng=rng)
        self.head_subject = Linear(config.gdu_hidden, NUM_CLASSES, rng=rng)
        self.astype(COMPUTE_DTYPE)

    @property
    def dtype(self) -> np.dtype:
        """The parameters' dtype, which every activation follows."""
        return self.head_article.weight.dtype

    # ------------------------------------------------------------------
    def forward(
        self, features: PipelineOutput, graph: GraphIndex
    ) -> Dict[str, Tensor]:
        """Full forward pass; returns logits per node type.

        Keys: ``"article"``, ``"creator"``, ``"subject"`` — each a
        (n_type, 6) logit tensor aligned with ``features.<type>.ids``.
        """
        logits, _ = self.forward_with_states(features, graph)
        return logits

    def forward_with_states(
        self, features: PipelineOutput, graph: GraphIndex
    ) -> tuple:
        """Forward pass that also returns the final GDU hidden states.

        The states feed inductive inference: a new article's GDU can be
        evaluated against the trained creator/subject states without
        re-running diffusion over the whole network.
        """
        x_n = self.hflu_article(features.articles.explicit, features.articles.sequences)
        x_u = self.hflu_creator(features.creators.explicit, features.creators.sequences)
        x_s = self.hflu_subject(features.subjects.explicit, features.subjects.sequences)
        states = self.diffuse(x_n, x_u, x_s, graph)
        logits = {
            "article": self.head_article(states["article"]),
            "creator": self.head_creator(states["creator"]),
            "subject": self.head_subject(states["subject"]),
        }
        return logits, states

    def diffuse(self, x_n: Tensor, x_u: Tensor, x_s: Tensor, graph: GraphIndex) -> Dict[str, Tensor]:
        """Run the GDU message-passing rounds from given HFLU features.

        Exposed separately so callers that need differentiable *inputs*
        (input-gradient saliency) or custom features can reuse the exact
        diffusion the trainer uses.
        """
        n_articles, n_creators, n_subjects = x_n.shape[0], x_u.shape[0], x_s.shape[0]
        h_n = self.gdu_article.zero_state(n_articles)
        h_u = self.gdu_creator.zero_state(n_creators)
        h_s = self.gdu_subject.zero_state(n_subjects)

        rounds = max(1, self.config.diffusion_iterations)
        for rnd in range(rounds):
            # Round 1 aggregates the all-zero initial states: both pooling
            # strategies map zero neighbors to exact zeros with zero
            # parameter-gradient contribution, so the gather/segment work
            # is provably dead and the zero defaults are used directly.
            if self.config.use_diffusion and rnd > 0:
                z_n = self.agg_article_subjects(
                    h_s, graph.article_subject_gather, graph.article_subject_segment, n_articles
                )
                t_n = h_u[graph.article_creator]
                z_u = self.agg_creator_articles(
                    h_n, graph.creator_article_gather, graph.creator_article_segment, n_creators
                )
                z_s = self.agg_subject_articles(
                    h_n, graph.subject_article_gather, graph.subject_article_segment, n_subjects
                )
            else:
                z_n = self.gdu_article.zero_state(n_articles)
                t_n = self.gdu_article.zero_state(n_articles)
                z_u = self.gdu_creator.zero_state(n_creators)
                z_s = self.gdu_subject.zero_state(n_subjects)
            t_u = self.gdu_creator.zero_state(n_creators)
            t_s = self.gdu_subject.zero_state(n_subjects)

            h_n = self.gdu_article(x_n, z_n, t_n)
            h_u = self.gdu_creator(x_u, z_u, t_u)
            h_s = self.gdu_subject(x_s, z_s, t_s)

        return {"article": h_n, "creator": h_u, "subject": h_s}
