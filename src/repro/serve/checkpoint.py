"""Full-detector persistence: a fitted FakeDetector as an on-disk directory.

A checkpoint captures everything inference needs — config, vocabulary, the
three discriminative word-set extractors, per-entity feature arrays, the
graph index and the model weights — so a server process can
:func:`load_detector` and answer requests without ever seeing the training
corpus. Layout::

    <dir>/detector.json        format tag, config, vocab, extractors, entity ids
    <dir>/arrays.npz           explicit/sequence/label matrices + graph edge lists
    <dir>/model.npz            module state dict (repro.autograd.save_state)
    <dir>/drift_baseline.json  training-corpus drift profile
                               (repro.obs.drift_baseline/1, optional)

The weights and explicit features are stored as float32, the model's
compute dtype, and float32 arrays round-trip bit-exactly through ``.npz``;
floats round-trip exactly through JSON. A loaded detector therefore
reproduces bit-identical ``predict_logits`` output (asserted in
tests/test_serve_checkpoint.py). Checkpoints of earlier builds stored
float64; loading casts their weights to float32, and the serving session
casts their features once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Union

import numpy as np

from ..autograd import load_arrays, load_state, save_arrays, save_state
from ..core.config import FakeDetectorConfig
from ..core.pipeline import EntityFeatures, GraphIndex, PipelineOutput
from ..text.features import BagOfWordsExtractor
from ..text.vocabulary import Vocabulary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.trainer import FakeDetector

PathLike = Union[str, Path]

CHECKPOINT_FORMAT = "fakedetector-checkpoint/1"

_MANIFEST = "detector.json"
_ARRAYS = "arrays.npz"
_MODEL = "model.npz"
_KINDS = ("article", "creator", "subject")


def save_detector(detector: "FakeDetector", path: PathLike) -> Path:
    """Write a fitted detector to ``path`` (a directory, created if needed)."""
    if detector.model is None or detector.features is None or detector.graph is None:
        raise RuntimeError("cannot save an unfitted FakeDetector")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    features = detector.features
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "config": dataclasses.asdict(detector.config),
        "vocab": features.vocab.to_dict(),
        "extractors": {
            kind: extractor.to_dict()
            for kind, extractor in features.extractors.items()
        },
        "ids": {kind: list(features.by_type(kind).ids) for kind in _KINDS},
    }
    (path / _MANIFEST).write_text(json.dumps(manifest))

    arrays = {}
    for kind in _KINDS:
        entity = features.by_type(kind)
        arrays[f"{kind}.explicit"] = entity.explicit
        arrays[f"{kind}.sequences"] = entity.sequences
        arrays[f"{kind}.labels"] = entity.labels
    for field in dataclasses.fields(GraphIndex):
        arrays[f"graph.{field.name}"] = getattr(detector.graph, field.name)
    save_arrays(arrays, path / _ARRAYS)
    save_state(detector.model, path / _MODEL)

    # Serving-time drift monitoring compares against this profile; it is
    # deliberately outside checkpoint_digest() (which hashes only weights +
    # manifest) so adding it never changes a deployment's identity.
    from ..obs.drift import BaselineProfile

    BaselineProfile.from_detector(detector).save(path)
    return path


def checkpoint_digest(path: PathLike) -> str:
    """Short stable digest identifying a checkpoint's exact weights.

    SHA-256 over ``model.npz`` and ``detector.json`` bytes, truncated to 16
    hex chars — enough to tell two deployments apart. Stamped on every
    ``repro.serve.response/1`` document as ``model_digest`` so clients can
    attribute predictions to the model build that produced them.
    """
    path = Path(path)
    digest = hashlib.sha256()
    for name in (_MODEL, _MANIFEST):
        digest.update((path / name).read_bytes())
    return digest.hexdigest()[:16]


def load_detector(path: PathLike) -> "FakeDetector":
    """Rebuild a fitted detector from a :func:`save_detector` directory."""
    from ..core.model import FakeDetectorModel
    from ..core.trainer import FakeDetector

    path = Path(path)
    manifest_path = path / _MANIFEST
    if not manifest_path.exists():
        raise FileNotFoundError(f"not a detector checkpoint: {path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(
            f"unsupported checkpoint format {manifest.get('format')!r} "
            f"(expected {CHECKPOINT_FORMAT!r})"
        )

    # Older checkpoints store `fused_kernels`, a retired switch between two
    # equivalent forwards that no weight depends on. Any other unknown key
    # still raises.
    manifest["config"].pop("fused_kernels", None)
    config = FakeDetectorConfig(**manifest["config"])
    vocab = Vocabulary.from_dict(manifest["vocab"])
    extractors = {
        kind: BagOfWordsExtractor.from_dict(payload)
        for kind, payload in manifest["extractors"].items()
    }
    arrays = load_arrays(path / _ARRAYS)

    def entity(kind: str) -> EntityFeatures:
        ids = [str(eid) for eid in manifest["ids"][kind]]
        return EntityFeatures(
            ids=ids,
            index={eid: i for i, eid in enumerate(ids)},
            explicit=arrays[f"{kind}.explicit"],
            sequences=arrays[f"{kind}.sequences"],
            labels=arrays[f"{kind}.labels"],
        )

    features = PipelineOutput(
        articles=entity("article"),
        creators=entity("creator"),
        subjects=entity("subject"),
        vocab=vocab,
        extractors=extractors,
    )
    graph = GraphIndex(
        **{
            field.name: arrays[f"graph.{field.name}"].astype(np.intp)
            for field in dataclasses.fields(GraphIndex)
        }
    )

    detector = FakeDetector(config)
    detector.features = features
    detector.graph = graph
    detector.model = FakeDetectorModel(
        config,
        explicit_dims={
            kind: features.by_type(kind).explicit.shape[1] for kind in _KINDS
        },
    )
    load_state(detector.model, path / _MODEL)
    detector.model.eval()
    return detector
