"""Two fits with one seed are the same fit, bit for bit.

The loss curve and the grad norms are compared as ``float.hex`` strings and
the saved checkpoint by a digest of its arrays, so a change that moves any
model number by one ulp fails here, not only in the benchmark.
"""

import hashlib

import pytest

from repro.autograd.serialization import load_arrays
from repro.core import FakeDetector, FakeDetectorConfig

TOY = dict(
    epochs=3, explicit_dim=20, vocab_size=300, max_seq_len=8, embed_dim=4,
    rnn_hidden=6, latent_dim=4, gdu_hidden=8, seed=13,
)


def arrays_digest(checkpoint) -> str:
    """SHA-256 over the name, dtype, shape and bytes of every saved array."""
    digest = hashlib.sha256()
    for archive in ("model.npz", "arrays.npz"):
        arrays = load_arrays(checkpoint / archive)
        for name in sorted(arrays):
            array = arrays[name]
            digest.update(f"{archive}:{name}:{array.dtype}:{array.shape}".encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


def fingerprint(detector, path):
    detector.save(path)
    return {
        "total": [x.hex() for x in detector.record.total],
        "grad_norms": [x.hex() for x in detector.record.grad_norms],
        "arrays": arrays_digest(path),
    }


@pytest.mark.parametrize("batch_size", [None, 16], ids=["full_batch", "minibatch"])
def test_same_seed_same_fit(batch_size, tiny_dataset, tiny_split, tmp_path):
    config = FakeDetectorConfig(batch_size=batch_size, **TOY)
    first, second = (
        fingerprint(FakeDetector(config).fit(tiny_dataset, tiny_split), tmp_path / name)
        for name in ("first", "second")
    )
    assert len(first["total"]) == TOY["epochs"]
    assert first == second
