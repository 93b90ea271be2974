"""Named, reproducible random streams.

All randomness in the package flows from a single 64-bit seed that is split
into independent named streams.  The derivation is documented so runs are
auditable:

* stream "D" drives Gauss-Markov path noise,
* stream "X" draws target random vectors,
* stream "fbm" draws the fractional Brownian paths of the mimicry demo.

A stream is a ``numpy.random.Generator`` seeded with
``SeedSequence(entropy=seed, spawn_key=(label_code, block))``, where
``label_code`` is the fixed byte code of the label below and ``block`` is a
path-block index.  Distinct labels or blocks therefore never share state,
which guarantees the independence of target draws from driver noise.  Any
other label is a ``KeyError``.

Draw layout.  Stream "D" of a block is read row-wise by the date-first
sampler: ``n+1`` rows for the driver at the dates, then one row per interior
grid node in time order, each row ``n_paths`` wide.  Stream "X" draws per
target, ``X_0`` first, ``n_paths`` uniforms for a law with atoms or a uniform
``X_0`` (one per path, read against the cumulative weights or scaled), as
many standard normals for a Gaussian law, and nothing for a point-mass
``X_0`` or a deterministic step.  A path therefore depends on the path
count of its block: the same seed with another ``n_paths`` (or another
``block_size`` in the Monte Carlo reducers) gives other paths, while a fixed
seed, path count and block size reproduce every value exactly.
"""

from __future__ import annotations

import numpy as np

_LABEL_CODES = {
    "D": 0x44,
    "X": 0x58,
    "fbm": 0xF1,
}

_MASK64 = (1 << 64) - 1


def label_code(label: str) -> int:
    """Return the fixed integer code of a stream label (``KeyError`` for an unknown one)."""
    return _LABEL_CODES[label]


def stream_rng(seed: int, label: str, block: int = 0) -> np.random.Generator:
    """Derive the generator for stream ``label`` and path block ``block``."""
    ss = np.random.SeedSequence(
        entropy=int(seed) & _MASK64, spawn_key=(label_code(label), int(block))
    )
    return np.random.default_rng(ss)
