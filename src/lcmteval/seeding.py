"""Deterministic seed derivation.

Every random draw in the toolkit flows from a single 64-bit master seed
through ``(master, purpose-tag, indices...)`` derivations, and
:func:`rng_for` builds the generator of one such key.  Hybrid systems get one
generator per hybrid index.  The permutation test, the paired bootstrap and
trap sampling get one generator per call, from which the replicates are
drawn in order, so a result depends only on its key and never on how the
draws are batched.  A segment significance matrix gets one permutation-test
generator per unordered pair of metrics, keyed by the two names in sorted
order, and both orders of the pair read their p-values off its masks.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_SEP = b"\x1f"


def derive_int(master_seed: int, tag: str, *indices) -> int:
    """Derive a stable 64-bit seed from (master seed, tag, indices).

    Indices may be ints or strings; they are folded into a SHA-256 digest so
    the derivation is stable across platforms and Python versions.
    """
    h = hashlib.sha256()
    h.update(str(int(master_seed) & _MASK64).encode("ascii"))
    h.update(_SEP)
    h.update(tag.encode("utf-8"))
    for ix in indices:
        h.update(_SEP)
        h.update(str(ix).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


def rng_for(master_seed: int, tag: str, *indices) -> np.random.Generator:
    """A fresh PCG64 generator seeded from (master seed, tag, indices)."""
    return np.random.default_rng(derive_int(master_seed, tag, *indices))
