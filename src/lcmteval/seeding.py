"""Deterministic seed derivation.

Every random draw in the toolkit flows from a single 64-bit master seed
through ``(master, purpose-tag, indices...)`` derivations, and
:func:`rng_for` builds the generator of one such key.  Hybrid system i draws
its index row from the generator of index i, and :func:`integer_rows`
reproduces those draws for all hybrids of a task at once.  The permutation
test, the paired bootstrap and trap sampling get one generator per call,
from which the replicates are drawn in order, so a result depends only on
its key and never on how the draws are batched.  A segment significance
matrix gets one permutation-test generator per unordered pair of metrics,
keyed by the two names in sorted order, and both orders of the pair read
their p-values off its masks.

:func:`integer_rows` draws the hybrid index rows of a task in one
vectorised call instead of one generator per hybrid: row i equals
``rng_for(master, tag, i).integers(0, high, size=size)``.  It repeats, over
uint32 and uint64 arrays with one entry per row, what numpy does for each
row: :func:`derive_int`'s seed, ``SeedSequence``'s pool mixing and
``generate_state(4, np.uint64)``, PCG64's seeding and 128-bit steps (held as
high and low uint64 words) with its XSL-RR output, and Lemire's bounded draw
on the 32-bit halves of each output, low half first.  A row whose draws
would take Lemire's rejection branch, which consumes extra output, is drawn
again through :func:`rng_for`, so every row is exact.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
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


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit multiplier as (high, low) words
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)


def _seed_sequence_words(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every s of a
    uint64 array, as four uint64 arrays, one per output word.

    The pool holds two entropy words: a seed below 2**32 has one, and numpy
    hashes the missing word exactly like a zero word.
    """
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    zero = np.zeros(len(seeds), dtype=np.uint32)
    entropy = (seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)
    pool = [hashmix(word) for word in (*entropy, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)
    const, halves = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        halves.append((value ^ (value >> 16)).astype(np.uint64))
    # uint32 words (2j, 2j + 1) are the low and high halves of uint64 word j
    return [halves[2 * j] | (halves[2 * j + 1] << 32) for j in range(4)]


def _mul_hi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """The high 64 bits of each a * b, from 32-bit partial products."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & np.uint64(_MASK32), b >> np.uint64(32)
    cross_lo, cross_hi = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> 32) + (cross_lo & _MASK32) + (cross_hi & _MASK32)
    return a_hi * b_hi + (cross_lo >> 32) + (cross_hi >> 32) + (mid >> 32)


def _pcg_step(state, inc):
    """PCG64's state * multiplier + inc, mod 2**128, on (high, low) words."""
    (hi, lo), (inc_hi, inc_lo) = state, inc
    new_lo = lo * _PCG_MULT_LO + inc_lo
    carry = new_lo < inc_lo
    new_hi = _mul_hi(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    return new_hi + inc_hi + carry, new_lo


def integer_rows(
    master_seed: int, tag: str, k: int, high: int, size: int
) -> tuple[np.ndarray, int]:
    """The (k, size) int64 matrix whose row i equals
    ``rng_for(master_seed, tag, i).integers(0, high, size=size)``, and the
    number of rows redrawn through :func:`rng_for` because one of their
    draws took Lemire's rejection branch (about 2**32 % high in 2**32 draws
    do).  ``high`` lies in [1, 2**32].
    """
    if not 1 <= high <= 1 << 32:
        raise ValueError(f"high must lie in [1, 2**32], got {high}")
    out = np.empty((k, size), dtype=np.int64)
    if k == 0 or size == 0:
        return out, 0
    seeds = np.array([derive_int(master_seed, tag, i) for i in range(k)], np.uint64)
    s0, s1, s2, s3 = _seed_sequence_words(seeds)
    # PCG64 seeding: inc = (s2:s3) << 1 | 1, state = (inc + (s0:s1)) * mult + inc
    inc = (s2 << 1) | (s3 >> 63), (s3 << 1) | 1
    lo = inc[1] + s1
    state = _pcg_step((inc[0] + s0 + (lo < s1), lo), inc)
    threshold = (1 << 32) % high
    rejected = np.zeros(k, dtype=bool)
    draws = out.view(np.uint64)
    for col in range(0, size, 2):
        state = _pcg_step(state, inc)
        hi, lo = state
        rot = hi >> 58
        xored = hi ^ lo
        output = (xored >> rot) | (xored << ((64 - rot) & 63))
        for j, half in ((col, output & _MASK32), (col + 1, output >> 32)):
            if j < size:
                scaled = half * np.uint64(high)
                draws[:, j] = scaled >> 32
                if threshold:
                    rejected |= (scaled & _MASK32) < threshold
    redrawn = np.flatnonzero(rejected).tolist()
    for i in redrawn:
        out[i] = rng_for(master_seed, tag, i).integers(0, high, size=size)
    return out, len(redrawn)
