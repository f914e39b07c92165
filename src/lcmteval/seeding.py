"""Deterministic seed derivation.

Every random draw in the toolkit flows from a single 64-bit master seed
through ``(master, purpose-tag, indices...)`` derivations.  Each replicate
(hybrid system, permutation, bootstrap draw, ...) gets its own generator, so
results are bitwise identical no matter how the replicates are scheduled
across threads or in which order they are evaluated.

:func:`rng_for` builds one such generator.  :func:`rng_replay` yields the
generators of many indices under one ``(master, tag)`` prefix, each with a
bit-generator state equal to that of ``rng_for(master, tag, index)``, so
every draw from it is identical; it costs a fraction of ``rng_for`` per
index.  It meets that contract in three steps:

1. the ``(master, tag)`` prefix is hashed once and the hash copied per
   index, so each index's 64-bit seed is exactly :func:`derive_int`'s;
2. numpy's ``SeedSequence(seed).generate_state(4, np.uint64)`` is
   reproduced for the whole batch of seeds in vectorised ``uint32``
   arithmetic (:func:`_seed_sequence_states`), followed by PCG64's seeding
   step on Python ints (:func:`_pcg64_state`);
3. the draws come from numpy's own ``PCG64`` and ``Generator``, whose state
   is set before each index is yielded.

On its first use in a process, :func:`rng_replay` checks one replayed state
against ``rng_for``'s and raises ``RuntimeError`` if they differ, so a numpy
whose ``SeedSequence`` or PCG64 seeding changed fails loudly instead of
departing from the documented streams.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterable, Iterator

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_SEP = b"\x1f"


def _prefix_hash(master_seed: int, tag: str):
    h = hashlib.sha256()
    h.update(str(int(master_seed) & _MASK64).encode("ascii"))
    h.update(_SEP)
    h.update(tag.encode("utf-8"))
    return h


def derive_int(master_seed: int, tag: str, *indices) -> int:
    """Derive a stable 64-bit seed from (master seed, tag, indices).

    Indices may be ints or strings; they are folded into a SHA-256 digest so
    the derivation is stable across platforms and Python versions.
    """
    h = _prefix_hash(master_seed, tag)
    for ix in indices:
        h.update(_SEP)
        h.update(str(ix).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big")


def rng_for(master_seed: int, tag: str, *indices) -> np.random.Generator:
    """A fresh PCG64 generator seeded from (master seed, tag, indices)."""
    return np.random.default_rng(derive_int(master_seed, tag, *indices))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_POOL = 4  # SeedSequence's default pool size, in uint32 words


def _hash_constants(start: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The constant each successive hash xors its value with, and the one it
    then multiplies by.  They do not depend on the data, so one table serves
    every seed."""
    out, c = [], start
    for _ in range(count):
        nxt = (c * mult) & 0xFFFFFFFF
        out.append((c, nxt))
        c = nxt
    return out


def _columns(constants) -> tuple[np.ndarray, np.ndarray]:
    """(rows, 1) uint32 xor and multiply constants, one row per pool word."""
    table = np.asarray(constants, dtype=np.uint32)
    return table[:, :1].copy(), table[:, 1:].copy()


def _cross_mix_columns(constants) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per source word, the constants with which mix_entropy hashes it for
    each other destination word, in pool order; the source's own row is
    unused (zero)."""
    sequence = iter(constants)
    return [
        _columns([(0, 0) if dst == src else next(sequence) for dst in range(_POOL)])
        for src in range(_POOL)
    ]


# mix_entropy hashes the 4 pool words once each, then each source word once
# per other destination (12 hashes); generate_state(4, uint64) hashes the
# pool twice over (8 words).
_MIX = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL)
_FILL = _columns(_MIX[:_POOL])
_CROSS = _cross_mix_columns(_MIX[_POOL:])
_STATE = _columns(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL))


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix`` with precomputed constants, one row of them per
    row of the result."""
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _seed_sequence_states(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` for every
    s of a uint64 array at once, as a (len(seeds), 4) uint64 array.

    Two entropy words suffice: a seed below 2**32 has one, and numpy hashes
    the missing pool word exactly like a zero word.
    """
    seeds = np.asarray(seeds, dtype="<u8")
    pool = np.zeros((_POOL, len(seeds)), dtype=np.uint32)
    pool[:2] = seeds.view("<u4").reshape(-1, 2).T  # low word, high word
    pool = _hashmix(pool, *_FILL)
    # Cross-mix: the three hashes of one source word, one per destination,
    # all read the source before it changes, so each source is one step
    # over the whole pool, with the source's own row put back.
    for src, constants in enumerate(_CROSS):
        mixed = _MIX_MULT_L * pool - _MIX_MULT_R * _hashmix(pool[src], *constants)
        mixed ^= mixed >> 16
        mixed[src] = pool[src]
        pool = mixed
    words = _hashmix(np.concatenate([pool, pool]), *_STATE)
    # as numpy does: little-endian word pairs (2k, 2k + 1) make uint64 k
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8")


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_state(words) -> tuple[int, int]:
    """PCG64's (state, inc) after seeding with the four uint64 words that
    ``SeedSequence.generate_state(4, np.uint64)`` gave."""
    s0, s1, s2, s3 = words
    inc = ((((s2 << 64) | s3) << 1) | 1) & _MASK128
    state = ((inc + ((s0 << 64) | s1)) * _PCG64_MULT + inc) & _MASK128
    return state, inc


def _replayed_states(master_seed: int, tag: str, indices) -> list[tuple[int, int]]:
    """PCG64's (state, inc) under ``rng_for(master_seed, tag, index)`` for
    each index, in order."""
    copy = _prefix_hash(master_seed, tag).copy
    digests = []
    for ix in indices:
        h = copy()
        h.update(_SEP + str(ix).encode("utf-8"))
        digests.append(h.digest()[:8])
    # derive_int's seed: the first 8 digest bytes, big-endian
    seeds = np.frombuffer(b"".join(digests), dtype=">u8")
    return [_pcg64_state(w) for w in _seed_sequence_states(seeds).tolist()]


# An arbitrary key for the first-use check: its seed needs both entropy words.
_CHECK_KEY = (20250810, "rng-replay-check", 7)


@functools.cache
def _check_replay() -> None:
    """Raise ``RuntimeError`` unless the replayed state of one fixed key
    equals ``rng_for``'s (run once per process when it passes)."""
    master, tag, index = _CHECK_KEY
    ((state, inc),) = _replayed_states(master, tag, [index])
    expected = rng_for(master, tag, index).bit_generator.state["state"]
    if expected != {"state": state, "inc": inc}:
        raise RuntimeError(
            f"rng_replay no longer reproduces rng_for under numpy "
            f"{np.__version__}: its SeedSequence or PCG64 seeding changed"
        )


def rng_replay(
    master_seed: int, tag: str, indices: Iterable
) -> Iterator[np.random.Generator]:
    """For each index, in order, a generator whose bit-generator state
    equals that of ``rng_for(master_seed, tag, index)``.

    Every index is hashed and seeded in one batch before the first is
    yielded.  The same ``Generator`` object is yielded each time with its
    state reset, so draw from it before advancing the iterator.
    """
    _check_replay()
    states = _replayed_states(master_seed, tag, indices)
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    pcg = {}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for state, inc in states:
        pcg["state"], pcg["inc"] = state, inc
        bit_generator.state = full  # numpy copies the values in
        yield generator
