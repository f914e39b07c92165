import numpy as np
import pytest

from lcmteval.seeding import derive_int, rng_for

PINNED = [
    ((0, "perm-both"), 0x1832B81890835983),
    ((-3, "perm-bøth·语", "é", -1, 2**64), 0x88DF39DF6278966A),
    ((2**80, "segment-sig", "BLEU", "chrF"), 0xFFF02DA8A2E43753),
]


@pytest.mark.parametrize("key, expected", PINNED)
def test_derive_int_pinned(key, expected):
    """Every documented stream is keyed by these bytes; they must not move."""
    assert derive_int(*key) == expected


@pytest.mark.parametrize("key, expected", PINNED)
def test_rng_for_is_numpy_default_rng_of_the_derived_seed(key, expected):
    # a fresh generator per call, so the draws of a key never depend on
    # what was drawn before
    reference = np.random.default_rng(expected).integers(0, 256, 64, dtype=np.uint8)
    first = rng_for(*key).integers(0, 256, 64, dtype=np.uint8)
    again = rng_for(*key).integers(0, 256, 64, dtype=np.uint8)
    assert first.tolist() == again.tolist() == reference.tolist()

