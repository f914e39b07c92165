import pytest

from lcmteval.seeding import derive_int


@pytest.mark.parametrize(
    "key, expected",
    [
        ((0, "perm-both"), 0x1832B81890835983),
        ((-3, "perm-bøth·语", "é", -1, 2**64), 0x88DF39DF6278966A),
        ((2**80, "segment-sig", "BLEU", "chrF"), 0xFFF02DA8A2E43753),
    ],
)
def test_derive_int_pinned(key, expected):
    """Every documented stream is keyed by these bytes; they must not move."""
    assert derive_int(*key) == expected
