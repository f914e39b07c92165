import numpy as np
import pytest

from lcmteval.seeding import _seed_sequence_words, derive_int, integer_rows, rng_for


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


def _rows_one_by_one(master_seed, tag, k, high, size):
    rows = [rng_for(master_seed, tag, i).integers(0, high, size=size) for i in range(k)]
    return np.array(rows, dtype=np.int64).reshape(k, size)


@pytest.mark.parametrize("master_seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("tag", ["hybrid:en-de@0.8", "hybrid:zh-en@1.2", "语-tag"])
@pytest.mark.parametrize("high", [2, 3, 5, 7, 100])
@pytest.mark.parametrize("size", [1, 2, 11, 12])
def test_integer_rows_equal_one_generator_per_row(master_seed, tag, high, size):
    rows, redrawn = integer_rows(master_seed, tag, 40, high, size)
    assert rows.dtype == np.uint8
    assert rows.tolist() == _rows_one_by_one(master_seed, tag, 40, high, size).tolist()
    assert redrawn == 0  # no draw of these fixed keys is rejected


@pytest.mark.parametrize(
    "high, dtype", [(2, np.uint8), (3, np.uint8), (256, np.uint8), (257, np.uint16)]
)
def test_integer_rows_narrowest_unsigned_type(high, dtype):
    # the values of the int64 reference rows, redrawn rows included, in the
    # narrowest unsigned type that holds high - 1
    rows, redrawn = integer_rows(5, "narrow", 200, high, 12)
    assert rows.dtype == dtype
    reference = _rows_one_by_one(5, "narrow", 200, high, 12)
    assert reference.dtype == np.int64
    assert rows.tolist() == reference.tolist()


@pytest.mark.parametrize("k", [0, 1, 1000])
def test_integer_rows_any_row_count(k):
    rows, _ = integer_rows(7, "hybrid:aa-bb@0.8", k, 3, 5)
    assert rows.shape == (k, 5)
    assert rows.tolist() == _rows_one_by_one(7, "hybrid:aa-bb@0.8", k, 3, 5).tolist()


def test_seed_sequence_words_one_and_two_entropy_words():
    # a derived seed below 2**32 gives SeedSequence one entropy word instead
    # of two; no tag is known to derive one, so the seed words are checked
    seeds = [0, 1, 12345, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    words = _seed_sequence_words(np.array(seeds, dtype=np.uint64))
    for i, seed in enumerate(seeds):
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert [int(w[i]) for w in words] == expected.tolist()


@pytest.mark.parametrize("size", [1, 4, 7])
def test_integer_rows_redraw_rejected_rows(size):
    # at high = 2**31 + 1 about half of all draws take Lemire's rejection
    # branch, so most rows are redrawn one by one, and at one draw per row
    # about half are not
    high = 2**31 + 1
    rows, redrawn = integer_rows(3, "redraw", 64, high, size)
    assert redrawn > 0
    assert size > 1 or redrawn < 64
    assert rows.tolist() == _rows_one_by_one(3, "redraw", 64, high, size).tolist()


@pytest.mark.parametrize("high", [1, 2**32 - 1, 2**32])
def test_integer_rows_range_ends(high):
    rows, redrawn = integer_rows(11, "ends", 20, high, 5)
    assert redrawn == 0
    assert rows.tolist() == _rows_one_by_one(11, "ends", 20, high, 5).tolist()


@pytest.mark.parametrize("high", [0, 2**32 + 1])
def test_integer_rows_reject_out_of_range(high):
    with pytest.raises(ValueError, match="high"):
        integer_rows(0, "t", 2, high, 3)
