import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcmteval import metrics as metrics_module
from lcmteval.errors import (
    EmptyCorpus,
    EmptySet,
    LengthMismatch,
    ZeroLengthHypothesisCorpus,
)
from lcmteval.metrics import (
    CHARACTER,
    WHITESPACE,
    BleuScore,
    LengthRecord,
    bleu_arrays_from_stats,
    bleu_from_stats,
    bleu_star,
    bleu_stats,
    corpus_bleu,
    expected_length,
    left_sum,
    length_deviation,
    length_deviations,
    ngram_stats,
    rouge_l,
    rouge_l_arrays,
    rouge_n,
    rouge_n_arrays,
    rouge_n_from_stats,
    round_half_up,
    scheme_for_direction,
    tokenize,
)

from .oracles import (
    SUM_LEFT_TO_RIGHT,
    bleu_from_stats_scalar,
    clipped_ngram_overlap,
    lcs_length_bit_parallel,
    lcs_length_recursive,
)

tokens = st.lists(st.sampled_from("abcdefg"), min_size=0, max_size=20)
# few distinct tokens: many equal-length LCS paths and repeated n-grams
tie_tokens = st.sampled_from(["ab", "abc"]).flatmap(
    lambda alphabet: st.lists(st.sampled_from(alphabet), max_size=150)
)


def tok(words, scheme=WHITESPACE):
    return tokenize(" ".join(words), scheme)


class TestTokenize:
    def test_character_scheme_chinese(self):
        assert tokenize("明天下雨", CHARACTER).tokens == ("明", "天", "下", "雨")

    def test_empty_text(self):
        assert tokenize("", CHARACTER).tokens == ()
        assert tokenize("", WHITESPACE).tokens == ()

    def test_whitespace_collapse(self):
        assert tokenize("a  b", WHITESPACE).tokens == ("a", "b")

    def test_character_scheme_drops_whitespace(self):
        assert tokenize("a b\tc", CHARACTER).tokens == ("a", "b", "c")

    def test_character_scheme_drops_every_whitespace_code_point(self):
        spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        assert {"\t", "\x1c", "\x85", "\u2028", "\u3000"} <= set(spaces)
        words = "长度可控的机器翻译MT評価。"
        text = "".join(space + words for space in spaces) + " \t\u3000"
        assert tokenize(text, CHARACTER).tokens == tuple(words * len(spaces))

    @given(st.text(alphabet="abc 明天\t", max_size=30))
    def test_character_tokens_are_single_scalars(self, text):
        seq = tokenize(text, CHARACTER)
        assert all(len(t) == 1 and not t.isspace() for t in seq.tokens)

    @given(st.lists(st.text(alphabet="abcde", min_size=1, max_size=5), max_size=8))
    def test_whitespace_retokenization_idempotent(self, words):
        once = tokenize(" ".join(words), WHITESPACE)
        again = tokenize(" ".join(once.tokens), WHITESPACE)
        assert once.tokens == again.tokens

    def test_scheme_per_direction(self):
        assert scheme_for_direction("en-zh") == CHARACTER
        assert scheme_for_direction("zh-en") == WHITESPACE
        assert scheme_for_direction("de-fr") == WHITESPACE


class TestCorpusBleu:
    def test_identity(self):
        seqs = [tok("the big cat sat down".split()), tok("a fine day indeed it was".split())]
        score = corpus_bleu(seqs, seqs)
        assert score.bleu == 1.0
        assert score.brevity_penalty == 1.0
        assert score.bleu_star == 1.0

    def test_no_overlap_is_zero(self):
        score = corpus_bleu([tok(["a", "b", "c", "d"])], [tok(["x", "y", "z", "w"])])
        assert score.bleu == 0.0
        assert score.precisions[0] == 0.0

    def test_hand_computed_three_token_case(self):
        # hyp "the cat sat" vs ref "the cat sat down": clipped counts by hand
        # give p1 = 3/3, p2 = 2/2, p3 = 1/1; the four-gram order has no
        # hypothesis n-grams, so p4 smooths to 1/2; bp = exp(1 - 4/3).
        score = corpus_bleu([tok(["the", "cat", "sat"])], [tok(["the", "cat", "sat", "down"])])
        assert score.precisions == (1.0, 1.0, 1.0, 0.5)
        assert score.brevity_penalty == pytest.approx(0.7165313105737893, abs=1e-15)
        assert score.bleu == pytest.approx(0.6025286104785453, abs=1e-15)
        assert bleu_star(score) == pytest.approx(0.8408964152537144, abs=1e-15)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            corpus_bleu([], [])

    def test_zero_length_hypotheses(self):
        with pytest.raises(ZeroLengthHypothesisCorpus):
            corpus_bleu([tok([])], [tok(["a"])])

    @given(st.lists(st.tuples(tokens, tokens), min_size=1, max_size=6))
    @settings(max_examples=150)
    def test_star_dominates_bleu(self, pairs):
        hyps = [tok(h) for h, _ in pairs]
        refs = [tok(r) for _, r in pairs]
        if sum(len(h) for h in hyps) == 0:
            return
        score = corpus_bleu(hyps, refs)
        assert score.bleu_star >= score.bleu
        if score.brevity_penalty == 1.0:
            assert score.bleu_star == score.bleu
        elif score.bleu > 0.0:
            assert score.bleu_star > score.bleu

    @given(st.lists(st.tuples(tokens, tokens), min_size=2, max_size=6), st.randoms())
    @settings(max_examples=50)
    def test_pair_permutation_invariance(self, pairs, rnd):
        hyps = [tok(h) for h, _ in pairs]
        refs = [tok(r) for _, r in pairs]
        if sum(len(h) for h in hyps) == 0:
            return
        baseline = corpus_bleu(hyps, refs)
        order = list(range(len(pairs)))
        rnd.shuffle(order)
        shuffled = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order])
        assert shuffled == baseline


class TestBleuStats:
    @given(tokens, tokens)
    def test_counts_match_enumeration(self, hyp, ref):
        stats = bleu_stats(tok(hyp), tok(ref))
        counts = [clipped_ngram_overlap(hyp, ref, n) for n in range(1, 5)]
        assert stats == (
            *(overlap for overlap, _, _ in counts),
            *(hyp_count for _, hyp_count, _ in counts),
            len(hyp),
            len(ref),
        )

    @given(st.lists(st.tuples(tokens, tokens), min_size=1, max_size=6), st.randoms())
    @example(pairs=[([], ["a"]), (["a"], ["a", "b"])], rnd=None)  # empty, short
    @example(pairs=[(["a", "b", "c"], ["a", "b", "d", "e"])], rnd=None)  # p3 = p4 = 0
    @example(pairs=[(["a", "b"], ["b", "a", "c"])], rnd=None)  # p2 = 0, hyp < ref
    @settings(max_examples=200)
    def test_summed_stats_finish_to_corpus_bleu(self, pairs, rnd):
        hyps = [tok(h) for h, _ in pairs]
        refs = [tok(r) for _, r in pairs]
        if sum(len(h) for h in hyps) == 0:
            return
        per_segment = [bleu_stats(h, r) for h, r in zip(hyps, refs)]
        if rnd is not None:  # the sum must not depend on the segment order
            rnd.shuffle(per_segment)
        summed = [sum(column) for column in zip(*per_segment)]
        assert bleu_from_stats(summed) == corpus_bleu(hyps, refs)
        if SUM_LEFT_TO_RIGHT:
            assert bleu_from_stats(summed) == bleu_from_stats_scalar(summed)

    def test_smoothing_and_brevity_paths_reached(self):
        stats = bleu_stats(tok(["a", "b"]), tok(["b", "a", "c"]))
        score = bleu_from_stats(stats)
        assert stats == (2, 0, 0, 0, 2, 1, 0, 0, 2, 3)
        assert score.precisions == (1.0, 0.5, 0.25, 0.125)
        assert score.brevity_penalty < 1.0

    def test_zero_length_hypotheses(self):
        with pytest.raises(ZeroLengthHypothesisCorpus):
            bleu_from_stats(bleu_stats(tok([]), tok(["a"])))


@st.composite
def bleu_stat_rows(draw, max_n=4):
    """A row of summed BLEU statistics: zero matches at any order (the first
    included), zero totals at high orders, hypotheses shorter and longer
    than the reference."""
    hyp_len = draw(st.integers(1, 5000))
    ref_len = draw(
        st.one_of(
            st.integers(1, 5000),
            st.sampled_from([hyp_len, hyp_len + 1, max(hyp_len - 1, 1)]),
        )
    )
    total = [
        draw(st.sampled_from([max(hyp_len - n, 0), 0, hyp_len]))
        for n in range(max_n)
    ]
    correct = [
        draw(st.sampled_from([0, t, t // 2]) | st.integers(0, t)) for t in total
    ]
    return [*correct, *total, hyp_len, ref_len]


def _bits(values):
    return [float(v).hex() for v in values]


class TestBleuArrays:
    @pytest.mark.skipif(not SUM_LEFT_TO_RIGHT, reason="sum() compensates from 3.12")
    @given(st.lists(bleu_stat_rows(), min_size=1, max_size=40))
    @example(rows=[[0, 0, 0, 0, 5, 4, 3, 2, 5, 7]])  # no unigram matches
    @example(rows=[[3, 0, 0, 0, 3, 2, 1, 0, 3, 4]])  # p2..p4 smoothed, hyp < ref
    @example(rows=[[2, 1, 0, 0, 2, 1, 0, 0, 2, 2]])  # zero totals, hyp == ref
    @example(rows=[[4, 3, 2, 1, 9, 8, 7, 6, 9, 3]])  # hyp > ref
    @settings(max_examples=300)
    def test_equals_the_scalar_oracle_bit_for_bit(self, rows):
        try:
            wants = [bleu_from_stats_scalar(row) for row in rows]
        except ZeroDivisionError:  # a brevity penalty underflows to 0
            with pytest.raises(ZeroDivisionError):
                bleu_arrays_from_stats(np.array(rows))
            return
        finished = bleu_arrays_from_stats(np.array(rows))
        assert finished.precisions.shape == (len(rows), 4)
        for i, (row, want) in enumerate(zip(rows, wants)):
            assert _bits(finished.precisions[i]) == _bits(want.precisions)
            assert _bits(
                [
                    finished.brevity_penalty[i],
                    finished.bleu[i],
                    finished.bleu_star[i],
                ]
            ) == _bits([want.brevity_penalty, want.bleu, want.bleu_star])
            assert bleu_from_stats(row) == want

    def test_one_zero_length_row_raises(self):
        rows = np.array([[2, 1, 0, 0, 3, 2, 1, 0, 3, 3]] * 5)
        bleu_arrays_from_stats(rows)
        rows[3, -2] = 0
        with pytest.raises(ZeroLengthHypothesisCorpus):
            bleu_arrays_from_stats(rows)

    def test_more_matches_than_ngrams_rejected(self):
        with pytest.raises(ValueError, match="exceed"):
            bleu_arrays_from_stats([[2, 1, 0, 0, 3, 0, 0, 0, 3, 3]])

    @pytest.mark.parametrize("shape", [(10,), (2, 3), (2, 9)])
    def test_malformed_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="rows, 2 \\* max_n \\+ 2"):
            bleu_arrays_from_stats(np.ones(shape, dtype=np.int64))

    def test_non_integer_statistics_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            bleu_arrays_from_stats([[2.5, 1, 0, 0, 3, 2, 1, 0, 3, 3]])

    def test_max_n_from_the_width(self):
        # max_n = 2: p1 = 3/4, p2 = 1/3, bp = 1
        finished = bleu_arrays_from_stats([[3, 1, 4, 3, 4, 4]])
        assert finished.precisions.tolist() == [[0.75, 1 / 3]]
        assert finished.bleu[0] == pytest.approx(0.5, abs=1e-15)


class TestBleuStar:
    def test_bp_one_identity(self):
        score = BleuScore((1, 1, 1, 1), 1.0, 0.30, 0.30, 10, 10)
        assert bleu_star(score) == 0.30

    def test_direct_formula(self):
        score = BleuScore((1, 1, 1, 1), 0.5, 0.20, 0.40, 10, 20)
        assert bleu_star(score) == pytest.approx(0.40, abs=1e-15)

    def test_zero_bleu(self):
        score = BleuScore((0, 0, 0, 0), 0.9, 0.0, 0.0, 10, 11)
        assert bleu_star(score) == 0.0


class TestRouge:
    def test_identity(self):
        seq = tok(["a", "b", "c"])
        for score in (rouge_n(seq, seq, 1), rouge_n(seq, seq, 2), rouge_l(seq, seq)):
            assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_unigram_hand_case(self):
        score = rouge_n(tok(["the", "cat"]), tok(["the", "cat", "sat"]), 1)
        assert score.precision == 1.0
        assert score.recall == pytest.approx(2 / 3, abs=1e-15)
        assert score.f1 == pytest.approx(0.8, abs=1e-15)

    def test_disjoint_vocabulary_zeros(self):
        score = rouge_n(tok(["a", "b"]), tok(["x", "y"]), 1)
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_lcs_hand_case(self):
        score = rouge_l(tok(["a", "c"]), tok(["a", "b", "c"]))
        assert score.precision == 1.0
        assert score.recall == pytest.approx(2 / 3, abs=1e-15)
        assert score.f1 == pytest.approx(0.8, abs=1e-15)

    def test_empty_hypothesis_all_zero(self):
        score = rouge_l(tok([]), tok(["a", "b"]))
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_short_sequence_zero_denominator(self):
        score = rouge_n(tok(["a"]), tok(["a", "b", "c"]), 2)
        assert score.precision == 0.0 and score.f1 == 0.0

    @given(tokens, tokens)
    @settings(max_examples=300)
    def test_rouge_l_matches_recursive_oracle(self, hyp, ref):
        lcs = lcs_length_recursive(tuple(hyp), tuple(ref))
        score = rouge_l(tok(hyp), tok(ref))
        assert lcs <= min(len(hyp), len(ref))
        if hyp:
            assert score.precision == lcs / len(hyp)
        if ref:
            assert score.recall == lcs / len(ref)

    @given(tokens, tokens, st.integers(1, 3))
    @settings(max_examples=300)
    def test_rouge_n_matches_enumeration_oracle(self, hyp, ref, n):
        overlap, hyp_total, ref_total = clipped_ngram_overlap(hyp, ref, n)
        score = rouge_n(tok(hyp), tok(ref), n)
        assert score.precision == (overlap / hyp_total if hyp_total else 0.0)
        assert score.recall == (overlap / ref_total if ref_total else 0.0)

    @given(tokens, tokens, st.integers(1, 3))
    @settings(max_examples=200)
    def test_swap_symmetry(self, hyp, ref, n):
        fwd = rouge_n(tok(hyp), tok(ref), n)
        rev = rouge_n(tok(ref), tok(hyp), n)
        assert fwd.precision == rev.recall and fwd.recall == rev.precision
        assert fwd.f1 == pytest.approx(rev.f1, abs=1e-15)
        fwd_l, rev_l = rouge_l(tok(hyp), tok(ref)), rouge_l(tok(ref), tok(hyp))
        assert fwd_l.precision == rev_l.recall and fwd_l.f1 == pytest.approx(rev_l.f1, abs=1e-15)

    def test_precision_equals_recall_gives_same_f1(self):
        score = rouge_n(tok(["a", "x"]), tok(["a", "y"]), 1)
        assert score.precision == score.recall == score.f1 == 0.5


def lcs_two_row(a, b):
    """The two-row dynamic program the bit-parallel kernel replaced."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


class TestLcsKernel:
    @given(tie_tokens, tie_tokens)
    @example(a=[], b=[])
    @example(a=[], b=["a", "b"])
    @example(a=["a", "b"], b=[])
    @example(a=["a", "b"] * 40, b=["b", "a"] * 45)  # masks past 64 bits
    @example(a=["a"] * 70, b=["a"] * 130)
    @settings(max_examples=150, deadline=None)
    def test_matches_recursive_oracle_and_two_row_dp(self, a, b):
        lcs = lcs_length_bit_parallel(tuple(a), tuple(b))
        assert lcs == lcs_two_row(a, b)
        assert lcs == lcs_length_recursive(tuple(a), tuple(b))

    @given(
        st.lists(st.sampled_from("abc"), min_size=65, max_size=140),
        st.lists(st.sampled_from("abc"), min_size=65, max_size=140),
    )
    @settings(max_examples=40, deadline=None)
    def test_sequences_longer_than_a_machine_word(self, a, b):
        assert lcs_length_bit_parallel(a, b) == lcs_two_row(a, b)
        assert lcs_length_bit_parallel(b, a) == lcs_two_row(a, b)

    def test_hand_cases(self):
        assert lcs_length_bit_parallel("ABCBDAB", "BDCABA") == 4
        assert lcs_length_bit_parallel("aaaa", "aa") == 2
        assert lcs_length_bit_parallel("abc", "xyz") == 0


class TestSharedCounts:
    @given(tie_tokens, tie_tokens)
    @settings(max_examples=150, deadline=None)
    def test_bleu_stats_and_rouge_n_match_enumeration_oracle(self, hyp, ref):
        stats = bleu_stats(tok(hyp), tok(ref))
        counts = [clipped_ngram_overlap(hyp, ref, n) for n in range(1, 5)]
        assert stats == (
            *(overlap for overlap, _, _ in counts),
            *(hyp_count for _, hyp_count, _ in counts),
            len(hyp),
            len(ref),
        )
        for n, (overlap, hyp_total, ref_total) in enumerate(counts, start=1):
            score = rouge_n(tok(hyp), tok(ref), n)
            assert score.precision == (overlap / hyp_total if hyp_total else 0.0)
            assert score.recall == (overlap / ref_total if ref_total else 0.0)

    @given(tie_tokens, tie_tokens, st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_counted_once_equals_pairwise(self, hyp, ref, max_n):
        # one pair through the array pass: every order's clipped matches and
        # totals are the oracle's, and ROUGE-n read from the statistics is
        # ROUGE-n of the pair
        stats = bleu_stats(tok(hyp), tok(ref), max_n)
        counts = [clipped_ngram_overlap(hyp, ref, n) for n in range(1, max_n + 1)]
        assert stats == (
            *(overlap for overlap, _, _ in counts),
            *(hyp_count for _, hyp_count, _ in counts),
            len(hyp),
            len(ref),
        )
        assert ngram_stats([hyp], [ref], [0], max_n)[0].tolist() == [list(stats)]
        for n, (overlap, hyp_total, ref_total) in enumerate(counts, start=1):
            score = rouge_n_from_stats(stats, n)
            assert score == rouge_n(tok(hyp), tok(ref), n)
            assert score.precision == (overlap / hyp_total if hyp_total else 0.0)
            assert score.recall == (overlap / ref_total if ref_total else 0.0)

    def test_rouge_order_must_be_counted(self):
        stats = bleu_stats(tok(["a", "b"]), tok(["a"]))
        for n in (0, 5):
            with pytest.raises(ValueError):
                rouge_n_from_stats(stats, n)
            with pytest.raises(ValueError):
                rouge_n_arrays([stats], n)
        with pytest.raises(ValueError):
            rouge_n(tok(["a"]), tok(["a"]), 0)


# repeated tokens, CJK characters, and texts shorter than the n-gram order
grams = st.lists(st.sampled_from(["a", "b", "ab", "中", "文", "。"]), max_size=9)


class TestNgramStats:
    @given(
        st.lists(grams, min_size=1, max_size=4),
        st.lists(st.tuples(grams, st.integers(0, 3)), max_size=10),
        st.integers(1, 5),
    )
    @example(refs=[["a"]], cells=[([], 0), ([], 0)], max_n=1)  # empty hypotheses
    @example(refs=[[]], cells=[(["a", "a"], 0)], max_n=5)  # an empty reference
    @example(refs=[["中", "文"], ["中"]], cells=[(["中", "文", "中"], 0)] * 3, max_n=2)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_enumeration_oracle(self, refs, cells, max_n):
        # many cells sharing references, as the native stage passes them
        hyps = [hyp for hyp, _ in cells]
        ref_index = [r % len(refs) for _, r in cells]
        stats, distinct = ngram_stats(hyps, refs, ref_index, max_n)
        assert stats.dtype == np.int64
        assert stats.shape == (len(hyps), 2 * max_n + 2)
        for row, hyp, r in zip(stats.tolist(), hyps, ref_index):
            counts = [
                clipped_ngram_overlap(hyp, refs[r], n) for n in range(1, max_n + 1)
            ]
            assert row == [
                *(overlap for overlap, _, _ in counts),
                *(hyp_count for _, hyp_count, _ in counts),
                len(hyp),
                len(refs[r]),
            ]
        texts = [tuple(text) for text in [*refs, *hyps]]
        assert distinct == sum(
            len({text[i : i + n] for text in texts for i in range(len(text) - n + 1)})
            for n in range(1, max_n + 1)
        )

    @given(st.lists(grams, min_size=1, max_size=4), st.lists(grams, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_rouge_arrays_equal_the_pairwise_scores(self, refs, hyps):
        ref_index = [i % len(refs) for i in range(len(hyps))]
        stats, _ = ngram_stats(hyps, refs, ref_index, 2)
        rouge1, rouge2 = rouge_n_arrays(stats, 1), rouge_n_arrays(stats, 2)
        rouge_lcs = rouge_l_arrays(hyps, refs, ref_index)
        for i, (hyp, r) in enumerate(zip(hyps, ref_index)):
            pair = (tok(hyp), tok(refs[r]))
            for (precision, recall, f1), score in (
                (rouge1, rouge_n(*pair, 1)),
                (rouge2, rouge_n(*pair, 2)),
                (rouge_lcs, rouge_l(*pair)),
            ):
                assert precision[i] == score.precision
                assert recall[i] == score.recall
                assert f1[i] == score.f1

    def test_reference_indices_checked(self):
        with pytest.raises(LengthMismatch):
            ngram_stats([["a"]], [["a"]], [0, 0])
        with pytest.raises(ValueError):
            ngram_stats([["a"]], [["a"]], [1])
        with pytest.raises(ValueError):
            ngram_stats([["a"]], [["a"]], [-1])
        with pytest.raises(ValueError):
            ngram_stats([["a"]], [["a"]], [0], max_n=0)
        with pytest.raises(LengthMismatch):
            rouge_l_arrays([["a"]], [["a"]], [])

    def test_keys_must_stay_exact(self, monkeypatch):
        # 3 tokens and 5 texts: order-1 pair keys reach 5 * 3 = 15
        monkeypatch.setattr(metrics_module, "_EXACT", 14)
        with pytest.raises(OverflowError):
            ngram_stats([["a", "b", "c"]] * 4, [["a"]], [0] * 4)
        monkeypatch.setattr(metrics_module, "_EXACT", 15)
        assert ngram_stats([["a", "b", "c"]] * 4, [["a"]], [0] * 4, max_n=1)


class TestLengthDeviation:
    def test_exact_lengths(self):
        assert length_deviation([LengthRecord(10, 10), LengthRecord(7, 7)]) == 0.0

    def test_direct_formula(self):
        assert length_deviation([LengthRecord(8, 10), LengthRecord(12, 10)]) == pytest.approx(0.2, abs=1e-15)

    def test_empty_set(self):
        with pytest.raises(EmptySet):
            length_deviation([])

    def test_near_perfect_controller_scale(self):
        # a length-forcing decoder: one miss of a single token in ~13500
        records = [LengthRecord(27, 27)] * 499 + [LengthRecord(26, 27)]
        assert length_deviation(records) == pytest.approx(7.4e-5, rel=0.01)

    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(1, 50)), min_size=1, max_size=20
        ),
        st.integers(2, 9),
    )
    def test_scale_consistency(self, pairs, factor):
        base = length_deviation([LengthRecord(o, e) for o, e in pairs])
        scaled = length_deviation(
            [LengthRecord(o * factor, e * factor) for o, e in pairs]
        )
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_monotone_in_record_deviation(self):
        worse = [LengthRecord(6, 10), LengthRecord(10, 10)]
        better = [LengthRecord(8, 10), LengthRecord(10, 10)]
        assert length_deviation(worse) > length_deviation(better)

    def test_mean_of_the_per_record_deviations(self):
        records = [LengthRecord(8, 10), LengthRecord(12, 10), LengthRecord(3, 7)]
        assert length_deviations(records) == [0.2, 0.2, 4 / 7]
        assert length_deviation(records) == (0.2 + 0.2 + 4 / 7) / 3

    def test_invalid_records(self):
        with pytest.raises(ValueError):
            LengthRecord(5, 0)
        with pytest.raises(ValueError):
            LengthRecord(-1, 5)


class TestLeftSum:
    def test_adds_left_to_right_on_every_python(self):
        # sum() compensates its rounding from Python 3.12 and gives 1.0 and
        # 1.0 here; the report bytes rest on the uncompensated order
        assert left_sum([1e16, 1.0, -1e16]) == 0.0
        assert left_sum([0.1] * 10) == 0.9999999999999999
        assert left_sum(iter([0.5, 0.25])) == 0.75
        assert left_sum([]) == 0


class TestLengthTargets:
    def test_round_half_up(self):
        assert round_half_up(2.5) == 3
        assert round_half_up(3.5) == 4  # not banker's rounding
        assert round_half_up(2.4) == 2

    def test_expected_length(self):
        assert expected_length(0.8, 10) == 8
        assert expected_length(0.5, 7) == 4  # 3.5 rounds up
        assert expected_length(0.5, 9) == 5


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: tokenize("a b", "bytes"), ValueError,
         "unknown tokenization scheme: 'bytes'"),
        (lambda: corpus_bleu([tok("a b")], []), LengthMismatch,
         "1 hypotheses vs 0 references"),
        (lambda: bleu_star(BleuScore((0.0,) * 4, 0.0, 0.0, 0.0, 0, 1)), ValueError,
         "brevity penalty must be positive"),
    ],
    ids=["unknown-scheme", "unpaired-corpus", "zero-brevity-penalty"],
)
def test_each_refusal_names_its_cause(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
