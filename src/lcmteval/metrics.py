"""Lexical evaluation metrics: tokenization, corpus BLEU / BLEU*, ROUGE, and
length deviation.

All functions are pure and operate on immutable token sequences, so they are
safe to call concurrently.

Clipped n-gram counting exists once: :func:`ngram_stats` takes many
(hypothesis, reference) pairs of a task, encodes their tokens to integer ids
and counts and clips every order's n-grams in one array pass.
:func:`bleu_stats` is its one-pair case and :func:`corpus_bleu` its
one-corpus case; ROUGE-n reads its overlap from those statistics, and every
ROUGE score is finished from arrays (:func:`rouge_n_arrays`,
:func:`rouge_l_arrays`), the scalar functions being their one-pair cases.

Corpus BLEU is finished from additive per-segment statistics summed over a
corpus.  :func:`bleu_arrays_from_stats` finishes a whole array of summed
statistics in one pass (the pipeline's real systems of a task, or its K
hybrid systems) and :func:`bleu_from_stats` is its one-row case, so the
formula exists once.  The finish takes ``log`` and ``exp`` from libm through
``math``, not from numpy, whose float64 kernels may differ from libm in the
last bit, so every score is the scalar formula's, bit for bit.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass
from functools import reduce
from itertools import chain, count
from operator import add
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BrevityPenaltyUnderflow,
    EmptyCorpus,
    EmptySet,
    LengthMismatch,
    ZeroLengthHypothesisCorpus,
)

CHARACTER = "character"
WHITESPACE = "whitespace"


@dataclass(frozen=True)
class TokenSeq:
    """An ordered token sequence plus the scheme that produced it."""

    tokens: tuple[str, ...]
    scheme: str

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class BleuScore:
    precisions: tuple[float, ...]
    brevity_penalty: float
    bleu: float
    bleu_star: float
    hyp_length: int
    ref_length: int


@dataclass(frozen=True)
class BleuArrays:
    """:func:`bleu_arrays_from_stats` of a statistics array: one entry per
    row, precisions one column per order."""

    precisions: np.ndarray  # (rows, max_n) float64
    brevity_penalty: np.ndarray  # float64
    bleu: np.ndarray  # float64
    bleu_star: np.ndarray  # float64


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float


# ROUGE of many pairs: precision, recall and F1, one float64 entry per pair
RougeArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class LengthRecord:
    output_len: int
    expect_len: int

    def __post_init__(self):
        if self.expect_len <= 0:
            raise ValueError(f"expect_len must be positive, got {self.expect_len}")
        if self.output_len < 0:
            raise ValueError(f"output_len must be nonnegative, got {self.output_len}")


def tokenize(text: str, scheme: str) -> TokenSeq:
    """Tokenize ``text`` after NFC normalization.

    ``character`` yields one token per non-whitespace Unicode scalar (the
    convention for unsegmented scripts such as Chinese); ``whitespace``
    splits on runs of whitespace and keeps punctuation attached.
    """
    text = unicodedata.normalize("NFC", text)
    if scheme == CHARACTER:
        # str.split() splits on exactly the characters str.isspace() holds for
        tokens = tuple("".join(text.split()))
    elif scheme == WHITESPACE:
        tokens = tuple(text.split())
    else:
        raise ValueError(f"unknown tokenization scheme: {scheme!r}")
    return TokenSeq(tokens, scheme)


def scheme_for_direction(direction: str) -> str:
    """Tokenization scheme for a direction's target side (zh -> character)."""
    target = direction.rsplit("-", 1)[-1].strip().lower()
    return CHARACTER if target.startswith("zh") else WHITESPACE


# float64 holds every integer below 2**53 exactly
_EXACT = 2**53


def _exact_keys(bound: int) -> None:
    """Refuse keys that could reach ``bound``: float64 would round them."""
    if bound > _EXACT:
        raise OverflowError(
            f"n-gram keys up to {bound} do not fit the float64 mantissa (2**53)"
        )


def ngram_stats(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    ref_index: Sequence[int],
    max_n: int = 4,
) -> tuple[np.ndarray, int]:
    """The :func:`bleu_stats` of every pair (``hypotheses[i]``,
    ``references[ref_index[i]]``) of token sequences, in one array pass: a
    (pairs, 2 * max_n + 2) int64 array, one row per pair, and the number of
    distinct n-grams over all the texts, summed over the orders.

    The tokens are encoded to integer ids once.  Each order's n-gram ids
    extend the order n - 1 ids by the next token and are renumbered densely,
    so every key is an exact integer (below 2**53, checked; the keys are
    sorted as float64).  Per order, one sort counts each reference's
    n-grams, keyed by (reference, n-gram) for the reference and for every
    hypothesis it clips, and one sort counts each hypothesis's; a reference
    shared by many hypotheses is counted once.  The counting takes only
    ``np.unique`` with ``return_inverse`` and ``np.bincount``: a run calls
    both elsewhere too, and each numpy kernel a run touches first adds
    resident code pages to its peak RSS.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    n_refs, n_hyps = len(references), len(hypotheses)
    ref_index = np.asarray(ref_index, dtype=np.intp)
    if len(ref_index) != n_hyps:
        raise LengthMismatch(
            f"{n_hyps} hypotheses vs {len(ref_index)} reference indices"
        )
    if n_hyps and not (0 <= ref_index.min() and ref_index.max() < n_refs):
        raise ValueError(f"reference indices must lie in [0, {n_refs})")

    texts = [*references, *hypotheses]
    lengths = np.fromiter(map(len, texts), np.int64, len(texts))
    flat = list(chain.from_iterable(texts))
    vocab = dict(zip(dict.fromkeys(flat), count()))
    tokens = np.fromiter(map(vocab.__getitem__, flat), np.float64, len(flat))
    # per token position: its text, the reference that clips its n-grams
    # (a reference clips its own) and where its text ends
    text_of = np.repeat(np.arange(len(texts)), lengths)
    clipper = np.concatenate([np.arange(n_refs), ref_index])[text_of]
    text_end = np.repeat(np.cumsum(lengths), lengths)
    text_of, clipper = text_of.astype(np.float64), clipper.astype(np.float64)
    starts = np.arange(len(flat))  # where each n-gram of the current order starts
    grams, n_grams = tokens, len(vocab)  # order-1 ids are the token ids
    matches = np.zeros((n_hyps, max_n), np.int64)
    distinct = 0
    for n in range(1, max_n + 1):
        if n > 1:
            keep = starts + (n - 1) < text_end[starts]
            starts = starts[keep]
            _exact_keys(n_grams * len(vocab))
            keys = grams[keep] * len(vocab) + tokens[starts + (n - 1)]
            unique, inverse = np.unique(keys, return_inverse=True)
            grams, n_grams = inverse.astype(np.float64), len(unique)
        distinct += n_grams
        _exact_keys(len(texts) * n_grams)
        text = text_of[starts]
        in_hyp = text >= n_refs
        # each (reference, n-gram)'s count in that reference
        clipped_by, by_ref = np.unique(
            clipper[starts] * n_grams + grams, return_inverse=True
        )
        ref_counts = np.bincount(by_ref[~in_hyp], minlength=len(clipped_by))
        # each (hypothesis, n-gram)'s count, clipped by its reference's
        pairs, by_pair = np.unique(
            text[in_hyp] * n_grams + grams[in_hyp], return_inverse=True
        )
        owner = np.zeros(len(pairs), np.intp)
        owner[by_pair] = text[in_hyp] - n_refs
        clip = np.zeros(len(pairs), np.int64)
        clip[by_pair] = ref_counts[by_ref[in_hyp]]
        clipped = np.minimum(np.bincount(by_pair, minlength=len(pairs)), clip)
        matches[:, n - 1] = np.bincount(owner, weights=clipped, minlength=n_hyps)

    hyp_len = lengths[n_refs:]
    totals = np.maximum(hyp_len[:, None] - np.arange(max_n), 0)
    stats = np.column_stack([matches, totals, hyp_len, lengths[:n_refs][ref_index]])
    return stats, distinct


def bleu_stats(hyp: TokenSeq, ref: TokenSeq, max_n: int = 4) -> tuple[int, ...]:
    """One segment's additive BLEU statistics: clipped n-gram matches for
    orders 1..``max_n``, then n-gram totals for the same orders, then the
    hypothesis and the reference length.  Summed over segments they are all
    :func:`bleu_from_stats` needs to score a corpus.  The one-pair case of
    :func:`ngram_stats`.
    """
    stats, _ = ngram_stats([hyp.tokens], [ref.tokens], [0], max_n)
    return tuple(stats[0].tolist())


def _libm(func, values: np.ndarray) -> np.ndarray:
    """``func`` (``math.log`` or ``math.exp``) of every entry, as float64."""
    flat = np.fromiter(map(func, values.ravel().tolist()), np.float64, values.size)
    return flat.reshape(values.shape)


def bleu_arrays_from_stats(stats) -> BleuArrays:
    """Corpus BLEU of every row of a (rows, 2 * max_n + 2) integer array of
    summed :func:`bleu_stats` statistics, in one array pass.

    Zero precisions at orders >= 2 are exponentially smoothed: the k-th
    zero-count order of a row is replaced by 1 / (2^k * max(total_n, 1)).  A
    row with no unigram matches at all scores exactly 0.  ``bleu_star`` is
    the score with the brevity penalty divided back out, so it never falls
    below ``bleu`` and equals it whenever the penalty is 1.  Raises
    :class:`ZeroLengthHypothesisCorpus` when any row's hypothesis length is
    0, ``ValueError`` for statistics that are not integers, not of that
    shape, or with more clipped matches than n-grams at some order, and
    :class:`BrevityPenaltyUnderflow` (a ``ZeroDivisionError`` too, naming the
    first such row) when a brevity penalty underflows to 0 (a reference over
    700 times longer than its hypothesis).

    Every value equals the scalar arithmetic of one row, bit for bit, for
    statistics below 2**53: the ratios, the smoothing terms, the penalty's
    argument and the products are float64 operations on exact integers,
    which round like Python's.  ``log`` and ``exp`` are libm's
    (``math.log`` and ``math.exp`` mapped over flat lists), because numpy's
    float64 ``log`` and ``exp`` may run SIMD kernels that differ from libm in
    the last bit; and the log terms are added order by order, left to right,
    as ``sum`` adds floats on Python 3.10 and 3.11.
    """
    stats = np.asarray(stats)
    if stats.dtype.kind not in "iu":
        raise ValueError(f"BLEU statistics must be integers, got {stats.dtype}")
    if stats.ndim != 2 or stats.shape[1] < 4 or stats.shape[1] % 2:
        raise ValueError(
            f"BLEU statistics must be (rows, 2 * max_n + 2), got {stats.shape}"
        )
    max_n = (stats.shape[1] - 2) // 2
    # exact: the statistics are integers below 2**53
    exact = stats.astype(np.float64)
    correct = exact[:, :max_n]
    total = exact[:, max_n : 2 * max_n]
    hyp_len, ref_len = exact[:, -2], exact[:, -1]
    if not hyp_len.all():
        raise ZeroLengthHypothesisCorpus("all hypotheses are empty")
    if (correct > total).any():
        raise ValueError("clipped n-gram matches exceed the n-gram total")

    brevity_penalty = np.ones(len(stats))
    short = np.flatnonzero(hyp_len < ref_len)
    brevity_penalty[short] = _libm(math.exp, 1.0 - ref_len[short] / hyp_len[short])
    underflow = np.flatnonzero(brevity_penalty == 0)
    if underflow.size:
        raise BrevityPenaltyUnderflow(
            "the brevity penalty underflows to 0", int(underflow[0])
        )

    matched = correct > 0
    precisions = np.zeros(correct.shape)
    # the k-th zero-count order >= 2 of a row is smoothed with 2**k
    smoothing = np.ones(len(stats))
    at_least_one = np.where(total > 0, total, 1.0)  # max(total_n, 1)
    for n in range(1, max_n):
        smoothing[~matched[:, n]] *= 2.0
        precisions[:, n] = 1.0 / (smoothing * at_least_one[:, n])
    precisions[matched] = correct[matched] / total[matched]

    bleu = np.zeros(len(stats))
    scored = np.flatnonzero(matched[:, 0])
    logs = _libm(math.log, precisions[scored])
    log_sum = logs[:, 0].copy()
    for n in range(1, max_n):
        log_sum += logs[:, n]
    bleu[scored] = brevity_penalty[scored] * _libm(math.exp, log_sum / max_n)
    return BleuArrays(precisions, brevity_penalty, bleu, bleu / brevity_penalty)


def bleu_from_stats(stats: Sequence[int]) -> BleuScore:
    """Corpus BLEU from summed :func:`bleu_stats` statistics: the one-row
    case of :func:`bleu_arrays_from_stats`, which documents the formula."""
    finished = bleu_arrays_from_stats([stats])
    return BleuScore(
        precisions=tuple(finished.precisions[0].tolist()),
        brevity_penalty=float(finished.brevity_penalty[0]),
        bleu=float(finished.bleu[0]),
        bleu_star=float(finished.bleu_star[0]),
        hyp_length=stats[-2],
        ref_length=stats[-1],
    )


def corpus_bleu(
    hypotheses: Sequence[TokenSeq],
    references: Sequence[TokenSeq],
    max_n: int = 4,
) -> BleuScore:
    """Corpus-level BLEU with clipped n-gram precisions and brevity penalty:
    :func:`bleu_from_stats` of the summed per-segment :func:`bleu_stats`, all
    segments counted in one :func:`ngram_stats` pass.
    """
    if len(hypotheses) != len(references):
        raise LengthMismatch(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise EmptyCorpus("corpus_bleu needs at least one hypothesis/reference pair")
    per_segment, _ = ngram_stats(
        [h.tokens for h in hypotheses],
        [r.tokens for r in references],
        range(len(references)),
        max_n,
    )
    return bleu_from_stats(per_segment.sum(axis=0).tolist())


def bleu_star(score: BleuScore) -> float:
    """BLEU with the brevity penalty divided back out."""
    if score.brevity_penalty <= 0:
        raise ValueError("brevity penalty must be positive")
    return score.bleu / score.brevity_penalty


def _ratio(part: np.ndarray, whole: np.ndarray) -> np.ndarray:
    # part / whole, and 0 where whole is 0
    return np.where(whole > 0, part / np.where(whole > 0, whole, 1.0), 0.0)


def _prf(overlap, hyp_total, ref_total) -> RougeArrays:
    # Zero denominators score 0 rather than erroring: heavily shortened
    # hypotheses can be shorter than the n-gram order.  Counts are exact in
    # float64, so each ratio and product rounds as in scalar arithmetic.
    overlap = np.asarray(overlap, dtype=np.float64)
    precision = _ratio(overlap, np.asarray(hyp_total, dtype=np.float64))
    recall = _ratio(overlap, np.asarray(ref_total, dtype=np.float64))
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    return precision, recall, f1


def _one_pair(scores: RougeArrays) -> RougeScore:
    precision, recall, f1 = (float(values[0]) for values in scores)
    return RougeScore(precision=precision, recall=recall, f1=f1)


def rouge_n_arrays(stats, n: int) -> RougeArrays:
    """ROUGE-n precision, recall and F1 arrays of every row of a
    (rows, 2 * max_n + 2) :func:`bleu_stats` array: the overlap is BLEU's
    clipped match count of order ``n``, and the n-gram totals follow from
    the two lengths."""
    stats = np.asarray(stats)
    max_n = (stats.shape[1] - 2) // 2
    if not 1 <= n <= max_n:
        raise ValueError(f"n must be in 1..{max_n}, got {n}")
    # a sequence of length L has max(L - n + 1, 0) n-grams
    return _prf(
        stats[:, n - 1],
        np.maximum(stats[:, -2] - (n - 1), 0),
        np.maximum(stats[:, -1] - (n - 1), 0),
    )


def rouge_n_from_stats(stats: Sequence[int], n: int) -> RougeScore:
    """:func:`rouge_n` of one segment from its :func:`bleu_stats`: the
    one-row case of :func:`rouge_n_arrays`."""
    return _one_pair(rouge_n_arrays([stats], n))


def rouge_n(hyp: TokenSeq, ref: TokenSeq, n: int) -> RougeScore:
    """Clipped n-gram overlap precision/recall/F1 between two sequences."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return rouge_n_from_stats(bleu_stats(hyp, ref, n), n)


def _match_masks(b: Sequence[str]) -> dict[str, int]:
    # bit i of a token's mask is set where b[i] is that token
    masks: dict[str, int] = {}
    for i, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << i)
    return masks


def _lcs_from_masks(a: Sequence[str], masks: dict[str, int], len_b: int) -> int:
    # Bit-parallel LCS (Allison and Dix, IPL 1986; Hyyro 2004). v holds the
    # DP row of the prefix of a read so far: bit i is 0 exactly where
    # LCS(prefix, b[: i + 1]) exceeds LCS(prefix, b[:i]), so the LCS is the
    # number of 0 bits.  O(len(a)) big-int operations.
    full = (1 << len_b) - 1
    v = full
    for x in a:
        m = masks.get(x)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len_b - v.bit_count()


def rouge_l_arrays(
    hypotheses: Sequence[Sequence[str]],
    references: Sequence[Sequence[str]],
    ref_index: Sequence[int],
) -> RougeArrays:
    """Longest-common-subsequence precision, recall and F1 arrays of every
    pair (``hypotheses[i]``, ``references[ref_index[i]]``) of token
    sequences; each reference's match masks are built once."""
    if len(ref_index) != len(hypotheses):
        raise LengthMismatch(
            f"{len(hypotheses)} hypotheses vs {len(ref_index)} reference indices"
        )
    masks = [_match_masks(ref) for ref in references]
    lcs = [
        _lcs_from_masks(hyp, masks[r], len(references[r]))
        for hyp, r in zip(hypotheses, ref_index)
    ]
    return _prf(
        lcs, list(map(len, hypotheses)), [len(references[r]) for r in ref_index]
    )


def rouge_l(hyp: TokenSeq, ref: TokenSeq) -> RougeScore:
    """Longest-common-subsequence precision/recall/F1."""
    return _one_pair(rouge_l_arrays([hyp.tokens], [ref.tokens], [0]))


def length_deviations(records: Iterable[LengthRecord]) -> list[float]:
    """|output_len - expect_len| / expect_len of each record."""
    return [abs(r.output_len - r.expect_len) / r.expect_len for r in records]


def length_deviation(records: Iterable[LengthRecord]) -> float:
    """Mean of :func:`length_deviations` over the records."""
    deviations = length_deviations(records)
    if not deviations:
        raise EmptySet("length_deviation needs at least one record")
    return left_sum(deviations) / len(deviations)


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0, as ``sum`` adds floats on Python
    3.10 and 3.11.  From 3.12 ``sum`` compensates its rounding, which can
    move the last bits of a float total; every float total of the package
    goes through here, so its report bytes do not depend on the version."""
    return reduce(add, values, 0)


def round_half_up(x: float) -> int:
    """Round to nearest integer with exact halves going up."""
    return math.floor(x + 0.5)


def expected_length(ratio: float, reference_length: int) -> int:
    """Target length for a ratio, rounded half-up from the reference length."""
    return round_half_up(ratio * reference_length)
