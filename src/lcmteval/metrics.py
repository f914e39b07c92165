"""Lexical evaluation metrics: tokenization, corpus BLEU / BLEU*, ROUGE, and
length deviation.

All functions are pure and operate on immutable token sequences, so they are
safe to call concurrently.

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
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyCorpus, EmptySet, LengthMismatch, ZeroLengthHypothesisCorpus

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
        tokens = tuple(ch for ch in text if not ch.isspace())
    elif scheme == WHITESPACE:
        tokens = tuple(text.split())
    else:
        raise ValueError(f"unknown tokenization scheme: {scheme!r}")
    return TokenSeq(tokens, scheme)


def scheme_for_direction(direction: str) -> str:
    """Tokenization scheme for a direction's target side (zh -> character)."""
    target = direction.rsplit("-", 1)[-1].strip().lower()
    return CHARACTER if target.startswith("zh") else WHITESPACE


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def ngram_counts(tokens: Sequence[str], max_n: int = 4) -> list[Counter]:
    """The n-gram counts of one token sequence for orders 1..``max_n``.

    Counted once per text, they serve every pair the text is in: see
    :func:`bleu_stats_from_counts`.
    """
    return [_ngram_counts(tokens, n) for n in range(1, max_n + 1)]


def _clipped_matches(hyp_counts: Counter, ref_counts: Counter) -> int:
    # only n-grams on both sides match; the key intersection runs in C
    common = hyp_counts.keys() & ref_counts.keys()
    return sum(
        map(min, map(hyp_counts.__getitem__, common), map(ref_counts.__getitem__, common))
    )


def bleu_stats_from_counts(
    hyp_counts: Sequence[Counter],
    ref_counts: Sequence[Counter],
    hyp_len: int,
    ref_len: int,
) -> tuple[int, ...]:
    """:func:`bleu_stats` of a pair from each side's :func:`ngram_counts`
    (same ``max_n``) and token count."""
    correct = [_clipped_matches(h, r) for h, r in zip(hyp_counts, ref_counts)]
    total = [max(hyp_len - k, 0) for k in range(len(hyp_counts))]
    return (*correct, *total, hyp_len, ref_len)


def bleu_stats(hyp: TokenSeq, ref: TokenSeq, max_n: int = 4) -> tuple[int, ...]:
    """One segment's additive BLEU statistics: clipped n-gram matches for
    orders 1..``max_n``, then n-gram totals for the same orders, then the
    hypothesis and the reference length.  Summed over segments they are all
    :func:`bleu_from_stats` needs to score a corpus.
    """
    return bleu_stats_from_counts(
        ngram_counts(hyp.tokens, max_n),
        ngram_counts(ref.tokens, max_n),
        len(hyp),
        len(ref),
    )


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
    ``ZeroDivisionError`` when a brevity penalty underflows to 0 (a
    reference over 700 times longer than its hypothesis).

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
    if not brevity_penalty.all():
        raise ZeroDivisionError("the brevity penalty underflows to 0")

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
    :func:`bleu_from_stats` of the summed per-segment :func:`bleu_stats`.
    """
    if len(hypotheses) != len(references):
        raise LengthMismatch(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise EmptyCorpus("corpus_bleu needs at least one hypothesis/reference pair")
    per_segment = [bleu_stats(h, r, max_n) for h, r in zip(hypotheses, references)]
    return bleu_from_stats([sum(column) for column in zip(*per_segment)])


def bleu_star(score: BleuScore) -> float:
    """BLEU with the brevity penalty divided back out."""
    if score.brevity_penalty <= 0:
        raise ValueError("brevity penalty must be positive")
    return score.bleu / score.brevity_penalty


def _prf(overlap: float, hyp_total: int, ref_total: int) -> RougeScore:
    # Zero denominators score 0 rather than erroring: heavily shortened
    # hypotheses can be shorter than the n-gram order.
    precision = overlap / hyp_total if hyp_total > 0 else 0.0
    recall = overlap / ref_total if ref_total > 0 else 0.0
    if precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return RougeScore(precision=precision, recall=recall, f1=f1)


def _rouge_n_prf(overlap: int, hyp_len: int, ref_len: int, n: int) -> RougeScore:
    # a sequence of length L has max(L - n + 1, 0) n-grams
    return _prf(overlap, max(hyp_len - n + 1, 0), max(ref_len - n + 1, 0))


def rouge_n(hyp: TokenSeq, ref: TokenSeq, n: int) -> RougeScore:
    """Clipped n-gram overlap precision/recall/F1 between two sequences."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    overlap = _clipped_matches(
        _ngram_counts(hyp.tokens, n), _ngram_counts(ref.tokens, n)
    )
    return _rouge_n_prf(overlap, len(hyp), len(ref), n)


def rouge_n_from_stats(stats: Sequence[int], n: int) -> RougeScore:
    """:func:`rouge_n` of one segment from its :func:`bleu_stats`: the
    overlap is BLEU's clipped match count of order ``n``, and the n-gram
    totals follow from the two lengths."""
    max_n = (len(stats) - 2) // 2
    if not 1 <= n <= max_n:
        raise ValueError(f"n must be in 1..{max_n}, got {n}")
    return _rouge_n_prf(stats[n - 1], stats[-2], stats[-1], n)


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # Bit-parallel LCS (Allison and Dix, IPL 1986; Hyyro 2004). v holds the
    # DP row of the prefix of a read so far: bit i is 0 exactly where
    # LCS(prefix, b[: i + 1]) exceeds LCS(prefix, b[:i]), so the LCS is the
    # number of 0 bits.  One match mask per distinct token of b, then
    # O(len(a)) big-int operations.
    masks: dict[str, int] = {}
    for i, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << i)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        m = masks.get(x)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(hyp: TokenSeq, ref: TokenSeq) -> RougeScore:
    """Longest-common-subsequence precision/recall/F1."""
    lcs = _lcs_length(hyp.tokens, ref.tokens)
    return _prf(lcs, len(hyp), len(ref))


def length_deviation(records: Iterable[LengthRecord]) -> float:
    """Mean of |output_len - expect_len| / expect_len over the records."""
    records = list(records)
    if not records:
        raise EmptySet("length_deviation needs at least one record")
    return sum(abs(r.output_len - r.expect_len) / r.expect_len for r in records) / len(
        records
    )


def round_half_up(x: float) -> int:
    """Round to nearest integer with exact halves going up."""
    return math.floor(x + 0.5)


def expected_length(ratio: float, reference_length: int) -> int:
    """Target length for a ratio, rounded half-up from the reference length."""
    return round_half_up(ratio * reference_length)
