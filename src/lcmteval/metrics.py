"""Lexical evaluation metrics: tokenization, corpus BLEU / BLEU*, ROUGE, and
length deviation.

All functions are pure and operate on immutable token sequences, so they are
safe to call concurrently.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def bleu_from_stats(stats: Sequence[int]) -> BleuScore:
    """Corpus BLEU from summed :func:`bleu_stats` statistics.

    Zero precisions at orders >= 2 are exponentially smoothed: the k-th
    zero-count order is replaced by 1 / (2^k * max(total_n, 1)).  A corpus
    with no unigram matches at all scores exactly 0.  ``bleu_star`` is the
    score with the brevity penalty divided back out, so it never falls below
    ``bleu`` and equals it whenever the penalty is 1.
    """
    max_n = (len(stats) - 2) // 2
    correct = stats[:max_n]
    total = stats[max_n : 2 * max_n]
    hyp_len, ref_len = stats[-2], stats[-1]
    if hyp_len == 0:
        raise ZeroLengthHypothesisCorpus("all hypotheses are empty")

    if hyp_len >= ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)

    precisions: list[float] = []
    smooth_k = 0
    for n in range(1, max_n + 1):
        if correct[n - 1] > 0:
            precisions.append(correct[n - 1] / total[n - 1])
        elif n == 1:
            precisions.append(0.0)
        else:
            smooth_k += 1
            precisions.append(1.0 / (2**smooth_k * max(total[n - 1], 1)))

    if precisions[0] == 0.0:
        bleu = 0.0
    else:
        bleu = bp * math.exp(sum(math.log(p) for p in precisions) / max_n)
    return BleuScore(
        precisions=tuple(precisions),
        brevity_penalty=bp,
        bleu=bleu,
        bleu_star=bleu / bp,
        hyp_length=hyp_len,
        ref_length=ref_len,
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
