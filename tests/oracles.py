"""Independent brute-force oracles used by the tests.

These deliberately re-derive each statistic from its definition (explicit
enumeration, full-table recursion, textbook formulas) rather than sharing
any code path with the package.  The permutation-test oracle takes only its
swap masks from the package: the seed stream is the documented contract.
Three test-only helpers sit with them: ``lcs_length_bit_parallel`` runs the
package's LCS kernel on one pair, for comparison with the oracles,
``read_csv_table`` reads a report with the csv module alone, and ``READERS``
calls each reader of score tables and human scores the same way.
"""

from __future__ import annotations

import csv
import math
import sys
from functools import lru_cache

from lcmteval.errors import ZeroLengthHypothesisCorpus
from lcmteval.metaeval import (
    hybrid_supersample,
    segment_correlation,
    select_best_variant,
)
from lcmteval.metrics import BleuScore, _lcs_from_masks, _match_masks
from lcmteval.seeding import rng_for
from lcmteval.significance import perm_both, segment_sig_matrix


# Every reader of score tables and human scores, called on a list of tables
# of one task and one human mapping; each checks both with one alignment step.
READERS = {
    "hybrid_supersample": lambda tables, human: hybrid_supersample(
        tables, human, 3, seed=1
    ),
    "segment_correlation": lambda tables, human: [
        segment_correlation(t, human) for t in tables
    ],
    "select_best_variant": lambda tables, human: [
        select_best_variant({"v": {t.task: t}}, {t.task: human}, [t.task])
        for t in tables
    ],
    "perm_both": lambda tables, human: perm_both(
        tables[0], tables[-1], human, r=10, seed=0
    ),
    "segment_sig_matrix": lambda tables, human: segment_sig_matrix(
        {t.display_name(): t for t in tables}, human, tables[0].task, r=10, seed=0
    ),
}


def read_csv_table(path) -> tuple[list[str], list[list[str]]]:
    """The header and the non-blank rows of a CSV report, every row as wide
    as the header."""
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = [row for row in csv.reader(fh) if row]
    assert all(len(row) == len(header) for row in rows), path
    return header, rows


def lcs_length_bit_parallel(a, b) -> int:
    """The LCS length of one pair from the package's bit-parallel kernel,
    the one ``rouge_l`` and ``rouge_l_arrays`` run."""
    return _lcs_from_masks(a, _match_masks(b), len(b))


def lcs_length_recursive(a: tuple, b: tuple) -> int:
    """LCS length straight from the recurrence, memoized full table."""

    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))

    return rec(len(a), len(b))


def clipped_ngram_overlap(hyp: list, ref: list, n: int) -> tuple[int, int, int]:
    """(overlap, hyp_count, ref_count) by explicit list enumeration."""
    hyp_ngrams = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
    ref_ngrams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
    overlap = 0
    for gram in set(hyp_ngrams):
        overlap += min(hyp_ngrams.count(gram), ref_ngrams.count(gram))
    return overlap, len(hyp_ngrams), len(ref_ngrams)


# bleu_from_stats_scalar adds its log terms with sum(), which adds floats left
# to right on Python 3.10 and 3.11, as the package's array finish does on
# every version; from 3.12 sum() compensates its rounding, so there the two
# may differ in the last bit.
SUM_LEFT_TO_RIGHT = sys.version_info < (3, 12)


def bleu_from_stats_scalar(stats) -> BleuScore:
    """Corpus BLEU of one row of summed BLEU statistics, one order at a time
    in Python floats: the package's scalar finish before it moved onto
    arrays."""
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


def pearson_textbook(x, y) -> float:
    n = len(x)
    mean_x = sum(x) / n
    mean_y = sum(y) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    var_x = sum((a - mean_x) ** 2 for a in x)
    var_y = sum((b - mean_y) ** 2 for b in y)
    return cov / math.sqrt(var_x * var_y)


def kendall_tau_b_enumeration(x, y) -> float:
    """tau-b from O(n^2) pair classification."""
    concordant = discordant = tied_x_only = tied_y_only = 0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0 and dy == 0:
                continue
            elif dx == 0:
                tied_x_only += 1
            elif dy == 0:
                tied_y_only += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    c, d = concordant, discordant
    return (c - d) / math.sqrt(
        (c + d + tied_x_only) * (c + d + tied_y_only)
    )


def krippendorff_interval_bruteforce(units: dict) -> float:
    """alpha from explicit enumeration of all ordered pairable pairs.

    ``units`` maps a unit id to the list of values given by its raters.
    """
    pairable = {u: vals for u, vals in units.items() if len(vals) > 1}
    values = [v for vals in pairable.values() for v in vals]
    n = len(values)

    d_obs = 0.0
    for vals in pairable.values():
        unit_sum = 0.0
        for i, a in enumerate(vals):
            for j, b in enumerate(vals):
                if i != j:
                    unit_sum += (a - b) ** 2
        d_obs += unit_sum / (len(vals) - 1)
    d_obs /= n

    d_exp = 0.0
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            if i != j:
                d_exp += (a - b) ** 2
    d_exp /= n * (n - 1)

    if d_exp == 0.0:
        return 1.0
    return 1.0 - d_obs / d_exp


def one_vs_rest_bruteforce(matrix: dict) -> float:
    """matrix: annotator -> {item: score}; mean of each annotator's Pearson
    against the plain average of the others on co-rated items."""
    annotators = sorted(matrix)
    correlations = []
    for annotator in annotators:
        own, rest = [], []
        for item, score in sorted(matrix[annotator].items()):
            others = [
                matrix[other][item]
                for other in annotators
                if other != annotator and item in matrix[other]
            ]
            if others:
                own.append(score)
                rest.append(sum(others) / len(others))
        correlations.append(pearson_textbook(own, rest))
    return sum(correlations) / len(correlations)


def perm_both_enumeration(a, b, h, r: int, seed: int) -> float:
    """p-value of the per-cell swap permutation test, every tau-b from
    ``kendall_tau_b_enumeration``.

    ``a``, ``b`` and ``h`` list the cells in sorted key order.  Replicate i
    swaps the cells where row i of
    ``rng_for(seed, "perm-both").random((r, n)) < 0.5`` (the documented mask
    stream); p = (1 + #{delta* >= delta}) / (r + 1).
    """
    n = len(a)
    delta = kendall_tau_b_enumeration(a, h) - kendall_tau_b_enumeration(b, h)
    hits = 0
    for swap in rng_for(seed, "perm-both").random((r, n)) < 0.5:
        a_star = [y if s else x for x, y, s in zip(a, b, swap)]
        b_star = [x if s else y for x, y, s in zip(a, b, swap)]
        delta_star = kendall_tau_b_enumeration(a_star, h) - kendall_tau_b_enumeration(
            b_star, h
        )
        hits += delta_star >= delta
    return (1 + hits) / (r + 1)
