"""Statistical comparison of metrics and systems.

System-level metric comparison builds confidence intervals for the
difference of two correlations that share the human scores as one variable
(the overlapping dependent-correlation construction of Zou, 2007).
Segment-level comparison runs a permutation test that swaps the two
metrics' scores per cell with probability one half.  System comparison
under a fixed metric uses paired bootstrap resampling over segments.

System-level matrices convert and centre each vector once per task (the
arithmetic of :func:`~.metaeval.pearson`), take r(human, metric) once per
metric and r(row, col) once per unordered pair.

The permutation test evaluates Kendall tau-b of both swapped vectors as
quadratic forms in the swap mask (see :class:`_SwapTauB`), so a batch of
replicates costs a few matrix products instead of enumerating the
n(n-1)/2 cell pairs again.  Every count is an exact integer, so the
statistics equal pairwise enumeration bit for bit.

A matrix of M metrics stacks the flattened arrays of its score tables
(cells in sorted (system, segment) order) once per task, ranks them once
and draws one mask set, from ``rng_for(seed, "perm-both")`` with the
matrix's own seed, for all M(M-1)/2 unordered pairs: each metric's forms
are taken once, each pair adds only its cross forms, and one float32
product per tile of cell pairs and batch of replicates gives the forms of
every pair.  Under one mask, (B, A)'s difference is exactly minus (A, B)'s,
so each unordered pair gives the p-values of both orders, and every p-value
equals that of one ``perm_both`` call per ordered pair with the matrix's
seed; ``perm_both`` is the two-metric case.  The tests of one matrix thus
share their replicates (common random numbers).  Each stays an exact
permutation test, and the Bonferroni flags, a union bound, hold under any
dependence between the tests.  Every working block holds at most
metaeval's ``_BLOCK`` entries; the masks and the forms grow with R.

The tests align their tables and the human scores in metaeval's one step:
the tables share one task (a matrix's own) and their cells, and the human
mapping scores those cells and no other; anything else raises
:class:`CellMismatch`, which names a missing cell.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from statistics import NormalDist
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import SEGMENT_LEVEL, ScoreTable, Task
from .errors import (
    AlignmentMismatch,
    AllTied,
    CellMismatch,
    DegenerateCorrelation,
    NonFiniteScore,
    SampleTooSmall,
    SystemOnlyTable,
)
from .metaeval import (
    _BLOCK,
    _aligned_cube,
    _centred,
    _centred_r,
    _check_paired,
    _dense_ranks,
    _sign_of_difference,
)
from .seeding import rng_for

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CIResult:
    lower: float
    upper: float
    level: float


@dataclass(frozen=True)
class SigCell:
    row_metric: str
    col_metric: str
    ci: CIResult | None
    p_value: float | None
    significant: bool
    bonferroni_significant: bool | None


@dataclass(frozen=True)
class SigMatrix:
    task: Task
    level: str  # "system" or "segment"
    metrics: tuple[str, ...]
    cells: Mapping[tuple[str, str], SigCell]


def zou_ci(
    r12: float, r13: float, r23: float, n: int, level: float = 0.95
) -> CIResult:
    """Confidence interval for r12 - r13 when both correlations share
    variable 1 (here: the human scores).

    Fisher-z marginal intervals are combined using the correlation between
    the two sample correlations,

        c = ((r23 - r12*r13/2) * (1 - r12^2 - r13^2 - r23^2) + r23^3)
            / ((1 - r12^2) * (1 - r13^2)).

    Two identical metrics (r23 = 1, r12 = r13) get the degenerate interval
    [0, 0].
    """
    return _zou_interval(r12, r13, r23, level, _fisher_interval(n, level))


def _fisher_interval(n: int, level: float) -> Callable[[float], tuple[float, float]]:
    """r -> the Fisher-z interval of r at ``level`` over n points."""
    if n < 4:
        raise SampleTooSmall(f"zou_ci needs n >= 4, got {n}")
    if not (0.0 < level < 1.0):
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    half = NormalDist().inv_cdf(0.5 + level / 2.0) / math.sqrt(n - 3)

    def interval(r: float) -> tuple[float, float]:
        z = math.atanh(r)
        return math.tanh(z - half), math.tanh(z + half)

    return interval


def _zou_interval(r12, r13, r23, level, fisher_interval) -> CIResult:
    """:func:`zou_ci` with the Fisher-z intervals from ``fisher_interval``."""
    if abs(r12 - r13) <= 1e-12 and r23 >= 1.0 - 1e-12:
        # Identical metrics (up to float noise, e.g. exact affine copies):
        # the difference of correlations is exactly zero.
        return CIResult(0.0, 0.0, level)
    for name, r in (("r12", r12), ("r13", r13), ("r23", r23)):
        if abs(r) >= 1.0:
            raise DegenerateCorrelation(f"{name} = {r} is not inside (-1, 1)")
    (l1, u1), (l2, u2) = fisher_interval(r12), fisher_interval(r13)
    c = ((r23 - r12 * r13 / 2.0) * (1.0 - r12**2 - r13**2 - r23**2) + r23**3) / (
        (1.0 - r12**2) * (1.0 - r13**2)
    )
    d = r12 - r13
    lo = d - math.sqrt(
        max(0.0, (r12 - l1) ** 2 + (u2 - r13) ** 2 - 2 * c * (r12 - l1) * (u2 - r13))
    )
    hi = d + math.sqrt(
        max(0.0, (u1 - r12) ** 2 + (r13 - l2) ** 2 - 2 * c * (u1 - r12) * (r13 - l2))
    )
    return CIResult(lo, hi, level)


def system_sig_matrix(
    metric_vectors: Mapping[str, Sequence[float]],
    human_vector: Sequence[float],
    task: Task,
    level: float = 0.95,
) -> SigMatrix:
    """Pairwise win matrix over system-level metric vectors.

    A row metric significantly wins over a column metric when the interval
    for (r(human, row) - r(human, col)) lies strictly above zero.  Each
    vector is converted and centred once (:func:`~.metaeval._centred`, the
    arithmetic of :func:`~.metaeval.pearson`), r(human, metric) and its
    Fisher-z interval are taken once per metric and r(row, col) once per
    unordered pair, so every cell equals the one built from ``pearson`` and
    :func:`zou_ci` per ordered pair, errors included.
    """
    names = list(metric_vectors)
    n = len(human_vector)
    human = None
    vectors, human_r = {}, {}
    for name in names:  # each check in the order pearson(human, metric) makes it
        _check_paired(human_vector, metric_vectors[name], "pearson")
        if human is None:
            human = _centred(human_vector)
        vectors[name] = _centred(metric_vectors[name])
        human_r[name] = _centred_r(human, vectors[name])
    # zou_ci's checks of n and level, made before its first interval
    fisher = cache(_fisher_interval(n, level)) if len(names) > 1 else None
    cross_r: dict[frozenset[str], float] = {}
    cells: dict[tuple[str, str], SigCell] = {}
    for row in names:
        for col in names:
            if row == col:
                continue
            pair = frozenset((row, col))
            if pair not in cross_r:
                cross_r[pair] = _centred_r(vectors[row], vectors[col])
            ci = _zou_interval(human_r[row], human_r[col], cross_r[pair], level, fisher)
            cells[(row, col)] = SigCell(
                row_metric=row,
                col_metric=col,
                ci=ci,
                p_value=None,
                significant=ci.lower > 0.0,
                bonferroni_significant=None,
            )
    return SigMatrix(task=task, level="system", metrics=tuple(names), cells=cells)


def _gather(
    tables: Sequence[ScoreTable], human: Mapping[tuple[str, str], float]
) -> tuple[np.ndarray, np.ndarray]:
    """The (M, n) scores of M segment-level tables, each row a table's
    flattened array, and their n human scores, over the tables' common cells
    in sorted key order."""
    if any(table.level != SEGMENT_LEVEL for table in tables):
        raise SystemOnlyTable("permutation test needs segment-level tables")
    cube = _aligned_cube(tables, human)[2].reshape(len(tables) + 1, -1)
    if not np.isfinite(cube).all():
        raise NonFiniteScore("permutation test needs finite scores")
    return cube[:-1], cube[-1]


# float32 holds every integer of magnitude up to this one exactly
_FLOAT32_EXACT = 2**24
# a pair's quadratic term from its forms m'X_aa m, m'X_bb m and m'X_ab m
_QUAD_WEIGHTS = np.array([0.5, 0.5, -1.0], dtype=np.float32)


class _SwapTauB:
    """Kendall tau-b against the human scores h of both sides of a per-cell
    swap, for every pair of M metrics under one shared set of swap masks.

    Under mask m (1 = swap the cell), A* takes b_i where m_i = 1 and a_i
    elsewhere, B* the reverse.  The sign of the pair (i, j) in A* depends
    only on m_i and m_j, so twice its concordant-minus-discordant count,
    summed over ordered pairs with g = sign(h_i - h_j) and
    G_xy[i, j] = g * sign(x_i - y_j), is a quadratic form in m:

        2 cmd(A*) = sum(G_aa) + 2 m.(colsum(G_ab) - rowsum(G_aa))
                    + m'G_aa m + m'G_bb m - 2 m'G_ab m

    and 2 cmd(B*) the same with rowsum(G_ab) - rowsum(G_bb) as its linear
    term (g and sign are antisymmetric, so G_ba = G_ab', and m_i^2 = m_i
    folds the rest into the linear term).  The tie count n1 has the same
    form with T_xy[i, j] = [x_i == y_j and i != j] in place of G_xy.

    So one mask set serves every pair: m'G_xx m and m'T_xx m are taken once
    per metric, and each pair adds only its cross forms m'G_ab m and, when
    some a_i equals some b_j (i != j), m'T_ab m.  Every diagonal is zero and
    G_xy[j, i] = s2[i, j], with s1[i, j] = g * sign(x_i - y_j) and
    s2[i, j] = g * sign(y_i - x_j) over the cell pairs i < j.  So one pass
    over tiles of those pairs does all the sign work: each tile's
    coefficients s1 + s2 are built once, their float32 products with
    m_i m_j over each batch of masks add up every form m'G_xy m, and
    rowsum_i(G_xy) = rowsum_i(s1) + colsum_i(s2), colsum_j(G_xy) =
    colsum_j(s1) + rowsum_j(s2); T's sums come from the rank counts.  A
    pair's four counts, cmd and n1 of A* and of B*, are then its unswapped
    counts plus one product of its linear coefficients with the masks plus
    m'X_aa m / 2 + m'X_bb m / 2 - m'X_ab m of each kind X.

    Every count is an exact integer, so tau-b equals pairwise enumeration
    bit for bit.  A coefficient lies in [-2, 2], so float32 holds each
    tile's share of a form (|.| <= 2 * entries <= 2**24).  The forms, the
    linear terms and a pair's sum of them stay within 4n(n - 1),
    which float32 holds up to n = 2048; past that they are taken in
    float64.  The unswapped counts are added in float64.

    The M metrics' scores are ranked once, jointly, so the sign of a rank
    difference is the sign of the score difference between any two of
    them; h's ranks and tie count are taken once too.  A tile's
    coefficients, its products with a batch of masks, a batch of uniform
    draws and a group of pairs' counts each hold at most ``_BLOCK`` entries.
    The masks (n bytes a replicate) and the forms (n_forms + 1 floats a
    replicate) grow with R; the task keeps four linear coefficients per pair
    and cell.
    """

    def __init__(self, scores: np.ndarray, h: np.ndarray):
        m, n = scores.shape
        self.n0 = n * (n - 1) // 2
        h_ranks = _dense_ranks(h)
        counts = np.bincount(h_ranks)
        self.n2 = int((counts * (counts - 1) // 2).sum())
        if self.n0 == self.n2:
            raise AllTied("kendall tau undefined: reference vector is all ties")
        # Ranks are below M * n; the narrowest type holding them makes the
        # pairwise comparisons cheapest.
        dtype = np.min_scalar_type(scores.size)
        self.ranks = _dense_ranks(scores).astype(dtype)
        self.h_ranks = h_ranks.astype(dtype)
        exact = 4 * n * (n - 1) <= _FLOAT32_EXACT
        self.dtype = np.float32 if exact else np.float64
        self.pairs = list(combinations(range(m), 2))
        p = len(self.pairs)
        a = np.array([a for a, _ in self.pairs], dtype=np.intp)
        b = np.array([b for _, b in self.pairs], dtype=np.intp)
        self.sides = a, b
        self.blocks_built = 0  # coefficient tiles built
        # (x, y): (x, x) for each metric, then (a, b) for each pair
        xs, ys = np.concatenate([np.arange(m), a]), np.concatenate([np.arange(m), b])
        # rowsum and colsum of T_xy from the rank counts; G's come from the
        # tiles (_forms)
        self.tie_sums = np.empty((2, len(xs), n), dtype=np.int32)
        t_rows, t_cols = self.tie_sums
        bins = int(self.ranks.max()) + 1
        for k, (x, y) in enumerate(zip(xs, ys)):
            rx, ry = self.ranks[x], self.ranks[y]
            same = rx == ry  # T leaves out the cell itself
            t_rows[k] = np.bincount(ry, minlength=bins)[rx] - same
            t_cols[k] = np.bincount(rx, minlength=bins)[ry] - same
        # the forms: m'G_xy m for each (x, y), then m'T_xy m for each (x, x)
        # and each pair with some a_i == b_j (i != j); T_ab is zero otherwise
        ties = np.flatnonzero(t_rows[m:].any(axis=1))
        self.sign_pairs = xs, ys
        self.tie_pairs = tuple(np.concatenate([z[:m], z[m + ties]]) for z in (xs, ys))
        self.n_forms = len(xs) + len(self.tie_pairs[0])
        # per pair and kind (G, T), the forms of its quadratic term:
        # m'X_aa m / 2 + m'X_bb m / 2 - m'X_ab m; a pair without ties takes
        # the row past the last form, which stays zero
        t0 = len(xs)
        t_ab = np.full(p, self.n_forms)
        t_ab[ties] = t0 + m + np.arange(len(ties))
        self.pick = np.stack(
            [np.stack([a, b, m + np.arange(p)], axis=1),
             np.stack([t0 + a, t0 + b, t_ab], axis=1)],
            axis=1,
        )

    def _tiles(self, area: int) -> list[tuple[int, int, int, int]]:
        """(lo, hi, c0, c1): rectangles of rows lo:hi and columns c0:c1, at
        most ``area`` entries each, that cover the cell pairs i < j.  A tile
        of several rows takes the columns lo + 1:n and no more rows than
        columns; a row longer than ``area`` is split by columns."""
        n = len(self.h_ranks)
        tiles = []
        lo = 0
        while lo < n - 1:
            width = n - 1 - lo
            rows = max(1, min(area // width, width))
            step = -(-width // -(-width // area))  # equal parts of at most area
            tiles += [
                (lo, lo + rows, c, min(c + step, n)) for c in range(lo + 1, n, step)
            ]
            lo += rows
        return tiles

    def _coefficients(
        self, lo: int, hi: int, c0: int, c1: int, out: np.ndarray, sums: np.ndarray
    ) -> np.ndarray:
        """Rows lo:hi and columns c0:c1 of every form's coefficients, zero
        where j <= i, written into ``out`` (forms, rows, columns); adds the
        tile's share of each G_xy's rowsum and colsum into ``sums``."""
        self.blocks_built += 1
        upper = np.arange(c0, c1) > np.arange(lo, hi)[:, None]
        g = _sign_of_difference(self.h_ranks[lo:hi, None], self.h_ranks[c0:c1])
        g *= upper
        (gx, gy), (tx, ty) = self.sign_pairs, self.tie_pairs
        r = self.ranks
        s1 = _sign_of_difference(r[gx, lo:hi, None], r[gy, None, c0:c1])
        s1 *= g
        s2 = _sign_of_difference(r[gy, lo:hi, None], r[gx, None, c0:c1])
        s2 *= g
        rows, cols = sums
        rows[:, lo:hi] += s1.sum(axis=2, dtype=np.int32)
        rows[:, c0:c1] += s2.sum(axis=1, dtype=np.int32)
        cols[:, c0:c1] += s1.sum(axis=1, dtype=np.int32)
        cols[:, lo:hi] += s2.sum(axis=2, dtype=np.int32)
        np.add(s1, s2, out=out[: len(gx)])
        t = np.equal(r[tx, lo:hi, None], r[ty, None, c0:c1]).view(np.int8)
        t += np.equal(r[ty, lo:hi, None], r[tx, None, c0:c1]).view(np.int8)
        np.multiply(t, upper, out=out[len(gx) :])
        return out

    def _forms(self, masks: np.ndarray, size: int) -> np.ndarray:
        """Every form (form, replicate) under the boolean ``masks`` (cell,
        replicate) in batches of ``size``, and a last row of zeros; then the
        unswapped counts (pair, cmd(A*), cmd(B*), n1(A*), n1(B*)) and their
        linear coefficients, ``const`` and ``lin``."""
        (n, r), k, p = masks.shape, self.n_forms, len(self.pairs)
        m = len(self.sign_pairs[0]) - p
        tiles = self._tiles(max(1, _BLOCK // max(k, size)))
        largest = max((hi - lo) * (c1 - c0) for lo, hi, c0, c1 in tiles)
        forms = np.zeros((k + 1, r), dtype=self.dtype)
        coefficients = np.empty(k * largest, dtype=np.float32)
        products = np.empty(largest * size, dtype=np.float32)
        sign_sums = np.zeros_like(self.tie_sums)
        for lo, hi, c0, c1 in tiles:
            area = (hi - lo) * (c1 - c0)
            out = coefficients[: k * area].reshape(k, hi - lo, c1 - c0)
            c = self._coefficients(lo, hi, c0, c1, out, sign_sums).reshape(k, area)
            for start in range(0, r, size):
                w = masks[:, start : start + size]
                pairs = products[: area * w.shape[1]].reshape(hi - lo, c1 - c0, -1)
                np.multiply(w[lo:hi, None], w[None, c0:c1], out=pairs)
                forms[:k, start : start + size] += c @ pairs.reshape(area, -1)
        (a, b), self.const = self.sides, np.empty((p, 4))
        self.lin = np.empty((p, 4, n), dtype=self.dtype)
        for kind, (rows, cols) in enumerate((sign_sums, self.tie_sums)):
            np.subtract(cols[m:], rows[a], out=self.lin[:, 2 * kind])
            np.subtract(rows[m:], rows[b], out=self.lin[:, 2 * kind + 1])
            totals = rows[:m].sum(axis=1) // 2
            self.const[:, 2 * kind], self.const[:, 2 * kind + 1] = totals[a], totals[b]
        return forms

    def _counts(
        self, k0: int, k1: int, w: np.ndarray, forms: np.ndarray
    ) -> np.ndarray:
        """The exact counts (pair, 4, replicate) of pairs k0:k1, cmd(A*),
        cmd(B*), n1(A*) and n1(B*), under the masks ``w`` (cell, replicate)
        whose forms are ``forms``."""
        lin = self.lin[k0:k1].reshape(4 * (k1 - k0), -1)
        counts = (lin @ w).reshape(k1 - k0, 2, 2, -1)
        quad = np.einsum("pkfr,f->pkr", forms[self.pick[k0:k1]], _QUAD_WEIGHTS)
        counts += quad[:, :, None]
        return counts.reshape(k1 - k0, 4, -1) + self.const[k0:k1, :, None]

    def _taus(self, counts: np.ndarray) -> np.ndarray:
        """tau-b (pair, side, replicate) of A* and B* from their counts."""
        denom = self.n0 - counts[:, 2:]
        denom *= float(self.n0 - self.n2)
        np.sqrt(denom, out=denom)
        if not denom.all():
            raise AllTied("kendall tau degenerate inside permutation test")
        return np.divide(counts[:, :2], denom, out=denom)

    def hits(
        self, generator: np.random.Generator, r: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per pair (a, b) of ``self.pairs``: #{delta* >= delta}, the count
        of the test of a against b, and #{delta* <= delta}, that of b
        against a, over r replicates.

        Replicate i swaps the cells where row i of
        ``generator.random((r, n)) < 0.5``, drawn in order a batch at a time,
        so the masks do not depend on the batch size; the callers pass
        ``rng_for(seed, "perm-both")``.
        Under one mask, (b, a)'s pair of taus is (a, b)'s exchanged, and IEEE
        subtraction is antisymmetric, so b against a counts delta* <= delta
        on (a, b)'s differences, bit for bit as its own test under the same
        seed.
        """
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        n, p = len(self.h_ranks), len(self.pairs)
        # A batch of replicates bounds the uniform draws (n entries a
        # replicate) and, with the forms, the tile area (_forms).
        batches = -(-r // max(1, _BLOCK // max(self.n_forms, n)))
        size = -(-r // batches)
        masks = np.empty((n, r), dtype=bool)
        uniforms = np.empty((size, n))
        for start in range(0, r, size):
            u = uniforms[: min(size, r - start)]
            generator.random(out=u)
            np.less(u.T, 0.5, out=masks[:, start : start + len(u)])
        forms = self._forms(masks, size)
        tau = self._taus(self.const[:, :, None])
        observed = tau[:, 0] - tau[:, 1]
        # a group's float64 counts and their temporaries: about 16 entries a
        # pair and replicate
        group = max(1, _BLOCK // (16 * size))
        forward = np.zeros(p, dtype=np.int64)
        backward = np.zeros(p, dtype=np.int64)
        for start in range(0, r, size):
            w = masks[:, start : start + size].astype(self.dtype)
            batch = forms[:, start : start + size]
            for k0 in range(0, p, group):
                k1 = min(k0 + group, p)
                tau = self._taus(self._counts(k0, k1, w, batch))
                delta = tau[:, 0] - tau[:, 1]
                forward[k0:k1] += np.count_nonzero(delta >= observed[k0:k1], axis=1)
                backward[k0:k1] += np.count_nonzero(delta <= observed[k0:k1], axis=1)
        return forward, backward


def perm_both(
    table_a: ScoreTable,
    table_b: ScoreTable,
    human_segment_scores: Mapping[tuple[str, str], float],
    r: int = 1000,
    seed: int = 0,
) -> float:
    """One-sided permutation test for tau(A, human) > tau(B, human).

    Each replicate independently swaps A's and B's score in every cell with
    probability 1/2 and recomputes the correlation difference; the p-value
    is (1 + #{delta* >= delta}) / (r + 1), so it is never exactly zero.
    Replicate i swaps the cells where row i of
    ``rng_for(seed, "perm-both").random((r, n)) < 0.5``, over the cells in
    sorted key order (see :meth:`_SwapTauB.hits`): the two-metric case of
    :func:`segment_sig_matrix`.
    """
    scores, h = _gather([table_a, table_b], human_segment_scores)
    hits, _ = _SwapTauB(scores, h).hits(rng_for(seed, "perm-both"), r)
    return (1 + int(hits[0])) / (r + 1)


def bonferroni(pvals: Sequence[float], alpha: float = 0.05) -> list[bool]:
    """Per-comparison significance flags at the corrected threshold alpha/m."""
    m = len(pvals)
    if m == 0:
        return []
    for p in pvals:
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"p-value {p} outside [0, 1]")
    return [p < alpha / m for p in pvals]


def segment_sig_matrix(
    tables: Mapping[str, ScoreTable],
    human_segment_scores: Mapping[tuple[str, str], float],
    task: Task,
    r: int = 1000,
    seed: int = 0,
    alpha: float = 0.05,
) -> SigMatrix:
    """Pairwise one-sided permutation-test matrix over segment-level metrics.

    The Bonferroni flag divides alpha by the number of ordered pairs in the
    matrix.  The cells are gathered and ranked once, and one mask set, drawn
    from ``rng_for(seed, "perm-both")``, serves every test of the matrix:
    every p-value, in both orders, equals ``perm_both(tables[row],
    tables[col], human, r, seed)``, so the matrix does not depend on the
    order of the tables.  The tests share their replicates (common random
    numbers); each stays an exact permutation test, and the Bonferroni
    flags hold under any dependence between them.  When the smallest p-value
    R replicates give, 1/(R + 1), is not below alpha/m, no flag can be true,
    and one INFO line names the least R that can resolve one.
    """
    if any(table.task != task for table in tables.values()):
        raise CellMismatch(f"tables not all of task {task.label}")
    names = list(tables)
    pairs = [(row, col) for row in names for col in names if row != col]
    # drawn before the clock starts: the first generator of a process
    # imports numpy.random, which is no part of the test's time
    generator = rng_for(seed, "perm-both") if pairs else None
    started = time.perf_counter()
    p_values: dict[tuple[str, str], float] = {}
    unordered = blocks = 0
    if pairs:
        kernel = _SwapTauB(
            *_gather([tables[name] for name in names], human_segment_scores)
        )
        forward, backward = kernel.hits(generator, r)
        for (i, j), ahead, behind in zip(kernel.pairs, forward, backward):
            p_values[(names[i], names[j])] = (1 + int(ahead)) / (r + 1)
            p_values[(names[j], names[i])] = (1 + int(behind)) / (r + 1)
        unordered, blocks = len(kernel.pairs), kernel.blocks_built
    flags = bonferroni([p_values[pair] for pair in pairs], alpha)
    cells: dict[tuple[str, str], SigCell] = {}
    for (row, col), flag in zip(pairs, flags):
        p = p_values[(row, col)]
        cells[(row, col)] = SigCell(
            row_metric=row,
            col_metric=col,
            ci=None,
            p_value=p,
            significant=p < alpha,
            bonferroni_significant=flag,
        )
    logger.info(
        "segment significance %s: %d metrics, %d ordered pairs, n=%d cells, "
        "R=%d replicates, %d mask set, %d unordered pairs, %d coefficient "
        "blocks built, %.3f s",
        task.label,
        len(names),
        len(pairs),
        tables[names[0]].values.size if names else 0,
        r,
        1 if pairs else 0,
        unordered,
        blocks,
        time.perf_counter() - started,
    )
    threshold = alpha / len(pairs) if pairs else 0.0
    if 0.0 < threshold <= 1 / (r + 1):
        # the least R with 1/(R+1) < alpha/m, as bonferroni compares; that
        # comparison holds from some R on (none when alpha/m underflows to 0),
        # so double past it, then bisect
        least = 1
        while 1 / (least + 1) >= threshold:
            least *= 2
        low = least // 2  # fails the comparison
        while least - low > 1:
            mid = (low + least) // 2
            low, least = (low, mid) if 1 / (mid + 1) < threshold else (mid, least)
        logger.info(
            "segment significance %s: no Bonferroni flag can be true: the "
            "smallest p-value at R=%d, 1/(R+1), is not below alpha/m over "
            "m=%d ordered pairs; R=%d replicates or more can resolve it",
            task.label, r, len(pairs), least,
        )
    return SigMatrix(task=task, level="segment", metrics=tuple(names), cells=cells)


def paired_bootstrap(
    seg_a: Mapping[str, float],
    seg_b: Mapping[str, float],
    b_iter: int = 1000,
    seed: int = 0,
) -> float:
    """One-sided paired bootstrap: p-value against 'system A beats system B'.

    Segments are resampled with replacement ``b_iter`` times (the same draw
    applies to both systems); p is the fraction of resamples in which A's
    mean falls below B's, with exact ties counting one half.  Strict
    dominance therefore yields exactly 0, and identical score vectors yield
    exactly 0.5.
    """
    if b_iter < 1:
        raise ValueError(f"b_iter must be >= 1, got {b_iter}")
    if set(seg_a) != set(seg_b):
        raise AlignmentMismatch("systems scored on different segment sets")
    keys = sorted(seg_a)
    n = len(keys)
    if n < 2:
        raise SampleTooSmall("paired_bootstrap needs at least 2 segments")
    a = np.asarray([seg_a[k] for k in keys], dtype=np.float64)
    b = np.asarray([seg_b[k] for k in keys], dtype=np.float64)
    diff = a - b  # paired statistic: only per-segment differences matter
    rng = rng_for(seed, "paired-bootstrap")
    idx = rng.integers(0, n, size=(b_iter, n))
    means = diff[idx].mean(axis=1)
    losses = np.count_nonzero(means < 0.0)
    ties = np.count_nonzero(means == 0.0)
    return float((losses + 0.5 * ties) / b_iter)


def dagger_marks(p: float) -> str:
    """Table footnote marks: one dagger for p < 0.05, two for p < 0.01."""
    if p < 0.01:
        return "††"
    if p < 0.05:
        return "†"
    return ""
