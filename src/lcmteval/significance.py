"""Statistical comparison of metrics and systems.

System-level metric comparison builds confidence intervals for the
difference of two correlations that share the human scores as one variable
(the overlapping dependent-correlation construction of Zou, 2007).
Segment-level comparison runs a permutation test that swaps the two
metrics' scores per cell with probability one half.  System comparison
under a fixed metric uses paired bootstrap resampling over segments.

The permutation test evaluates Kendall tau-b of both swapped vectors as
quadratic forms in the swap mask (see :class:`_SwapTauB`): two n x n
matrices per pair of metrics (concordance and ties) and one matrix product
per batch of replicates replace the per-replicate enumeration of the
n(n-1)/2 cell pairs.  Every count is an exact integer, so the statistics
equal pairwise enumeration bit for bit.  Memory is bounded whatever the
number of cells n: the matrices are built in row tiles and the replicates in
batches, each of at most ``_BUDGET`` (4,000,000) entries.  Each batch
carries the unswapped mask as its first row, so one pass over the tiles
per batch gives both the observed difference and the replicates'.

A matrix of M metrics gathers and ranks its cells once per task, and the
two orders (A, B) and (B, A) of a pair share that pair's matrices: Q is
symmetric in A and B, so each pass over its tiles serves a batch of each
order's own masks.  Every p-value equals that of one ``perm_both`` call
per ordered pair.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from itertools import combinations
from statistics import NormalDist
from typing import Mapping, Sequence

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
from .metaeval import _BUDGET, _dense_ranks, _sign_of_difference, pearson
from .seeding import derive_int, rng_for

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
    if n < 4:
        raise SampleTooSmall(f"zou_ci needs n >= 4, got {n}")
    if not (0.0 < level < 1.0):
        raise ValueError(f"confidence level must be in (0, 1), got {level}")
    if abs(r12 - r13) <= 1e-12 and r23 >= 1.0 - 1e-12:
        # Identical metrics (up to float noise, e.g. exact affine copies):
        # the difference of correlations is exactly zero.
        return CIResult(0.0, 0.0, level)
    for name, r in (("r12", r12), ("r13", r13), ("r23", r23)):
        if abs(r) >= 1.0:
            raise DegenerateCorrelation(f"{name} = {r} is not inside (-1, 1)")

    zcrit = NormalDist().inv_cdf(0.5 + level / 2.0)
    half = zcrit / math.sqrt(n - 3)

    def fisher_interval(r: float) -> tuple[float, float]:
        z = math.atanh(r)
        return math.tanh(z - half), math.tanh(z + half)

    l1, u1 = fisher_interval(r12)
    l2, u2 = fisher_interval(r13)
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
    for (r(human, row) - r(human, col)) lies strictly above zero.
    """
    names = list(metric_vectors)
    n = len(human_vector)
    human_r = {
        name: pearson(human_vector, metric_vectors[name]).value for name in names
    }
    cells: dict[tuple[str, str], SigCell] = {}
    for row in names:
        for col in names:
            if row == col:
                continue
            r23 = pearson(metric_vectors[row], metric_vectors[col]).value
            ci = zou_ci(human_r[row], human_r[col], r23, n, level)
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
    """The (M, n) scores of M segment-level tables and their n human scores,
    over the tables' common cells in sorted key order."""
    if any(table.level != SEGMENT_LEVEL for table in tables):
        raise SystemOnlyTable("permutation test needs segment-level tables")
    first = tables[0]
    for table in tables[1:]:
        if table.cells.keys() != first.cells.keys():
            raise CellMismatch(
                f"{first.display_name()} and {table.display_name()} cover "
                "different cells"
            )
    keys = sorted(first.cells)
    try:
        h = np.asarray([human[k] for k in keys], dtype=np.float64)
    except KeyError as exc:
        raise CellMismatch(f"human score missing for cell {exc}") from None
    scores = np.asarray(
        [[table.cells[k] for k in keys] for table in tables], dtype=np.float64
    )
    if not (np.isfinite(scores).all() and np.isfinite(h).all()):
        raise NonFiniteScore("permutation test needs finite scores")
    return scores, h


@dataclass(frozen=True)
class _Tile:
    """Rows ``lo:hi`` of the quadratic forms of one pair of metrics."""

    lo: int
    hi: int
    quad: np.ndarray  # (2 * rows, n) float32: Q rows for cmd, then for n1
    lin: np.ndarray  # (rows, 4): linear terms of 2*(cmd_a, cmd_b, n1_a, n1_b)
    const: np.ndarray  # (4,): this tile's share of the unswapped counts


class _SwapTauB:
    """Kendall tau-b against the human scores h of both sides of a per-cell
    swap of two of M metrics, for batches of swap masks.

    Under mask m (1 = swap the cell), A* takes b_i where m_i = 1 and a_i
    elsewhere, B* the reverse.  The sign of the pair (i, j) in A* depends
    only on m_i and m_j, so twice its concordant-minus-discordant count,
    summed over ordered pairs with g = sign(h_i - h_j) and
    G_xy[i, j] = g * sign(x_i - y_j), is a quadratic form in m:

        2 cmd(A*) = sum(G_aa) + 2 m.(rowsum(G_ba) - rowsum(G_aa)) + m'Qm
        2 cmd(B*) = sum(G_bb) + 2 m.(rowsum(G_ab) - rowsum(G_bb)) + m'Qm

    with Q = G_aa + G_bb - G_ab - G_ba shared by both sides (m_i^2 = m_i
    folds the rest into the linear term).  The tie count n1 has the same
    form with T_xy[i, j] = [x_i == y_j and i != j] in place of G_xy.  One
    matrix product per batch of masks gives both sides.

    Every count is an exact integer, so tau-b equals pairwise enumeration
    bit for bit: Q's entries lie in [-4, 4], so float32 holds each entry of
    Qm exactly (|.| <= 4n < 2**24), and the sums over rows, the linear terms
    and the constants are taken in float64 (|.| <= 4n^2 < 2**53).

    The M metrics' scores are ranked once, jointly, so the sign of a rank
    difference is the sign of the score difference between any two of
    them; h's ranks and tie count are taken once too.  Q of a pair is built
    in row tiles whose four sign blocks hold at most ``_BUDGET`` entries,
    once per call of :meth:`taus` whatever the number of batches it is
    given; nothing is kept between calls.  The blocks are computed and added
    into Q one at a time, so a tile's working memory is Q's rows plus one
    block.
    """

    def __init__(self, scores: np.ndarray, h: np.ndarray):
        n = len(h)
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
        self.tile_rows = max(1, _BUDGET // (4 * n))
        self.q_builds = 0  # calls of taus: each builds the pair's Q once

    def _tile(self, a: int, b: int, lo: int) -> _Tile:
        ranks, h_ranks = self.ranks[[a, b]], self.h_ranks
        n = len(h_ranks)
        hi = min(lo + self.tile_rows, n)
        rows = hi - lo
        g = _sign_of_difference(h_ranks[lo:hi, None], h_ranks)
        quad = np.zeros((2, rows, n), dtype=np.float32)  # (kind, p, q)
        sums = np.empty((2, 2, rows, 2), dtype=np.int64)  # (kind, x, p, y)
        for x in (0, 1):
            for y in (0, 1):
                # block (x, y): sign(x_p - y_q) and [x_p == y_q, p != q]
                s = _sign_of_difference(ranks[x, lo:hi, None], ranks[y])
                tie = (s == 0).view(np.int8)
                tie[np.arange(rows), np.arange(lo, hi)] = 0  # same cell
                s *= g
                add = np.add if x == y else np.subtract  # Q = aa + bb - ab - ba
                for kind, block in enumerate((s, tie)):
                    add(quad[kind], block, out=quad[kind])
                    sums[kind, x, :, y] = block.sum(axis=1, dtype=np.int32)
        lin = np.stack([
            sums[:, 1, :, 0] - sums[:, 0, :, 0],  # rowsum(G_ba) - rowsum(G_aa)
            sums[:, 0, :, 1] - sums[:, 1, :, 1],  # rowsum(G_ab) - rowsum(G_bb)
        ], axis=1).reshape(4, rows).T
        const = np.stack([
            sums[:, 0, :, 0].sum(axis=1), sums[:, 1, :, 1].sum(axis=1)
        ], axis=1).reshape(4)
        return _Tile(
            lo, hi, quad.reshape(2 * rows, n), 2.0 * lin, const.astype(np.float64)
        )

    def taus(
        self, a: int, b: int, batches: Sequence[np.ndarray]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Metrics a and b (rows of the scores) and (rows, n) boolean mask
        batches -> per batch, tau-b of A* and of B* per mask.  Each tile of
        Q is built once and applied to every batch."""
        self.q_builds += 1
        ws = [masks.astype(np.float32) for masks in batches]
        # per batch: 2 * (cmd_a, cmd_b, n1_a, n1_b)
        twice = [np.zeros((len(w), 4)) for w in ws]
        for lo in range(0, len(self.h_ranks), self.tile_rows):
            tile = self._tile(a, b, lo)
            for w, acc in zip(ws, twice):
                w_rows = w[:, tile.lo : tile.hi]
                prod = (w @ tile.quad.T).reshape(len(w), 2, -1)
                prod *= w_rows[:, None, :]
                forms = prod.sum(axis=2, dtype=np.float64)  # m'Qm per kind
                acc += tile.const + w_rows @ tile.lin + np.repeat(forms, 2, axis=1)
        result = []
        for acc in twice:
            con_minus_dis = acc[:, :2] / 2
            n1 = acc[:, 2:] / 2
            denom = np.sqrt((self.n0 - n1) * float(self.n0 - self.n2))
            if np.any(denom == 0.0):
                raise AllTied("kendall tau degenerate inside permutation test")
            tau = con_minus_dis / denom
            result.append((tau[:, 0], tau[:, 1]))
        return result


def _swap_hits(
    kernel: _SwapTauB, a: int, b: int, seeds: Sequence[int], r: int
) -> list[int]:
    """#{delta* >= delta} of the test of metric a against metric b under the
    masks drawn from ``seeds[0]`` and, when a second seed is given, of b
    against a under the masks drawn from ``seeds[1]``.

    Each seed's replicate i swaps the cells where row i of
    ``rng_for(seed, "perm-both").random((r, n)) < 0.5``.  Every seed has
    its own generator, and each batch of replicates draws its rows, in
    order, into one reused buffer, so the masks do not depend on the batch
    size.  Row 0 of the buffer stays at 1.0, the unswapped mask, so every
    batch also gives the observed difference; a batch, that row included,
    holds at most ``_BUDGET`` entries.  Both directions share one pass over
    Q's tiles per batch: under one mask, (b, a)'s pair of taus is (a, b)'s
    exchanged, and IEEE subtraction is antisymmetric, so b against a counts
    delta* <= delta on (a, b)'s differences, bit for bit as its own test.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    n = len(kernel.h_ranks)
    chunk = max(1, _BUDGET // n - 1)
    generators = [rng_for(seed, "perm-both") for seed in seeds]
    uniforms = np.ones((1 + min(chunk, r), n))
    hits = [0] * len(seeds)
    for start in range(0, r, chunk):
        rows = uniforms[: 1 + min(chunk, r - start)]
        batches = []
        for generator in generators:
            generator.random(out=rows[1:])
            batches.append(rows < 0.5)
        for direction, (tau_a, tau_b) in enumerate(kernel.taus(a, b, batches)):
            delta = tau_a - tau_b
            beats = delta[1:] >= delta[0] if direction == 0 else delta[1:] <= delta[0]
            hits[direction] += int(np.count_nonzero(beats))
    return hits


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
    sorted key order (see :func:`_swap_hits`).
    """
    scores, h = _gather([table_a, table_b], human_segment_scores)
    (hits,) = _swap_hits(_SwapTauB(scores, h), 0, 1, [seed], r)
    return (1 + hits) / (r + 1)


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
    matrix.  Each ordered pair's test derives its own seed from the two
    metric names, so the matrix does not depend on the order of the pairs;
    every p-value equals ``perm_both(tables[row], tables[col], human, r,
    derive_int(seed, "segment-sig", row, col))``.  The cells are gathered
    and ranked once, and the two orders of a pair share its Q.
    """
    names = list(tables)
    pairs = [(row, col) for row in names for col in names if row != col]
    m = len(pairs)
    started = time.perf_counter()
    p_values: dict[tuple[str, str], float] = {}
    forms = 0
    if pairs:
        kernel = _SwapTauB(
            *_gather([tables[name] for name in names], human_segment_scores)
        )
        for i, j in combinations(range(len(names)), 2):
            orders = [(names[i], names[j]), (names[j], names[i])]
            seeds = [derive_int(seed, "segment-sig", *pair) for pair in orders]
            for pair, hits in zip(orders, _swap_hits(kernel, i, j, seeds, r)):
                p_values[pair] = (1 + hits) / (r + 1)
        forms = kernel.q_builds
    cells: dict[tuple[str, str], SigCell] = {}
    for row, col in pairs:
        p = p_values[(row, col)]
        cells[(row, col)] = SigCell(
            row_metric=row,
            col_metric=col,
            ci=None,
            p_value=p,
            significant=p < alpha,
            bonferroni_significant=p < alpha / m,
        )
    logger.info(
        "segment significance %s: %d metrics, %d ordered pairs, n=%d cells, "
        "R=%d replicates, %d quadratic forms, %.3f s",
        task.label,
        len(names),
        m,
        len(tables[names[0]].cells) if names else 0,
        r,
        forms,
        time.perf_counter() - started,
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
