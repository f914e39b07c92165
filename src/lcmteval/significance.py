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
quadratic forms in the swap mask (see :class:`_SwapTauB`): one n x n matrix
per pair of metrics and kind (concordance and ties) and one matrix product
per batch of replicates replace the per-replicate enumeration of the
n(n-1)/2 cell pairs.  Every count is an exact integer, so the statistics
equal pairwise enumeration bit for bit.  The matrix of metrics A and B is
assembled from int8 sign blocks: each metric's within-metric block, which
every pair using that metric shares, and one cross block of A against B.
Memory is bounded whatever the number of cells n: the blocks are built in
row tiles and the replicates in batches, each of at most ``_BUDGET``
(4,000,000) entries, and the within-metric blocks are kept only for the
rows where they fit in ``_BUDGET`` entries too.  Each batch carries the
unswapped mask as its first row, so one pass over the tiles per batch gives
both the observed difference and the replicates'.

A matrix of M metrics gathers and ranks its cells once per task and tests
each unordered pair once: under one swap mask, (B, A)'s difference is
exactly minus (A, B)'s, so one mask set, drawn from a seed keyed by the
sorted pair, and one pass over the pair's tiles per batch give the
p-values of both orders.  Every p-value equals that of one ``perm_both``
call per ordered pair with that seed.
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
from .metaeval import (
    _BUDGET,
    _centred,
    _centred_r,
    _check_paired,
    _dense_ranks,
    _sign_of_difference,
)
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
    for (r(human, row) - r(human, col)) lies strictly above zero.  Each
    vector is converted and centred once (:func:`~.metaeval._centred`, the
    arithmetic of :func:`~.metaeval.pearson`), r(human, metric) is taken
    once per metric and r(row, col) once per unordered pair, so every cell
    equals the one built from ``pearson`` and :func:`zou_ci` per ordered
    pair, errors included.
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
    cross_r: dict[frozenset[str], float] = {}
    cells: dict[tuple[str, str], SigCell] = {}
    for row in names:
        for col in names:
            if row == col:
                continue
            pair = frozenset((row, col))
            if pair not in cross_r:
                cross_r[pair] = _centred_r(vectors[row], vectors[col])
            ci = zou_ci(human_r[row], human_r[col], cross_r[pair], n, level)
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
    folds the rest into the linear term).  g and sign are antisymmetric, so
    G_ba = G_ab' : m'Qm = m'Q'm with Q' = G_aa + G_bb - 2 G_ab, and
    rowsum(G_ba) is colsum(G_ab).  The tie count n1 has the same form with
    T_xy[i, j] = [x_i == y_j and i != j] in place of G_xy (T_ba = T_ab' too).
    One matrix product per tile and batch of masks gives both sides.

    Every count is an exact integer, so tau-b equals pairwise enumeration
    bit for bit: the entries of Q' lie in [-4, 4], so float32 holds each
    entry of Q'm exactly (|.| <= 4n < 2**24) and each tile's share of m'Q'm
    (|.| <= 4n * rows <= 2**24, which caps the tile rows), and the linear
    terms, the constants and the sums over tiles are taken in float64
    (|.| <= 4n^2 < 2**53).

    The M metrics' scores are ranked once, jointly, so the sign of a rank
    difference is the sign of the score difference between any two of
    them; h's ranks and tie count are taken once too.  The int8 blocks are
    built in row tiles of at most ``_BUDGET // (4n)`` rows.  The constructor
    builds g and each metric's within-metric block G_xx once per tile and
    keeps their row sums; T_xx is a comparison of ranks, rebuilt where it
    is needed, and its row sums come from the rank counts.  The constructor
    keeps g and the G_xx themselves for the first ``kept`` rows, as many as
    M + 1 blocks fit in ``_BUDGET`` entries (every row up to about 570
    cells at 11 metrics); those rows are the first tile.  Per batch,
    :meth:`taus` builds one cross block (G_ab, T_ab) per tile (past the
    kept rows also g, G_aa and G_bb) and forms Q' in one float32 buffer that
    every pair reuses.
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
        # at most 2**24 entries keep a tile's share of m'Q'm exact in float32
        budget = min(_BUDGET, 2**24)
        self.tile_rows = max(1, budget // (4 * n))
        self.kept = min(n, budget // ((m + 1) * n))
        self.tiles = [(0, self.kept)] if self.kept else []
        self.tiles += [
            (lo, min(lo + self.tile_rows, n))
            for lo in range(self.kept, n, self.tile_rows)
        ]
        rows = max(hi - lo for lo, hi in self.tiles)
        fresh_rows = max(
            (hi - lo for lo, hi in self.tiles if lo >= self.kept), default=0
        )
        self.within_builds = 0  # one metric's G_xx rows of one tile
        self.cross_builds = 0  # one pair's (G_ab, T_ab) rows of one tile
        self.g = np.empty((self.kept, n), dtype=np.int8)
        self.within = np.empty((m, self.kept, n), dtype=np.int8)
        # rowsum(G_xx) and rowsum(T_xx) of each metric x over every column
        self.row_sums = np.empty((2, m, n), dtype=np.int64)
        for x, ranks in enumerate(self.ranks):
            self.row_sums[1, x] = np.bincount(ranks)[ranks] - 1
        # the working blocks: g, G_aa and G_bb past the kept rows, a pair's
        # cross block and then Q' in int8, a rank comparison, Q' in float32
        self._fresh = np.empty((3, fresh_rows, n), dtype=np.int8)
        self._pair_buf = np.empty(2 * rows * n, dtype=np.int8)
        self._equal_buf = np.empty(rows * n, dtype=np.bool_)
        self._quad_buf = np.empty(2 * rows * n, dtype=np.float32)
        for lo, hi in self.tiles:
            kept = lo < self.kept
            g = self._g(lo, hi, self.g if kept else self._fresh[0, : hi - lo])
            for x in range(m):
                out = self.within[x] if kept else self._fresh[1, : hi - lo]
                self._within(x, g, lo, out).sum(axis=1, out=self.row_sums[0, x, lo:hi])

    def _g(self, lo: int, hi: int, out: np.ndarray) -> np.ndarray:
        """Rows lo:hi of g = sign(h_i - h_j), written into ``out``."""
        out[...] = _sign_of_difference(self.h_ranks[lo:hi, None], self.h_ranks)
        return out

    def _within(self, x: int, g: np.ndarray, lo: int, out: np.ndarray) -> np.ndarray:
        """Rows lo:lo + len(g) of G_xx, written into ``out``."""
        self.within_builds += 1
        ranks = self.ranks[x]
        s = _sign_of_difference(ranks[lo : lo + len(g), None], ranks)
        return np.multiply(s, g, out=out)

    def _cross(
        self, a: int, b: int, g: np.ndarray, lo: int, out: np.ndarray
    ) -> np.ndarray:
        """Rows lo:lo + len(g) of G_ab and of T_ab, written into ``out[0]``
        and ``out[1]``."""
        self.cross_builds += 1
        hi = lo + len(g)
        s = _sign_of_difference(self.ranks[a, lo:hi, None], self.ranks[b])
        np.equal(s, 0, out=out[1].view(np.bool_))
        np.fill_diagonal(out[1, :, lo:hi], 0)  # the same cell
        np.multiply(s, g, out=out[0])
        return out

    def taus(self, a: int, b: int, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Metrics a and b (rows of the scores) and a (rows, n) boolean mask
        array -> tau-b of A* and of B* per mask."""
        n = len(self.h_ranks)
        w = masks.astype(np.float32)
        forms = np.zeros((len(w), 2))  # m'Q'm per kind
        # per kind (G, T): colsum and rowsum of the cross block over all rows
        cross_sums = np.zeros((2, 2, n), dtype=np.int64)
        for lo, hi in self.tiles:
            rows = hi - lo
            if lo < self.kept:
                g, within_a, within_b = self.g, self.within[a], self.within[b]
            else:
                g = self._g(lo, hi, self._fresh[0, :rows])
                within_a = self._within(a, g, lo, self._fresh[1, :rows])
                within_b = self._within(b, g, lo, self._fresh[2, :rows])
            cross = self._cross(
                a, b, g, lo, self._pair_buf[: 2 * rows * n].reshape(2, rows, n)
            )
            cross_sums[:, 0] += cross.sum(axis=1, dtype=np.int32)
            cross_sums[:, 1, lo:hi] = cross.sum(axis=2, dtype=np.int32)
            # Q' in place, in [-4, 4]: G_aa + G_bb - 2 G_ab, T_aa + T_bb - 2 T_ab
            cross *= -2
            cross[0] += within_a
            cross[0] += within_b
            equal = self._equal_buf[: rows * n].reshape(rows, n)
            for x in (a, b):
                np.equal(self.ranks[x, lo:hi, None], self.ranks[x], out=equal)
                cross[1] += equal
            np.fill_diagonal(cross[1, :, lo:hi], 0)  # T_xx leaves out the same cell
            quad = self._quad_buf[: 2 * rows * n].reshape(2 * rows, n)
            quad[...] = cross.reshape(2 * rows, n)
            prod = (w @ quad.T).reshape(len(w), 2, rows)
            forms += np.einsum("rkp,rp->rk", prod, w[:, lo:hi])
        # per kind and side: rowsum(G_aa), rowsum(G_bb), rowsum(T_aa), ...
        within_sums = self.row_sums[:, [a, b]]
        # 2 * (cmd_a, cmd_b, n1_a, n1_b): the unswapped counts, the linear
        # terms (A: colsum(G_ab) - rowsum(G_aa), B: rowsum(G_ab) - rowsum(G_bb))
        # and the quadratic forms
        lin = 2.0 * (cross_sums - within_sums).reshape(4, n).T
        twice = w @ lin
        twice += within_sums.sum(axis=2, dtype=np.float64).reshape(4)
        by_kind = twice.reshape(-1, 2, 2)  # a view: (replicate, kind, side)
        by_kind += forms[:, :, None]
        con_minus_dis = twice[:, :2] / 2
        n1 = twice[:, 2:] / 2
        denom = np.sqrt((self.n0 - n1) * float(self.n0 - self.n2))
        if not denom.all():
            raise AllTied("kendall tau degenerate inside permutation test")
        tau = con_minus_dis / denom
        return tau[:, 0], tau[:, 1]


def _swap_hits(kernel: _SwapTauB, a: int, b: int, seed: int, r: int) -> tuple[int, int]:
    """#{delta* >= delta} of the test of metric a against metric b and
    #{delta* <= delta}, the count of b against a, under one mask set.

    Replicate i swaps the cells where row i of
    ``rng_for(seed, "perm-both").random((r, n)) < 0.5``.  Each batch of
    replicates draws its rows, in order, into one reused buffer, so the
    masks do not depend on the batch size.  Row 0 of the buffer stays at
    1.0, the unswapped mask, so every batch also gives the observed
    difference; a batch, that row included, holds at most ``_BUDGET``
    entries.  Under one mask, (b, a)'s pair of taus is (a, b)'s exchanged,
    and IEEE subtraction is antisymmetric, so b against a counts
    delta* <= delta on (a, b)'s differences, bit for bit as its own test
    under the same seed.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    n = len(kernel.h_ranks)
    chunk = max(1, _BUDGET // n - 1)
    generator = rng_for(seed, "perm-both")
    uniforms = np.ones((1 + min(chunk, r), n))
    forward = backward = 0
    for start in range(0, r, chunk):
        rows = uniforms[: 1 + min(chunk, r - start)]
        generator.random(out=rows[1:])
        tau_a, tau_b = kernel.taus(a, b, rows < 0.5)
        delta = tau_a - tau_b
        forward += int(np.count_nonzero(delta[1:] >= delta[0]))
        backward += int(np.count_nonzero(delta[1:] <= delta[0]))
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
    sorted key order (see :func:`_swap_hits`).
    """
    scores, h = _gather([table_a, table_b], human_segment_scores)
    hits, _ = _swap_hits(_SwapTauB(scores, h), 0, 1, seed, r)
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
    matrix.  Each unordered pair is tested once, under one mask set whose
    seed is derived from the two metric names in sorted order, so the
    matrix does not depend on the order of the pairs; every p-value, in
    both orders, equals ``perm_both(tables[row], tables[col], human, r,
    derive_int(seed, "segment-sig", *sorted((row, col))))``.  The cells are
    gathered and ranked once.
    """
    names = list(tables)
    pairs = [(row, col) for row in names for col in names if row != col]
    started = time.perf_counter()
    p_values: dict[tuple[str, str], float] = {}
    within = cross = 0
    if pairs:
        kernel = _SwapTauB(
            *_gather([tables[name] for name in names], human_segment_scores)
        )
        for i, j in combinations(range(len(names)), 2):
            orders = [(names[i], names[j]), (names[j], names[i])]
            pair_seed = derive_int(seed, "segment-sig", *sorted(orders[0]))
            for pair, hits in zip(orders, _swap_hits(kernel, i, j, pair_seed, r)):
                p_values[pair] = (1 + hits) / (r + 1)
        within, cross = kernel.within_builds, kernel.cross_builds
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
        "R=%d replicates, %d within-metric and %d cross blocks, %.3f s",
        task.label,
        len(names),
        len(pairs),
        len(tables[names[0]].cells) if names else 0,
        r,
        within,
        cross,
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
