"""Metric-human correlation machinery.

System-level comparison uses Pearson r over system score vectors; with only
a handful of real systems those vectors are padded by hybrid super sampling:
pseudo-systems assembled by picking, per segment, one real system's output
uniformly at random, the same for every table of a task.  The pipeline
takes them as arrays from :func:`hybrid_arrays`, whose index rows are one
draw from one :func:`~.seeding.rng_for` generator per task;
:func:`hybrid_supersample` adds the selector and vector objects for library
callers.  Segment-level comparison pools every (system, segment) cell of a
task into one vector pair and uses Kendall tau-b.  Every function reads a
score table's array: its row means are the system scores, and its flattened
row-major array, in sorted (system, segment) order, is the metric's side of
the pooled pair.

Every reader of score tables and human scores aligns them in one step: the
tables share one task, the segment-level ones their system and segment ids,
a system-only one covers the same systems, and the human mapping scores
every (system, segment) cell of that grid and no other (its segment ids
serve when every table is system-only).  Anything else raises
:class:`CellMismatch`, which names a missing cell.

Kendall tau-b is counted exactly from int8 signs of dense ranks, the same
pairwise signs the segment permutation test (``significance._SwapTauB``)
builds: twice the concordant-minus-discordant count is the sum of
sign(x_i - x_j) * sign(y_i - y_j) over ordered pairs, taken in row tiles of
at most ``_BLOCK`` entries (the bound of every chunked pass, the hybrid
gathers' and the permutation test's too), and the tie counts come from the
rank counts.
The float finish divides in a fixed order, (C - D) / sqrt(n0 - T_x) /
sqrt(n0 - T_y) with n0 = n(n - 1)/2, the order of the reference
implementation the tests compare against with ``==``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .corpus import SEGMENT_LEVEL, ScoreTable, Task
from .errors import (
    AllTied,
    CellMismatch,
    LengthMismatch,
    NonFiniteScore,
    NoVariants,
    SampleTooSmall,
    SystemOnlyTable,
    TooFewSystems,
    ZeroVariance,
)
from .metrics import left_sum
from .seeding import rng_for

PEARSON_R = "pearson_r"
KENDALL_TAU_B = "kendall_tau_b"


@dataclass(frozen=True)
class CorrelationResult:
    kind: str
    value: float
    n: int


@dataclass(frozen=True)
class SystemScoreVector:
    """Ordered system (or hybrid) ids with one score each, for one task."""

    task: Task
    scores: Mapping[str, float]

    @property
    def ids(self) -> list[str]:
        return list(self.scores)

    @property
    def values(self) -> list[float]:
        return list(self.scores.values())


@dataclass(frozen=True)
class HybridSelector:
    """Per-segment choice of a source system for one pseudo-system."""

    hybrid_id: str
    choices: Mapping[str, str]  # seg_id -> system_id
    seed_lineage: tuple[int, int]  # (master seed, row index in the task's draw)


@dataclass(frozen=True)
class VariantSelection:
    metric_id: str
    variant_id: str
    level: str
    per_task: Mapping[Task, float]
    average: float


def system_scores(table: ScoreTable) -> SystemScoreVector:
    """Per-system mean of segment scores (the table's row means); system-only
    tables pass through."""
    values = table.values
    if table.level == SEGMENT_LEVEL:
        values = values.mean(axis=1)
    return SystemScoreVector(
        task=table.task, scores=dict(zip(table.system_ids, values.tolist()))
    )


def _centred(x: Sequence[float]) -> tuple[np.ndarray, float]:
    """x - mean(x) as float64, and its sum of squares: each vector's share of
    :func:`pearson`, taken once per vector.  Raises :class:`NonFiniteScore`
    on NaN or ±inf."""
    xa = np.asarray(x, dtype=np.float64)
    if not np.isfinite(xa).all():
        raise NonFiniteScore("pearson needs finite scores")
    dx = xa - xa.mean()
    return dx, float(np.dot(dx, dx))


def _centred_r(x: tuple[np.ndarray, float], y: tuple[np.ndarray, float]) -> float:
    """Pearson r of two :func:`_centred` vectors of the same length."""
    (dx, sxx), (dy, syy) = x, y
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVariance("pearson undefined for a constant vector")
    r = float(np.dot(dx, dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def _check_paired(x: Sequence[float], y: Sequence[float], what: str) -> int:
    """The common length of two vectors, which must be at least 2."""
    if len(x) != len(y):
        raise LengthMismatch(f"vector lengths differ: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise SampleTooSmall(f"{what} needs at least 2 points")
    return len(x)


def pearson(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Product-moment correlation; NaN or ±inf on either side raises
    :class:`NonFiniteScore`."""
    n = _check_paired(x, y, "pearson")
    return CorrelationResult(PEARSON_R, _centred_r(_centred(x), _centred(y)), n)


def pearson_rs(
    human: Sequence[float], vectors: Mapping[Hashable, Sequence[float]]
) -> dict[Hashable, float]:
    """``pearson(human, vector).value`` for each vector, by its key.  The
    human vector is converted, checked and centred once; every check and
    error comes in the order the ``pearson`` calls would make it."""
    centred = None
    out = {}
    for key, vector in vectors.items():
        _check_paired(human, vector, "pearson")
        if centred is None:
            centred = _centred(human)
        out[key] = _centred_r(centred, _centred(vector))
    return out


# Entries of any one working array of a chunked pass: the kendall_tau_b
# tiles, both hybrid gathers and the permutation test's blocks.
_BLOCK = 2**17


def _dense_ranks(x: np.ndarray) -> np.ndarray:
    """0, 1, 2, ... by value; equal values share a rank, so for values other
    than NaN sign(rank_i - rank_j) == sign(x_i - x_j)."""
    return np.unique(x, return_inverse=True)[1].reshape(x.shape)


def _sign_of_difference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sign(x - y) as int8, broadcasting x against y."""
    s = np.greater(x, y).view(np.int8)
    np.subtract(s, np.less(x, y).view(np.int8), out=s)
    return s


def kendall_tau_b(x: Sequence[float], y: Sequence[float]) -> CorrelationResult:
    """Kendall rank correlation with the tie correction,
    (C - D) / sqrt((C + D + T_x)(C + D + T_y)).

    C - D is counted exactly from the signs of dense-rank differences, in
    row tiles whose two sign arrays hold at most ``_BLOCK`` entries; the
    tied pairs T_x and T_y come from the rank counts.  ±inf rank as ordinary
    values; a NaN on either side raises :class:`AllTied`.
    """
    n = _check_paired(x, y, "kendall_tau_b")
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if np.all(xa == xa[0]) or np.all(ya == ya[0]):
        raise AllTied("kendall_tau_b undefined when one side is all ties")
    if np.isnan(xa).any() or np.isnan(ya).any():
        raise AllTied("kendall_tau_b denominator degenerate")
    n0 = n * (n - 1) // 2
    # Ranks are below n; the narrowest type holding them makes the pairwise
    # comparisons cheapest.
    rx, ry = (_dense_ranks(v).astype(np.min_scalar_type(n)) for v in (xa, ya))
    t_x, t_y = (
        int((counts * (counts - 1) // 2).sum())
        for counts in (np.bincount(rx), np.bincount(ry))
    )
    rows = max(1, _BLOCK // (2 * n))
    twice = 0
    for lo in range(0, n, rows):
        s = _sign_of_difference(rx[lo : lo + rows, None], rx)
        s *= _sign_of_difference(ry[lo : lo + rows, None], ry)
        twice += int(s.sum(dtype=np.int64))
    tau = float(twice // 2 / np.sqrt(n0 - t_x) / np.sqrt(n0 - t_y))
    return CorrelationResult(KENDALL_TAU_B, max(-1.0, min(1.0, tau)), n)


def _aligned_cube(
    tables: Sequence[ScoreTable], human: Mapping[tuple[str, str], float]
) -> tuple[list[str], list[str], np.ndarray]:
    """The alignment step of the module docstring: the sorted system and
    segment ids, and a float64 (segment-level tables + 1, systems, segments)
    cube of each segment-level table's array, then the human scores."""
    if any(t.task != tables[0].task for t in tables):
        raise CellMismatch("tables span different tasks")
    seg_tables = [t for t in tables if t.level == SEGMENT_LEVEL]
    systems = (seg_tables or tables)[0].system_ids
    seg_ids = seg_tables[0].seg_ids if seg_tables else sorted({g for _, g in human})
    for t in tables:
        if t.level == SEGMENT_LEVEL and (t.system_ids, t.seg_ids) != (systems, seg_ids):
            raise CellMismatch(
                f"table {t.display_name()} is not aligned with the others"
            )
        if t.system_ids != systems:
            raise CellMismatch(
                f"system-only table {t.display_name()} covers different systems"
            )
    try:
        cells = [human[(s, g)] for s in systems for g in seg_ids]
    except KeyError as exc:
        raise CellMismatch(f"human score missing for cell {exc}") from None
    if len(human) != len(cells):
        raise CellMismatch("human segment scores not aligned with the score tables")
    grid = np.array(cells, dtype=np.float64).reshape(len(systems), len(seg_ids))
    cube = np.stack([*(t.values for t in seg_tables), grid])
    return list(systems), list(seg_ids), cube


def apply_selector(table: ScoreTable, choices: Mapping[str, str]) -> float:
    """Mean over segments of the selected system's segment score."""
    if table.level != SEGMENT_LEVEL:
        raise SystemOnlyTable("selectors need per-segment scores")
    row = {s: i for i, s in enumerate(table.system_ids)}
    column = {g: j for j, g in enumerate(table.seg_ids)}
    values = [table.values[row[choices[g]], column[g]] for g in sorted(choices)]
    return float(np.mean(values))


@dataclass(frozen=True)
class HybridArrays:
    """One task's hybrid pass as arrays: every vector lists the real systems
    first, in sorted order, then the ``k`` hybrids in row order."""

    systems: list[str]
    seg_ids: list[str]
    # (k, segments): entry (i, j) indexes ``systems`` for ``seg_ids[j]``
    index_rows: np.ndarray
    vectors: dict[tuple[str, str], np.ndarray]  # float64, by table key
    human: np.ndarray  # float64


def hybrid_arrays(
    tables: Sequence[ScoreTable],
    human_segment_scores: Mapping[tuple[str, str], float],
    k: int,
    seed: int,
    corpus_scorer: Callable[[np.ndarray], Mapping[tuple[str, str], Sequence[float]]]
    | None = None,
) -> HybridArrays:
    """The arrays behind :func:`hybrid_supersample`, which documents the
    draws, the checks and the errors.

    The index rows are drawn in the narrowest unsigned type that holds a
    system index (uint8 up to 256 systems); that dtype is part of the
    stream, since numpy draws other values for it than for int64.  One mean
    over the last axis of the alignment step's cube gives the real systems'
    scores and one over the hybrids' selected cells gives theirs, gathered
    a chunk of hybrid rows at a time: at most ``_BLOCK`` cells, or one row
    across the cube when that row alone is larger.  System-only tables'
    arrays are their real systems' scores.
    """
    if not tables:
        raise NoVariants("hybrid_supersample needs at least one score table")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    systems, seg_ids, cube = _aligned_cube(tables, human_segment_scores)
    if len(systems) < 2:
        raise TooFewSystems(f"need at least 2 real systems, got {len(systems)}")

    n_sys = len(systems)
    n_seg = len(seg_ids)
    task = tables[0].task
    index_rows = rng_for(seed, f"hybrid:{task.label}").integers(
        0, n_sys, size=(k, n_seg), dtype=np.min_scalar_type(n_sys - 1)
    )

    extended = np.empty((len(cube), n_sys + k))
    extended[:, :n_sys] = cube.mean(axis=2)
    # np.take lays each hybrid's cells out contiguously, so every mean sums
    # them in the order numpy sums one row (fancy indexing of the cube does
    # not, and its sums differ in the last bits)
    flat = cube.reshape(len(cube), n_sys * n_seg)
    step = max(1, _BLOCK // max(1, len(cube) * n_seg))
    for lo in range(0, k, step):
        # intp first: a narrow unsigned row times n_seg would wrap around
        picked = index_rows[lo : lo + step].astype(np.intp) * n_seg + np.arange(n_seg)
        cells = np.take(flat, picked, axis=1)
        extended[:, n_sys + lo : n_sys + lo + step] = cells.mean(axis=2)
    rows = iter(extended)  # the segment-level tables', in order

    corpus_scores: Mapping[tuple[str, str], Sequence[float]] = {}
    system_only = any(table.level != SEGMENT_LEVEL for table in tables)
    if k > 0 and system_only and corpus_scorer is not None:
        corpus_scores = corpus_scorer(index_rows)
    vectors: dict[tuple[str, str], np.ndarray] = {}
    for table in tables:
        if table.level == SEGMENT_LEVEL:
            vectors[table.key] = next(rows)
            continue
        values = table.values
        if k > 0:
            if table.key not in corpus_scores:
                raise SystemOnlyTable(
                    f"no corpus scores supplied for system-only table "
                    f"{table.display_name()}"
                )
            values = np.concatenate([values, corpus_scores[table.key]])
        vectors[table.key] = values
    return HybridArrays(systems, seg_ids, index_rows, vectors, extended[-1])


def hybrid_supersample(
    tables: Sequence[ScoreTable],
    human_segment_scores: Mapping[tuple[str, str], float],
    k: int,
    seed: int,
    corpus_scorer: Callable[[np.ndarray], Mapping[tuple[str, str], Sequence[float]]]
    | None = None,
    threads: int = 1,
) -> tuple[
    list[HybridSelector],
    dict[tuple[str, str], SystemScoreVector],
    SystemScoreVector,
]:
    """Extend every metric's system score vector with ``k`` hybrid systems.

    The k x segments index matrix is one draw of uniform system indices from
    the generator seeded by (seed, ``"hybrid:<task label>"``), so the output
    depends on the inputs alone.  Row i is selector ``i``, and the first k
    rows of a larger draw are the same, so a larger ``k`` only adds
    hybrids.  Entry (i, j) picks, for the j-th segment id in sorted order,
    one of the sorted real system ids.  Segment-level tables and the human
    scores are averaged over the selected cells; system-only tables
    (corpus-level metrics) are re-scored by ``corpus_scorer``, called at
    most once with the whole index matrix, which returns the k hybrid
    scores in row order of each table key it scores.  Real systems always
    lead the output vectors.  The selectors and vectors are built from
    :func:`hybrid_arrays`, which the pipeline calls directly; each
    selector's ``seed_lineage`` is (seed, its row index).  ``threads`` is
    accepted for compatibility and ignored.
    """
    arrays = hybrid_arrays(tables, human_segment_scores, k, seed, corpus_scorer)
    systems, seg_ids = arrays.systems, arrays.seg_ids
    selectors = [
        HybridSelector(
            hybrid_id=f"hyb{i:04d}",
            choices={g: systems[s] for g, s in zip(seg_ids, row)},
            seed_lineage=(seed, i),
        )
        for i, row in enumerate(arrays.index_rows.tolist())
    ]
    ids = systems + [sel.hybrid_id for sel in selectors]
    task = tables[0].task

    def vector(values: np.ndarray) -> SystemScoreVector:
        return SystemScoreVector(task=task, scores=dict(zip(ids, values.tolist())))

    vectors = {key: vector(values) for key, values in arrays.vectors.items()}
    return selectors, vectors, vector(arrays.human)


def segment_correlation(
    table: ScoreTable,
    human_segment_scores: Mapping[tuple[str, str], float],
) -> CorrelationResult:
    """Kendall tau-b over all (system, segment) cells pooled into one pair of
    vectors."""
    if table.level != SEGMENT_LEVEL:
        raise SystemOnlyTable(
            f"{table.display_name()} has no segment scores to correlate"
        )
    _, _, (scores, human) = _aligned_cube([table], human_segment_scores)
    return kendall_tau_b(scores.ravel(), human.ravel())


def select_best_variant(
    variant_tables: Mapping[str, Mapping[Task, ScoreTable]],
    human_segment_scores: Mapping[Task, Mapping[tuple[str, str], float]],
    tasks: Sequence[Task],
    level: str = SEGMENT_LEVEL,
    system_vectors: Mapping[
        Task, tuple[Mapping[tuple[str, str], Sequence[float]], Sequence[float]]
    ]
    | None = None,
) -> VariantSelection:
    """Pick the variant with the highest mean correlation across tasks.

    ``level`` chooses the correlation: pooled Kendall tau-b per task for
    segment level, or Pearson r over system score vectors for system level.
    At system level ``system_vectors`` gives, per task, the (hybrid-extended)
    score arrays by table key and the human array, as :class:`HybridArrays`
    holds them (or the ``.values`` of :func:`hybrid_supersample`'s vectors);
    every variant's table needs its own key, and the human array is centred
    once per task (:func:`pearson_rs`).  Ties go to the lexicographically
    smallest variant id.
    """
    if not variant_tables:
        raise NoVariants("no variants to select from")
    metric_ids = {
        table.metric_id
        for per_task in variant_tables.values()
        for table in per_task.values()
    }
    if len(metric_ids) != 1:
        raise ValueError(f"variants span multiple metrics: {sorted(metric_ids)}")
    metric_id = metric_ids.pop()
    if level != SEGMENT_LEVEL and system_vectors is None:
        raise ValueError("system-level selection needs system_vectors")

    variant_ids = sorted(variant_tables)
    corr: dict[str, dict[Task, float]] = {v: {} for v in variant_ids}
    for task in tasks:
        tables = [variant_tables[v][task] for v in variant_ids]
        if level == SEGMENT_LEVEL:
            for v, table in zip(variant_ids, tables):
                corr[v][task] = segment_correlation(
                    table, human_segment_scores[task]
                ).value
        else:
            if len({table.key for table in tables}) != len(tables):
                raise ValueError(f"variants of {metric_id} share a table key")
            vectors, human = system_vectors[task]
            rs = pearson_rs(
                human, {v: vectors[table.key] for v, table in zip(variant_ids, tables)}
            )
            for v in variant_ids:
                corr[v][task] = rs[v]
    results = {
        v: (corr[v], left_sum(corr[v].values()) / len(corr[v])) for v in variant_ids
    }

    best_id = max(sorted(results), key=lambda v: results[v][1])
    per_task, average = results[best_id]
    return VariantSelection(
        metric_id=metric_id,
        variant_id=best_id,
        level=level,
        per_task=per_task,
        average=average,
    )
