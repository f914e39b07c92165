"""Metric-human correlation machinery.

System-level comparison uses Pearson r over system score vectors; with only
a handful of real systems those vectors are padded by hybrid super sampling:
pseudo-systems assembled by picking, per segment, one real system's output
uniformly at random, the same for every table of a task.  The pipeline
takes them as arrays from :func:`hybrid_arrays`, whose index rows come from
one :func:`~.seeding.integer_rows` call per task; :func:`hybrid_supersample`
adds the selector and vector objects for library callers.  Segment-level
comparison pools every (system, segment) cell of a task into one vector
pair and uses Kendall tau-b.

Kendall tau-b is counted exactly from int8 signs of dense ranks, the same
pairwise signs the segment permutation test (``significance._SwapTauB``)
builds: twice the concordant-minus-discordant count is the sum of
sign(x_i - x_j) * sign(y_i - y_j) over ordered pairs, taken in row tiles of
at most ``_BUDGET`` entries, and the tie counts come from the rank counts.
The float finish divides in a fixed order, (C - D) / sqrt(n0 - T_x) /
sqrt(n0 - T_y) with n0 = n(n - 1)/2, the order of the reference
implementation the tests compare against with ``==``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .corpus import SEGMENT_LEVEL, SYSTEM_LEVEL, ScoreTable, Task
from .errors import (
    AllTied,
    CellMismatch,
    IncompleteTable,
    LengthMismatch,
    NonFiniteScore,
    NoVariants,
    SampleTooSmall,
    SystemOnlyTable,
    TooFewSystems,
    ZeroVariance,
)
from .seeding import (
    integer_rows,
    rng_for,  # noqa: F401  the benchmark tracer wraps it until its next revision
)

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
    seed_lineage: tuple[int, int]  # (master seed, hybrid index)


@dataclass(frozen=True)
class VariantSelection:
    metric_id: str
    variant_id: str
    level: str
    per_task: Mapping[Task, float]
    average: float


def system_scores(table: ScoreTable) -> SystemScoreVector:
    """Per-system mean of segment scores; system-only tables pass through."""
    if table.level == SYSTEM_LEVEL:
        return SystemScoreVector(
            task=table.task,
            scores={s: table.system_cells[s] for s in sorted(table.system_cells)},
        )
    systems = table.systems()
    seg_ids = table.segment_ids()
    scores = {}
    for system in systems:
        values = []
        for seg_id in seg_ids:
            try:
                values.append(table.cells[(system, seg_id)])
            except KeyError:
                raise IncompleteTable(
                    f"{table.display_name()}: missing cell ({system}, {seg_id})"
                ) from None
        scores[system] = float(np.mean(np.asarray(values, dtype=np.float64)))
    return SystemScoreVector(task=table.task, scores=scores)


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


# Element budget of the pairwise working arrays of ``kendall_tau_b`` and of
# the permutation test: a tile of pairwise signs and a batch of replicate
# masks (and of their uniform draws) each hold at most this many entries,
# whatever the number of cells.
_BUDGET = 4_000_000


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
    row tiles whose two sign arrays hold at most ``_BUDGET`` entries; the
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
    rows = max(1, _BUDGET // (2 * n))
    twice = 0
    for lo in range(0, n, rows):
        s = _sign_of_difference(rx[lo : lo + rows, None], rx)
        s *= _sign_of_difference(ry[lo : lo + rows, None], ry)
        twice += int(s.sum(dtype=np.int64))
    tau = float(twice // 2 / np.sqrt(n0 - t_x) / np.sqrt(n0 - t_y))
    return CorrelationResult(KENDALL_TAU_B, max(-1.0, min(1.0, tau)), n)


def _check_aligned_tables(tables: Sequence[ScoreTable]) -> tuple[list[str], list[str]]:
    seg_tables = [t for t in tables if t.level == SEGMENT_LEVEL]
    if seg_tables:
        systems = seg_tables[0].systems()
        seg_ids = seg_tables[0].segment_ids()
        want = {(s, g) for s in systems for g in seg_ids}
        for t in seg_tables:
            if set(t.cells) != want:
                raise CellMismatch(
                    f"table {t.display_name()} is not aligned with the others"
                )
    else:
        systems, seg_ids = [], []
    for t in tables:
        if t.level == SYSTEM_LEVEL:
            if systems and sorted(t.system_cells) != systems:
                raise CellMismatch(
                    f"system-only table {t.display_name()} covers different systems"
                )
            if not systems:
                systems = sorted(t.system_cells)
    return systems, seg_ids


def apply_selector(table: ScoreTable, choices: Mapping[str, str]) -> float:
    """Mean over segments of the selected system's segment score."""
    if table.level != SEGMENT_LEVEL:
        raise SystemOnlyTable("selectors need per-segment scores")
    values = [table.cells[(choices[g], g)] for g in sorted(choices)]
    return float(np.mean(np.asarray(values, dtype=np.float64)))


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
    redrawn: int  # index rows drawn again through rng_for


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

    The index rows come from one :func:`~.seeding.integer_rows` call.  The
    segment-level tables and the human scores are gathered into one
    (tables + 1, systems, segments) array; one mean over its last axis
    gives the real systems' scores and one over the hybrids' selected cells
    gives theirs, gathering at most ``_BUDGET`` cells at a time.
    """
    if not tables:
        raise NoVariants("hybrid_supersample needs at least one score table")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    task = tables[0].task
    for t in tables:
        if t.task != task:
            raise CellMismatch("tables span different tasks")
    systems, seg_ids = _check_aligned_tables(tables)
    if not seg_ids:
        seg_ids = sorted({g for _, g in human_segment_scores})
    if len(systems) < 2:
        raise TooFewSystems(f"need at least 2 real systems, got {len(systems)}")
    want = {(s, g) for s in systems for g in seg_ids}
    if set(human_segment_scores) != want:
        raise CellMismatch("human segment scores not aligned with the score tables")

    n_sys = len(systems)
    n_seg = len(seg_ids)
    index_rows, redrawn = integer_rows(seed, f"hybrid:{task.label}", k, n_sys, n_seg)

    seg_tables = [table for table in tables if table.level == SEGMENT_LEVEL]
    cube = np.array(
        [
            [[cells[(s, g)] for g in seg_ids] for s in systems]
            for cells in [*(table.cells for table in seg_tables), human_segment_scores]
        ],
        dtype=np.float64,
    )
    extended = np.empty((len(cube), n_sys + k))
    extended[:, :n_sys] = cube.mean(axis=2)
    # np.take lays each hybrid's cells out contiguously, so every mean sums
    # them in the order numpy sums one row (fancy indexing of the cube does
    # not, and its sums differ in the last bits)
    flat = cube.reshape(len(cube), n_sys * n_seg)
    picked = index_rows * n_seg + np.arange(n_seg)
    step = max(1, _BUDGET // max(1, k * n_seg))
    for lo in range(0, len(cube), step):
        cells = np.take(flat[lo : lo + step], picked, axis=1)
        extended[lo : lo + step, n_sys:] = cells.mean(axis=2)
    by_table = dict(zip((table.key for table in seg_tables), extended))

    corpus_scores: Mapping[tuple[str, str], Sequence[float]] = {}
    if k > 0 and len(seg_tables) < len(tables) and corpus_scorer is not None:
        corpus_scores = corpus_scorer(index_rows)
    vectors: dict[tuple[str, str], np.ndarray] = {}
    for table in tables:
        if table.level == SEGMENT_LEVEL:
            vectors[table.key] = by_table[table.key]
            continue
        values = [table.system_cells[s] for s in systems]
        if k > 0:
            if table.key not in corpus_scores:
                raise SystemOnlyTable(
                    f"no corpus scores supplied for system-only table "
                    f"{table.display_name()}"
                )
            values += corpus_scores[table.key]
        vectors[table.key] = np.array(values, dtype=np.float64)
    return HybridArrays(systems, seg_ids, index_rows, vectors, extended[-1], redrawn)


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

    Selector ``i`` draws, for each segment in lexicographic order, one real
    system uniformly at random from a generator seeded by (seed, task, i),
    so the output depends on the inputs alone; all ``k`` rows come from one
    :func:`~.seeding.integer_rows` call, row i equal to that generator's
    draws.  Entry (i, j) of the k x segments index matrix picks, for the
    j-th segment id in sorted order, one of the sorted real system ids.
    Segment-level tables and the human scores are averaged over the
    selected cells; system-only tables (corpus-level metrics) are re-scored
    by ``corpus_scorer``, called at most once with the whole index matrix,
    which returns the k hybrid scores in row order of each table key it
    scores.  Real systems always lead the output vectors.  The selectors and
    vectors are built from :func:`hybrid_arrays`, which the pipeline calls
    directly.  ``threads`` is accepted for compatibility and ignored.
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
    keys = sorted(table.cells)
    try:
        human = [human_segment_scores[key] for key in keys]
    except KeyError as exc:
        raise CellMismatch(f"human score missing for cell {exc}") from None
    metric = [table.cells[key] for key in keys]
    return kendall_tau_b(metric, human)


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
    results = {v: (corr[v], sum(corr[v].values()) / len(corr[v])) for v in variant_ids}

    best_id = max(sorted(results), key=lambda v: results[v][1])
    per_task, average = results[best_id]
    return VariantSelection(
        metric_id=metric_id,
        variant_id=best_id,
        level=level,
        per_task=per_task,
        average=average,
    )
