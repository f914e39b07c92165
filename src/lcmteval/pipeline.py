"""Pipeline orchestration: ingestion -> QC -> normalization -> metrics ->
correlation -> significance -> report files.

:class:`PipelineState` lazily computes shared intermediates (normalized
ratings, native score tables, hybrid-extended system score arrays from one
hybrid pass per task that variant selection and the system stage share) for the
report emitters; :func:`open_state` opens and checks a campaign and builds its
state for ``run`` and the stage commands alike.  ``STAGES`` groups the emitters
by stage command, and :func:`run_pipeline` writes every stage in order, then a
digest manifest.  :func:`emit_stage` first removes any ``manifest.json`` in the
output directory, so a directory without one holds a failed run's partial
output or a stage command's.
Each stage logs one INFO line, its work counts and then its seconds, through
the ``_timed`` helper; a stage that raises logs no line.
``PipelineState.report_tables`` decides once per task which metrics the
correlation, significance and system comparison reports cover: the native
metrics but length deviation, plus the chosen variant of each external metric,
sorted by display name; the segment-level reports take its segment-level
subset.  Every cell's ROUGE-1/2 and additive BLEU statistics come from one
``ngram_stats`` array pass per task; the corpus BLEU and BLEU* of a system or
a hybrid finish the sum of its cells' statistics.
Given identical inputs and master seed, two runs produce byte-identical
artifacts: every random draw derives from the master seed, rows are sorted
deterministically, and numeric report cells are fixed at 4 decimals.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from ._version import VERSION
from .corpus import (
    _MAX_SEED,
    SEGMENT_LEVEL,
    SYSTEM_LEVEL,
    Campaign,
    ScoreTable,
    Task,
    ValidationReport,
    input_files,
    length_scheme,
    load_campaign,
    validate_campaign,
    write_csv,
)
from .errors import (
    BrevityPenaltyUnderflow,
    DuplicateMetricName,
    EmptyCorpus,
    IncompleteTable,
    MissingFile,
    SampleTooSmall,
    ValidationFailure,
)
from .metaeval import (
    _BLOCK,
    VariantSelection,
    hybrid_arrays,
    hybrid_supersample,  # noqa: F401  the benchmark tracer wraps it
    pearson_rs,
    segment_correlation,
    select_best_variant,
    system_scores,
)
from .metrics import (
    LengthRecord,
    bleu_arrays_from_stats,
    corpus_bleu,  # noqa: F401  the benchmark tracer wraps it until its next revision
    expected_length,
    left_sum,
    length_deviations,
    ngram_stats,
    rouge_l_arrays,
    rouge_n_arrays,
    scheme_for_direction,
    tokenize,
)
from .ratings import (
    NormalizedRating,
    agreement,
    aggregate_segment_human,
    timing_report,
    trap_report,
    znormalize,
)
from .reports import SIG_FORMATS, emit_sig_matrix, fmt4, sha256_file
from .seeding import derive_int
from .significance import (
    dagger_marks,
    paired_bootstrap,
    segment_sig_matrix,
    system_sig_matrix,
)

logger = logging.getLogger(__name__)


@contextmanager
def _timed(message: str):
    """Time the ``with`` block and log ``message`` at INFO: its placeholders
    take the work counts that the block appends to the yielded list, and
    ``, <seconds> s`` follows them.  A block that raises logs nothing."""
    work: list = []
    started = time.perf_counter()
    yield work
    logger.info(f"{message}, %.3f s", *work, time.perf_counter() - started)


ROUGE_METRICS = (
    "ROUGE1-P",
    "ROUGE1-R",
    "ROUGE1-F1",
    "ROUGE2-P",
    "ROUGE2-R",
    "ROUGE2-F1",
    "ROUGEL-P",
    "ROUGEL-R",
    "ROUGEL-F1",
)
BLEU_ID = "BLEU"
BLEU_STAR_ID = "BLEU*"
LENGTH_DEV_ID = "LengthDev"
NATIVE_METRICS = (*ROUGE_METRICS, BLEU_ID, BLEU_STAR_ID, LENGTH_DEV_ID)


@dataclass(frozen=True)
class PipelineArtifacts:
    manifest: tuple[tuple[str, str], ...]  # (file name, sha256) sorted by name
    config_digest: str
    seed: int
    version: str


@dataclass(frozen=True)
class NativeScores:
    """One task's native metric tables, ``LengthDev`` among them, plus the
    additive BLEU statistics of every (system, segment) cell, system and
    segment ids sorted."""

    tables: list[ScoreTable]
    bleu_stats: np.ndarray  # (system, segment, statistic)
    distinct_ngrams: int  # over the task's texts, summed over the orders

    @property
    def correlated(self) -> list[ScoreTable]:
        """The tables correlated with the human scores: all but length
        deviation, which the reports give per system instead."""
        return [tb for tb in self.tables if tb.metric_id != LENGTH_DEV_ID]

    def corpus_scorer(self, index_rows: np.ndarray) -> dict:
        """The ``corpus_scorer`` of :func:`hybrid_supersample`: BLEU and BLEU*
        of every row of a hybrid index matrix.  The cells are gathered a
        chunk of rows at a time, at most ``_BLOCK`` statistics or one row,
        and each chunk's summed statistics are finished before the next is
        gathered, so only the two score arrays grow with the row count.  A
        brevity penalty that underflows names the task and the hybrid row."""
        k, n_segments = index_rows.shape
        width = self.bleu_stats.shape[2]
        step = max(1, _BLOCK // (n_segments * width))
        bleu, bleu_star = np.empty(k), np.empty(k)
        for lo in range(0, k, step):
            cells = self.bleu_stats[index_rows[lo : lo + step], np.arange(n_segments)]
            try:
                finished = bleu_arrays_from_stats(cells.sum(axis=1))
            except BrevityPenaltyUnderflow as exc:
                row = lo + exc.row
                raise BrevityPenaltyUnderflow(
                    f"{exc} in task {self.tables[0].task.label}, hybrid row {row}",
                    row,
                ) from None
            bleu[lo : lo + step] = finished.bleu
            bleu_star[lo : lo + step] = finished.bleu_star
        return {(BLEU_ID, "-"): bleu, (BLEU_STAR_ID, "-"): bleu_star}


def score_tables_for_task(campaign: Campaign, task: Task) -> NativeScores:
    """Native metric tables for one task: the nine ROUGE variants and length
    deviation per (system, segment), plus corpus BLEU and BLEU* per system.

    Each reference is tokenised once, and so is each hypothesis; one
    :func:`ngram_stats` pass over those tokens gives every cell's BLEU
    statistics, ROUGE-1/2 come from that array, and a system's corpus BLEU
    is its summed cell statistics, finished.  ROUGE-L builds each
    reference's match masks once.  A corpus BLEU brevity penalty that
    underflows names the task and the system.  Where the length unit
    tokenises like the scoring scheme, a reference's or hypothesis's length
    is its scored token count (a provided reference count still wins).  The
    tables are built from those arrays.
    """
    scheme = scheme_for_direction(task.direction)
    length_scored = (
        length_scheme(campaign.config.length_unit, task.direction) == scheme
    )
    segments = campaign.segments_for_direction(task.direction)
    systems = sorted(campaign.config.systems)
    if not segments:
        raise EmptyCorpus(
            f"{task.label}: direction {task.direction} has no segments"
        )

    refs = [tokenize(seg.reference_text, scheme).tokens for seg in segments]
    targets = []
    for seg, ref in zip(segments, refs):
        length = campaign.reference_length(seg, ref if length_scored else None)
        targets.append(max(expected_length(task.ratio, length), 1))
    # cells in row-major (system, segment) order, both sorted; a cell's
    # reference is its segment's
    hyps: list[tuple[str, ...]] = []
    lengths: list[LengthRecord] = []
    for system in systems:
        for seg, target in zip(segments, targets):
            try:
                record = campaign.hypothesis(system, seg.seg_id, task.ratio)
            except KeyError:
                raise IncompleteTable(
                    f"no hypothesis for ({system}, {seg.seg_id}, ratio {task.ratio})"
                ) from None
            hyp = tokenize(record.text, scheme).tokens
            hyps.append(hyp)
            if length_scored:
                out_len = len(hyp)
            else:
                out_len = campaign.hypothesis_length(record)
            lengths.append(LengthRecord(out_len, target))
    ref_index = np.tile(np.arange(len(segments)), len(systems))
    stats, distinct = ngram_stats(hyps, refs, ref_index)

    deviations = length_deviations(lengths)
    cell_stats = stats.reshape(len(systems), len(segments), -1)
    # a system's corpus BLEU is its summed cell statistics, finished
    try:
        finished = bleu_arrays_from_stats(cell_stats.sum(axis=1))
    except BrevityPenaltyUnderflow as exc:
        raise BrevityPenaltyUnderflow(
            f"{exc} in task {task.label}, system {systems[exc.row]}", exc.row
        ) from None
    # the ids and layout of a segment-level and of a system-only table
    per_cell = (task, SEGMENT_LEVEL, systems, [seg.seg_id for seg in segments])
    per_system = (task, SYSTEM_LEVEL, systems, ())
    tables = [
        ScoreTable(f"{prefix}-{suffix}", "-", *per_cell, values)
        for prefix, triple in (
            ("ROUGE1", rouge_n_arrays(stats, 1)),
            ("ROUGE2", rouge_n_arrays(stats, 2)),
            ("ROUGEL", rouge_l_arrays(hyps, refs, ref_index)),
        )
        for suffix, values in zip(("P", "R", "F1"), triple)
    ]
    tables += [
        ScoreTable(LENGTH_DEV_ID, "-", *per_cell, deviations),
        ScoreTable(BLEU_ID, "-", *per_system, finished.bleu),
        ScoreTable(BLEU_STAR_ID, "-", *per_system, finished.bleu_star),
    ]
    return NativeScores(tables, cell_stats, distinct)


def human_scores(
    campaign: Campaign, include_traps: bool = False
) -> tuple[list[NormalizedRating], dict[tuple[Task, str, str], float]]:
    """The z-normalised ratings and the mean z per (task, system, seg_id)
    cell; aggregation warnings are logged."""
    with _timed(
        "human aggregation: %d ratings (%d normalised), %d cells over %d tasks"
    ) as work:
        normalized = znormalize(campaign.ratings, include_traps=include_traps)
        aggregated, warnings = aggregate_segment_human(
            normalized, annotators_per_task=campaign.config.annotators_per_task
        )
        for w in warnings:
            logger.warning("aggregation: %s", w)
        work += map(len, (campaign.ratings, normalized, aggregated, campaign.tasks()))
    return normalized, aggregated


# Each numeric option's (type, test, wording), for PipelineState and its flag.
OPTION_RULES = {
    "seed": (int, lambda v: 0 <= v <= _MAX_SEED, f"must be in [0, {_MAX_SEED}]"),
    "hybrids": (int, lambda v: v >= 0, "must be >= 0"),
    "permutations": (int, lambda v: v >= 1, "must be >= 1"),
    "bootstrap": (int, lambda v: v >= 1, "must be >= 1"),
    "alpha": (float, lambda v: 0.0 < v < 1.0, "must be in (0, 1)"),
    "timing_cutoff": (float, lambda v: v > 0.0, "must be > 0"),
}
LEVELS = (SYSTEM_LEVEL, SEGMENT_LEVEL)


class PipelineState:
    """Shared intermediates for the report emitters, computed lazily.

    ``seed`` defaults to the campaign config's seed; ``level`` picks the
    correlation used to choose the best variant of multi-variant metrics.
    ``level`` is one of ``LEVELS`` and every other option keeps its type and
    rule in ``OPTION_RULES``: integer options take an integral value, ``alpha``
    and ``timing_cutoff`` a real one, neither a bool, each stored as that type;
    anything else raises a ``ValueError`` naming it.
    """

    def __init__(
        self,
        campaign: Campaign,
        *,
        seed: int | None = None,
        hybrids: int = 1000,
        permutations: int = 1000,
        bootstrap: int = 1000,
        alpha: float = 0.05,
        timing_cutoff: float = 600.0,
        include_traps: bool = False,
        level: str = SYSTEM_LEVEL,
    ):
        if level not in LEVELS:
            raise ValueError(f"level must be 'segment' or 'system', got {level!r}")
        self.campaign = campaign
        self.seed = campaign.config.seed if seed is None else seed
        self.hybrids = hybrids
        self.permutations = permutations
        self.bootstrap = bootstrap
        self.alpha = alpha
        self.timing_cutoff = timing_cutoff
        for name, (kind, holds, rule) in OPTION_RULES.items():
            value = getattr(self, name)
            wanted = numbers.Integral if kind is int else numbers.Real
            if isinstance(value, bool) or not isinstance(value, wanted):
                noun = "an integer" if kind is int else "a real number"
                raise ValueError(f"{name} must be {noun}, got {value!r}")
            try:
                typed = kind(value)
            except OverflowError:  # an int beyond float64: infinite, as its flag reads
                typed = math.inf if value > 0 else -math.inf
            if not holds(typed):
                raise ValueError(f"{name} {rule}, got {value}")
            setattr(self, name, typed)
        self.include_traps = include_traps
        self.level = level
        self.tasks = campaign.tasks()
        self.task_cols = [t.label for t in self.tasks]

    def check_system_sig(self) -> None:
        """Raise :class:`SampleTooSmall` unless system-level significance can
        run: Zou's interval needs at least 4 systems, real plus hybrid."""
        n_systems = len(self.campaign.config.systems)
        if n_systems + self.hybrids < 4:
            raise SampleTooSmall(
                f"system-level significance needs systems + hybrids >= 4, got "
                f"{n_systems} systems and --hybrids {self.hybrids}; raise --hybrids"
            )

    # --- intermediates ----------------------------------------------------

    @cached_property
    def human_by_task(self) -> dict[Task, dict[tuple[str, str], float]]:
        _, aggregated = human_scores(self.campaign, self.include_traps)
        out: dict[Task, dict[tuple[str, str], float]] = {t: {} for t in self.tasks}
        for (task, system, seg_id), value in aggregated.items():
            out[task][(system, seg_id)] = value
        return out

    @cached_property
    def natives(self) -> dict[Task, NativeScores]:
        out = {}
        for t in self.tasks:
            with _timed(
                "native scores %s: %d cells against %d references, %d distinct "
                "n-grams of orders 1-4 counted in one array pass"
            ) as work:
                native = out[t] = score_tables_for_task(self.campaign, t)
                n_systems, n_segments = native.bleu_stats.shape[:2]
                cells = n_systems * n_segments
                work += [t.label, cells, n_segments, native.distinct_ngrams]
        return out

    @cached_property
    def external_variants(self) -> dict[str, dict[str, dict[Task, ScoreTable]]]:
        """metric -> variant -> task -> table, complete over all tasks.

        Raises :class:`DuplicateMetricName` when an external table's display
        name is a native metric's or another table's of the same task: the
        report rows and the hybrid vectors are keyed by it.
        """
        grouped: dict[str, dict[str, dict[Task, ScoreTable]]] = {}
        for task, tables in self.campaign.external_scores.items():
            seen = {name: "a native metric" for name in NATIVE_METRICS}
            for table in tables:
                name = table.display_name()
                if name in seen:
                    raise DuplicateMetricName(
                        f"{task.label}: external table "
                        f"{table.metric_id}/{table.variant_id} is named {name!r}, "
                        f"like {seen[name]}; rename the metric or variant"
                    )
                seen[name] = f"table {table.metric_id}/{table.variant_id}"
                grouped.setdefault(table.metric_id, {}).setdefault(
                    table.variant_id, {}
                )[task] = table
        for metric, variants in grouped.items():
            for variant, per_task in variants.items():
                missing = [t.label for t in self.tasks if t not in per_task]
                if missing:
                    raise IncompleteTable(
                        f"metric {metric}/{variant} has no scores for tasks: "
                        f"{', '.join(missing)}"
                    )
        return grouped

    @cached_property
    def hybrid_pass(
        self,
    ) -> dict[Task, tuple[dict[tuple[str, str], np.ndarray], np.ndarray]]:
        """Per task, the hybrid-extended score arrays (by table key) of the
        correlated native tables and of every variant of every external
        metric, and the human array: one :func:`hybrid_arrays` call per
        task, so variant selection and the system stage meet the same K
        pseudo-systems, whose index rows are drawn in one call."""
        out = {}
        for t in self.tasks:
            native = self.natives[t]
            tables = native.correlated
            n_native = len(tables)
            tables += [
                per_task[t]
                for variants in self.external_variants.values()
                for per_task in variants.values()
            ]
            with _timed(
                "hybrid pass %s: %d tables (%d native, %d external), K=%d hybrids "
                "drawn in one call"
            ) as work:
                arrays = hybrid_arrays(
                    tables,
                    self.human_by_task[t],
                    self.hybrids,
                    self.seed,
                    corpus_scorer=native.corpus_scorer,
                )
                out[t] = (arrays.vectors, arrays.human)
                n_external = len(tables) - n_native
                work += [t.label, len(tables), n_native, n_external, self.hybrids]
        return out

    @cached_property
    def selections(self) -> list[VariantSelection]:
        system_vectors = self.hybrid_pass if self.level == SYSTEM_LEVEL else None
        human = self.human_by_task
        with _timed("variant selection: %d metrics, %d variants, %s level") as work:
            selections = [
                select_best_variant(
                    self.external_variants[metric],
                    human,
                    self.tasks,
                    level=self.level,
                    system_vectors=system_vectors,
                )
                for metric in sorted(self.external_variants)
            ]
            n_variants = sum(map(len, self.external_variants.values()))
            work += [len(selections), n_variants, self.level]
        return selections

    @cached_property
    def report_tables(self) -> dict[Task, list[ScoreTable]]:
        """Per task, the tables that the correlation, significance and system
        comparison reports cover, sorted by display name: the correlated
        native tables and the chosen variant of each external metric.  Every
        task lists the same display names in the same order."""
        return {
            t: sorted(
                self.natives[t].correlated
                + [
                    self.external_variants[s.metric_id][s.variant_id][t]
                    for s in self.selections
                ],
                key=ScoreTable.display_name,
            )
            for t in self.tasks
        }

    @cached_property
    def system_stage(
        self,
    ) -> tuple[dict[Task, dict[str, np.ndarray]], dict[Task, np.ndarray]]:
        """Hybrid-extended metric (by display name, in report order) and human
        score arrays per task, taken from the hybrid pass."""
        if self.hybrids == 0 and len(self.campaign.config.systems) < 3:
            logger.warning(
                "system-level Pearson over %d real systems without hybrids is "
                "degenerate",
                len(self.campaign.config.systems),
            )
        sys_vectors: dict[Task, dict[str, np.ndarray]] = {}
        human_vectors: dict[Task, np.ndarray] = {}
        for t in self.tasks:
            vectors, human_vectors[t] = self.hybrid_pass[t]
            sys_vectors[t] = {
                tb.display_name(): vectors[tb.key] for tb in self.report_tables[t]
            }
        # variant selection, the only other reader, is done: free the vectors
        # of the variants not chosen
        del self.hybrid_pass
        return sys_vectors, human_vectors

    @cached_property
    def segment_tables(self) -> dict[Task, list[ScoreTable]]:
        """The segment-level report tables of each task."""
        return {
            t: [tb for tb in tables if tb.level == SEGMENT_LEVEL]
            for t, tables in self.report_tables.items()
        }

    def _emit_correlations(
        self, path: Path, tables: dict[Task, list[ScoreTable]], correlate
    ) -> list[Path]:
        """One row per metric: ``correlate(task, table)`` in each task and
        their mean."""
        rows = []
        for per_task in zip(*(tables[t] for t in self.tasks)):
            values = [correlate(t, tb) for t, tb in zip(self.tasks, per_task)]
            rows.append(
                [per_task[0].metric_id, per_task[0].variant_id]
                + [fmt4(v) for v in values]
                + [fmt4(left_sum(values) / len(values))]
            )
        write_csv(path, ["metric", "variant"] + self.task_cols + ["average"], rows)
        return [path]

    def _emit_sig_matrices(self, out: Path, level: str, matrix_for) -> list[Path]:
        """Each task's ``matrix_for(task)`` as csv, text grid and svg."""
        paths = []
        for t in self.tasks:
            matrix = matrix_for(t)
            for fmt, suffix in SIG_FORMATS.items():
                path = out / f"sig_{level}_{t.label}.{suffix}"
                emit_sig_matrix(matrix, fmt, path)
                paths.append(path)
        return paths

    # --- emitters -----------------------------------------------------------

    def emit_qc(self, out: Path) -> list[Path]:
        with _timed("qc: %d tasks, %d ratings, timing cutoff %g s") as work:
            timing_path = out / "qc_timing.csv"
            write_csv(
                timing_path,
                ["direction", "ratio", "all_ave", "cut_ave"],
                [
                    (t.direction, repr(t.ratio), fmt4(st.all_ave), fmt4(st.cut_ave))
                    for t in self.tasks
                    for st in [
                        timing_report(
                            self.campaign.ratings_for_task(t), self.timing_cutoff
                        )
                    ]
                ],
            )
            traps_path = out / "qc_traps.csv"
            write_csv(
                traps_path,
                ["direction", "ratio", "zero", "low", "high"],
                [
                    (t.direction, repr(t.ratio), b.zero, b.low, b.high)
                    for t in self.tasks
                    for b in [
                        trap_report(
                            [r for r in self.campaign.ratings_for_task(t) if r.is_trap]
                        )
                    ]
                ],
            )
            work += [len(self.tasks), len(self.campaign.ratings), self.timing_cutoff]
        return [timing_path, traps_path]

    def emit_agreement(self, out: Path) -> list[Path]:
        with _timed(
            "agreement: %d tasks, with and without traps, %d pairable items "
            "(one item table per task and trap setting)"
        ) as work:
            rows = []
            items = 0
            for t in self.tasks:
                task_ratings = self.campaign.ratings_for_task(t)
                for with_traps in (True, False):
                    result = agreement(task_ratings, include_traps=with_traps)
                    items += result.n_items
                    rows.append(
                        (
                            t.direction,
                            repr(t.ratio),
                            "true" if with_traps else "false",
                            fmt4(result.one_vs_rest_r),
                            fmt4(result.krippendorff_alpha),
                            result.n_items,
                        )
                    )
            path = out / "agreement.csv"
            write_csv(
                path,
                [
                    "direction",
                    "ratio",
                    "with_traps",
                    "one_vs_rest_r",
                    "krippendorff_alpha",
                    "n_items",
                ],
                rows,
            )
            work += [len(self.tasks), items]
        return [path]

    def emit_variant_selection(self, out: Path) -> list[Path]:
        path = out / "variant_selection.csv"
        write_csv(
            path,
            ["metric", "level", "chosen_variant"] + self.task_cols + ["average"],
            [
                [s.metric_id, s.level, s.variant_id]
                + [fmt4(s.per_task[t]) for t in self.tasks]
                + [fmt4(s.average)]
                for s in self.selections
            ],
        )
        return [path]

    def emit_correlations_system(self, out: Path) -> list[Path]:
        sys_vectors, human_vectors = self.system_stage
        with _timed("system correlations: %d tasks, %d metrics, n=%d systems") as work:
            rs = {t: pearson_rs(human_vectors[t], sys_vectors[t]) for t in self.tasks}
            paths = self._emit_correlations(
                out / "correlations_system.csv",
                self.report_tables,
                lambda t, tb: rs[t][tb.display_name()],
            )
            work += [
                len(self.tasks),
                len(self.report_tables[self.tasks[0]]),
                len(human_vectors[self.tasks[0]]),
            ]
        return paths

    def emit_correlations_segment(self, out: Path) -> list[Path]:
        tables = self.segment_tables
        human = self.human_by_task
        with _timed("segment correlations: %d tasks, %d metrics, %d cells") as work:
            paths = self._emit_correlations(
                out / "correlations_segment.csv",
                tables,
                lambda t, tb: segment_correlation(tb, human[t]).value,
            )
            work += [
                len(self.tasks),
                len(tables[self.tasks[0]]),
                sum(len(human[t]) for t in self.tasks),
            ]
        return paths

    def emit_sig_system(self, out: Path) -> list[Path]:
        self.check_system_sig()
        sys_vectors, human_vectors = self.system_stage

        def matrix_for(t: Task):
            with _timed(
                "system significance %s: %d metrics, %d ordered pairs, n=%d systems"
            ) as work:
                matrix = system_sig_matrix(sys_vectors[t], human_vectors[t], t)
                work += [
                    t.label,
                    len(matrix.metrics),
                    len(matrix.cells),
                    len(human_vectors[t]),
                ]
            return matrix

        return self._emit_sig_matrices(out, "system", matrix_for)

    def emit_sig_segment(self, out: Path) -> list[Path]:
        return self._emit_sig_matrices(
            out,
            "segment",
            lambda t: segment_sig_matrix(
                {tb.display_name(): tb for tb in self.segment_tables[t]},
                self.human_by_task[t],
                t,
                r=self.permutations,
                seed=derive_int(self.seed, "segment-sig-task", t.label),
                alpha=self.alpha,
            ),
        )

    def emit_system_eval(self, out: Path) -> list[Path]:
        """Per-system scores under each segment-level metric, the best system
        dagger-marked when a paired bootstrap puts it above the runner-up.
        """
        with _timed(
            "system comparison: %d tasks, %d metrics, B=%d resamples"
        ) as work:
            systems = list(self.campaign.config.systems)
            rows = []
            for per_task in zip(*(self.segment_tables[t] for t in self.tasks)):
                name = per_task[0].display_name()
                cells_by_task: dict[Task, dict[str, str]] = {}
                for t, table in zip(self.tasks, per_task):
                    by_system = dict(zip(table.system_ids, table.values.tolist()))
                    means = system_scores(table).scores
                    ranked = sorted(systems, key=lambda s: (-means[s], s))
                    marks = {s: "" for s in systems}
                    if len(ranked) >= 2:
                        best, second = ranked[0], ranked[1]
                        p = paired_bootstrap(
                            dict(zip(table.seg_ids, by_system[best])),
                            dict(zip(table.seg_ids, by_system[second])),
                            b_iter=self.bootstrap,
                            seed=derive_int(self.seed, "syscompare", name, t.label),
                        )
                        marks[best] = dagger_marks(p)
                    cells_by_task[t] = {
                        s: f"{fmt4(means[s])}{marks[s]}" for s in systems
                    }
                for system in systems:
                    rows.append(
                        [per_task[0].metric_id, per_task[0].variant_id, system]
                        + [cells_by_task[t][system] for t in self.tasks]
                    )
            path = out / "system_eval.csv"
            write_csv(path, ["metric", "variant", "system"] + self.task_cols, rows)
            work += [
                len(self.tasks),
                len(self.segment_tables[self.tasks[0]]),
                self.bootstrap,
            ]
        return [path]

    def emit_length_deviation(self, out: Path) -> list[Path]:
        """Per-system length deviation of each task: the mean of the system's
        ``LengthDev`` row, bit for bit ``metrics.length_deviation``."""
        means = {
            (t, system): left_sum(row) / len(row)
            for t in self.tasks
            for tb in self.natives[t].tables
            if tb.metric_id == LENGTH_DEV_ID
            for system, row in zip(tb.system_ids, tb.values.tolist())
        }
        path = out / "length_deviation.csv"
        write_csv(
            path,
            ["system"] + self.task_cols,
            [
                [system] + [fmt4(means[t, system]) for t in self.tasks]
                for system in self.campaign.config.systems
            ],
        )
        return [path]


def open_campaign(config_path, length_unit: str | None = None) -> Campaign:
    """Load a campaign; ``length_unit``, when given, overrides its config's."""
    with _timed(
        "campaign load: %d segments, %d hypotheses, %d ratings, %d external "
        "score cells"
    ) as work:
        campaign = load_campaign(config_path)
        work += [
            len(campaign.segments),
            len(campaign.hypotheses),
            len(campaign.ratings),
            sum(t.values.size for ts in campaign.external_scores.values() for t in ts),
        ]
    if length_unit is not None and length_unit != campaign.config.length_unit:
        campaign = replace(
            campaign, config=replace(campaign.config, length_unit=length_unit)
        )
    return campaign


# Each stage command's PipelineState emitters, in ``run``'s order; looked up by
# name at call time, so a wrapper set on the class after import is what runs.
STAGES = {
    "qc": ("emit_qc", "emit_agreement"),
    "correlate": (
        "emit_variant_selection",
        "emit_correlations_system",
        "emit_correlations_segment",
    ),
    "significance": ("emit_sig_system", "emit_sig_segment"),
    "syscompare": ("emit_system_eval", "emit_length_deviation"),
}


def emit_stage(state: PipelineState, stage: str, out: Path) -> list[Path]:
    """Write one stage's report files into ``out``; returns their paths.
    First removes ``out``'s ``manifest.json``, which would no longer describe
    the files: only a complete ``run`` writes one."""
    (out / "manifest.json").unlink(missing_ok=True)
    with _timed("%s reports: %d files, %d bytes") as work:
        paths = [path for name in STAGES[stage] for path in getattr(state, name)(out)]
        work += [stage, len(paths), sum(path.stat().st_size for path in paths)]
    return paths


def require_ratings(campaign: Campaign) -> Campaign:
    """``campaign``; :class:`MissingFile` if its config names no ratings file."""
    if campaign.config.ratings_path is None:
        raise MissingFile("campaign config declares no ratings file")
    return campaign


def open_state(
    config_path, length_unit: str | None = None, **options
) -> PipelineState:
    """Open a campaign for ``run`` or a stage command: its
    :class:`PipelineState` with ``options``, ``length_unit`` (when given)
    overriding the config's.  Raises :class:`MissingFile` when the config names
    no ratings file, :class:`ValidationFailure` when the rating grid is
    incomplete."""
    campaign = require_ratings(open_campaign(config_path, length_unit))
    with _timed(
        "campaign validation: %d of %d expected ratings found, %d missing and "
        "%d duplicate cells, %d trap ratings (excluded from the grid)"
    ) as work:
        report = validate_campaign(campaign)
        work += [
            report.found_rating_count,
            report.expected_rating_count,
            len(report.missing_cells),
            len(report.duplicate_cells),
            report.trap_count,
        ]
    for warning in report.warnings:
        logger.warning(warning)
    if not report.ok:
        raise ValidationFailure(
            f"campaign incomplete: {len(report.missing_cells)} missing and "
            f"{len(report.duplicate_cells)} duplicate cells "
            f"(expected {report.expected_rating_count}, found "
            f"{report.found_rating_count})"
        )
    return PipelineState(campaign, **options)


def run_pipeline(
    config_path,
    out_dir,
    *,
    length_unit: str | None = None,
    threads: int = 1,
    **options,
) -> PipelineArtifacts:
    """Run the full evaluation pipeline and write every report table.

    ``options`` are :class:`PipelineState`'s keywords; ``length_unit``
    overrides the config's length unit; ``threads`` is accepted for
    compatibility and ignored: every stage runs on one thread.
    Raises :class:`ValidationFailure` when the rating grid is incomplete and
    ``ValueError`` on an option :class:`PipelineState` refuses, either before
    any file is written.
    """
    state = open_state(config_path, length_unit, **options)
    campaign = state.campaign
    # fail before any file is written
    state.check_system_sig()
    state.external_variants  # raises on incomplete or clashing external tables
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [path for stage in STAGES for path in emit_stage(state, stage, out)]

    with _timed("manifest: %d report files and %d input files digested") as work:
        config_digest = sha256_file(config_path)
        found = input_files(campaign.config, Path(config_path).parent)
        inputs = {name: sha256_file(path) for name, path in found.items()}
        names = sorted(p.name for p in written)
        manifest = tuple((name, sha256_file(out / name)) for name in names)
        artifacts = PipelineArtifacts(manifest, config_digest, state.seed, VERSION)
        (out / "manifest.json").write_text(
            json.dumps(
                {
                    "files": [{"name": n, "sha256": d} for n, d in manifest],
                    "config_digest": config_digest,
                    "inputs": inputs,
                    "parameters": {
                        "hybrids": state.hybrids,
                        "permutations": state.permutations,
                        "bootstrap": state.bootstrap,
                        "alpha": state.alpha,
                        "level": state.level,
                        "include_traps": state.include_traps,
                        # JSON has no infinity; --timing-cutoff inf is "inf"
                        "timing_cutoff": state.timing_cutoff
                        if math.isfinite(state.timing_cutoff)
                        else str(state.timing_cutoff),
                        "length_unit": campaign.config.length_unit,
                    },
                    "seed": state.seed,
                    "version": VERSION,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        work += [len(manifest), len(inputs) + 1]
    return artifacts


def format_validation_report(report: ValidationReport) -> str:
    lines = [
        f"expected ratings: {report.expected_rating_count}",
        f"found ratings:    {report.found_rating_count}",
        f"missing cells:    {len(report.missing_cells)}",
        f"duplicate cells:  {len(report.duplicate_cells)}",
        f"trap ratings:     {report.trap_count} (excluded from the grid)",
    ]
    for cell in report.missing_cells[:20]:
        lines.append(f"  missing: {cell}")
    if len(report.missing_cells) > 20:
        lines.append(f"  ... and {len(report.missing_cells) - 20} more")
    for cell in report.duplicate_cells[:20]:
        lines.append(f"  duplicate: {cell}")
    for warning in report.warnings:
        lines.append(f"  warning: {warning}")
    return "\n".join(lines)
