"""Pipeline orchestration: ingestion -> QC -> normalization -> metrics ->
correlation -> significance -> report files.

:class:`PipelineState` lazily computes shared intermediates (normalized
ratings, native score tables, hybrid-extended system score arrays from one
hybrid pass per task that variant selection and the system stage share) so each
report table is reachable standalone; :func:`run_pipeline` drives the whole chain
and writes a digest manifest.  ``PipelineState.report_tables`` decides once
per task which metrics the correlation, significance and system comparison
reports cover: the native metrics but length deviation, plus the chosen
variant of each external metric, sorted by display name; the segment-level
reports take its segment-level subset.  The native stage tokenises each
reference once per task and each hypothesis once per (system, segment) cell
and counts each text's n-grams once; a cell's additive BLEU statistics and
its ROUGE-1/2 come from those counts.  Real-system BLEU and BLEU* finish each
system's summed cell statistics; hybrid BLEU and BLEU* sum the statistics of
the cells a hybrid selects, and one ``NativeScores.corpus_scorer`` call per
hybrid pass finishes each hybrid's statistics once for both.
Given identical inputs and master seed, two runs produce byte-identical
artifacts: every random draw derives from the master seed, rows are sorted
deterministically, and numeric report cells are fixed at 4 decimals.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from ._version import VERSION
from .corpus import (
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
)
from .errors import (
    DuplicateMetricName,
    EmptyCorpus,
    IncompleteTable,
    MissingFile,
    SampleTooSmall,
    ValidationFailure,
)
from .metaeval import (
    VariantSelection,
    hybrid_arrays,
    hybrid_supersample,  # noqa: F401  the benchmark tracer wraps it
    pearson_rs,
    segment_correlation,
    select_best_variant,
    system_scores,
)
from .metrics import (
    bleu_from_stats,
    bleu_stats_from_counts,
    corpus_bleu,  # noqa: F401  the benchmark tracer wraps it until its next revision
    expected_length,
    ngram_counts,
    rouge_l,
    rouge_n_from_stats,
    scheme_for_direction,
    tokenize,
)
from .ratings import (
    agreement,
    aggregate_segment_human,
    timing_report,
    trap_report,
    znormalize,
)
from .reports import emit_sig_matrix, fmt4, sha256_file, write_csv
from .seeding import derive_int
from .significance import (
    dagger_marks,
    paired_bootstrap,
    segment_sig_matrix,
    system_sig_matrix,
)

logger = logging.getLogger(__name__)

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
    """One task's native metric tables, plus the additive BLEU statistics of
    every (system, segment) cell, system and segment ids sorted."""

    tables: list[ScoreTable]
    bleu_stats: np.ndarray  # (system, segment, statistic)

    @property
    def correlated(self) -> list[ScoreTable]:
        """The tables correlated with the human scores: all but length
        deviation, which the reports give per system instead."""
        return [tb for tb in self.tables if tb.metric_id != LENGTH_DEV_ID]

    def corpus_scorer(self, index_rows: np.ndarray) -> dict:
        """The ``corpus_scorer`` of :func:`hybrid_supersample`: BLEU and BLEU*
        of every row of a hybrid index matrix, each row's summed cell
        statistics finished once."""
        sums = self.bleu_stats[index_rows, np.arange(index_rows.shape[1])].sum(axis=1)
        scores = [bleu_from_stats(row) for row in sums.tolist()]
        return {
            (BLEU_ID, "-"): [score.bleu for score in scores],
            (BLEU_STAR_ID, "-"): [score.bleu_star for score in scores],
        }


def score_tables_for_task(campaign: Campaign, task: Task) -> NativeScores:
    """Native metric tables for one task: the nine ROUGE variants and length
    deviation per (system, segment), plus corpus BLEU and BLEU* per system.

    Each reference is tokenised and its n-grams counted once, and so is each
    hypothesis; a cell's BLEU statistics and ROUGE-1/2 come from those
    counts, and a system's corpus BLEU is its summed cell statistics,
    finished.  Where the length unit tokenises like the scoring scheme, a
    hypothesis's length is its scored token count.
    """
    scheme = scheme_for_direction(task.direction)
    length_scored = (
        length_scheme(campaign.config.length_unit, task.direction) == scheme
    )
    segments = campaign.segments_for_direction(task.direction)
    systems = campaign.config.systems
    if not segments:
        raise EmptyCorpus(
            f"{task.label}: direction {task.direction} has no segments"
        )

    refs = {}
    for seg in segments:
        ref = tokenize(seg.reference_text, scheme)
        target = max(expected_length(task.ratio, campaign.reference_length(seg)), 1)
        refs[seg.seg_id] = (ref, ngram_counts(ref.tokens), target)

    rouge_cells: dict[str, dict[tuple[str, str], float]] = {
        m: {} for m in ROUGE_METRICS
    }
    dev_cells: dict[tuple[str, str], float] = {}
    stats_by_cell: dict[tuple[str, str], tuple[int, ...]] = {}
    for system in systems:
        for seg in segments:
            cell = (system, seg.seg_id)
            try:
                record = campaign.hypothesis(system, seg.seg_id, task.ratio)
            except KeyError:
                raise IncompleteTable(
                    f"no hypothesis for ({system}, {seg.seg_id}, ratio {task.ratio})"
                ) from None
            hyp = tokenize(record.text, scheme)
            ref, ref_counts, target = refs[seg.seg_id]
            stats = bleu_stats_from_counts(
                ngram_counts(hyp.tokens), ref_counts, len(hyp), len(ref)
            )
            stats_by_cell[cell] = stats
            for prefix, score in (
                ("ROUGE1", rouge_n_from_stats(stats, 1)),
                ("ROUGE2", rouge_n_from_stats(stats, 2)),
                ("ROUGEL", rouge_l(hyp, ref)),
            ):
                rouge_cells[f"{prefix}-P"][cell] = score.precision
                rouge_cells[f"{prefix}-R"][cell] = score.recall
                rouge_cells[f"{prefix}-F1"][cell] = score.f1

            if length_scored:
                out_len = len(hyp)
            else:
                out_len = campaign.hypothesis_length(record)
            dev_cells[cell] = abs(out_len - target) / target

    tables = [
        ScoreTable.segment_table(metric, "-", task, cells)
        for metric, cells in rouge_cells.items()
    ]
    tables.append(ScoreTable.segment_table(LENGTH_DEV_ID, "-", task, dev_cells))

    sorted_systems = sorted(systems)
    seg_order = sorted(seg.seg_id for seg in segments)
    cell_stats = np.asarray(
        [[stats_by_cell[(s, g)] for g in seg_order] for s in sorted_systems],
        dtype=np.int64,
    )
    # a system's corpus BLEU is bleu_from_stats of its summed cell statistics
    totals = dict(zip(sorted_systems, cell_stats.sum(axis=1).tolist()))
    scores = {system: bleu_from_stats(totals[system]) for system in systems}
    tables.append(
        ScoreTable.system_table(
            BLEU_ID, "-", task, {s: score.bleu for s, score in scores.items()}
        )
    )
    tables.append(
        ScoreTable.system_table(
            BLEU_STAR_ID, "-", task, {s: score.bleu_star for s, score in scores.items()}
        )
    )
    return NativeScores(tables, cell_stats)


class PipelineState:
    """Shared intermediates for the report emitters, computed lazily."""

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
        self.campaign = campaign
        self.seed = campaign.config.seed if seed is None else seed
        self.hybrids = hybrids
        self.permutations = permutations
        self.bootstrap = bootstrap
        self.alpha = alpha
        self.timing_cutoff = timing_cutoff
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
        started = time.perf_counter()
        normalized = znormalize(
            self.campaign.ratings, include_traps=self.include_traps
        )
        aggregated, warnings = aggregate_segment_human(
            normalized, annotators_per_task=self.campaign.config.annotators_per_task
        )
        for w in warnings:
            logger.warning("aggregation: %s", w)
        out: dict[Task, dict[tuple[str, str], float]] = {t: {} for t in self.tasks}
        for (task, system, seg_id), value in aggregated.items():
            out[task][(system, seg_id)] = value
        logger.info(
            "human aggregation: %d ratings (%d normalised), %d cells over %d "
            "tasks, %.3f s",
            len(self.campaign.ratings),
            len(normalized),
            len(aggregated),
            len(self.tasks),
            time.perf_counter() - started,
        )
        return out

    @cached_property
    def natives(self) -> dict[Task, NativeScores]:
        out = {}
        for t in self.tasks:
            started = time.perf_counter()
            out[t] = score_tables_for_task(self.campaign, t)
            n_systems, n_segments = out[t].bleu_stats.shape[:2]
            cells = n_systems * n_segments
            logger.info(
                "native scores %s: %d cells, %d texts tokenised and counted once "
                "each (%d hypotheses, %d references), %.3f s",
                t.label,
                cells,
                cells + n_segments,
                cells,
                n_segments,
                time.perf_counter() - started,
            )
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
            started = time.perf_counter()
            arrays = hybrid_arrays(
                tables,
                self.human_by_task[t],
                self.hybrids,
                self.seed,
                corpus_scorer=native.corpus_scorer,
            )
            out[t] = (arrays.vectors, arrays.human)
            logger.info(
                "hybrid pass %s: %d tables (%d native, %d external), K=%d hybrids "
                "drawn in one call (%d redrawn one by one), %.3f s",
                t.label,
                len(tables),
                n_native,
                len(tables) - n_native,
                self.hybrids,
                arrays.redrawn,
                time.perf_counter() - started,
            )
        return out

    @cached_property
    def selections(self) -> list[VariantSelection]:
        system_vectors = self.hybrid_pass if self.level == SYSTEM_LEVEL else None
        human = self.human_by_task
        started = time.perf_counter()
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
        logger.info(
            "variant selection: %d metrics, %d variants, %s level, %.3f s",
            len(selections),
            sum(len(variants) for variants in self.external_variants.values()),
            self.level,
            time.perf_counter() - started,
        )
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
                + [fmt4(sum(values) / len(values))]
            )
        write_csv(path, ["metric", "variant"] + self.task_cols + ["average"], rows)
        return [path]

    def _emit_sig_matrices(self, out: Path, level: str, matrix_for) -> list[Path]:
        """Each task's ``matrix_for(task)`` as csv, text grid and svg."""
        paths = []
        for t in self.tasks:
            matrix = matrix_for(t)
            for fmt, suffix in (("csv", "csv"), ("textgrid", "txt"), ("svg", "svg")):
                path = out / f"sig_{level}_{t.label}.{suffix}"
                emit_sig_matrix(matrix, fmt, path)
                paths.append(path)
        return paths

    # --- emitters -----------------------------------------------------------

    def emit_qc(self, out: Path) -> list[Path]:
        started = time.perf_counter()
        timing_path = out / "qc_timing.csv"
        write_csv(
            timing_path,
            ["direction", "ratio", "all_ave", "cut_ave"],
            [
                (t.direction, repr(t.ratio), fmt4(stats.all_ave), fmt4(stats.cut_ave))
                for t in self.tasks
                for stats in [
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
        logger.info(
            "qc: %d tasks, %d ratings, timing cutoff %g s, %.3f s",
            len(self.tasks),
            len(self.campaign.ratings),
            self.timing_cutoff,
            time.perf_counter() - started,
        )
        return [timing_path, traps_path]

    def emit_agreement(self, out: Path) -> list[Path]:
        started = time.perf_counter()
        rows = []
        for t in self.tasks:
            task_ratings = self.campaign.ratings_for_task(t)
            for with_traps in (True, False):
                result = agreement(task_ratings, include_traps=with_traps)
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
        logger.info(
            "agreement: %d tasks, with and without traps, %.3f s",
            len(self.tasks),
            time.perf_counter() - started,
        )
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
        rs = {t: pearson_rs(human_vectors[t], sys_vectors[t]) for t in self.tasks}
        return self._emit_correlations(
            out / "correlations_system.csv",
            self.report_tables,
            lambda t, tb: rs[t][tb.display_name()],
        )

    def emit_correlations_segment(self, out: Path) -> list[Path]:
        return self._emit_correlations(
            out / "correlations_segment.csv",
            self.segment_tables,
            lambda t, tb: segment_correlation(tb, self.human_by_task[t]).value,
        )

    def emit_sig_system(self, out: Path) -> list[Path]:
        self.check_system_sig()
        sys_vectors, human_vectors = self.system_stage

        def matrix_for(t: Task):
            started = time.perf_counter()
            matrix = system_sig_matrix(sys_vectors[t], human_vectors[t], t)
            logger.info(
                "system significance %s: %d metrics, %d ordered pairs, "
                "n=%d systems, %.3f s",
                t.label,
                len(matrix.metrics),
                len(matrix.cells),
                len(human_vectors[t]),
                time.perf_counter() - started,
            )
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
        started = time.perf_counter()
        systems = list(self.campaign.config.systems)
        rows = []
        for per_task in zip(*(self.segment_tables[t] for t in self.tasks)):
            name = per_task[0].display_name()
            cells_by_task: dict[Task, dict[str, str]] = {}
            for t, table in zip(self.tasks, per_task):
                seg_ids = self.campaign.segment_ids_for_direction(t.direction)
                per_system = {
                    system: {seg: table.cells[(system, seg)] for seg in seg_ids}
                    for system in systems
                }
                means = system_scores(table).scores
                ranked = sorted(systems, key=lambda s: (-means[s], s))
                marks = {s: "" for s in systems}
                if len(ranked) >= 2:
                    best, second = ranked[0], ranked[1]
                    p = paired_bootstrap(
                        per_system[best],
                        per_system[second],
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
        logger.info(
            "system comparison: %d tasks, %d metrics, B=%d resamples, %.3f s",
            len(self.tasks),
            len(self.segment_tables[self.tasks[0]]),
            self.bootstrap,
            time.perf_counter() - started,
        )
        return [path]

    def emit_length_deviation(self, out: Path) -> list[Path]:
        """Per-system mean of each task's length deviation cells."""

        def mean(t: Task, system: str) -> float:
            (table,) = [
                tb for tb in self.natives[t].tables if tb.metric_id == LENGTH_DEV_ID
            ]
            seg_ids = self.campaign.segment_ids_for_direction(t.direction)
            return sum(table.cells[(system, g)] for g in seg_ids) / len(seg_ids)

        path = out / "length_deviation.csv"
        write_csv(
            path,
            ["system"] + self.task_cols,
            [
                [system] + [fmt4(mean(t, system)) for t in self.tasks]
                for system in self.campaign.config.systems
            ],
        )
        return [path]


def open_campaign(config_path, length_unit: str | None = None) -> Campaign:
    """Load a campaign; ``length_unit``, when given, overrides its config's."""
    started = time.perf_counter()
    campaign = load_campaign(config_path)
    logger.info(
        "campaign load: %d segments, %d hypotheses, %d ratings, %d external "
        "score cells, %.3f s",
        len(campaign.segments),
        len(campaign.hypotheses),
        len(campaign.ratings),
        sum(
            len(t.cells) + len(t.system_cells)
            for ts in campaign.external_scores.values()
            for t in ts
        ),
        time.perf_counter() - started,
    )
    if length_unit is not None and length_unit != campaign.config.length_unit:
        campaign = replace(
            campaign, config=replace(campaign.config, length_unit=length_unit)
        )
    return campaign


def run_pipeline(
    config_path,
    out_dir,
    *,
    seed: int | None = None,
    hybrids: int = 1000,
    permutations: int = 1000,
    bootstrap: int = 1000,
    alpha: float = 0.05,
    timing_cutoff: float = 600.0,
    include_traps: bool = False,
    level: str = SYSTEM_LEVEL,
    threads: int = 1,
    length_unit: str | None = None,
) -> PipelineArtifacts:
    """Run the full evaluation pipeline and write every report table.

    ``seed`` defaults to the campaign config's seed; ``level`` picks the
    correlation used to choose the best variant of multi-variant metrics;
    ``length_unit`` overrides the config's length unit; ``threads`` is
    accepted for compatibility and ignored: every stage runs on one thread.
    Raises :class:`ValidationFailure` when the rating grid is incomplete.
    """
    campaign = open_campaign(config_path, length_unit)
    if campaign.config.ratings_path is None:
        raise MissingFile("campaign config declares no ratings file")
    started = time.perf_counter()
    report = validate_campaign(campaign)
    logger.info(
        "campaign validation: %d of %d expected ratings found, %d missing and "
        "%d duplicate cells, %.3f s",
        report.found_rating_count,
        report.expected_rating_count,
        len(report.missing_cells),
        len(report.duplicate_cells),
        time.perf_counter() - started,
    )
    for warning in report.warnings:
        logger.warning(warning)
    if not report.ok:
        raise ValidationFailure(
            f"campaign incomplete: {len(report.missing_cells)} missing and "
            f"{len(report.duplicate_cells)} duplicate cells "
            f"(expected {report.expected_rating_count}, found "
            f"{report.found_rating_count})"
        )

    state = PipelineState(
        campaign,
        seed=seed,
        hybrids=hybrids,
        permutations=permutations,
        bootstrap=bootstrap,
        alpha=alpha,
        timing_cutoff=timing_cutoff,
        include_traps=include_traps,
        level=level,
    )
    # fail before any file is written
    state.check_system_sig()
    state.external_variants  # raises on incomplete or clashing external tables
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    written += state.emit_qc(out)
    written += state.emit_agreement(out)
    written += state.emit_variant_selection(out)
    written += state.emit_correlations_system(out)
    written += state.emit_correlations_segment(out)
    written += state.emit_sig_system(out)
    written += state.emit_sig_segment(out)
    written += state.emit_system_eval(out)
    written += state.emit_length_deviation(out)

    config_digest = sha256_file(config_path)
    inputs = {
        name: sha256_file(path)
        for name, path in input_files(campaign.config, Path(config_path).parent).items()
    }
    names = sorted(p.name for p in written)
    manifest = tuple((name, sha256_file(out / name)) for name in names)
    artifacts = PipelineArtifacts(
        manifest=manifest,
        config_digest=config_digest,
        seed=state.seed,
        version=VERSION,
    )
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
    return artifacts


def format_validation_report(report: ValidationReport) -> str:
    lines = [
        f"expected ratings: {report.expected_rating_count}",
        f"found ratings:    {report.found_rating_count}",
        f"missing cells:    {len(report.missing_cells)}",
        f"duplicate cells:  {len(report.duplicate_cells)}",
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
