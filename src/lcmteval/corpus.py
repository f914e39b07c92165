"""Campaign data model and file I/O.

A campaign bundles the evaluation corpus (segments and system hypotheses at
several target-length ratios), human slider ratings, and externally computed
metric score tables, all described by one flat ``campaign.conf`` file.

Carrier formats (all UTF-8, LF line endings):

* ``campaign.conf`` -- flat ``key = value`` lines.
* ``segments.jsonl`` / ``hypotheses.jsonl`` -- one JSON object per record;
  texts may contain tabs here, which is why the JSON-lines carrier is used.
* ``ratings.csv`` -- header ``annotator,seg_id,system,ratio,score,duration_s,is_trap``.
* ``scores.tsv`` -- header ``metric<TAB>variant<TAB>system<TAB>seg_id<TAB>score``;
  embedded tabs in fields are rejected by construction.

Loaded campaigns are immutable and safe to share across threads.  Segment
ids must be unique across the whole campaign (not just per direction): the
ratings and scores carriers identify rows by bare ``seg_id``, so the id has
to resolve to a single direction.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateCell,
    IncompleteTable,
    MissingFile,
    NonFiniteScore,
    ParseError,
    UnknownSegment,
    UnresolvedReference,
)
from .metrics import CHARACTER, WHITESPACE, scheme_for_direction, tokenize

LENGTH_UNITS = ("characters", "whitespace-tokens", "provided-counts")
SEGMENT_LEVEL = "segment"
SYSTEM_LEVEL = "system"

_MAX_SEED = (1 << 64) - 1


@dataclass(frozen=True, order=True)
class Task:
    """One annotation/evaluation task: a direction at a target length ratio."""

    direction: str
    ratio: float

    @property
    def label(self) -> str:
        return f"{self.direction}.{percent_label(self.ratio)}"


def percent_label(ratio: float) -> str:
    """Compact percent string for file names (0.8 -> '80')."""
    return format(ratio * 100.0, ".10g")


@dataclass(frozen=True)
class CampaignConfig:
    directions: tuple[str, ...]
    length_ratios: tuple[float, ...]
    systems: tuple[str, ...]
    annotators_per_task: int
    length_unit: str
    seed: int
    segments_path: str = "segments.jsonl"
    hypotheses_path: str = "hypotheses.jsonl"
    ratings_path: str | None = None
    scores_dir: str | None = None

    def __post_init__(self):
        if not self.directions:
            raise ParseError("config needs at least one direction")
        if len(set(self.directions)) != len(self.directions):
            raise ParseError("directions must be unique")
        if not self.length_ratios:
            raise ParseError("config needs at least one length ratio")
        if len(set(self.length_ratios)) != len(self.length_ratios):
            raise ParseError("length ratios must be unique")
        for r in self.length_ratios:
            if not (0.0 < r <= 1.0):
                raise ParseError(f"length ratio {r!r} outside (0, 1]")
        if not self.systems:
            raise ParseError("config needs at least one system")
        if len(set(self.systems)) != len(self.systems):
            raise ParseError("system ids must be unique")
        if self.annotators_per_task < 1:
            raise ParseError("annotators_per_task must be >= 1")
        if self.length_unit not in LENGTH_UNITS:
            raise ParseError(
                f"length_unit {self.length_unit!r} not one of {LENGTH_UNITS}"
            )
        if not (0 <= self.seed <= _MAX_SEED):
            raise ParseError("seed must fit in 64 unsigned bits")

    def tasks(self) -> list[Task]:
        return [Task(d, r) for d in self.directions for r in self.length_ratios]


@dataclass(frozen=True)
class SegmentRecord:
    seg_id: str
    direction: str
    source_text: str
    reference_text: str
    reference_length: int | None = None


@dataclass(frozen=True)
class HypothesisRecord:
    system_id: str
    seg_id: str
    length_ratio: float
    text: str


@dataclass(frozen=True)
class RatingRecord:
    annotator_id: str
    task: Task
    seg_id: str
    system_id: str
    raw_score: int
    duration_s: float
    is_trap: bool


@dataclass(frozen=True)
class ScoreTable:
    """One metric variant's scores for a task.

    Segment-level tables are dense over (system, segment) cells; system-only
    tables carry a single score per system (the shape of corpus-level
    metrics that have no per-sentence decomposition).
    """

    metric_id: str
    variant_id: str
    task: Task
    level: str
    cells: Mapping[tuple[str, str], float] = field(default_factory=dict)
    system_cells: Mapping[str, float] = field(default_factory=dict)

    @classmethod
    def segment_table(cls, metric_id, variant_id, task, cells) -> "ScoreTable":
        return cls(metric_id, variant_id, task, SEGMENT_LEVEL, cells=dict(cells))

    @classmethod
    def system_table(cls, metric_id, variant_id, task, system_cells) -> "ScoreTable":
        return cls(
            metric_id, variant_id, task, SYSTEM_LEVEL, system_cells=dict(system_cells)
        )

    @property
    def key(self) -> tuple[str, str]:
        return (self.metric_id, self.variant_id)

    def display_name(self) -> str:
        if self.variant_id in ("", "-"):
            return self.metric_id
        return f"{self.metric_id}.{self.variant_id}"

    def systems(self) -> list[str]:
        if self.level == SYSTEM_LEVEL:
            return sorted(self.system_cells)
        return sorted({s for s, _ in self.cells})

    def segment_ids(self) -> list[str]:
        return sorted({g for _, g in self.cells})


@dataclass
class ValidationReport:
    expected_rating_count: int
    found_rating_count: int
    missing_cells: list[tuple]
    duplicate_cells: list[tuple]
    warnings: list[str]

    @property
    def ok(self) -> bool:
        return not self.missing_cells and not self.duplicate_cells


@dataclass(frozen=True)
class Campaign:
    config: CampaignConfig
    segments: Mapping[str, SegmentRecord]  # seg_id -> record
    hypotheses: Mapping[tuple[str, str, float], HypothesisRecord]
    ratings: tuple[RatingRecord, ...]
    external_scores: Mapping[Task, tuple[ScoreTable, ...]]

    def tasks(self) -> list[Task]:
        return self.config.tasks()

    def segments_for_direction(self, direction: str) -> list[SegmentRecord]:
        return sorted(
            (s for s in self.segments.values() if s.direction == direction),
            key=lambda s: s.seg_id,
        )

    def segment_ids_for_direction(self, direction: str) -> list[str]:
        return [s.seg_id for s in self.segments_for_direction(direction)]

    def hypothesis(self, system_id: str, seg_id: str, ratio: float) -> HypothesisRecord:
        return self.hypotheses[(system_id, seg_id, ratio)]

    def ratings_for_task(self, task: Task) -> list[RatingRecord]:
        return [r for r in self.ratings if r.task == task]

    def reference_length(self, seg: SegmentRecord) -> int:
        """Reference length in the configured unit."""
        unit = self.config.length_unit
        if unit == "provided-counts" and seg.reference_length is not None:
            return seg.reference_length
        return measure_length(seg.reference_text, unit, seg.direction)

    def hypothesis_length(self, hyp: HypothesisRecord) -> int:
        direction = self.segments[hyp.seg_id].direction
        return measure_length(hyp.text, self.config.length_unit, direction)


def length_scheme(unit: str, direction: str) -> str:
    """The tokenization scheme that measures a length in ``unit`` on a
    direction's target side."""
    if unit == "characters":
        return CHARACTER
    if unit == "whitespace-tokens":
        return WHITESPACE
    # provided-counts has no native measurement for arbitrary text; fall back
    # to the direction's scoring scheme (character for zh targets).
    return scheme_for_direction(direction)


def measure_length(text: str, unit: str, direction: str) -> int:
    return len(tokenize(text, length_scheme(unit, direction)))


# --- campaign.conf ----------------------------------------------------------

_LIST_KEYS = {"directions", "ratios", "systems"}
_KNOWN_KEYS = _LIST_KEYS | {
    "annotators_per_task",
    "length_unit",
    "seed",
    "segments",
    "hypotheses",
    "ratings",
    "scores_dir",
}


def parse_config(path: str | os.PathLike) -> CampaignConfig:
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"config file not found: {path}")
    raw: dict[str, str] = {}
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", path=path, line=lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ParseError(f"unknown config key {key!r}", path=path, line=lineno)
        if key in raw:
            raise ParseError(f"duplicate config key {key!r}", path=path, line=lineno)
        raw[key] = value.strip()

    def require(key: str) -> str:
        if key not in raw:
            raise ParseError(f"missing config key {key!r}", path=path)
        return raw[key]

    def split_list(value: str) -> tuple[str, ...]:
        return tuple(item.strip() for item in value.split(",") if item.strip())

    try:
        ratios = tuple(float(r) for r in split_list(require("ratios")))
        annotators = int(require("annotators_per_task"))
        seed = int(require("seed"))
    except ValueError as exc:
        raise ParseError(f"bad numeric value in config: {exc}", path=path) from exc

    try:
        return CampaignConfig(
            directions=split_list(require("directions")),
            length_ratios=ratios,
            systems=split_list(require("systems")),
            annotators_per_task=annotators,
            length_unit=require("length_unit"),
            seed=seed,
            segments_path=require("segments"),
            hypotheses_path=require("hypotheses"),
            ratings_path=raw.get("ratings"),
            scores_dir=raw.get("scores_dir"),
        )
    except ParseError as exc:
        if exc.path is not None:
            raise
        raise ParseError(str(exc), path=path) from None


def write_config(config: CampaignConfig, path: str | os.PathLike) -> None:
    lines = [
        f"directions = {', '.join(config.directions)}",
        f"ratios = {', '.join(repr(r) for r in config.length_ratios)}",
        f"systems = {', '.join(config.systems)}",
        f"annotators_per_task = {config.annotators_per_task}",
        f"length_unit = {config.length_unit}",
        f"seed = {config.seed}",
        f"segments = {config.segments_path}",
        f"hypotheses = {config.hypotheses_path}",
    ]
    if config.ratings_path is not None:
        lines.append(f"ratings = {config.ratings_path}")
    if config.scores_dir is not None:
        lines.append(f"scores_dir = {config.scores_dir}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- data files -------------------------------------------------------------


def _read_jsonl(path: Path) -> Iterable[tuple[int, dict]]:
    if not path.is_file():
        raise MissingFile(f"data file not found: {path}")
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"bad JSON: {exc}", path=path, line=lineno) from exc
            if not isinstance(obj, dict):
                raise ParseError("expected a JSON object", path=path, line=lineno)
            yield lineno, obj


def _json_line(obj: dict) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True, separators=(", ", ": "))


def _whole_number(value) -> int:
    """``int(value)`` for an integral number or numeric string; a boolean or
    a float that is not a whole number (inf and nan included) raises
    ValueError instead of being truncated."""
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise ValueError(f"not a whole number: {value!r}")
    return int(value)


def _number(value) -> float:
    """``float(value)`` for a number or numeric string; a boolean raises
    ValueError instead of reading as 1.0 or 0.0."""
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


def load_segments(path: Path, config: CampaignConfig) -> dict[str, SegmentRecord]:
    segments: dict[str, SegmentRecord] = {}
    for lineno, obj in _read_jsonl(path):
        try:
            rec = SegmentRecord(
                seg_id=str(obj["seg_id"]),
                direction=str(obj["direction"]),
                source_text=str(obj["source_text"]),
                reference_text=str(obj["reference_text"]),
                reference_length=(
                    _whole_number(obj["reference_length"])
                    if obj.get("reference_length") is not None
                    else None
                ),
            )
        except KeyError as exc:
            raise ParseError(f"missing field {exc}", path=path, line=lineno) from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"bad reference_length {obj['reference_length']!r}",
                path=path,
                line=lineno,
            ) from exc
        if rec.direction not in config.directions:
            raise ParseError(
                f"direction {rec.direction!r} not in config", path=path, line=lineno
            )
        if not rec.source_text or not rec.reference_text:
            raise ParseError(
                f"segment {rec.seg_id!r} has empty text", path=path, line=lineno
            )
        if rec.reference_length is not None and rec.reference_length < 0:
            raise ParseError(
                f"segment {rec.seg_id!r} has negative reference_length",
                path=path,
                line=lineno,
            )
        if rec.seg_id in segments:
            raise ParseError(
                f"duplicate seg_id {rec.seg_id!r}", path=path, line=lineno
            )
        segments[rec.seg_id] = rec
    return segments


def load_hypotheses(
    path: Path, config: CampaignConfig, segments: Mapping[str, SegmentRecord]
) -> dict[tuple[str, str, float], HypothesisRecord]:
    hypotheses: dict[tuple[str, str, float], HypothesisRecord] = {}
    for lineno, obj in _read_jsonl(path):
        try:
            rec = HypothesisRecord(
                system_id=str(obj["system_id"]),
                seg_id=str(obj["seg_id"]),
                length_ratio=_number(obj["length_ratio"]),
                text=str(obj["text"]),
            )
        except KeyError as exc:
            raise ParseError(f"missing field {exc}", path=path, line=lineno) from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"bad length_ratio {obj['length_ratio']!r}", path=path, line=lineno
            ) from exc
        if rec.seg_id not in segments:
            raise UnresolvedReference(
                f"{path}:{lineno}: hypothesis references unknown seg_id {rec.seg_id!r}"
            )
        if rec.system_id not in config.systems:
            raise UnresolvedReference(
                f"{path}:{lineno}: hypothesis references unknown system "
                f"{rec.system_id!r}"
            )
        if rec.length_ratio not in config.length_ratios:
            raise ParseError(
                f"length_ratio {rec.length_ratio!r} not in config ratios",
                path=path,
                line=lineno,
            )
        key = (rec.system_id, rec.seg_id, rec.length_ratio)
        if key in hypotheses:
            raise ParseError(
                f"duplicate hypothesis for {key!r}", path=path, line=lineno
            )
        hypotheses[key] = rec
    return hypotheses


_TRUE_STRINGS = {"1", "true", "yes"}
_FALSE_STRINGS = {"0", "false", "no"}

RATINGS_HEADER = ["annotator", "seg_id", "system", "ratio", "score", "duration_s", "is_trap"]


def load_ratings(
    path: Path, config: CampaignConfig, segments: Mapping[str, SegmentRecord]
) -> tuple[RatingRecord, ...]:
    import csv

    if not path.is_file():
        raise MissingFile(f"ratings file not found: {path}")
    records: list[RatingRecord] = []
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RATINGS_HEADER:
            raise ParseError(
                f"bad ratings header {header!r}, expected {RATINGS_HEADER!r}",
                path=path,
                line=1,
            )
        for row in reader:
            lineno = reader.line_num
            if not row:
                continue
            if len(row) != len(RATINGS_HEADER):
                raise ParseError(
                    f"expected {len(RATINGS_HEADER)} fields, got {len(row)}",
                    path=path,
                    line=lineno,
                )
            annotator, seg_id, system, ratio_s, score_s, duration_s, trap_s = row
            if seg_id not in segments:
                raise UnresolvedReference(
                    f"{path}:{lineno}: rating references unknown seg_id {seg_id!r}"
                )
            try:
                ratio = float(ratio_s)
                score = int(score_s)
                duration = float(duration_s)
            except ValueError as exc:
                raise ParseError(f"bad numeric field: {exc}", path=path, line=lineno)
            if ratio not in config.length_ratios:
                raise ParseError(
                    f"ratio {ratio!r} not in config ratios", path=path, line=lineno
                )
            if not (0 <= score <= 100):
                raise ParseError(
                    f"score {score} outside 0..100", path=path, line=lineno
                )
            if not 0 <= duration < math.inf:
                raise ParseError(
                    f"duration {duration_s!r} is not a finite number >= 0",
                    path=path,
                    line=lineno,
                )
            trap_norm = trap_s.strip().lower()
            if trap_norm in _TRUE_STRINGS:
                is_trap = True
            elif trap_norm in _FALSE_STRINGS:
                is_trap = False
            else:
                raise ParseError(
                    f"bad is_trap value {trap_s!r}", path=path, line=lineno
                )
            if not is_trap and system not in config.systems:
                raise UnresolvedReference(
                    f"{path}:{lineno}: rating references unknown system {system!r}"
                )
            records.append(
                RatingRecord(
                    annotator_id=annotator,
                    task=Task(segments[seg_id].direction, ratio),
                    seg_id=seg_id,
                    system_id=system,
                    raw_score=score,
                    duration_s=duration,
                    is_trap=is_trap,
                )
            )
    return tuple(records)


SCORES_HEADER = ["metric", "variant", "system", "seg_id", "score"]


def load_external_scores(
    path: str | os.PathLike,
    task: Task,
    *,
    systems: Sequence[str],
    segment_ids: Sequence[str],
) -> list[ScoreTable]:
    """Read a tab-separated score file into one dense table per (metric, variant)."""
    import csv

    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"scores file not found: {path}")
    systems = list(systems)
    segment_ids = list(segment_ids)
    known_segments = set(segment_ids)
    cells: dict[tuple[str, str], dict[tuple[str, str], float]] = {}
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        header = next(reader, None)
        if header != SCORES_HEADER:
            raise ParseError(
                f"bad scores header {header!r}, expected {SCORES_HEADER!r}",
                path=path,
                line=1,
            )
        for row in reader:
            lineno = reader.line_num
            if not row:
                continue
            if len(row) != len(SCORES_HEADER):
                raise ParseError(
                    f"expected {len(SCORES_HEADER)} tab-separated fields, got "
                    f"{len(row)}",
                    path=path,
                    line=lineno,
                )
            metric, variant, system, seg_id, score_s = row
            if not metric:
                raise ParseError("empty metric name", path=path, line=lineno)
            if seg_id not in known_segments:
                raise UnknownSegment(
                    f"{path}:{lineno}: unknown seg_id {seg_id!r} for task {task.label}"
                )
            if system not in systems:
                raise UnresolvedReference(
                    f"{path}:{lineno}: unknown system {system!r}"
                )
            try:
                score = float(score_s)
            except ValueError as exc:
                raise ParseError(f"bad score: {exc}", path=path, line=lineno)
            if not math.isfinite(score):
                raise NonFiniteScore(
                    f"{path}:{lineno}: non-finite score {score_s!r} for "
                    f"{metric}/{variant}"
                )
            table_cells = cells.setdefault((metric, variant), {})
            cell_key = (system, seg_id)
            if cell_key in table_cells:
                raise DuplicateCell(
                    f"{path}:{lineno}: duplicate cell {cell_key!r} in "
                    f"{metric}/{variant}"
                )
            table_cells[cell_key] = score

    tables: list[ScoreTable] = []
    for (metric, variant), table_cells in sorted(cells.items()):
        missing = [
            (system, seg_id)
            for system in systems
            for seg_id in segment_ids
            if (system, seg_id) not in table_cells
        ]
        if missing:
            raise IncompleteTable(
                f"{path}: table {metric}/{variant} missing {len(missing)} cells, "
                f"first {missing[0]!r}"
            )
        tables.append(ScoreTable.segment_table(metric, variant, task, table_cells))
    return tables


def scores_file_name(task: Task) -> str:
    return f"{task.label}.tsv"


def score_files(config: CampaignConfig, base: Path) -> dict[Task, Path]:
    """The external score file of each task that has one, under ``base`` (the
    config file's directory)."""
    if config.scores_dir is None:
        return {}
    paths = {
        task: base / config.scores_dir / scores_file_name(task)
        for task in config.tasks()
    }
    return {task: path for task, path in paths.items() if path.is_file()}


def input_files(config: CampaignConfig, base: Path) -> dict[str, Path]:
    """Every data file :func:`load_campaign` reads for ``config``, keyed by
    its path relative to ``base`` (the config file's directory) as the
    config gives it, in POSIX form."""
    names = [config.segments_path, config.hypotheses_path]
    if config.ratings_path is not None:
        names.append(config.ratings_path)
    names += [
        Path(config.scores_dir, scores_file_name(task))
        for task in score_files(config, base)
    ]
    return {Path(name).as_posix(): base / name for name in names}


def load_campaign(config_path: str | os.PathLike) -> Campaign:
    """Load and cross-link a full campaign from its config file."""
    config_path = Path(config_path)
    config = parse_config(config_path)
    base = config_path.parent

    segments = load_segments(base / config.segments_path, config)
    hypotheses = load_hypotheses(base / config.hypotheses_path, config, segments)
    ratings: tuple[RatingRecord, ...] = ()
    if config.ratings_path is not None:
        ratings = load_ratings(base / config.ratings_path, config, segments)

    external: dict[Task, tuple[ScoreTable, ...]] = {}
    for task, score_path in score_files(config, base).items():
        seg_ids = sorted(
            s.seg_id for s in segments.values() if s.direction == task.direction
        )
        external[task] = tuple(
            load_external_scores(
                score_path,
                task,
                systems=config.systems,
                segment_ids=seg_ids,
            )
        )
    return Campaign(
        config=config,
        segments=dict(segments),
        hypotheses=dict(hypotheses),
        ratings=ratings,
        external_scores=external,
    )


def save_campaign(campaign: Campaign, directory: str | os.PathLike) -> None:
    """Write a campaign back to disk in the canonical carrier formats."""
    import csv

    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    config = campaign.config
    write_config(config, base / "campaign.conf")

    seg_path = base / config.segments_path
    seg_path.parent.mkdir(parents=True, exist_ok=True)
    with seg_path.open("w", encoding="utf-8", newline="\n") as fh:
        for seg in sorted(campaign.segments.values(), key=lambda s: (s.direction, s.seg_id)):
            obj = {
                "seg_id": seg.seg_id,
                "direction": seg.direction,
                "source_text": seg.source_text,
                "reference_text": seg.reference_text,
            }
            if seg.reference_length is not None:
                obj["reference_length"] = seg.reference_length
            fh.write(_json_line(obj) + "\n")

    hyp_path = base / config.hypotheses_path
    hyp_path.parent.mkdir(parents=True, exist_ok=True)
    with hyp_path.open("w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(campaign.hypotheses):
            hyp = campaign.hypotheses[key]
            fh.write(
                _json_line(
                    {
                        "system_id": hyp.system_id,
                        "seg_id": hyp.seg_id,
                        "length_ratio": hyp.length_ratio,
                        "text": hyp.text,
                    }
                )
                + "\n"
            )

    if config.ratings_path is not None:
        ratings_path = base / config.ratings_path
        ratings_path.parent.mkdir(parents=True, exist_ok=True)
        with ratings_path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RATINGS_HEADER)
            for rec in campaign.ratings:
                writer.writerow(
                    [
                        rec.annotator_id,
                        rec.seg_id,
                        rec.system_id,
                        repr(rec.task.ratio),
                        rec.raw_score,
                        repr(rec.duration_s),
                        "true" if rec.is_trap else "false",
                    ]
                )

    if config.scores_dir is not None:
        scores_base = base / config.scores_dir
        scores_base.mkdir(parents=True, exist_ok=True)
        for task, tables in sorted(campaign.external_scores.items()):
            with (scores_base / scores_file_name(task)).open(
                "w", encoding="utf-8", newline=""
            ) as fh:
                writer = csv.writer(fh, delimiter="\t", lineterminator="\n")
                writer.writerow(SCORES_HEADER)
                for table in sorted(tables, key=lambda t: t.key):
                    for (system, seg_id), score in sorted(table.cells.items()):
                        writer.writerow(
                            [table.metric_id, table.variant_id, system, seg_id, repr(score)]
                        )


def validate_campaign(campaign: Campaign) -> ValidationReport:
    """Check rating completeness against the campaign's expected cell grid.

    The expected count multiplies segments per direction by systems, ratios,
    and annotators per task; trap ratings are quality-control items outside
    that grid and are not counted.
    """
    config = campaign.config
    n_systems = len(config.systems)
    n_ratios = len(config.length_ratios)
    expected = 0
    for direction in config.directions:
        n_segments = sum(
            1 for s in campaign.segments.values() if s.direction == direction
        )
        expected += n_segments * n_systems * n_ratios * config.annotators_per_task

    real_ratings = [r for r in campaign.ratings if not r.is_trap]
    found = len(real_ratings)

    by_cell: dict[tuple, list[str]] = {}
    for rec in real_ratings:
        key = (rec.task.direction, rec.task.ratio, rec.seg_id, rec.system_id)
        by_cell.setdefault(key, []).append(rec.annotator_id)

    missing: list[tuple] = []
    for direction in config.directions:
        for ratio in config.length_ratios:
            for seg_id in campaign.segment_ids_for_direction(direction):
                for system in config.systems:
                    annotators = by_cell.get((direction, ratio, seg_id, system), [])
                    if len(set(annotators)) < config.annotators_per_task:
                        missing.append(
                            (direction, ratio, seg_id, system, len(set(annotators)))
                        )

    duplicates: list[tuple] = []
    for (direction, ratio, seg_id, system), annotators in sorted(by_cell.items()):
        counts: dict[str, int] = {}
        for a in annotators:
            counts[a] = counts.get(a, 0) + 1
        for annotator, n in sorted(counts.items()):
            if n > 1:
                duplicates.append((annotator, direction, ratio, seg_id, system, n))

    warnings: list[str] = []
    for task in config.tasks():
        observed = {r.annotator_id for r in real_ratings if r.task == task}
        if observed and len(observed) != config.annotators_per_task:
            warnings.append(
                f"task {task.label}: {len(observed)} distinct annotators, "
                f"config expects {config.annotators_per_task}"
            )
    n_traps = sum(1 for r in campaign.ratings if r.is_trap)
    if n_traps:
        warnings.append(f"{n_traps} trap ratings present (excluded from the grid)")

    return ValidationReport(
        expected_rating_count=expected,
        found_rating_count=found,
        missing_cells=sorted(missing),
        duplicate_cells=duplicates,
        warnings=warnings,
    )
