"""Campaign data model and file I/O.

A campaign bundles the evaluation corpus (segments and system hypotheses at
several target-length ratios), human slider ratings, and externally computed
metric score tables, all described by one flat ``campaign.conf`` file.

Carrier formats (all UTF-8, LF line endings):

* ``campaign.conf`` -- flat ``key = value`` lines; a line starting with ``#``
  is a comment, and a ``#`` anywhere else is refused.
* ``segments.jsonl`` / ``hypotheses.jsonl`` -- one JSON object per record;
  texts may contain tabs here, which is why the JSON-lines carrier is used.
* ``ratings.csv`` -- header ``annotator,seg_id,system,ratio,score,duration_s,is_trap``.
* ``scores.tsv`` -- header ``metric<TAB>variant<TAB>system<TAB>seg_id<TAB>score``;
  a field holding a tab, a quote or a line break is CSV-quoted.

The headed carriers (these two and every report table) share one rule: a
fixed header on line 1, blank rows skipped, and as many fields in each row as
in the header.  :func:`read_rows` checks it, :func:`write_csv` writes it and
:func:`write_jsonl` writes the JSON-lines carriers.  An error in a row of an
input file names the file and the row's physical line, blank lines counted.

Loaded campaigns are immutable and safe to share across threads.  Segment
ids must be unique across the whole campaign (not just per direction): the
ratings and scores carriers identify rows by bare ``seg_id``, so the id has
to resolve to a single direction.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import product
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

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


class Task(NamedTuple):
    """One annotation/evaluation task: a direction at a target length ratio.
    It equals, orders and hashes as the tuple ``(direction, ratio)``."""

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
        paths = (
            ("segments path", self.segments_path),
            ("hypotheses path", self.hypotheses_path),
            ("ratings path", self.ratings_path),
            ("scores dir", self.scores_dir),
        )
        for kind, item, banned in [
            *(("direction id", item, ",#") for item in self.directions),
            *(("system id", item, ",#") for item in self.systems),
            *((kind, item, "#") for kind, item in paths if item is not None),
        ]:
            # parse_config strips each value, refuses '#' and splits ids on ','
            if (
                item.splitlines() != [item]
                or item != item.strip()
                or any(ch in item for ch in banned)
            ):
                raise ParseError(
                    f"{kind} {item!r} does not survive the config file: it must "
                    f"be non-empty, hold no {', '.join(map(repr, banned))} or line "
                    "break, and have no leading or trailing whitespace"
                )
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
        # a task's label names its files and seeds its draws
        labelled: dict[str, Task] = {}
        for task in self.tasks():
            if (other := labelled.setdefault(task.label, task)) != task:
                raise ParseError(
                    f"tasks {tuple(other)} and {tuple(task)} share the file label "
                    f"{task.label!r}"
                )

    def tasks(self) -> list[Task]:
        """The tasks, directions outer."""
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


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """One metric variant's scores for a task: its sorted system and segment
    ids and one read-only float64 array, systems x segments for a
    segment-level table, one score per system for a system-only one (the
    shape of corpus-level metrics that have no per-sentence decomposition).
    The array is laid out row-major, in :meth:`cell_keys` order; ``cells``
    is a read-only mapping built from it.
    """

    metric_id: str
    variant_id: str
    task: Task
    level: str
    system_ids: tuple[str, ...]
    seg_ids: tuple[str, ...]  # () for a system-only table
    values: np.ndarray  # row-major; copied and reshaped to the table's shape

    def __post_init__(self):
        for name in ("system_ids", "seg_ids"):
            ids = tuple(getattr(self, name))
            if list(ids) != sorted(set(ids)):
                raise ValueError(f"{name} must be sorted and unique")
            object.__setattr__(self, name, ids)
        shape = (len(self.system_ids), len(self.seg_ids))
        values = np.array(self.values, dtype=np.float64).reshape(
            shape if self.level == SEGMENT_LEVEL else shape[:1]
        )
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def segment_table(cls, metric_id, variant_id, task, cells) -> "ScoreTable":
        """A table of (system, segment) -> score pairs; raises
        :class:`IncompleteTable` unless they cover every system x segment."""
        cells = dict(cells)
        systems = sorted({s for s, _ in cells})
        seg_ids = sorted({g for _, g in cells})
        try:
            values = [cells[(s, g)] for s in systems for g in seg_ids]
        except KeyError as exc:
            raise IncompleteTable(
                f"table {metric_id}/{variant_id} missing cell {exc}"
            ) from None
        return cls(metric_id, variant_id, task, SEGMENT_LEVEL, systems, seg_ids, values)

    @classmethod
    def system_table(cls, metric_id, variant_id, task, system_cells) -> "ScoreTable":
        system_cells = dict(system_cells)
        systems = sorted(system_cells)
        values = [system_cells[s] for s in systems]
        return cls(metric_id, variant_id, task, SYSTEM_LEVEL, systems, (), values)

    def __eq__(self, other):
        if not isinstance(other, ScoreTable):
            return NotImplemented
        return (self.key, self.task, self.level, self.system_ids, self.seg_ids) == (
            other.key, other.task, other.level, other.system_ids, other.seg_ids
        ) and np.array_equal(self.values, other.values)

    @property
    def key(self) -> tuple[str, str]:
        return (self.metric_id, self.variant_id)

    def display_name(self) -> str:
        if self.variant_id in ("", "-"):
            return self.metric_id
        return f"{self.metric_id}.{self.variant_id}"

    def systems(self) -> list[str]:
        return list(self.system_ids)

    def segment_ids(self) -> list[str]:
        return list(self.seg_ids)

    def cell_keys(self) -> list[tuple[str, str]]:
        """The (system, segment) keys in row-major order; none for a
        system-only table."""
        return list(product(self.system_ids, self.seg_ids))

    @property
    def cells(self) -> Mapping[tuple[str, str], float]:
        values = self.values.ravel().tolist()
        return MappingProxyType(dict(zip(self.cell_keys(), values)))


@dataclass
class ValidationReport:
    expected_rating_count: int
    found_rating_count: int
    missing_cells: list[tuple]
    duplicate_cells: list[tuple]
    warnings: list[str]
    trap_count: int = 0  # trap ratings, outside the grid

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

    @cached_property
    def ratings_by_task(self) -> Mapping[Task, tuple[RatingRecord, ...]]:
        """The ratings of each task that has any, in file order, grouped once."""
        groups: dict[Task, list[RatingRecord]] = {}
        for rec in self.ratings:
            groups.setdefault(rec.task, []).append(rec)
        return {task: tuple(group) for task, group in groups.items()}

    def ratings_for_task(self, task: Task) -> list[RatingRecord]:
        """A new list of ``task``'s ratings, in file order; [] if it has none."""
        return list(self.ratings_by_task.get(task, ()))

    def reference_length(self, seg: SegmentRecord, tokens=None) -> int:
        """Reference length in the configured unit; ``tokens``, the reference
        tokenised by the unit's scheme, are counted instead of tokenising."""
        unit = self.config.length_unit
        if unit == "provided-counts" and seg.reference_length is not None:
            return seg.reference_length
        if tokens is not None:
            return len(tokens)
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

def _split_list(value: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in value.split(",") if item.strip())


# key: (CampaignConfig field, reader of the value, writer of the field,
# optional), in the order write_config writes them
_CONFIG_KEYS = {
    "directions": ("directions", _split_list, ", ".join, False),
    "ratios": (
        "length_ratios",
        lambda value: tuple(map(float, _split_list(value))),
        lambda ratios: ", ".join(map(repr, ratios)),
        False,
    ),
    "systems": ("systems", _split_list, ", ".join, False),
    "annotators_per_task": ("annotators_per_task", int, str, False),
    "length_unit": ("length_unit", str, str, False),
    "seed": ("seed", int, str, False),
    "segments": ("segments_path", str, str, False),
    "hypotheses": ("hypotheses_path", str, str, False),
    "ratings": ("ratings_path", str, str, True),
    "scores_dir": ("scores_dir", str, str, True),
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
        if "#" in value:
            raise ParseError(
                "'#' inside a value: a comment must be a line of its own",
                path=path,
                line=lineno,
            )
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown config key {key!r}", path=path, line=lineno)
        if key in raw:
            raise ParseError(f"duplicate config key {key!r}", path=path, line=lineno)
        raw[key] = value.strip()

    fields = {}
    for key, (field, read, _, optional) in _CONFIG_KEYS.items():
        if key not in raw:
            if optional:
                continue
            raise ParseError(f"missing config key {key!r}", path=path)
        try:
            fields[field] = read(raw[key])
        except ValueError as exc:
            raise ParseError(f"bad numeric value in config: {exc}", path=path) from exc
    try:
        return CampaignConfig(**fields)
    except ParseError as exc:
        raise ParseError(str(exc), path=path) from None


def write_config(config: CampaignConfig, path: str | os.PathLike) -> None:
    lines = [
        f"{key} = {write(value)}"
        for key, (field, _, write, _) in _CONFIG_KEYS.items()
        if (value := getattr(config, field)) is not None
    ]
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


def write_jsonl(path: str | os.PathLike, objs: Iterable[dict]) -> None:
    """One JSON object per line, keys sorted, non-ASCII text kept as is."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")


def read_rows(
    path: str | os.PathLike, header: Sequence[str], what: str, delimiter: str = ","
) -> Iterable[tuple[int, list[str]]]:
    """Each non-blank row of a headed CSV carrier after ``header``, with the
    physical line of the file it ends on; ``what`` names the carrier in
    errors."""
    path, header = Path(path), list(header)
    if not path.is_file():
        raise MissingFile(f"{what} file not found: {path}")
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        found = next(reader, None)
        if found != header:
            raise ParseError(
                f"bad {what} header {found!r}, expected {header!r}",
                path=path,
                line=1,
            )
        width = len(header)
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise ParseError(
                    f"row has {len(row)} fields, header has {width}",
                    path=path,
                    line=reader.line_num,
                )
            yield reader.line_num, row


def write_csv(
    path: str | os.PathLike,
    header: Sequence[str],
    rows: Iterable[Sequence],
    delimiter: str = ",",
) -> None:
    """A headed CSV carrier: ``header``, then one line per row."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
    records: list[RatingRecord] = []
    # one Task per (direction, ratio), shared by its ratings
    tasks = {(task.direction, task.ratio): task for task in config.tasks()}
    for lineno, row in read_rows(path, RATINGS_HEADER, "ratings"):
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
                task=tasks[(segments[seg_id].direction, ratio)],
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
    path = Path(path)
    systems = list(systems)
    segment_ids = list(segment_ids)
    system_ids = tuple(sorted(set(systems)))
    seg_ids = tuple(sorted(set(segment_ids)))
    # a cell's index in the row-major (system, segment) array is i + j
    row_start = {s: i * len(seg_ids) for i, s in enumerate(system_ids)}
    column = {g: j for j, g in enumerate(seg_ids)}
    cells: dict[tuple[str, str], list[float | None]] = {}
    for lineno, row in read_rows(path, SCORES_HEADER, "scores", delimiter="\t"):
        metric, variant, system, seg_id, score_s = row
        if not metric:
            raise ParseError("empty metric name", path=path, line=lineno)
        j = column.get(seg_id)
        if j is None:
            raise UnknownSegment(
                f"{path}:{lineno}: unknown seg_id {seg_id!r} for task {task.label}"
            )
        i = row_start.get(system)
        if i is None:
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
        table_cells = cells.get((metric, variant))
        if table_cells is None:
            table_cells = [None] * (len(system_ids) * len(seg_ids))
            cells[(metric, variant)] = table_cells
        if table_cells[i + j] is not None:
            raise DuplicateCell(
                f"{path}:{lineno}: duplicate cell {(system, seg_id)!r} in "
                f"{metric}/{variant}"
            )
        table_cells[i + j] = score

    for (metric, variant), table_cells in sorted(cells.items()):
        if None in table_cells:
            missing = [
                (system, seg_id)
                for system in systems
                for seg_id in segment_ids
                if table_cells[row_start[system] + column[seg_id]] is None
            ]
            raise IncompleteTable(
                f"{path}: table {metric}/{variant} missing {len(missing)} cells, "
                f"first {missing[0]!r}"
            )
    return [
        ScoreTable(metric, variant, task, SEGMENT_LEVEL, system_ids, seg_ids, values)
        for (metric, variant), values in sorted(cells.items())
    ]


def write_scores_file(path: str | os.PathLike, tables: Iterable[ScoreTable]) -> None:
    """Write segment-level tables to a scores file, in the given order and each
    table's cells sorted, so that :func:`load_external_scores` reads them back."""
    write_csv(
        path,
        SCORES_HEADER,
        (
            [table.metric_id, table.variant_id, system, seg_id, repr(score)]
            for table in tables
            for (system, seg_id), score in zip(
                table.cell_keys(), table.values.ravel().tolist()
            )
        ),
        delimiter="\t",
    )


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
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    config = campaign.config
    write_config(config, base / "campaign.conf")

    def target(name: str) -> Path:
        path = base / name
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    # each JSON line holds its record's fields; a segment's reference_length
    # only when it is given
    write_jsonl(
        target(config.segments_path),
        (
            {key: value for key, value in asdict(seg).items() if value is not None}
            for seg in sorted(
                campaign.segments.values(), key=lambda s: (s.direction, s.seg_id)
            )
        ),
    )
    write_jsonl(
        target(config.hypotheses_path),
        (asdict(campaign.hypotheses[key]) for key in sorted(campaign.hypotheses)),
    )
    if config.ratings_path is not None:
        write_csv(
            target(config.ratings_path),
            RATINGS_HEADER,
            (
                [
                    rec.annotator_id,
                    rec.seg_id,
                    rec.system_id,
                    repr(rec.task.ratio),
                    rec.raw_score,
                    repr(rec.duration_s),
                    "true" if rec.is_trap else "false",
                ]
                for rec in campaign.ratings
            ),
        )

    if config.scores_dir is not None:
        scores_base = base / config.scores_dir
        scores_base.mkdir(parents=True, exist_ok=True)
        for task, tables in sorted(campaign.external_scores.items()):
            write_scores_file(
                scores_base / scores_file_name(task),
                sorted(tables, key=lambda t: t.key),
            )


def validate_campaign(campaign: Campaign) -> ValidationReport:
    """Check rating completeness against the campaign's expected cell grid.

    Each (direction, ratio, segment, system) cell of the config expects
    ``annotators_per_task`` distinct annotators: a cell with fewer is missing,
    an annotator who rates a cell more than once is a duplicate.  Trap ratings
    are quality-control items outside that grid, counted apart in
    ``trap_count``.
    """
    config = campaign.config
    # (direction, ratio, seg_id, system, annotator) -> its non-trap ratings
    ratings = Counter(
        (r.task.direction, r.task.ratio, r.seg_id, r.system_id, r.annotator_id)
        for r in campaign.ratings
        if not r.is_trap
    )
    found = ratings.total()
    annotators = Counter(key[:4] for key in ratings)
    grid = [
        (direction, ratio, seg_id, system)
        for direction in config.directions
        for ratio in config.length_ratios
        for seg_id in campaign.segment_ids_for_direction(direction)
        for system in config.systems
    ]
    missing = [
        (*cell, annotators[cell])
        for cell in grid
        if annotators[cell] < config.annotators_per_task
    ]
    duplicates = [(key[4], *key[:4], n) for key, n in sorted(ratings.items()) if n > 1]

    warnings: list[str] = []
    for task in config.tasks():
        observed = {
            r.annotator_id
            for r in campaign.ratings_by_task.get(task, ())
            if not r.is_trap
        }
        if observed and len(observed) != config.annotators_per_task:
            warnings.append(
                f"task {task.label}: {len(observed)} distinct annotators, "
                f"config expects {config.annotators_per_task}"
            )
    return ValidationReport(
        expected_rating_count=len(grid) * config.annotators_per_task,
        found_rating_count=found,
        missing_cells=sorted(missing),
        duplicate_cells=duplicates,
        warnings=warnings,
        trap_count=len(campaign.ratings) - found,
    )
