"""Command-line interface.

Every report table of ``run`` is reachable through a stage command (``qc``,
``correlate``, ``significance``, ``syscompare``) that writes exactly ``run``'s
files of that stage at the same flags; ``run`` writes every stage in that order
and a digest manifest.  ``run`` and the stage commands open a campaign through
``pipeline.open_state``, so they refuse the same campaigns: no ratings file
(exit 2) or an incomplete rating grid (exit 1), before writing anything.
``validate`` reports the grid; ``traps``, ``normalize``, ``score`` and
``ingest`` load without the grid check, to inspect a campaign still being
collected.  Each command accepts only the flags it reads, and ``--level`` is
the variant-selection level everywhere.  Exit codes: 0 success, else the
code ``EXIT_CODES`` gives the error's kind: 1 campaign validation failure, 2
I/O or format error, 3 violated statistical precondition; argparse exits 2 on
a flag the command does not take.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import asdict
from pathlib import Path

from ._version import VERSION
from .corpus import (
    LENGTH_UNITS,
    SYSTEM_LEVEL,
    Campaign,
    length_scheme,
    validate_campaign,
    write_csv,
    write_jsonl,
    write_scores_file,
)
from .errors import DataError, StatError, ToolkitError, ValidationFailure
from .pipeline import (
    LEVELS,
    OPTION_RULES,
    emit_stage,
    format_validation_report,
    human_scores,
    open_campaign,
    open_state,
    require_ratings,
    run_pipeline,
    score_tables_for_task,
)
from .ratings import generate_traps, trap_schedule_count
from .reports import emit_sig_matrix, load_sig_matrix_csv
from .seeding import derive_int

logger = logging.getLogger(__name__)


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def integer(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return int(text)

    return integer


def _option(name: str):
    """argparse type of the pipeline option ``name``, under its OPTION_RULES."""
    kind, holds, rule = OPTION_RULES[name]

    def parse(text: str):
        if holds(value := kind(text)):
            return value
        raise argparse.ArgumentTypeError(f"{rule}, got {text}")

    parse.__name__ = "integer" if kind is int else "number"
    return parse


# Each flag once, as its name and its add_argument arguments.  Each command
# lists the flags it reads; run and the stage commands share PipelineState's.
FLAGS = {
    "--out": dict(default=".", help="output directory"),
    "--seed": dict(type=_option("seed"), default=None,
                   help="master seed (default: the config's seed)"),
    "--hybrids": dict(type=_option("hybrids"), default=1000, metavar="K",
                      help="hybrid systems per task for system-level correlation"),
    "--permutations": dict(type=_option("permutations"), default=1000, metavar="R",
                           help="replicates for the segment-level permutation test"),
    "--bootstrap": dict(type=_option("bootstrap"), default=1000, metavar="B",
                        help="paired bootstrap resamples for system comparison"),
    "--alpha": dict(type=_option("alpha"), default=0.05,
                    help="significance threshold of the segment-level "
                    "permutation tests (system-level intervals are 95%%)"),
    "--timing-cutoff": dict(type=_option("timing_cutoff"), default=600.0,
                            help="seconds; annotations at or above are dropped "
                            "from cut_ave"),
    "--include-traps": dict(action="store_true",
                            help="keep trap ratings in the z-normalization groups"),
    "--length-unit": dict(default=None, choices=LENGTH_UNITS,
                          help="override the config's length unit"),
    "--level": dict(default=SYSTEM_LEVEL, choices=LEVELS,
                    help="correlation level for best-variant selection"),
    "--threads": dict(type=_at_least(1), default=1,
                      help="accepted for compatibility and ignored; every "
                      "stage runs on one thread"),
    "--count": dict(type=_at_least(0), default=60,
                    help="trap samples per (direction, ratio)"),
}
PIPELINE_FLAGS = tuple(flag for flag in FLAGS if flag != "--count")

# The exit code of each error kind main reports; the first kind that matches wins.
EXIT_CODES = {
    ValidationFailure: 1, DataError: 2, StatError: 3, OSError: 2, ToolkitError: 2
}


def _load(args) -> Campaign:
    return open_campaign(args.config, args.length_unit)


def _options(args) -> dict:
    """The pipeline options of ``PIPELINE_FLAGS`` but ``--out`` and
    ``--threads``, under their argparse names, for ``run`` and the stage
    commands."""
    names = (flag[2:].replace("-", "_") for flag in PIPELINE_FLAGS)
    return {n: getattr(args, n) for n in names if n not in ("out", "threads")}


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_validate(args) -> int:
    campaign = require_ratings(_load(args))
    report = validate_campaign(campaign)
    print(format_validation_report(report))
    return 0 if report.ok else 1


def cmd_traps(args) -> int:
    campaign = _load(args)
    config = campaign.config
    seed = config.seed if args.seed is None else args.seed
    # draw every trap first, so a refused run writes nothing
    traps = []
    for direction in config.directions:
        segments = campaign.segments_for_direction(direction)
        scheme = length_scheme(config.length_unit, direction)
        for ratio in config.length_ratios:
            if not (0.0 < ratio < 1.0):
                logger.warning("skipping ratio %s: traps need a ratio in (0, 1)", ratio)
                continue
            traps += generate_traps(
                segments,
                ratio,
                args.count,
                derive_int(seed, "traps-task", direction, repr(ratio)),
                scheme=scheme,
            )
    path = _out_dir(args) / "traps.jsonl"
    write_jsonl(path, (asdict(trap) for trap in traps))
    scheduled = trap_schedule_count(
        len(config.directions),
        len(config.length_ratios),
        config.annotators_per_task,
        args.count,
    )
    print(f"wrote {len(traps)} trap pairs to {path}")
    print(f"scheduled trap annotations: {scheduled}")
    return 0


def cmd_stage(args) -> int:
    """One stage command: the files ``run`` writes for that stage."""
    state = open_state(args.config, **_options(args))
    for path in emit_stage(state, args.command, _out_dir(args)):
        print(f"wrote {path}")
    return 0


def cmd_normalize(args) -> int:
    campaign = require_ratings(_load(args))
    normalized, aggregated = human_scores(campaign, args.include_traps)
    out = _out_dir(args)
    norm_path = out / "normalized_ratings.csv"
    write_csv(
        norm_path,
        ["annotator", "direction", "ratio", "seg_id", "system", "raw_score", "z"],
        [
            (
                r.annotator_id,
                r.task.direction,
                repr(r.task.ratio),
                r.seg_id,
                r.system_id,
                r.raw_score,
                repr(r.z),
            )
            for r in normalized
        ],
    )
    agg_path = out / "human_segment_scores.csv"
    write_csv(
        agg_path,
        ["direction", "ratio", "system", "seg_id", "z_mean"],
        [
            (task.direction, repr(task.ratio), system, seg_id, repr(value))
            for (task, system, seg_id), value in aggregated.items()
        ],
    )
    print(f"wrote {norm_path}")
    print(f"wrote {agg_path}")
    return 0


def cmd_score(args) -> int:
    campaign = _load(args)
    out = _out_dir(args)
    for task in campaign.tasks():
        tables = score_tables_for_task(campaign, task).tables
        seg_path = out / f"native_scores_{task.label}.tsv"
        write_scores_file(seg_path, [tb for tb in tables if tb.level == "segment"])
        sys_path = out / f"native_system_{task.label}.csv"
        write_csv(
            sys_path,
            ["metric", "variant", "system", "score"],
            [
                (table.metric_id, table.variant_id, system, repr(score))
                for table in tables
                if table.level == "system"
                for system, score in zip(table.system_ids, table.values.tolist())
            ],
        )
        print(f"wrote {seg_path}")
        print(f"wrote {sys_path}")
    return 0


def cmd_ingest(args) -> int:
    campaign = _load(args)
    total = 0
    for task in campaign.tasks():
        tables = campaign.external_scores.get(task, ())
        for table in tables:
            print(
                f"{task.label}: {table.display_name()} "
                f"({table.values.size} cells)"
            )
            total += 1
    print(f"{total} external score tables ingested")
    return 0


def cmd_report(args) -> int:
    matrix = load_sig_matrix_csv(args.matrix)
    out = Path(args.out_file)
    emit_sig_matrix(matrix, args.format, out)
    print(f"wrote {out}")
    return 0


def cmd_run(args) -> int:
    artifacts = run_pipeline(args.config, args.out, **_options(args))
    for name, digest in artifacts.manifest:
        print(f"{digest}  {name}")
    print(f"seed {artifacts.seed}, version {artifacts.version}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcmteval",
        description="Meta-evaluation of metrics for length-controllable "
        "machine translation.",
    )
    parser.add_argument("--version", action="version", version=VERSION)
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log warnings and progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to campaign.conf")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        # _load reads the length unit of a command without --length-unit too
        p.set_defaults(func=func, length_unit=None)

    add("validate", cmd_validate, "check rating completeness", ["--threads"])
    add("traps", cmd_traps, "generate truncated-reference trap pairs",
        ["--out", "--seed", "--length-unit", "--threads", "--count"])
    add("qc", cmd_stage, "timing, trap-bucket and agreement quality-control tables",
        PIPELINE_FLAGS)
    add("normalize", cmd_normalize, "per-annotator z-scores and segment averages",
        ["--out", "--include-traps", "--threads"])
    add("score", cmd_score, "native lexical metric score tables",
        ["--out", "--length-unit", "--threads"])
    add("ingest", cmd_ingest, "validate and summarize external score files",
        ["--threads"])
    add("correlate", cmd_stage, "variant selection and metric-human correlation tables",
        PIPELINE_FLAGS)
    add("significance", cmd_stage, "pairwise metric significance matrices",
        PIPELINE_FLAGS)
    add("syscompare", cmd_stage,
        "per-system scores with bootstrap daggers, and length deviation",
        PIPELINE_FLAGS)
    report = sub.add_parser("report", help="re-render an emitted significance matrix")
    report.add_argument("matrix", help="a sig_*.csv file emitted by this tool")
    report.add_argument("--format", default="textgrid",
                        choices=["csv", "textgrid", "svg"])
    report.add_argument("out_file", help="destination file")
    report.set_defaults(func=cmd_report)
    add("run", cmd_run, "full pipeline: QC, correlation, significance, reports",
        PIPELINE_FLAGS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if not args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
