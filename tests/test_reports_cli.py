import argparse
import hashlib
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lcmteval.cli import PIPELINE_FLAGS, build_parser, main
from lcmteval.corpus import (
    Task,
    input_files,
    load_campaign,
    parse_config,
    save_campaign,
)
from lcmteval.errors import IncompleteTable, ParseError, UnsupportedFormat
from lcmteval.pipeline import PipelineState, run_pipeline, score_tables_for_task
from lcmteval.reports import (
    SIG_HEADER,
    emit_sig_matrix,
    load_sig_matrix_csv,
    sig_to_svg,
    sig_to_textgrid,
)
from lcmteval.significance import CIResult, SigCell, SigMatrix

from .oracles import read_csv_table

TASK = Task("aa-bb", 0.8)
GOLDENS = Path(__file__).parent / "goldens"
STAGE_COMMANDS = ["qc", "correlate", "significance", "syscompare"]
SMALL_RUN = ["--hybrids", "20", "--permutations", "10", "--bootstrap", "20"]


def underflow_copy(config_path, dest):
    """A ``save_campaign`` copy of the campaign in which the first system's
    corpus BLEU brevity penalty underflows in every task: every reference 40
    times over, and that system left one 1-character hypothesis per task.
    Returns the copy's config path."""
    campaign = load_campaign(config_path)
    first = campaign.config.systems[0]
    segments = {
        g: replace(s, reference_text=" ".join([s.reference_text] * 40))
        for g, s in campaign.segments.items()
    }
    kept = set()
    hypotheses = {}
    for (system, seg_id, ratio), hyp in campaign.hypotheses.items():
        if system == first:
            task = (campaign.segments[seg_id].direction, ratio)
            hyp = replace(hyp, text="" if task in kept else hyp.text[:1])
            kept.add(task)
        hypotheses[(system, seg_id, ratio)] = hyp
    save_campaign(replace(campaign, segments=segments, hypotheses=hypotheses), dest)
    return dest / "campaign.conf"


# the flags run and the stage commands share, each with a value it accepts
COMMON_FLAGS = {
    "--seed": "9", "--hybrids": "5", "--permutations": "5", "--bootstrap": "5",
    "--alpha": "0.5", "--timing-cutoff": "60", "--include-traps": None,
    "--length-unit": "whitespace-tokens", "--level": "segment", "--threads": "2",
}
# every other command's flags: only those it reads, and --threads
READ_FLAGS = {
    "validate": ["--threads"],
    "traps": ["--out", "--count", "--seed", "--length-unit", "--threads"],
    "normalize": ["--out", "--include-traps", "--threads"],
    "score": ["--out", "--length-unit", "--threads"],
    "ingest": ["--threads"],
}


def make_matrix(metrics, wins=(), bonferroni=(), level="segment"):
    cells = {}
    for row in metrics:
        for col in metrics:
            if row == col:
                continue
            won = (row, col) in wins
            cells[(row, col)] = SigCell(
                row_metric=row,
                col_metric=col,
                ci=None if level == "segment" else CIResult(0.01 if won else -0.2, 0.3, 0.95),
                p_value=0.01 if level == "segment" and won else (0.5 if level == "segment" else None),
                significant=won,
                bonferroni_significant=((row, col) in bonferroni)
                if level == "segment"
                else None,
            )
    return SigMatrix(task=TASK, level=level, metrics=tuple(metrics), cells=cells)


class TestSigMatrixFormats:
    def test_csv_row_count_two_metrics(self, tmp_path):
        matrix = make_matrix(["m1", "m2"], wins={("m1", "m2")})
        path = tmp_path / "sig.csv"
        emit_sig_matrix(matrix, "csv", path)
        header, rows = read_csv_table(path)
        assert header == SIG_HEADER
        assert len(rows) == 2

    def test_csv_round_trip(self, tmp_path):
        matrix = make_matrix(
            ["m1", "m2", "m3"], wins={("m1", "m2")}, bonferroni={("m1", "m2")}
        )
        path = tmp_path / "sig.csv"
        emit_sig_matrix(matrix, "csv", path)
        loaded = load_sig_matrix_csv(path)
        assert loaded.task == matrix.task
        assert loaded.level == matrix.level
        assert loaded.metrics == matrix.metrics
        cell = loaded.cells[("m1", "m2")]
        assert cell.significant and cell.bonferroni_significant

    def test_empty_win_textgrid_all_dots(self):
        matrix = make_matrix(["m1", "m2", "m3"])
        grid = sig_to_textgrid(matrix)
        body = grid.splitlines()[len(matrix.metrics) + 1 :]
        cells = [c for line in body for c in line.split()[1:]]
        assert set(cells) == {"·"}

    def test_textgrid_marks(self):
        matrix = make_matrix(
            ["m1", "m2"], wins={("m1", "m2"), ("m2", "m1")},
            bonferroni={("m2", "m1")},
        )
        grid = sig_to_textgrid(matrix)
        lines = grid.splitlines()
        assert lines[-2].split() == ["1", "·", "W"]
        assert lines[-1].split() == ["2", "b", "·"]

    def test_svg_grid_shape(self):
        metrics = [f"metric{i:02d}" for i in range(18)]
        matrix = make_matrix(metrics, wins={(metrics[0], metrics[1])})
        svg = sig_to_svg(matrix)
        assert svg.count("<rect") == 18 * 18
        assert svg.count("<text") == 36
        assert "#1565c0" in svg  # segment-level wins are blue

    def test_svg_system_level_green(self):
        matrix = make_matrix(["m1", "m2"], wins={("m1", "m2")}, level="system")
        assert "#2e7d32" in sig_to_svg(matrix)

    def test_svg_bonferroni_outline(self):
        matrix = make_matrix(
            ["m1", "m2"], wins={("m1", "m2")}, bonferroni={("m1", "m2")}
        )
        assert "#ef6c00" in sig_to_svg(matrix)

    def test_unsupported_format(self, tmp_path):
        matrix = make_matrix(["m1", "m2"])
        with pytest.raises(UnsupportedFormat):
            emit_sig_matrix(matrix, "png", tmp_path / "x.png")


def _edited_sig_csv(tmp_path, edit):
    """A two-metric segment matrix's csv, its rows (header first) passed
    through ``edit``."""
    path = tmp_path / "sig.csv"
    emit_sig_matrix(make_matrix(["m1", "m2"]), "csv", path)
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    lines = [",".join(row) + "\n" for row in edit(rows)]
    path.write_text("".join(lines), encoding="utf-8")
    return path


def _set_field(line, column, value):
    def edit(rows):
        rows[line - 1][SIG_HEADER.index(column)] = value
        return rows

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows[:1], "{path}: significance file has no cells"),
        (_set_field(2, "significant", "yes"), "{path}:2: bad boolean 'yes'"),
        (_set_field(3, "direction", "cc-dd"),
         "{path}:3: mixed tasks or levels in one matrix file"),
    ],
    ids=["no-cells", "bad-boolean", "mixed-tasks"],
)
def test_each_sig_matrix_refusal_names_its_cause(tmp_path, edit, message):
    path = _edited_sig_csv(tmp_path, edit)
    with pytest.raises(ParseError) as info:
        load_sig_matrix_csv(path)
    assert str(info.value) == message.format(path=path)


def test_an_unknown_format_names_the_formats(tmp_path):
    with pytest.raises(UnsupportedFormat) as info:
        emit_sig_matrix(make_matrix(["m1", "m2"]), "png", tmp_path / "x.png")
    assert str(info.value) == (
        "unknown significance format 'png'; expected one of ('csv', 'textgrid', 'svg')"
    )


class TestCli:
    def test_pipeline_flag_defaults_are_the_library_defaults(self):
        # each flag of run and the stage commands but --out defaults to the
        # keyword it sets in PipelineState or run_pipeline
        library = {
            **PipelineState.__init__.__kwdefaults__, **run_pipeline.__kwdefaults__
        }
        assert set(library) == {
            flag[2:].replace("-", "_") for flag in PIPELINE_FLAGS if flag != "--out"
        }
        args = build_parser().parse_args(["run", "campaign.conf"])
        assert {name: getattr(args, name) for name in library} == library

    def test_validate_ok(self, fixture_config_path, capsys):
        assert main(["validate", str(fixture_config_path)]) == 0
        out = capsys.readouterr().out
        assert "expected ratings: 288" in out
        assert "trap ratings:     48 (excluded from the grid)" in out

    @pytest.mark.parametrize("verbose", [False, True])
    def test_run_on_a_healthy_campaign_is_quiet_without_v(
        self, fixture_config_path, tmp_path, verbose
    ):
        # trap ratings are part of a healthy campaign: reported at INFO only
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "lcmteval.cli", *(["-v"] if verbose else []),
             "run", str(fixture_config_path), "--out", str(tmp_path),
             "--hybrids", "10", "--permutations", "5", "--bootstrap", "5"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        if not verbose:
            assert result.stderr == ""
        else:
            (line,) = [
                line for line in result.stderr.splitlines()
                if line.startswith("INFO lcmteval.pipeline: campaign validation: ")
            ]
            assert "48 trap ratings (excluded from the grid)" in line
            assert "WARNING" not in result.stderr
            info = [
                line.removeprefix("INFO lcmteval.pipeline: ")
                for line in result.stderr.splitlines()
            ]
            # 13 system-level metrics over 2 real + 10 hybrid systems; the 11
            # segment-level ones over 4 tasks x 24 cells
            for prefix in (
                "system correlations: 4 tasks, 13 metrics, n=12 systems, ",
                "segment correlations: 4 tasks, 11 metrics, 96 cells, ",
                "manifest: 32 report files and 8 input files digested, ",
            ):
                (line,) = [m for m in info if m.startswith(prefix)]
                assert line.endswith(" s")
            # each stage's files and bytes add up to the report files written
            written = 0
            for stage, files in (
                ("qc", 3),
                ("correlate", 3),
                ("significance", 24),
                ("syscompare", 2),
            ):
                (line,) = [m for m in info if m.startswith(f"{stage} reports: ")]
                match = re.fullmatch(
                    rf"{stage} reports: {files} files, (\d+) bytes, \d+\.\d{{3}} s",
                    line,
                )
                assert match, line
                written += int(match.group(1))
            assert written == sum(
                p.stat().st_size for p in tmp_path.iterdir() if p.name != "manifest.json"
            )

    def test_validate_incomplete_exit_1(self, fixture_config_path, tmp_path, capsys):
        shutil.copytree(fixture_config_path.parent, tmp_path / "camp")
        ratings = tmp_path / "camp" / "ratings.csv"
        lines = ratings.read_text().splitlines()
        ratings.write_text("\n".join(lines[:-5]) + "\n", encoding="utf-8")
        assert main(["validate", str(tmp_path / "camp" / "campaign.conf")]) == 1

    def test_missing_ratings_file_exit_2(self, fixture_config_path, tmp_path, capsys):
        shutil.copytree(fixture_config_path.parent, tmp_path / "camp")
        (tmp_path / "camp" / "ratings.csv").unlink()
        code = main(["validate", str(tmp_path / "camp" / "campaign.conf")])
        assert code == 2
        assert "ratings file not found" in capsys.readouterr().err

    def test_traps_schedule(self, fixture_config_path, tmp_path, capsys):
        code = main(
            ["traps", str(fixture_config_path), "--out", str(tmp_path), "--count", "6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scheduled trap annotations: 72" in out  # 2 dirs * 2 ratios * 3 * 6
        lines = (tmp_path / "traps.jsonl").read_text().splitlines()
        assert len(lines) == 24  # 6 per (direction, ratio)
        first = json.loads(lines[0])
        assert set(first) == {"seg_id", "truncated_text", "original_reference", "ratio"}

    def test_traps_negative_count_exit_2(self, fixture_config_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["traps", str(fixture_config_path), "--out", str(tmp_path),
                  "--count", "-3"])
        assert exc.value.code == 2
        assert "argument --count: must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "traps.jsonl").exists()

    def test_traps_refused_count_writes_nothing(self, fixture_config_path, tmp_path):
        # 12 segments per direction: 13 traps cannot be drawn without replacement
        out = tmp_path / "out"
        code = main(
            ["traps", str(fixture_config_path), "--out", str(out), "--count", "13"]
        )
        assert code == 3
        assert not (out / "traps.jsonl").exists()

    def test_brevity_penalty_underflow_exit_3(self, fixture_config_path, tmp_path, capsys):
        # every reference 40 times over, and the first system left one
        # 1-character hypothesis per task: its corpus BLEU penalty underflows
        campaign = load_campaign(fixture_config_path)
        first = campaign.config.systems[0]
        segments = {
            g: replace(s, reference_text=" ".join([s.reference_text] * 40))
            for g, s in campaign.segments.items()
        }
        kept = set()
        hypotheses = {}
        for (system, seg_id, ratio), hyp in campaign.hypotheses.items():
            if system == first:
                task = (campaign.segments[seg_id].direction, ratio)
                hyp = replace(hyp, text="" if task in kept else hyp.text[:1])
                kept.add(task)
            hypotheses[(system, seg_id, ratio)] = hyp
        changed = replace(campaign, segments=segments, hypotheses=hypotheses)
        save_campaign(changed, tmp_path / "camp")
        code = main(
            ["run", str(tmp_path / "camp" / "campaign.conf"), "--out", str(tmp_path / "run")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "error: the brevity penalty underflows to 0" in err
        # the first task's natives fail first, at the first system
        label = campaign.tasks()[0].label
        assert f" in task {label}, system {first}\n" in err
        assert "Traceback" not in err

    def test_failed_run_removes_the_earlier_manifest(
        self, fixture_config_path, tmp_path, caplog
    ):
        out = tmp_path / "run"
        assert main(["run", str(fixture_config_path), "--out", str(out), *SMALL_RUN]) == 0
        # a run refused before it writes anything leaves the directory as it was
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        refused = ["run", str(fixture_config_path), "--out", str(out), "--hybrids", "1"]
        assert main(refused) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # the qc stage rewrites its reports before the first task's natives
        # fail: the old manifest, which no longer describes them, goes first
        config = underflow_copy(fixture_config_path, tmp_path / "camp")
        with caplog.at_level(logging.INFO, logger="lcmteval.pipeline"):
            assert main(["run", str(config), "--out", str(out), *SMALL_RUN]) == 3
        assert not (out / "manifest.json").exists()
        assert (out / "qc_timing.csv").exists()
        messages = [
            r.getMessage() for r in caplog.records if r.name == "lcmteval.pipeline"
        ]
        assert any(m.startswith("qc reports: 3 files, ") for m in messages)
        # a stage that raises logs no line
        label = load_campaign(fixture_config_path).tasks()[0].label
        assert not any(m.startswith(f"native scores {label}: ") for m in messages)
        assert not any(m.startswith("correlate reports: ") for m in messages)

    def test_stage_command_removes_the_run_manifest(self, fixture_config_path, tmp_path):
        # a stage command's reports are not the ones the run's manifest digested
        out = tmp_path / "run"
        assert main(["run", str(fixture_config_path), "--out", str(out), *SMALL_RUN]) == 0
        qc = ["qc", str(fixture_config_path), "--out", str(out), "--timing-cutoff", "100"]
        assert main(qc) == 0
        assert not (out / "manifest.json").exists()
        assert (out / "qc_timing.csv").exists()

    def test_score_round_trips_a_seg_id_with_a_tab(self, fixture_config_path, tmp_path):
        from lcmteval.corpus import load_external_scores
        from lcmteval.pipeline import score_tables_for_task

        # score needs no ratings or external scores; rename one segment
        camp = tmp_path / "camp"
        camp.mkdir()
        config = camp / "campaign.conf"
        config.write_text(
            "".join(
                line
                for line in fixture_config_path.read_text(encoding="utf-8")
                .splitlines(keepends=True)
                if not line.startswith(("ratings", "scores_dir"))
            ),
            encoding="utf-8",
        )
        for carrier in ("segments.jsonl", "hypotheses.jsonl"):
            records = [
                json.loads(line)
                for line in (fixture_config_path.parent / carrier)
                .read_text(encoding="utf-8")
                .splitlines()
            ]
            for record in records:
                if record["seg_id"] == "ez00":
                    record["seg_id"] = 'ez\t"00'
            (camp / carrier).write_text(
                "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                encoding="utf-8",
            )
        out = tmp_path / "out"
        assert main(["score", str(config), "--out", str(out)]) == 0
        campaign = load_campaign(config)
        task = Task("en-zh", 0.8)
        assert 'ez\t"00' in campaign.segment_ids_for_direction("en-zh")
        emitted = {
            t.key: t.cells
            for t in load_external_scores(
                out / "native_scores_en-zh.80.tsv",
                task,
                systems=campaign.config.systems,
                segment_ids=campaign.segment_ids_for_direction("en-zh"),
            )
        }
        assert emitted == {
            t.key: t.cells
            for t in score_tables_for_task(campaign, task).tables
            if t.level == "segment"
        }

    def test_score_emits_loadable_tables(self, fixture_config_path, tmp_path, campaign):
        from lcmteval.corpus import load_external_scores

        assert main(["score", str(fixture_config_path), "--out", str(tmp_path)]) == 0
        task = Task("en-zh", 0.8)
        tables = load_external_scores(
            tmp_path / "native_scores_en-zh.80.tsv",
            task,
            systems=campaign.config.systems,
            segment_ids=campaign.segment_ids_for_direction("en-zh"),
        )
        names = {t.metric_id for t in tables}
        assert "ROUGE1-F1" in names and "LengthDev" in names
        header, rows = read_csv_table(tmp_path / "native_system_en-zh.80.csv")
        assert {r[0] for r in rows} == {"BLEU", "BLEU*"}

    def test_score_matches_module_composition(self, fixture_config_path, tmp_path, campaign):
        from lcmteval.corpus import load_external_scores
        from lcmteval.pipeline import score_tables_for_task

        main(["score", str(fixture_config_path), "--out", str(tmp_path)])
        task = Task("zh-en", 0.5)
        emitted = {
            t.key: t
            for t in load_external_scores(
                tmp_path / "native_scores_zh-en.50.tsv",
                task,
                systems=campaign.config.systems,
                segment_ids=campaign.segment_ids_for_direction("zh-en"),
            )
        }
        for table in score_tables_for_task(campaign, task).tables:
            if table.level != "segment":
                continue
            assert emitted[table.key].cells == table.cells

    def test_qc_and_normalize(self, fixture_config_path, tmp_path):
        assert main(["qc", str(fixture_config_path), "--out", str(tmp_path)]) == 0
        header, rows = read_csv_table(tmp_path / "qc_timing.csv")
        assert header == ["direction", "ratio", "all_ave", "cut_ave"]
        assert len(rows) == 4
        header, rows = read_csv_table(tmp_path / "agreement.csv")
        assert len(rows) == 4 * 2  # tasks x with and without traps
        assert main(["normalize", str(fixture_config_path), "--out", str(tmp_path)]) == 0
        header, rows = read_csv_table(tmp_path / "normalized_ratings.csv")
        assert len(rows) == 288  # traps dropped by default

    @pytest.mark.parametrize("duration", ["nan", "inf", "-inf"])
    def test_qc_non_finite_duration_exit_2(
        self, fixture_config_path, tmp_path, capsys, duration
    ):
        shutil.copytree(fixture_config_path.parent, tmp_path / "camp")
        ratings = tmp_path / "camp" / "ratings.csv"
        lines = ratings.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[2].split(",")
        fields[5] = duration
        lines[2] = ",".join(fields)
        ratings.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "out"
        config = tmp_path / "camp" / "campaign.conf"
        assert main(["qc", str(config), "--out", str(out)]) == 2
        assert f"ratings.csv:3: duration '{duration}'" in capsys.readouterr().err
        assert not (out / "qc_timing.csv").exists()

    def test_qc_infinite_timing_cutoff_keeps_every_annotation(
        self, fixture_config_path, tmp_path
    ):
        args = ["qc", str(fixture_config_path), "--out", str(tmp_path)]
        assert main(args + ["--timing-cutoff", "inf"]) == 0
        header, rows = read_csv_table(tmp_path / "qc_timing.csv")
        assert [row[2] for row in rows] == [row[3] for row in rows]

    def test_ingest_summary(self, fixture_config_path, capsys):
        assert main(["ingest", str(fixture_config_path)]) == 0
        out = capsys.readouterr().out
        assert "16 external score tables ingested" in out

    def test_report_rerenders_matrix(self, tmp_path):
        matrix = make_matrix(["m1", "m2"], wins={("m1", "m2")})
        csv_path = tmp_path / "sig.csv"
        emit_sig_matrix(matrix, "csv", csv_path)
        out_path = tmp_path / "sig.txt"
        assert main(["report", str(csv_path), "--format", "textgrid",
                     str(out_path)]) == 0
        assert "W" in out_path.read_text()
        svg_path = tmp_path / "sig.svg"
        assert main(["report", str(csv_path), "--format", "svg", str(svg_path)]) == 0
        assert svg_path.read_text().startswith("<svg")

    @pytest.mark.parametrize(
        "column", ["ratio", "ci_level", "lower", "upper", "p_value"]
    )
    def test_report_malformed_number_exit_2(self, tmp_path, capsys, column):
        csv_path = tmp_path / "sig.csv"
        emit_sig_matrix(make_matrix(["m1", "m2"], level="system"), "csv", csv_path)
        lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[2].rstrip("\n").split(",")
        fields[SIG_HEADER.index(column)] = "x"
        lines[2] = ",".join(fields) + "\n"
        csv_path.write_text("".join(lines), encoding="utf-8")
        out_path = tmp_path / "sig.txt"
        assert main(["report", str(csv_path), "--format", "textgrid",
                     str(out_path)]) == 2
        assert f"sig.csv:3: bad {column} 'x'" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("column", ["ratio", "p_value", "fields"])
    def test_report_errors_name_the_physical_line(self, tmp_path, capsys, column):
        csv_path = tmp_path / "sig.csv"
        emit_sig_matrix(make_matrix(["m1", "m2"]), "csv", csv_path)
        lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = lines[2].rstrip("\n").split(",")
        if column == "fields":
            fields.append("extra")
        else:
            fields[SIG_HEADER.index(column)] = "zz"
        # blank lines 2 and 4 before the bad row, which lands on line 5
        lines[2] = ",".join(fields) + "\n"
        csv_path.write_text(
            lines[0] + "\n" + lines[1] + "\n" + "".join(lines[2:]), encoding="utf-8"
        )
        out_path = tmp_path / "sig.txt"
        assert main(["report", str(csv_path), "--format", "textgrid",
                     str(out_path)]) == 2
        message = (
            "row has 12 fields, header has 11" if column == "fields"
            else f"bad {column} 'zz'"
        )
        assert f"sig.csv:5: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "textgrid", "svg"])
    def test_report_refuses_an_unknown_level(self, tmp_path, capsys, fmt):
        csv_path = tmp_path / "sig.csv"
        emit_sig_matrix(make_matrix(["m1", "m2"]), "csv", csv_path)
        text = csv_path.read_text(encoding="utf-8")
        csv_path.write_text(text.replace(",segment,", ",bogus,"), encoding="utf-8")
        out_path = tmp_path / f"out.{fmt}"
        assert main(["report", str(csv_path), "--format", fmt, str(out_path)]) == 2
        assert "sig.csv:2: bad level 'bogus'\n" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "textgrid", "svg"])
    @pytest.mark.parametrize(
        "edit, message",
        [
            ("drop", "sig.csv: no cell 'm1' x 'm3'"),
            ("repeat", "sig.csv:8: repeated cell 'm1' x 'm2'"),
            ("self", "sig.csv:4: cell pairs metric 'm2' with itself"),
        ],
    )
    def test_report_needs_one_row_per_ordered_pair(
        self, tmp_path, capsys, fmt, edit, message
    ):
        csv_path = tmp_path / "sig.csv"
        # rows on lines 2-7: m1 m2, m1 m3, m2 m1, m2 m3, m3 m1, m3 m2
        emit_sig_matrix(make_matrix(["m1", "m2", "m3"]), "csv", csv_path)
        lines = csv_path.read_text(encoding="utf-8").splitlines(keepends=True)
        if edit == "drop":
            del lines[2]
        elif edit == "repeat":
            lines.append(lines[1])
        else:
            fields = lines[3].split(",")
            fields[SIG_HEADER.index("col_metric")] = "m2"
            lines[3] = ",".join(fields)
        csv_path.write_text("".join(lines), encoding="utf-8")
        out_path = tmp_path / f"out.{fmt}"
        assert main(["report", str(csv_path), "--format", fmt, str(out_path)]) == 2
        assert f"{message}\n" in capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("golden", ["fixture_manifest", "fixture_manifest_segment"])
    def test_stage_commands_write_the_golden_files(
        self, fixture_config_path, tmp_path, golden
    ):
        golden = json.loads((GOLDENS / f"{golden}.json").read_text())
        flags = [
            arg
            for name, value in sorted(golden["flags"].items())
            for arg in (f"--{name}", str(value))
        ]
        for command in STAGE_COMMANDS:
            assert main(
                [command, str(fixture_config_path), "--out", str(tmp_path)] + flags
            ) == 0
        assert {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in tmp_path.iterdir()
        } == golden["files"]

    @pytest.mark.parametrize(
        "command", ["validate", "normalize", *STAGE_COMMANDS, "run"]
    )
    def test_no_ratings_file_exit_2(
        self, fixture_config_path, tmp_path, capsys, command
    ):
        shutil.copytree(fixture_config_path.parent, tmp_path / "camp")
        config = tmp_path / "camp" / "campaign.conf"
        lines = config.read_text(encoding="utf-8").splitlines(keepends=True)
        config.write_text(
            "".join(line for line in lines if not line.startswith("ratings")),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        flags = {"validate": [], "normalize": ["--out", str(out)]}.get(
            command, ["--out", str(out)] + FAST_FLAGS
        )
        assert main([command, str(config)] + flags) == 2
        assert "campaign config declares no ratings file" in capsys.readouterr().err
        assert not out.exists()

    def test_each_command_takes_only_the_flags_it_reads(self):
        (sub,) = (
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        accepted = {
            name: {
                flag
                for action in parser._actions
                for flag in action.option_strings
                if flag != "-h" and flag != "--help"
            }
            for name, parser in sub.choices.items()
        }
        assert accepted.pop("report") == {"--format"}
        pipeline = accepted.pop("run")
        assert pipeline == {"--out", *COMMON_FLAGS}
        for command in STAGE_COMMANDS:
            assert accepted.pop(command) == pipeline, command
        assert accepted == {
            command: set(flags) for command, flags in READ_FLAGS.items()
        }

    @pytest.mark.parametrize(
        "command, flag",
        [
            (command, flag)
            for command, flags in READ_FLAGS.items()
            for flag in COMMON_FLAGS
            if flag not in flags
        ],
    )
    def test_a_flag_the_command_does_not_read_exits_2(
        self, fixture_config_path, tmp_path, capsys, command, flag
    ):
        out = tmp_path / "out"
        value = [] if flag == "--include-traps" else [COMMON_FLAGS[flag]]
        where = ["--out", str(out)] if "--out" in READ_FLAGS[command] else []
        with pytest.raises(SystemExit) as exc:
            main([command, str(fixture_config_path)] + where + [flag] + value)
        assert exc.value.code == 2
        assert (
            f"unrecognized arguments: {' '.join([flag] + value)}"
            in capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "carrier, field, value",
        [
            ("hypotheses.jsonl", "length_ratio", "eighty"),
            ("hypotheses.jsonl", "length_ratio", None),
            ("segments.jsonl", "reference_length", "ten"),
            ("segments.jsonl", "reference_length", 3.7),
            ("segments.jsonl", "reference_length", True),
        ],
    )
    def test_malformed_number_exit_2(
        self, fixture_config_path, tmp_path, capsys, carrier, field, value
    ):
        shutil.copytree(fixture_config_path.parent, tmp_path / "camp")
        path = tmp_path / "camp" / carrier
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[1])
        record[field] = value
        lines[1] = json.dumps(record, ensure_ascii=False) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["run", str(tmp_path / "camp" / "campaign.conf"), "--out", str(out)]
            + FAST_FLAGS
        )
        assert code == 2
        assert f"{carrier}:2: bad {field} {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_statistical_precondition_exit_3(self, fixture_config_path, tmp_path, capsys):
        shutil.copytree(fixture_config_path.parent, tmp_path / "camp")
        ratings = tmp_path / "camp" / "ratings.csv"
        lines = ratings.read_text().splitlines()
        # flatten one annotator's scores to a constant: z-normalization for
        # that (annotator, task) group becomes undefined
        flattened = [lines[0]]
        for line in lines[1:]:
            fields = line.split(",")
            if fields[0] == "a1":
                fields[4] = "50"
            flattened.append(",".join(fields))
        ratings.write_text("\n".join(flattened) + "\n", encoding="utf-8")
        code = main(
            ["normalize", str(tmp_path / "camp" / "campaign.conf"), "--out",
             str(tmp_path / "out")]
        )
        assert code == 3
        assert "constant scores" in capsys.readouterr().err

    def test_length_unit_override_changes_length_dev(self, fixture_config_path, tmp_path, campaign):
        from lcmteval.corpus import load_external_scores

        out_chars = tmp_path / "chars"
        out_ws = tmp_path / "ws"
        main(["score", str(fixture_config_path), "--out", str(out_chars)])
        main(["score", str(fixture_config_path), "--out", str(out_ws),
              "--length-unit", "whitespace-tokens"])
        task = Task("en-zh", 0.8)

        def dev_cells(folder):
            tables = load_external_scores(
                folder / "native_scores_en-zh.80.tsv", task,
                systems=campaign.config.systems,
                segment_ids=campaign.segment_ids_for_direction("en-zh"),
            )
            return next(t for t in tables if t.metric_id == "LengthDev").cells

        # zh references are unsegmented: whitespace-token counts differ wildly
        assert dev_cells(out_chars) != dev_cells(out_ws)

    def test_include_traps_flag(self, fixture_config_path, tmp_path):
        main(["normalize", str(fixture_config_path), "--out", str(tmp_path),
              "--include-traps"])
        header, rows = read_csv_table(tmp_path / "normalized_ratings.csv")
        assert len(rows) == 336  # trap rows kept in the groups

    def test_correlate_segment_level(self, fixture_config_path, tmp_path):
        code = main(
            ["correlate", str(fixture_config_path), "--out", str(tmp_path),
             "--level", "segment"]
        )
        assert code == 0
        header, rows = read_csv_table(tmp_path / "correlations_segment.csv")
        assert header[:2] == ["metric", "variant"]
        assert len(rows) == 11  # 9 ROUGE + neuralA best variant + neuralB
        header, rows = read_csv_table(tmp_path / "variant_selection.csv")
        assert {row[1] for row in rows} == {"segment"}
        # --level picks the variants only: both correlation levels are written
        header, rows = read_csv_table(tmp_path / "correlations_system.csv")
        assert len(rows) == 13  # 11 segment-level metrics + BLEU + BLEU*

    def test_significance_system_level(self, fixture_config_path, tmp_path):
        code = main(
            ["significance", str(fixture_config_path), "--out", str(tmp_path),
             "--hybrids", "50"]
        )
        assert code == 0
        matrix = load_sig_matrix_csv(tmp_path / "sig_system_en-zh.80.csv")
        assert matrix.level == "system"
        assert len(matrix.metrics) == 13  # 9 ROUGE + BLEU + BLEU* + 2 neural
        matrix = load_sig_matrix_csv(tmp_path / "sig_segment_en-zh.80.csv")
        assert matrix.level == "segment"
        assert len(matrix.metrics) == 11

    def test_syscompare(self, fixture_config_path, tmp_path):
        code = main(
            ["syscompare", str(fixture_config_path), "--out", str(tmp_path),
             "--level", "segment", "--bootstrap", "200"]
        )
        assert code == 0
        header, rows = read_csv_table(tmp_path / "system_eval.csv")
        assert len(rows) == 11 * 2  # metrics x systems
        header, rows = read_csv_table(tmp_path / "length_deviation.csv")
        assert len(rows) == 2  # systems


FAST_FLAGS = ["--hybrids", "60", "--permutations", "60", "--bootstrap", "100"]


class TestRunCommand:
    @pytest.mark.parametrize("alpha", ["1e-30", "1e-310"])
    def test_a_tiny_alpha_names_the_least_resolving_r(
        self, fixture_config_path, tmp_path, alpha
    ):
        # each task's INFO hint names the least R whose smallest p-value,
        # 1/(R+1), is below alpha/m as bonferroni compares, however small
        # alpha is; the run is a child process with a timeout, so a search
        # that never ends fails the test instead of stalling the suite
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-m", "lcmteval.cli", "-v", "run",
             str(fixture_config_path), "--out", str(tmp_path), "--alpha", alpha,
             *SMALL_RUN],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        hints = re.findall(
            r"over m=(\d+) ordered pairs; R=(\d+) replicates or more", result.stderr
        )
        assert len(hints) == 4  # one per task
        for m, least in hints:
            threshold, least = float(alpha) / int(m), int(least)
            assert 1 / (least + 1) < threshold
            assert not 1 / least < threshold

    def test_seed_contract(self, fixture_config_path, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        base = ["run", str(fixture_config_path), "--level", "segment"] + FAST_FLAGS
        assert main(base + ["--out", str(out_a), "--seed", "1"]) == 0
        assert main(base + ["--out", str(out_b), "--seed", "2"]) == 0

        deterministic = [
            "qc_timing.csv", "qc_traps.csv", "agreement.csv",
            "correlations_segment.csv", "length_deviation.csv",
            "variant_selection.csv",
        ]
        for name in deterministic:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        resampled = [(out_a / "sig_segment_en-zh.80.csv").read_bytes(),
                     (out_b / "sig_segment_en-zh.80.csv").read_bytes()]
        assert resampled[0] != resampled[1]
        # hybrid-extended Pearson depends on the sampled pseudo-systems
        assert (out_a / "correlations_system.csv").exists()

    def test_length_unit_flag_reaches_run(self, fixture_config_path, tmp_path):
        base = ["run", str(fixture_config_path), "--level", "segment"] + FAST_FLAGS
        assert main(base + ["--out", str(tmp_path / "chars")]) == 0
        assert main(base + ["--out", str(tmp_path / "ws"),
                            "--length-unit", "whitespace-tokens"]) == 0
        chars, ws = (
            (tmp_path / out / "length_deviation.csv").read_bytes()
            for out in ("chars", "ws")
        )
        assert chars != ws

    def test_manifest_records_parameters(self, fixture_config_path, tmp_path):
        base = ["run", str(fixture_config_path), "--level", "segment",
                "--hybrids", "60", "--bootstrap", "100", "--threads", "2"]
        for out, r in (("a", "20"), ("b", "30")):
            assert main(base + ["--out", str(tmp_path / out), "--permutations", r]) == 0
        first, second = (
            json.loads((tmp_path / out / "manifest.json").read_text())["parameters"]
            for out in ("a", "b")
        )
        assert first == {
            "hybrids": 60, "permutations": 20, "bootstrap": 100, "alpha": 0.05,
            "level": "segment", "include_traps": False, "timing_cutoff": 600.0,
            "length_unit": "characters",
        }
        assert second == {**first, "permutations": 30}
        # JSON has no infinity: an unbounded cutoff is recorded as a string
        out = tmp_path / "c"
        assert main(base + ["--out", str(out), "--timing-cutoff", "inf"]) == 0
        text = (out / "manifest.json").read_text()
        assert "Infinity" not in text
        assert json.loads(text)["parameters"]["timing_cutoff"] == "inf"

    def test_run_pipeline_stores_options_as_the_flag_types(
        self, fixture_config_path, tmp_path
    ):
        # numpy scalars and an integral cutoff are stored as each flag's type,
        # so the library's manifest is the CLI's byte for byte
        run_pipeline(
            fixture_config_path, tmp_path / "library", seed=np.uint64(3),
            hybrids=np.int64(60), permutations=np.int32(20),
            bootstrap=np.int16(100), alpha=np.float64(0.05), timing_cutoff=600,
            level="segment",
        )
        assert main(
            ["run", str(fixture_config_path), "--out", str(tmp_path / "cli"),
             "--seed", "3", "--hybrids", "60", "--permutations", "20",
             "--bootstrap", "100", "--level", "segment"]
        ) == 0
        library, cli = (
            (tmp_path / out / "manifest.json").read_bytes()
            for out in ("library", "cli")
        )
        assert library == cli

    def test_manifest_records_input_digests(self, fixture_config_path, tmp_path):
        import hashlib

        campaign = tmp_path / "campaign"
        shutil.copytree(fixture_config_path.parent, campaign)
        run = ["run", str(campaign / "campaign.conf"), "--level", "segment"]
        assert main(run + FAST_FLAGS + ["--out", str(tmp_path / "a")]) == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        names = ["hypotheses.jsonl", "ratings.csv", "scores/en-zh.50.tsv",
                 "scores/en-zh.80.tsv", "scores/zh-en.50.tsv",
                 "scores/zh-en.80.tsv", "segments.jsonl"]
        assert manifest["inputs"] == {
            name: hashlib.sha256((campaign / name).read_bytes()).hexdigest()
            for name in names
        }
        # an edited input changes its digest and nothing else in the block
        with (campaign / "ratings.csv").open("a", encoding="utf-8") as fh:
            fh.write("\n")
        assert main(run + FAST_FLAGS + ["--out", str(tmp_path / "b")]) == 0
        edited = json.loads((tmp_path / "b" / "manifest.json").read_text())["inputs"]
        changed = [n for n in names if edited[n] != manifest["inputs"][n]]
        assert changed == ["ratings.csv"]
        # a task without a score file reads none
        (campaign / "scores" / "zh-en.50.tsv").unlink()
        config = parse_config(campaign / "campaign.conf")
        assert sorted(input_files(config, campaign)) == [
            name for name in names if name != "scores/zh-en.50.tsv"
        ]

    @pytest.mark.parametrize(
        "flag, value",
        [("--hybrids", "-5"), ("--permutations", "0"), ("--bootstrap", "0"),
         ("--threads", "0"), ("--alpha", "0"), ("--alpha", "1"),
         ("--alpha", "2"), ("--alpha", "-0.05"), ("--alpha", "nan"),
         ("--timing-cutoff", "nan"), ("--timing-cutoff", "0"),
         ("--timing-cutoff", "-5")],
    )
    def test_invalid_resampling_count_exit_2(
        self, fixture_config_path, tmp_path, capsys, flag, value
    ):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(fixture_config_path), "--out", str(tmp_path)]
                 + FAST_FLAGS + [flag, value])
        assert exc.value.code == 2
        bound = {"--alpha": "must be in (0, 1)", "--timing-cutoff": "must be > 0"}.get(
            flag, "must be >= "
        )
        assert f"argument {flag}: {bound}" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("value", ["-1", str(2**64)])
    def test_seed_out_of_range_exit_2(
        self, fixture_config_path, tmp_path, capsys, value
    ):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(fixture_config_path), "--out", str(tmp_path)]
                 + FAST_FLAGS + ["--seed", value])
        assert exc.value.code == 2
        assert (
            f"argument --seed: must be in [0, {2**64 - 1}], got {value}"
            in capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == []

    def test_seed_range_ends_are_accepted(self, fixture_config_path, tmp_path):
        for value in ("0", str(2**64 - 1)):
            out = tmp_path / value
            assert main(["traps", str(fixture_config_path), "--out", str(out),
                         "--count", "1", "--seed", value]) == 0
            assert (out / "traps.jsonl").exists()

    @pytest.mark.parametrize(
        "option, value",
        [("seed", v) for v in (0, 1, 2**64 - 2, 2**64 - 1)]
        + [("hybrids", v) for v in (0, 1)]
        + [(name, v) for name in ("permutations", "bootstrap") for v in (0, 1, 2)]
        + [("alpha", v) for v in (0.0, -5e-324, 5e-324, 1 - 2**-53, 1.0, 1 + 2**-52)]
        + [("timing_cutoff", v) for v in (0.0, -5e-324, 5e-324, math.inf)]
        + [
            (name, v)
            for name in ("seed", "hybrids", "permutations", "bootstrap", "alpha",
                         "timing_cutoff")
            for v in (math.nan, -1, 2**64)
        ]
        # the type of each option: a bool, a fraction or text is no integer,
        # and a bool or text no real number; an integer is a real number, one
        # beyond float64 an infinite one
        + [("seed", 1.5), ("hybrids", 2.5), ("permutations", True),
           ("bootstrap", False), ("seed", "7"), ("hybrids", 60.0),
           ("alpha", True), ("timing_cutoff", False), ("alpha", "0.5"),
           ("alpha", 1), ("timing_cutoff", 600), ("alpha", 10**400),
           ("timing_cutoff", 10**400), ("timing_cutoff", -(10**400))],
    )
    def test_run_and_run_pipeline_refuse_the_same_options(
        self, fixture_config_path, tmp_path, capsys, monkeypatch, option, value
    ):
        # values on and beside each bound: the CLI flag refuses exactly what
        # the library keyword refuses, with the same rule, and neither writes
        # a file; an accepted value stops the run before its first stage
        class Accepted(Exception):
            pass

        def accepted(state):
            raise Accepted

        monkeypatch.setattr(PipelineState, "check_system_sig", accepted)
        out = tmp_path / "out"
        flag = "--" + option.replace("_", "-")
        text = repr(value)
        try:
            run_pipeline(fixture_config_path, out, **{option: value})
        except ValueError as exc:
            library = str(exc)
        except Accepted:
            library = None
        try:
            main(["run", str(fixture_config_path), "--out", str(out),
                  f"{flag}={text}"])
        except SystemExit as exc:
            assert exc.code == 2
            cli = capsys.readouterr().err
        except Accepted:
            cli = None
        assert not out.exists()
        assert (cli is None) == (library is None)
        if library is None:
            return
        assert library.startswith(f"{option} ")
        if library.startswith(f"{option} must be a"):
            # argparse refuses text that is no number of the flag's type
            # before any rule
            real = option in ("alpha", "timing_cutoff")
            kind, noun = (
                ("number", "a real number") if real else ("integer", "an integer")
            )
            assert library == f"{option} must be {noun}, got {value!r}"
            assert f"argument {flag}: invalid {kind} value: {text!r}" in cli
            return
        pattern = f"argument {flag}: (must be .*), got {re.escape(text)}$"
        (rule,) = re.findall(pattern, cli, re.M)
        assert library == f"{option} {rule}, got {value}"

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--hybrids", "0", "--level", "segment"],
            ["run", "--hybrids", "1"],
            ["significance", "--level", "system", "--hybrids", "1"],
            ["significance", "--level", "segment", "--hybrids", "0"],
        ],
    )
    def test_too_few_systems_for_system_significance_exit_3_first(
        self, fixture_config_path, tmp_path, capsys, command
    ):
        # the fixture has 2 systems; Zou's interval needs 4, real plus hybrid
        out = tmp_path / "out"
        out.mkdir()
        code = main(
            [command[0], str(fixture_config_path), "--out", str(out),
             "--permutations", "5", "--bootstrap", "5"] + command[1:]
        )
        assert code == 3
        assert "--hybrids" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "correlate"])
    @pytest.mark.parametrize("name", ["BLEU", "LengthDev", "neuralA.v1"])
    def test_external_name_clash_exit_2_first(
        self, fixture_config_path, tmp_path, capsys, command, name
    ):
        # renaming neuralB (variant "-") makes its display name equal to a
        # native metric's or to neuralA's variant v1
        shutil.copytree(fixture_config_path.parent, tmp_path / "camp")
        for path in (tmp_path / "camp" / "scores").iterdir():
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text(
                "".join(
                    name + line[len("neuralB"):] if line.startswith("neuralB\t")
                    else line
                    for line in lines
                ),
                encoding="utf-8",
            )
        out = tmp_path / "out"
        out.mkdir()
        code = main(
            [command, str(tmp_path / "camp" / "campaign.conf"), "--out", str(out)]
            + FAST_FLAGS
        )
        assert code == 2
        assert f"is named {name!r}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_duplicate_ratios_exit_2_first(self, fixture_config_path, tmp_path, capsys):
        # a repeated ratio would repeat its tasks' columns and give them
        # double weight in every average
        shutil.copytree(fixture_config_path.parent, tmp_path / "camp")
        config = tmp_path / "camp" / "campaign.conf"
        text = config.read_text(encoding="utf-8")
        config.write_text(
            text.replace("ratios = 0.8, 0.5", "ratios = 0.8, 0.8, 0.5"),
            encoding="utf-8",
        )
        assert main(["validate", str(config)]) == 2
        out = tmp_path / "out"
        out.mkdir()
        assert main(["run", str(config), "--out", str(out)] + FAST_FLAGS) == 2
        err = capsys.readouterr().err
        assert err.count(f"{config}: length ratios must be unique") == 2
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", *STAGE_COMMANDS])
    def test_incomplete_campaign_exit_1(
        self, fixture_config_path, tmp_path, capsys, command
    ):
        shutil.copytree(fixture_config_path.parent, tmp_path / "camp")
        ratings = tmp_path / "camp" / "ratings.csv"
        lines = ratings.read_text().splitlines()
        real = max(i for i, line in enumerate(lines) if line.endswith(",false"))
        del lines[real]
        ratings.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            [command, str(tmp_path / "camp" / "campaign.conf"), "--out", str(out)]
            + FAST_FLAGS
        )
        assert code == 1
        assert (
            "error: campaign incomplete: 1 missing and 0 duplicate cells "
            "(expected 288, found 287)\n"
        ) in capsys.readouterr().err
        assert not out.exists()



def edited_copy(fixture_config_path, dest, name, edit):
    """A copy of the fixture campaign in ``dest`` whose file ``name`` has its
    lines passed through ``edit``; returns the copy's config path."""
    shutil.copytree(fixture_config_path.parent, dest)
    path = dest / name
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")
    return dest / "campaign.conf"


def set_config(**values):
    """A config edit: each key's line takes the given value."""

    def edit(lines):
        keys = [line.partition("=")[0].strip() for line in lines]
        return [
            f"{key} = {values[key]}" if key in values else line
            for key, line in zip(keys, lines)
        ]

    return edit


def warnings_of(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]


class TestWarningsAndRefusals:
    """A warning or refusal of the pipeline and CLI, each on a one-edit copy
    of the fixture campaign."""

    def test_a_missing_hypothesis_is_an_incomplete_table(
        self, fixture_config_path, tmp_path
    ):
        # line 1 of hypotheses.jsonl is (sysA, ez00) at ratio 0.5
        config = edited_copy(
            fixture_config_path, tmp_path / "camp", "hypotheses.jsonl",
            lambda lines: lines[1:],
        )
        campaign = load_campaign(config)
        with pytest.raises(IncompleteTable) as info:
            score_tables_for_task(campaign, Task("en-zh", 0.5))
        assert str(info.value) == "no hypothesis for (sysA, ez00, ratio 0.5)"

    def test_an_external_metric_missing_a_task_exits_2_first(
        self, fixture_config_path, tmp_path, capsys
    ):
        config = edited_copy(
            fixture_config_path, tmp_path / "camp", "scores/en-zh.80.tsv",
            lambda lines: [line for line in lines if not line.startswith("neuralA\tv2\t")],
        )
        out = tmp_path / "out"
        assert main(["run", str(config), "--out", str(out), *SMALL_RUN]) == 2
        assert capsys.readouterr().err == (
            "error: metric neuralA/v2 has no scores for tasks: en-zh.80\n"
        )
        assert not out.exists()

    def test_validate_lists_20_missing_cells_then_counts_the_rest(
        self, fixture_config_path, tmp_path, capsys
    ):
        # a3's ratings of en-zh at 0.8 are gone, traps kept (24 cells one
        # annotator short), and a1's first rating is given twice
        def edit(lines):
            gone = [line for line in lines if line.startswith("a3,")
                    and ",0.8," in line and line.endswith(",false")]
            return [line for line in lines if line not in gone] + [lines[1]]

        config = edited_copy(fixture_config_path, tmp_path / "camp", "ratings.csv", edit)
        assert main(["validate", str(config)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:5] == [
            "expected ratings: 288",
            "found ratings:    265",
            "missing cells:    24",
            "duplicate cells:  1",
            "trap ratings:     48 (excluded from the grid)",
        ]
        assert [line.split(":")[0] for line in lines[5:]] == (
            ["  missing"] * 20 + ["  ... and 4 more", "  duplicate", "  warning"]
        )
        assert lines[5] == "  missing: ('en-zh', 0.8, 'ez00', 'sysA', 2)"
        assert lines[-2] == "  duplicate: ('a1', 'en-zh', 0.8, 'ez00', 'sysA', 2)"
        assert lines[-1] == (
            "  warning: task en-zh.80: 2 distinct annotators, config expects 3"
        )

    def test_run_warns_of_an_annotator_count_the_config_does_not_expect(
        self, fixture_config_path, tmp_path, caplog
    ):
        config = edited_copy(
            fixture_config_path, tmp_path / "camp", "campaign.conf",
            set_config(annotators_per_task=2),
        )
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="lcmteval"):
            assert main(["-v", "run", str(config), "--out", str(out), *SMALL_RUN]) == 0
        assert warnings_of(caplog) == [
            f"task {label}: 3 distinct annotators, config expects 2"
            for label in ("en-zh.80", "en-zh.50", "zh-en.80", "zh-en.50")
        ]

    def test_normalize_warns_of_each_cell_short_of_annotators(
        self, fixture_config_path, tmp_path, caplog
    ):
        config = edited_copy(
            fixture_config_path, tmp_path / "camp", "campaign.conf",
            set_config(annotators_per_task=4),
        )
        with caplog.at_level(logging.WARNING, logger="lcmteval"):
            assert main(["normalize", str(config), "--out", str(tmp_path / "out")]) == 0
        warnings = warnings_of(caplog)
        assert len(warnings) == 96
        assert warnings[0] == "aggregation: (en-zh.50, sysA, ez00): 3 of 4 annotators"

    def test_correlate_without_hybrids_warns_of_two_systems(
        self, fixture_config_path, tmp_path, caplog
    ):
        args = ["correlate", str(fixture_config_path), "--out", str(tmp_path)]
        with caplog.at_level(logging.WARNING, logger="lcmteval"):
            assert main([*args, "--hybrids", "0"]) == 0
        assert warnings_of(caplog) == [
            "system-level Pearson over 2 real systems without hybrids is degenerate"
        ]

    def test_traps_skip_a_ratio_of_one(
        self, fixture_config_path, tmp_path, caplog, capsys
    ):
        config = edited_copy(
            fixture_config_path, tmp_path / "camp", "campaign.conf",
            set_config(ratios="0.8, 0.5, 1.0"),
        )
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="lcmteval"):
            assert main(["traps", str(config), "--out", str(out), "--count", "2"]) == 0
        # one warning per direction; 2 traps per direction and other ratio
        assert warnings_of(caplog) == [
            "skipping ratio 1.0: traps need a ratio in (0, 1)"
        ] * 2
        assert capsys.readouterr().out.startswith(
            f"wrote 8 trap pairs to {out / 'traps.jsonl'}\n"
        )
