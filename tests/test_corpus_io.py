import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lcmteval.corpus import (
    RATINGS_HEADER,
    SCORES_HEADER,
    Campaign,
    CampaignConfig,
    RatingRecord,
    ScoreTable,
    SegmentRecord,
    Task,
    load_campaign,
    load_external_scores,
    load_ratings,
    parse_config,
    percent_label,
    save_campaign,
    validate_campaign,
    write_config,
    write_scores_file,
)
from lcmteval.errors import (
    DuplicateCell,
    IncompleteTable,
    MissingFile,
    NonFiniteScore,
    ParseError,
    UnknownSegment,
    UnresolvedReference,
)
from lcmteval.reports import SIG_HEADER, load_sig_matrix_csv

FIXTURE = Path(__file__).parent / "fixtures" / "campaign"
README = Path(__file__).resolve().parents[1] / "README.md"
# the fixture's config, key -> value, in file order
FIXTURE_KEYS = dict(
    (part.strip() for part in line.split("=", 1))
    for line in (FIXTURE / "campaign.conf").read_text(encoding="utf-8").splitlines()
)
NOT_AN_INT = "invalid literal for int() with base 10: "
NOT_A_FLOAT = "could not convert string to float: "


def minimal_config(**overrides) -> CampaignConfig:
    fields = dict(
        directions=("aa-bb",),
        length_ratios=(0.8,),
        systems=("s1", "s2"),
        annotators_per_task=1,
        length_unit="whitespace-tokens",
        seed=7,
    )
    fields.update(overrides)
    return CampaignConfig(**fields)


def write_minimal_campaign(tmp_path: Path, *, hyp_rows=None, rating_rows=None) -> Path:
    (tmp_path / "campaign.conf").write_text(
        "directions = aa-bb\n"
        "ratios = 0.8, 0.5\n"
        "systems = s1, s2\n"
        "annotators_per_task = 1\n"
        "length_unit = whitespace-tokens\n"
        "seed = 7\n"
        "segments = segments.jsonl\n"
        "hypotheses = hypotheses.jsonl\n"
        "ratings = ratings.csv\n",
        encoding="utf-8",
    )
    segments = [
        {"seg_id": "g1", "direction": "aa-bb", "source_text": "src one",
         "reference_text": "tok a b c"},
        {"seg_id": "g2", "direction": "aa-bb", "source_text": "src two",
         "reference_text": "tok d e f"},
    ]
    (tmp_path / "segments.jsonl").write_text(
        "\n".join(json.dumps(s) for s in segments) + "\n", encoding="utf-8"
    )
    if hyp_rows is None:
        hyp_rows = [
            {"system_id": sys_id, "seg_id": seg, "length_ratio": ratio, "text": "tok a b"}
            for sys_id in ("s1", "s2")
            for seg in ("g1", "g2")
            for ratio in (0.8, 0.5)
        ]
    (tmp_path / "hypotheses.jsonl").write_text(
        "\n".join(json.dumps(h) for h in hyp_rows) + "\n", encoding="utf-8"
    )
    if rating_rows is None:
        rating_rows = [
            f"u1,{seg},{sys_id},{ratio},{score},30.0,false"
            for score, (sys_id, seg, ratio) in enumerate(
                (s, g, r)
                for s in ("s1", "s2")
                for g in ("g1", "g2")
                for r in (0.8, 0.5)
            )
        ]
    (tmp_path / "ratings.csv").write_text(
        "annotator,seg_id,system,ratio,score,duration_s,is_trap\n"
        + "\n".join(rating_rows)
        + "\n",
        encoding="utf-8",
    )
    return tmp_path / "campaign.conf"


class TestConfig:
    def test_fixture_parses(self):
        config = parse_config(FIXTURE / "campaign.conf")
        assert config.directions == ("en-zh", "zh-en")
        assert config.length_ratios == (0.8, 0.5)
        assert config.annotators_per_task == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            parse_config(tmp_path / "nope.conf")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("directions = a-b\nbogus = 1\n", encoding="utf-8")
        with pytest.raises(ParseError, match="bogus"):
            parse_config(path)

    def test_invariants_enforced(self):
        with pytest.raises(ParseError):
            minimal_config(length_ratios=(1.2,))
        with pytest.raises(ParseError):
            minimal_config(length_ratios=())
        with pytest.raises(ParseError):
            minimal_config(systems=("s1", "s1"))
        with pytest.raises(ParseError):
            minimal_config(annotators_per_task=0)
        with pytest.raises(ParseError):
            minimal_config(length_unit="bytes")

    def test_duplicate_ratios_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="length ratios must be unique"):
            minimal_config(length_ratios=(0.8, 0.8, 0.5))
        # a config file names itself in the error
        conf = tmp_path / "campaign.conf"
        conf.write_text(
            "directions = aa-bb\nratios = 0.8, 0.80\nsystems = s1, s2\n"
            "annotators_per_task = 1\nlength_unit = characters\nseed = 1\n"
            "segments = segments.jsonl\nhypotheses = hypotheses.jsonl\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="length ratios must be unique") as info:
            parse_config(conf)
        assert info.value.path == conf

    @pytest.mark.parametrize(
        "directions, ratios, clash",
        [
            (("en-zh",), (0.5, 0.500000000001),
             "tasks ('en-zh', 0.5) and ('en-zh', 0.500000000001) share the "
             "file label 'en-zh.50'"),
            (("x", "x.1"), (0.015, 0.05),
             "tasks ('x', 0.015) and ('x.1', 0.05) share the file label 'x.1.5'"),
        ],
        ids=["ten-digit-ratio", "dotted-direction"],
    )
    def test_tasks_sharing_a_file_label_rejected(self, directions, ratios, clash):
        # a task's label names its sig_* and scores files and seeds its draws,
        # so two tasks under one label would overwrite and share them
        with pytest.raises(ParseError) as info:
            minimal_config(directions=directions, length_ratios=ratios)
        assert str(info.value) == clash

    @pytest.mark.parametrize("field", ["directions", "systems"])
    @pytest.mark.parametrize(
        "bad", ["", "a,b", "a\nb", "a\r", "a\u2028b", " a", "a\t", "#a", "a # b"]
    )
    def test_ids_the_config_file_cannot_hold_rejected(self, field, bad):
        # parse_config splits on ',' and strips each item, so these would load
        # back as other ids: ("a,b", "c") as ("a", "b", "c")
        with pytest.raises(ParseError, match="does not survive the config file"):
            minimal_config(**{field: (bad, "c")})

    @pytest.mark.parametrize(
        "field", ["segments_path", "hypotheses_path", "ratings_path", "scores_dir"]
    )
    @pytest.mark.parametrize(
        "bad", ["", "seg#1.jsonl", " seg.jsonl", "seg.jsonl\t", "seg\n.jsonl",
                "seg\r", "a\u2028b", "a\x1cb"]
    )
    def test_paths_the_config_file_cannot_hold_rejected(self, field, bad):
        # parse_config refuses 'seg#1.jsonl' and reads ' seg.jsonl' back as
        # 'seg.jsonl'
        with pytest.raises(ParseError, match="does not survive the config file"):
            minimal_config(**{field: bad})

    def test_every_accepted_config_round_trips_through_the_config_file(
        self, tmp_path
    ):
        spaces = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
        candidates = [
            "a", "a b", "c=d", "=a", "a,b", "a, b", "dir/seg.jsonl", "ü.jsonl",
            "#a", "a # b", "", *(
                form.format(space) for space in spaces
                for form in ("a{}b", "{}a", "a{}")
            ),
        ]
        fields = ["directions", "systems", "segments_path", "hypotheses_path",
                  "ratings_path", "scores_dir"]
        accepted = 0
        for field in fields:
            for value in candidates:
                ids = field in ("directions", "systems")
                try:
                    config = minimal_config(**{field: (value, "z") if ids else value})
                except ParseError:
                    continue
                write_config(config, tmp_path / "campaign.conf")
                assert parse_config(tmp_path / "campaign.conf") == config, value
                accepted += 1
        # each field takes 6 plain values and the 19 inner spaces that are no
        # line break; a path also the 2 values with a comma
        assert accepted == 2 * (6 + 19) + 4 * (6 + 2 + 19)

    def test_ids_round_trip_through_the_config_file(self, tmp_path):
        config = minimal_config(directions=("a b", "c=d"), systems=("s 1", "s=2"))
        write_config(config, tmp_path / "campaign.conf")
        assert parse_config(tmp_path / "campaign.conf") == config

    def test_inline_comment_is_refused_at_its_line(self, tmp_path):
        # read as a value, the comment would make a system 'sysB  # two
        # systems', and the first error would blame hypotheses.jsonl
        shutil.copytree(FIXTURE, tmp_path / "campaign")
        conf = tmp_path / "campaign" / "campaign.conf"
        conf.write_text(
            conf.read_text(encoding="utf-8").replace(
                "systems = sysA, sysB\n", "systems = sysA, sysB  # two systems\n"
            ),
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match="campaign.conf:3: '#' inside a value"):
            parse_config(conf)

    @pytest.mark.parametrize(
        "edits, first",
        [
            # every key missing: the first key of the file is named
            ({key: None for key in FIXTURE_KEYS}, "missing config key 'directions'"),
            ({"directions": None, "ratios": "x"}, "missing config key 'directions'"),
            ({"ratios": "x", "seed": None},
             f"bad numeric value in config: {NOT_A_FLOAT}'x'"),
            ({"systems": None, "annotators_per_task": "x"},
             "missing config key 'systems'"),
            ({"length_unit": None, "seed": "x"}, "missing config key 'length_unit'"),
            ({"seed": "x", "segments": None},
             f"bad numeric value in config: {NOT_AN_INT}'x'"),
            ({"segments": None, "hypotheses": None}, "missing config key 'segments'"),
        ],
        ids=["no-keys", "directions-before-ratios", "ratios-before-seed",
             "systems-before-annotators", "length-unit-before-seed",
             "seed-before-segments", "segments-before-hypotheses"],
    )
    def test_the_first_problem_in_key_order_is_reported(self, tmp_path, edits, first):
        # keys are read in the order write_config writes them, so of several
        # problems the one of the earliest key is reported; None drops a key
        lines = [
            f"{key} = {edits.get(key, value)}\n"
            for key, value in FIXTURE_KEYS.items()
            if edits.get(key, value) is not None
        ]
        conf = tmp_path / "campaign.conf"
        conf.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ParseError) as info:
            parse_config(conf)
        assert str(info.value) == f"{conf}: {first}"

    def test_readme_example_config_parses(self, tmp_path):
        # the first code block of the README's "Campaign layout" section
        section = README.read_text(encoding="utf-8").split("## Campaign layout", 1)[1]
        conf = tmp_path / "campaign.conf"
        conf.write_text(section.split("```\n", 2)[1], encoding="utf-8")
        config = parse_config(conf)
        assert config.directions == ("en-zh", "zh-en")
        assert config.length_unit == "characters"
        assert config.scores_dir == "scores"

    def test_task_labels(self):
        assert Task("en-zh", 0.8).label == "en-zh.80"
        assert Task("zh-en", 0.5).label == "zh-en.50"
        assert percent_label(1 / 3) == "33.33333333"

    def test_task_is_its_direction_and_ratio_tuple(self):
        task = Task("zh-en", 0.5)
        assert Task._fields == ("direction", "ratio")
        assert (task.direction, task.ratio) == ("zh-en", 0.5)
        assert repr(task) == "Task(direction='zh-en', ratio=0.5)"
        assert task.label == "zh-en.50"
        # equal to, and hashed as, the tuple: the value a frozen dataclass
        # of these two fields hashes to
        assert task == ("zh-en", 0.5)
        assert hash(task) == hash(("zh-en", 0.5))
        assert {task: 1}[("zh-en", 0.5)] == 1
        tasks = [Task("zh-en", 0.5), Task("en-zh", 0.8), Task("en-zh", 0.5)]
        assert sorted(tasks) == [
            Task("en-zh", 0.5),
            Task("en-zh", 0.8),
            Task("zh-en", 0.5),
        ]


class TestLoadCampaign:
    def test_fixture_loads(self, campaign):
        assert len(campaign.config.systems) == 2
        assert len(campaign.config.length_ratios) == 2
        assert len(campaign.segments) == 24
        assert len(campaign.hypotheses) == 96

    def test_round_trip_identity(self, campaign, tmp_path):
        save_campaign(campaign, tmp_path)
        reloaded = load_campaign(tmp_path / "campaign.conf")
        assert reloaded == campaign

    def test_save_writes_the_fixture_byte_for_byte(self, tmp_path):
        save_campaign(load_campaign(FIXTURE / "campaign.conf"), tmp_path)

        def files(root: Path) -> dict[str, bytes]:
            return {
                path.relative_to(root).as_posix(): path.read_bytes()
                for path in root.rglob("*")
                if path.is_file()
            }

        expected, written = files(FIXTURE), files(tmp_path)
        assert sorted(written) == sorted(expected)
        assert [name for name in expected if written[name] != expected[name]] == []

    def test_unknown_seg_in_hypothesis(self, tmp_path):
        config = write_minimal_campaign(
            tmp_path,
            hyp_rows=[
                {"system_id": "s1", "seg_id": "ghost", "length_ratio": 0.8,
                 "text": "x"}
            ],
        )
        with pytest.raises(UnresolvedReference, match="ghost"):
            load_campaign(config)

    def test_ratio_not_in_config(self, tmp_path):
        config = write_minimal_campaign(
            tmp_path,
            hyp_rows=[
                {"system_id": "s1", "seg_id": "g1", "length_ratio": 0.7, "text": "x"}
            ],
        )
        with pytest.raises(ParseError, match="0.7"):
            load_campaign(config)

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_length_ratio_rejected(self, tmp_path, value):
        # 1.0 is a configured ratio, so true must not load as it
        config = write_minimal_campaign(tmp_path)
        config.write_text(
            config.read_text().replace("ratios = 0.8, 0.5", "ratios = 0.8, 0.5, 1.0"),
            encoding="utf-8",
        )
        hyp_file = tmp_path / "hypotheses.jsonl"
        lines = hyp_file.read_text().splitlines()
        record = json.loads(lines[1])
        record["length_ratio"] = value
        lines[1] = json.dumps(record)
        hyp_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"jsonl:2: bad length_ratio {value}"):
            load_campaign(config)

    def test_missing_ratings_file(self, tmp_path):
        config = write_minimal_campaign(tmp_path)
        (tmp_path / "ratings.csv").unlink()
        with pytest.raises(MissingFile):
            load_campaign(config)

    def test_duplicate_seg_id_rejected(self, tmp_path):
        config = write_minimal_campaign(tmp_path)
        seg_file = tmp_path / "segments.jsonl"
        lines = seg_file.read_text().splitlines()
        seg_file.write_text("\n".join(lines + [lines[0]]) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="duplicate seg_id"):
            load_campaign(config)

    @pytest.mark.parametrize(
        "value, expected",
        [(12, 12), (12.0, 12), ("12", 12), (3.7, None), (True, None), (False, None)],
    )
    def test_reference_length_must_be_whole(self, tmp_path, value, expected):
        config = write_minimal_campaign(tmp_path)
        seg_file = tmp_path / "segments.jsonl"
        lines = seg_file.read_text().splitlines()
        record = json.loads(lines[1])
        record["reference_length"] = value
        lines[1] = json.dumps(record)
        seg_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if expected is None:
            with pytest.raises(ParseError, match="jsonl:2: bad reference_length"):
                load_campaign(config)
        else:
            assert load_campaign(config).segments["g2"].reference_length == expected

    def test_trap_rating_system_unchecked(self, tmp_path):
        rows = [
            "u1,g1,s1,0.8,50,30.0,false",
            "u1,g1,_trap,0.8,0,10.0,true",
        ]
        config = write_minimal_campaign(tmp_path, rating_rows=rows)
        campaign = load_campaign(config)
        traps = [r for r in campaign.ratings if r.is_trap]
        assert traps[0].system_id == "_trap"
        assert traps[0].task == Task("aa-bb", 0.8)

    def test_unknown_system_in_real_rating(self, tmp_path):
        config = write_minimal_campaign(
            tmp_path, rating_rows=["u1,g1,sX,0.8,50,30.0,false"]
        )
        with pytest.raises(UnresolvedReference, match="sX"):
            load_campaign(config)


class TestRatingsByTask:
    @staticmethod
    def rebuilt(campaign) -> Campaign:
        # every record with its own Task object, equal to the loaded one
        ratings = tuple(
            replace(r, task=Task(r.task.direction, r.task.ratio))
            for r in campaign.ratings
        )
        assert ratings[0].task is not ratings[1].task
        return replace(campaign, ratings=ratings)

    def test_loaded_ratings_share_one_task_per_direction_and_ratio(self, campaign):
        tasks = {id(r.task) for r in campaign.ratings}
        assert len(tasks) == len(campaign.tasks())

    def test_groups_equal_a_scan(self, campaign):
        for camp in (campaign, self.rebuilt(campaign)):
            for task in camp.tasks():
                scan = [r for r in camp.ratings if r.task == task]
                assert scan
                assert camp.ratings_for_task(Task(task.direction, task.ratio)) == scan
            assert sum(len(g) for g in camp.ratings_by_task.values()) == len(
                camp.ratings
            )

    def test_task_without_ratings_gives_empty_list(self, campaign):
        assert campaign.ratings_for_task(Task("xx-yy", 0.8)) == []
        empty = replace(campaign, ratings=())
        assert empty.ratings_for_task(campaign.tasks()[0]) == []

    def test_returned_list_is_the_callers(self, campaign):
        task = campaign.tasks()[0]
        first = campaign.ratings_for_task(task)
        expected = list(first)
        first.clear()
        first.append(campaign.ratings[-1])
        assert campaign.ratings_for_task(task) == expected

    def test_annotator_count_warning_reads_the_groups(self, campaign):
        # drop one annotator's real ratings from one task; a trap rating by a
        # fourth annotator does not count as one
        task = campaign.tasks()[0]
        dropped = campaign.ratings_for_task(task)[0].annotator_id
        ratings = tuple(
            r
            for r in campaign.ratings
            if not (r.task == task and r.annotator_id == dropped and not r.is_trap)
        ) + (
            RatingRecord("extra", task, "x", "trap", 0, 1.0, True),
        )
        report = validate_campaign(replace(campaign, ratings=ratings))
        assert report.warnings == [
            f"task {task.label}: 2 distinct annotators, config expects 3"
        ]


class TestValidate:
    def test_fixture_complete(self, campaign):
        report = validate_campaign(campaign)
        assert report.ok
        assert report.expected_rating_count == 288  # 2*12*2*2*3
        assert report.found_rating_count == 288

    def test_zero_ratings_all_missing(self, campaign):
        empty = Campaign(
            config=campaign.config,
            segments=campaign.segments,
            hypotheses=campaign.hypotheses,
            ratings=(),
            external_scores={},
        )
        report = validate_campaign(empty)
        assert report.found_rating_count == 0
        # every (direction, ratio, seg, system) cell is missing
        assert len(report.missing_cells) == 2 * 2 * 12 * 2
        assert all(cell[4] == 0 for cell in report.missing_cells)

    def test_duplicate_rating_reported(self, campaign):
        first = campaign.ratings[0]
        dup = Campaign(
            config=campaign.config,
            segments=campaign.segments,
            hypotheses=campaign.hypotheses,
            ratings=campaign.ratings + (first,),
            external_scores={},
        )
        report = validate_campaign(dup)
        assert len(report.duplicate_cells) == 1
        annotator, direction, ratio, seg_id, system, count = report.duplicate_cells[0]
        assert (annotator, seg_id, system) == (
            first.annotator_id,
            first.seg_id,
            first.system_id,
        )
        assert count == 2

    def test_expected_formula_multiplicative(self):
        def expected_for(directions, n_segments, systems, ratios, annotators):
            segments = {}
            for d in directions:
                for i in range(n_segments):
                    seg_id = f"{d}-{i}"
                    segments[seg_id] = SegmentRecord(
                        seg_id=seg_id, direction=d, source_text="s",
                        reference_text="r",
                    )
            config = CampaignConfig(
                directions=tuple(directions),
                length_ratios=tuple(ratios),
                systems=tuple(systems),
                annotators_per_task=annotators,
                length_unit="whitespace-tokens",
                seed=1,
            )
            camp = Campaign(config, segments, {}, (), {})
            return validate_campaign(camp).expected_rating_count

        base = expected_for(["d1", "d2"], 5, ["s1", "s2"], [0.8, 0.5], 3)
        assert base == 2 * 5 * 2 * 2 * 3
        # permutation of factor lists leaves the product unchanged
        assert expected_for(["d2", "d1"], 5, ["s2", "s1"], [0.5, 0.8], 3) == base
        # multiplicative in each factor
        assert expected_for(["d1", "d2"], 5, ["s1", "s2", "s3"], [0.8, 0.5], 3) == base // 2 * 3


class TestExternalScores:
    def test_fixture_tables_dense(self, campaign):
        for task, tables in campaign.external_scores.items():
            seg_ids = campaign.segment_ids_for_direction(task.direction)
            for table in tables:
                assert set(table.cells) == {
                    (s, g) for s in campaign.config.systems for g in seg_ids
                }

    def _write(self, tmp_path, rows):
        path = tmp_path / "scores.tsv"
        path.write_text(
            "metric\tvariant\tsystem\tseg_id\tscore\n"
            + "\n".join("\t".join(r) for r in rows)
            + "\n",
            encoding="utf-8",
        )
        return path

    def test_single_complete_table(self, tmp_path):
        rows = [
            ("m", "v", sys_id, seg, "0.5")
            for sys_id in ("s1", "s2")
            for seg in ("g1", "g2", "g3")
        ]
        path = self._write(tmp_path, rows)
        tables = load_external_scores(
            path, Task("aa-bb", 0.8), systems=["s1", "s2"],
            segment_ids=["g1", "g2", "g3"],
        )
        assert len(tables) == 1
        assert len(tables[0].cells) == 6

    def test_nan_score_rejected(self, tmp_path):
        path = self._write(tmp_path, [("m", "v", "s1", "g1", "NaN")])
        with pytest.raises(NonFiniteScore):
            load_external_scores(
                path, Task("aa-bb", 0.8), systems=["s1"], segment_ids=["g1"]
            )

    def test_duplicate_cell_rejected(self, tmp_path):
        rows = [("m", "v", "s1", "g1", "0.5"), ("m", "v", "s1", "g1", "0.6")]
        path = self._write(tmp_path, rows)
        with pytest.raises(DuplicateCell):
            load_external_scores(
                path, Task("aa-bb", 0.8), systems=["s1"], segment_ids=["g1"]
            )

    def test_unknown_segment_rejected(self, tmp_path):
        path = self._write(tmp_path, [("m", "v", "s1", "ghost", "0.5")])
        with pytest.raises(UnknownSegment):
            load_external_scores(
                path, Task("aa-bb", 0.8), systems=["s1"], segment_ids=["g1"]
            )

    def test_incomplete_table_rejected(self, tmp_path):
        path = self._write(tmp_path, [("m", "v", "s1", "g1", "0.5")])
        with pytest.raises(IncompleteTable):
            load_external_scores(
                path, Task("aa-bb", 0.8), systems=["s1"], segment_ids=["g1", "g2"]
            )

    def test_thirty_nine_variant_sweep(self, tmp_path):
        rows = []
        for layer in range(13):
            for measurement in ("P", "R", "F"):
                variant = f"layer.{layer}.{measurement}"
                for sys_id in ("s1", "s2"):
                    for seg in ("g1", "g2"):
                        rows.append(("m", variant, sys_id, seg, "0.25"))
        path = self._write(tmp_path, rows)
        tables = load_external_scores(
            path, Task("aa-bb", 0.8), systems=["s1", "s2"], segment_ids=["g1", "g2"]
        )
        assert len(tables) == 39
        assert {t.variant_id for t in tables} == {
            f"layer.{i}.{m}" for i in range(13) for m in "PRF"
        }

    def test_shuffled_rows_write_back_canonical(self, campaign, tmp_path):
        # rows in any order load into the same arrays, and the writer puts
        # the canonical file back byte for byte
        task = campaign.tasks()[0]
        canonical = tmp_path / "canonical.tsv"
        write_scores_file(canonical, campaign.external_scores[task])
        header, *rows = canonical.read_text(encoding="utf-8").splitlines(True)
        random.Random(5).shuffle(rows)
        shuffled = tmp_path / "shuffled.tsv"
        shuffled.write_text(header + "".join(rows), encoding="utf-8")
        tables = load_external_scores(
            shuffled,
            task,
            systems=campaign.config.systems,
            segment_ids=campaign.segment_ids_for_direction(task.direction),
        )
        assert tables == list(campaign.external_scores[task])
        rewritten = tmp_path / "rewritten.tsv"
        write_scores_file(rewritten, tables)
        assert rewritten.read_bytes() == canonical.read_bytes()

    def test_embedded_tab_rejected(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text(
            "metric\tvariant\tsystem\tseg_id\tscore\n"
            "m\tv\ts1\tg1\textra\t0.5\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError):
            load_external_scores(
                path, Task("aa-bb", 0.8), systems=["s1"], segment_ids=["g1"]
            )


class TestScoreTable:
    TASK = Task("aa-bb", 0.8)
    CELLS = {
        ("s2", "g1"): 0.5,
        ("s1", "g2"): -1.25,
        ("s1", "g1"): 0.0,
        ("s2", "g2"): 3.0,
    }

    def table(self):
        return ScoreTable.segment_table("m", "v", self.TASK, self.CELLS)

    def test_sorted_ids_and_row_major_array(self):
        table = self.table()
        assert table.system_ids == ("s1", "s2")
        assert table.seg_ids == ("g1", "g2")
        assert table.values.dtype == np.float64
        assert table.values.tolist() == [[0.0, -1.25], [0.5, 3.0]]
        assert table.cell_keys() == sorted(self.CELLS)

    def test_sparse_grid_rejected(self):
        cells = dict(self.CELLS)
        del cells[("s2", "g1")]
        with pytest.raises(IncompleteTable, match=r"\('s2', 'g1'\)"):
            ScoreTable.segment_table("m", "v", self.TASK, cells)

    def test_cells_equal_the_dict_built_from(self):
        table = self.table()
        assert table.cells == self.CELLS
        assert list(table.cells) == sorted(self.CELLS)
        system = ScoreTable.system_table("m", "v", self.TASK, {"s2": 1.0, "s1": 2.0})
        assert system.system_ids == ("s1", "s2")
        assert system.cells == {}
        assert system.values.tolist() == [2.0, 1.0]

    def test_read_only(self):
        table = self.table()
        with pytest.raises(TypeError):
            table.cells[("s1", "g1")] = 9.0
        with pytest.raises(ValueError):
            table.values[0, 0] = 9.0
        system = ScoreTable.system_table("m", "v", self.TASK, {"s1": 2.0})
        with pytest.raises(ValueError):
            system.values[0] = 9.0

    def test_constructor_copies_its_values(self):
        values = np.array([[1.0, 2.0]])
        table = ScoreTable("m", "v", self.TASK, "segment", ["s1"], ["g1", "g2"], values)
        values[0, 0] = 9.0
        assert table.values.tolist() == [[1.0, 2.0]]
        assert values.flags.writeable

    def test_unsorted_ids_or_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            ScoreTable("m", "v", self.TASK, "segment", ["s2", "s1"], ["g1"], [1, 2])
        with pytest.raises(ValueError):
            ScoreTable("m", "v", self.TASK, "segment", ["s1"], ["g1"], [1.0, 2.0])

    def test_equality(self):
        table = self.table()
        assert table == self.table()
        changed = dict(self.CELLS)
        changed[("s1", "g1")] = 0.125
        assert table != ScoreTable.segment_table("m", "v", self.TASK, changed)
        assert table != ScoreTable.segment_table("m", "w", self.TASK, self.CELLS)
        assert table != "not a table"

    def test_equal_after_save_and_load(self, campaign, tmp_path):
        save_campaign(campaign, tmp_path)
        reloaded = load_campaign(tmp_path / "campaign.conf")
        for task, tables in campaign.external_scores.items():
            assert reloaded.external_scores[task] == tables
            for table, again in zip(tables, reloaded.external_scores[task]):
                assert again.values is not table.values
                assert again.cells == table.cells


# each headed carrier, keyed by its name in errors: its reader, its header,
# its delimiter and one well-formed row
CARRIERS = {
    "ratings": (
        lambda path: load_ratings(
            path,
            minimal_config(),
            {"g1": SegmentRecord("g1", "aa-bb", "src", "ref")},
        ),
        RATINGS_HEADER,
        ",",
        ["u1", "g1", "s1", "0.8", "50", "30.0", "false"],
    ),
    "scores": (
        lambda path: load_external_scores(
            path, Task("aa-bb", 0.8), systems=["s1"], segment_ids=["g1"]
        ),
        SCORES_HEADER,
        "\t",
        ["m", "v", "s1", "g1", "0.5"],
    ),
    "significance": (
        load_sig_matrix_csv,
        SIG_HEADER,
        ",",
        ["aa-bb", "0.8", "segment", "m1", "m2", "", "", "", "0.5000", "false", "false"],
    ),
}


@pytest.mark.parametrize("fault", ["header", "fields", "missing"])
@pytest.mark.parametrize("what", sorted(CARRIERS))
def test_one_reader_for_every_headed_carrier(tmp_path, what, fault):
    load, header, delimiter, row = CARRIERS[what]
    path = tmp_path / f"{what}.txt"
    if fault == "missing":
        with pytest.raises(MissingFile, match=f"{what} file not found: "):
            load(path)
        return
    if fault == "header":
        lines = [["bogus"] + header[1:], row]
    else:
        # the extra field sits on physical line 4, after a blank line
        lines = [header, row, [], row + ["extra"]]
    path.write_text(
        "".join(delimiter.join(line) + "\n" for line in lines), encoding="utf-8"
    )
    with pytest.raises(ParseError) as info:
        load(path)
    assert info.value.path == path
    if fault == "header":
        assert info.value.line == 1
        assert str(info.value).startswith(f"{path}:1: bad {what} header ")
    else:
        assert info.value.line == 4
        assert str(info.value) == (
            f"{path}:4: row has {len(header) + 1} fields, header has {len(header)}"
        )


class TestRatingRecordInvariants:
    def test_score_bounds_enforced_on_load(self, tmp_path):
        config = write_minimal_campaign(
            tmp_path, rating_rows=["u1,g1,s1,0.8,101,30.0,false"]
        )
        with pytest.raises(ParseError, match="101"):
            load_campaign(config)

    def test_rating_ratio_checked(self, tmp_path):
        config = write_minimal_campaign(
            tmp_path, rating_rows=["u1,g1,s1,0.9,50,30.0,false"]
        )
        with pytest.raises(ParseError, match="0.9"):
            load_campaign(config)

    @pytest.mark.parametrize("duration", ["nan", "inf", "-inf", "-1.0"])
    def test_duration_must_be_finite_and_non_negative(self, tmp_path, duration):
        config = write_minimal_campaign(
            tmp_path,
            rating_rows=["u1,g1,s1,0.8,50,30.0,false",
                         f"u1,g2,s1,0.8,50,{duration},false"],
        )
        with pytest.raises(ParseError) as exc:
            load_campaign(config)
        assert exc.value.path == tmp_path / "ratings.csv"
        assert exc.value.line == 3
        assert f"ratings.csv:3: duration '{duration}'" in str(exc.value)


def test_load_and_validate_do_not_import_numpy_random(fixture_config_path):
    """Only runs that draw pay for importing numpy.random: importing the
    package, loading and validating a campaign leave it out.  Where numpy
    itself imports it (numpy 1.x does, 2.x loads it lazily) there is nothing
    to guard."""
    import lcmteval

    code = (
        "import sys\n"
        "import numpy\n"
        "if 'numpy.random' in sys.modules:\n"
        "    sys.exit('numpy imports numpy.random')\n"
        "from lcmteval import load_campaign, validate_campaign\n"
        "validate_campaign(load_campaign(sys.argv[1]))\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    src = Path(lcmteval.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code, str(fixture_config_path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
    )
    if result.stderr.strip() == "numpy imports numpy.random":
        pytest.skip("import numpy alone loads numpy.random")
    assert result.returncode == 0, result.stderr


def _fields(**changes):
    """A JSON-lines edit: set each field, or drop it where the value is None."""

    def edit(line: str) -> str:
        obj = {**json.loads(line), **changes}
        return json.dumps({k: v for k, v in obj.items() if v is not None})

    return edit


def _column(index: int, value: str, delimiter: str = ","):
    """A CSV or TSV edit: replace one field of the row."""

    def edit(line: str) -> str:
        row = line.split(delimiter)
        row[index] = value
        return delimiter.join(row)

    return edit


SCORES_FILE = "scores/en-zh.80.tsv"

# (file of the fixture, line, edit of that line, error, message); {path} is
# the edited file and {dir} the campaign directory.  Every message of a
# ParseError starts with its file and, where it has one, its line.
LOADER_REFUSALS = [
    pytest.param("campaign.conf", 1, "directions = ", ParseError,
                 "{path}: config needs at least one direction",
                 id="config-no-direction"),
    pytest.param("campaign.conf", 1, "directions = en-zh, en-zh", ParseError,
                 "{path}: directions must be unique", id="config-repeated-direction"),
    pytest.param("campaign.conf", 3, "systems = ,", ParseError,
                 "{path}: config needs at least one system", id="config-no-system"),
    pytest.param("campaign.conf", 6, f"seed = {2**64}", ParseError,
                 "{path}: seed must fit in 64 unsigned bits",
                 id="config-seed-past-64-bits"),
    pytest.param("campaign.conf", 5, "length_unit characters", ParseError,
                 "{path}:5: expected 'key = value'", id="config-no-equals"),
    pytest.param("campaign.conf", 10, "seed = 7", ParseError,
                 "{path}:10: duplicate config key 'seed'", id="config-duplicate-key"),
    pytest.param("campaign.conf", 6, "# seed = 20250810", ParseError,
                 "{path}: missing config key 'seed'", id="config-missing-key"),
    pytest.param("campaign.conf", 4, "annotators_per_task = three", ParseError,
                 "{path}: bad numeric value in config: " + NOT_AN_INT + "'three'",
                 id="config-bad-number"),
    pytest.param("campaign.conf", 7, "segments = nowhere.jsonl", MissingFile,
                 "data file not found: {dir}/nowhere.jsonl", id="jsonl-missing-file"),
    pytest.param("segments.jsonl", 3, "not json", ParseError,
                 "{path}:3: bad JSON: Expecting value: line 1 column 1 (char 0)",
                 id="jsonl-bad-json"),
    pytest.param("segments.jsonl", 3, "[1, 2]", ParseError,
                 "{path}:3: expected a JSON object", id="jsonl-not-an-object"),
    pytest.param("hypotheses.jsonl", 3, lambda line: "\n  \n" + line, None, None,
                 id="jsonl-blank-lines-skipped"),
    pytest.param("segments.jsonl", 2, _fields(source_text=None), ParseError,
                 "{path}:2: missing field 'source_text'", id="segment-missing-field"),
    pytest.param("segments.jsonl", 2, _fields(direction="xx-yy"), ParseError,
                 "{path}:2: direction 'xx-yy' not in config",
                 id="segment-unknown-direction"),
    pytest.param("segments.jsonl", 2, _fields(reference_text=""), ParseError,
                 "{path}:2: segment 'ez01' has empty text", id="segment-empty-text"),
    pytest.param("segments.jsonl", 2, _fields(reference_length=-1), ParseError,
                 "{path}:2: segment 'ez01' has negative reference_length",
                 id="segment-negative-reference-length"),
    pytest.param("hypotheses.jsonl", 2, _fields(text=None), ParseError,
                 "{path}:2: missing field 'text'", id="hypothesis-missing-field"),
    pytest.param("hypotheses.jsonl", 2, _fields(system_id="sysZ"), UnresolvedReference,
                 "{path}:2: hypothesis references unknown system 'sysZ'",
                 id="hypothesis-unknown-system"),
    pytest.param("hypotheses.jsonl", 2, _fields(length_ratio=0.5), ParseError,
                 "{path}:2: duplicate hypothesis for ('sysA', 'ez00', 0.5)",
                 id="hypothesis-duplicate"),
    pytest.param("ratings.csv", 3, _column(1, "zz99"), UnresolvedReference,
                 "{path}:3: rating references unknown seg_id 'zz99'",
                 id="rating-unknown-seg-id"),
    pytest.param("ratings.csv", 3, _column(4, "high"), ParseError,
                 "{path}:3: bad numeric field: " + NOT_AN_INT + "'high'",
                 id="rating-bad-number"),
    pytest.param("ratings.csv", 3, _column(6, "maybe"), ParseError,
                 "{path}:3: bad is_trap value 'maybe'", id="rating-bad-is-trap"),
    pytest.param(SCORES_FILE, 3, _column(0, "", "\t"), ParseError,
                 "{path}:3: empty metric name", id="scores-empty-metric-name"),
    pytest.param(SCORES_FILE, 3, _column(2, "sysZ", "\t"), UnresolvedReference,
                 "{path}:3: unknown system 'sysZ'", id="scores-unknown-system"),
    pytest.param(SCORES_FILE, 3, _column(4, "high", "\t"), ParseError,
                 "{path}:3: bad score: " + NOT_A_FLOAT + "'high'",
                 id="scores-bad-score"),
]


def _edited_fixture(tmp_path: Path, name: str, line: int, edit) -> Path:
    """A copy of the fixture campaign in ``tmp_path`` whose file ``name``
    has ``line`` replaced by ``edit`` (a string, or a function of the line)."""
    shutil.copytree(FIXTURE, tmp_path, dirs_exist_ok=True)
    path = tmp_path / name
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[line - 1] = edit(lines[line - 1]) if callable(edit) else edit
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("name, line, edit, error, message", LOADER_REFUSALS)
def test_each_loader_refusal_names_its_cause_and_line(
    tmp_path, campaign, name, line, edit, error, message
):
    path = _edited_fixture(tmp_path, name, line, edit)
    if error is None:
        assert load_campaign(tmp_path / "campaign.conf") == campaign
        return
    with pytest.raises(error) as info:
        load_campaign(tmp_path / "campaign.conf")
    assert type(info.value) is error
    assert str(info.value) == message.format(path=path, dir=tmp_path)


@pytest.mark.parametrize(
    "name, line, edit, error, message",
    [case for case in LOADER_REFUSALS
     if case.id in ("config-missing-key", "jsonl-bad-json", "scores-unknown-system")],
)
def test_validate_exits_2_on_a_loader_refusal(
    tmp_path, capsys, name, line, edit, error, message
):
    from lcmteval.cli import main

    path = _edited_fixture(tmp_path, name, line, edit)
    assert main(["validate", str(tmp_path / "campaign.conf")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(path=path, dir=tmp_path)}\n"
