import importlib.util
import json
import logging
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from lcmteval.corpus import (
    Campaign,
    CampaignConfig,
    HypothesisRecord,
    SegmentRecord,
    Task,
    save_campaign,
)
from lcmteval.errors import EmptyCorpus
from lcmteval.pipeline import (
    BLEU_ID,
    BLEU_STAR_ID,
    LENGTH_DEV_ID,
    ROUGE_METRICS,
    PipelineState,
    open_state,
    run_pipeline,
    score_tables_for_task,
)
from lcmteval.metaeval import hybrid_supersample, pearson
from lcmteval.metrics import (
    LengthRecord,
    bleu_stats,
    corpus_bleu,
    expected_length,
    length_deviation,
    rouge_l,
    rouge_n,
    scheme_for_direction,
    tokenize,
)
from lcmteval.seeding import integer_rows

from .oracles import SUM_LEFT_TO_RIGHT, bleu_from_stats_scalar, read_csv_table

GOLDEN = Path(__file__).parent / "goldens" / "fixture_manifest.json"
GOLDEN_SEGMENT = Path(__file__).parent / "goldens" / "fixture_manifest_segment.json"
GOLDEN_PAPER = Path(__file__).parent / "goldens" / "paper_manifest.json"
CAMPAIGN_GEN = Path(__file__).resolve().parents[1] / "perfbench" / "campaign_gen.py"


def by_system(table):
    """A system-only table's scores by system id."""
    return dict(zip(table.system_ids, table.values.tolist()))


def echo_campaign():
    """Two systems that copy the reference verbatim (one direction, one ratio)."""
    config = CampaignConfig(
        directions=("aa-bb",),
        length_ratios=(1.0,),
        systems=("s1", "s2"),
        annotators_per_task=1,
        length_unit="whitespace-tokens",
        seed=3,
    )
    segments = {}
    hypotheses = {}
    texts = [
        "the quick brown fox jumps over it",
        "a small boat drifts along the shore",
        "every good line needs four tokens more",
    ]
    for i, text in enumerate(texts):
        seg_id = f"g{i}"
        segments[seg_id] = SegmentRecord(
            seg_id=seg_id, direction="aa-bb", source_text="src",
            reference_text=text,
        )
        for system in config.systems:
            hypotheses[(system, seg_id, 1.0)] = HypothesisRecord(
                system_id=system, seg_id=seg_id, length_ratio=1.0, text=text
            )
    return Campaign(config, segments, hypotheses, (), {})


class TestScoreTables:
    def test_echo_campaign_scores_perfect(self):
        campaign = echo_campaign()
        tables = {t.metric_id: t for t in score_tables_for_task(campaign, Task("aa-bb", 1.0)).tables}
        for metric in ROUGE_METRICS:
            assert set(tables[metric].cells.values()) == {1.0}
        assert set(tables[BLEU_ID].values.tolist()) == {1.0}
        assert set(tables[BLEU_STAR_ID].values.tolist()) == {1.0}
        assert set(tables[LENGTH_DEV_ID].cells.values()) == {0.0}

    def test_direction_without_segments_is_an_empty_corpus(self):
        campaign = echo_campaign()
        campaign = replace(
            campaign,
            config=replace(campaign.config, directions=("aa-bb", "aa-cc")),
        )
        with pytest.raises(EmptyCorpus):
            score_tables_for_task(campaign, Task("aa-cc", 1.0))

    def test_fixture_bleu_star_dominates(self, campaign):
        for task in campaign.tasks():
            tables = {
                t.metric_id: t for t in score_tables_for_task(campaign, task).tables
            }
            bleu, star = by_system(tables[BLEU_ID]), by_system(tables[BLEU_STAR_ID])
            for system in campaign.config.systems:
                assert star[system] >= bleu[system]

    def test_table_shapes(self, campaign):
        task = campaign.tasks()[0]
        tables = score_tables_for_task(campaign, task).tables
        seg_level = [t for t in tables if t.level == "segment"]
        sys_level = [t for t in tables if t.level == "system"]
        assert len(seg_level) == 10  # 9 ROUGE + length deviation
        assert {t.metric_id for t in sys_level} == {BLEU_ID, BLEU_STAR_ID}
        n_cells = len(campaign.config.systems) * 12
        assert all(len(t.cells) == n_cells for t in seg_level)

    def test_hybrid_bleu_matches_corpus_bleu_of_its_hypotheses(self, campaign):
        # every hybrid's BLEU and BLEU*, from summed statistics, equal corpus
        # BLEU re-run over the hypotheses that hybrid selects, whatever the
        # order of the systems in the config
        reversed_systems = tuple(reversed(campaign.config.systems))
        reordered = replace(
            campaign, config=replace(campaign.config, systems=reversed_systems)
        )
        for camp in (campaign, reordered):
            for task in camp.tasks():
                self._check_hybrid_bleu(camp, task)

    @staticmethod
    def _check_hybrid_bleu(campaign, task):
        native = score_tables_for_task(campaign, task)
        bleu_tables = [t for t in native.tables if t.level == "system"]
        human = {
            (s, g): 0.0
            for s in campaign.config.systems
            for g in campaign.segment_ids_for_direction(task.direction)
        }
        selectors, vectors, _ = hybrid_supersample(
            bleu_tables, human, 50, seed=17, corpus_scorer=native.corpus_scorer
        )
        scheme = scheme_for_direction(task.direction)
        n_real = len(campaign.config.systems)
        for i, sel in enumerate(selectors):
            seg_ids = sorted(sel.choices)
            score = corpus_bleu(
                [
                    tokenize(
                        campaign.hypothesis(sel.choices[g], g, task.ratio).text, scheme
                    )
                    for g in seg_ids
                ],
                [tokenize(campaign.segments[g].reference_text, scheme) for g in seg_ids],
            )
            assert vectors[(BLEU_ID, "-")].values[n_real + i] == score.bleu
            assert vectors[(BLEU_STAR_ID, "-")].values[n_real + i] == score.bleu_star

    @pytest.mark.skipif(not SUM_LEFT_TO_RIGHT, reason="sum() compensates from 3.12")
    def test_hybrid_bleu_equals_the_scalar_oracle(self, campaign):
        # all 1000 hybrids of one task, bit for bit, against the scalar finish
        # of each row's summed statistics
        task = campaign.tasks()[0]
        native = score_tables_for_task(campaign, task)
        cells = native.bleu_stats.tolist()
        index_rows, _ = integer_rows(
            campaign.config.seed, f"hybrid:{task.label}", 1000, len(cells), len(cells[0])
        )
        scores = native.corpus_scorer(index_rows)
        for i, row in enumerate(index_rows.tolist()):
            picked = [cells[s][g] for g, s in enumerate(row)]
            want = bleu_from_stats_scalar([sum(column) for column in zip(*picked)])
            assert scores[(BLEU_ID, "-")][i].hex() == want.bleu.hex()
            assert scores[(BLEU_STAR_ID, "-")][i].hex() == want.bleu_star.hex()

    @pytest.mark.parametrize("block", [1, 7 * 12 * 10])
    def test_hybrid_bleu_gathered_in_row_chunks(self, campaign, monkeypatch, block):
        # one hybrid row per chunk, then 7 rows of 12 segments x 10 statistics
        # per chunk with 6 left for the last: the same sums, the same scores,
        # as one gather of all 1000 rows
        import lcmteval.pipeline as pipeline_module

        task = campaign.tasks()[0]
        native = score_tables_for_task(campaign, task)
        n_systems, n_segments, width = native.bleu_stats.shape
        assert (n_segments, width) == (12, 10)
        index_rows, _ = integer_rows(3, "chunks", 1000, n_systems, n_segments)
        whole = native.corpus_scorer(index_rows)
        monkeypatch.setattr(pipeline_module, "_BLOCK", block)
        chunked = native.corpus_scorer(index_rows)
        for key, values in whole.items():
            assert chunked[key].tolist() == values.tolist()

    def test_hybrid_bleu_peak_memory_bounded(self, campaign):
        # each chunk is finished before the next is gathered, so 60,000
        # hybrids of one fixture task take no more than two 8-byte scores
        # each plus one chunk's working set
        task = campaign.tasks()[0]
        native = score_tables_for_task(campaign, task)
        n_systems, n_segments, _ = native.bleu_stats.shape
        index_rows, _ = integer_rows(5, "peak", 60_000, n_systems, n_segments)
        tracemalloc.start()
        try:
            native.corpus_scorer(index_rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_echo_length_deviation_zero(self, tmp_path):
        state = PipelineState(echo_campaign())
        (table,) = [
            t for t in state.natives[Task("aa-bb", 1.0)].tables
            if t.metric_id == LENGTH_DEV_ID
        ]
        assert set(table.cells.values()) == {0.0}
        (path,) = state.emit_length_deviation(tmp_path)
        header, rows = read_csv_table(path)
        assert rows == [["s1", "0.0000"], ["s2", "0.0000"]]

    def test_length_deviation_means_equal_metric(self, campaign, tmp_path, monkeypatch):
        # the emitted per-system means are metrics.length_deviation, bit for bit
        monkeypatch.setattr("lcmteval.pipeline.fmt4", repr)
        (path,) = PipelineState(campaign).emit_length_deviation(tmp_path)
        header, rows = read_csv_table(path)
        tasks = campaign.tasks()
        for system, *cells in rows:
            for task, cell in zip(tasks, cells):
                records = [
                    LengthRecord(
                        output_len=campaign.hypothesis_length(
                            campaign.hypothesis(system, seg.seg_id, task.ratio)
                        ),
                        expect_len=max(
                            expected_length(
                                task.ratio, campaign.reference_length(seg)
                            ),
                            1,
                        ),
                    )
                    for seg in campaign.segments_for_direction(task.direction)
                ]
                assert float(cell) == length_deviation(records)

    @pytest.mark.parametrize(
        "unit", ["characters", "whitespace-tokens", "provided-counts"]
    )
    def test_length_deviation_counts_scored_tokens_when_units_agree(
        self, campaign, unit, monkeypatch
    ):
        # a hypothesis is tokenised a second time, in the length unit, only
        # where that unit does not tokenise like the scoring scheme; every
        # cell still equals the length measured in the unit
        import lcmteval.corpus as corpus_module

        campaign = replace(campaign, config=replace(campaign.config, length_unit=unit))
        hypothesis_texts = {record.text for record in campaign.hypotheses.values()}
        calls = []
        real_tokenize = corpus_module.tokenize

        def counting_tokenize(text, scheme):
            if text in hypothesis_texts:
                calls.append(text)
            return real_tokenize(text, scheme)

        monkeypatch.setattr(corpus_module, "tokenize", counting_tokenize)
        for task in campaign.tasks():
            calls.clear()
            native = score_tables_for_task(campaign, task)
            scheme = scheme_for_direction(task.direction)
            agree = {
                "characters": scheme == "character",
                "whitespace-tokens": scheme == "whitespace",
                "provided-counts": True,
            }[unit]
            assert len(calls) == (0 if agree else 24)
            (table,) = [t for t in native.tables if t.metric_id == LENGTH_DEV_ID]
            for seg in campaign.segments_for_direction(task.direction):
                reference_length = campaign.reference_length(seg)
                target = max(expected_length(task.ratio, reference_length), 1)
                for system in campaign.config.systems:
                    record = campaign.hypothesis(system, seg.seg_id, task.ratio)
                    out_len = campaign.hypothesis_length(record)
                    expected = abs(out_len - target) / target
                    assert table.cells[(system, seg.seg_id)] == expected

    @pytest.mark.parametrize("provided", [False, True])
    def test_reference_length_taken_from_scored_tokens(
        self, campaign, provided, monkeypatch
    ):
        # on en-zh the character length unit tokenises like the scoring
        # scheme, so no reference is measured again; under provided-counts a
        # segment's own reference_length still sets the target
        import lcmteval.corpus as corpus_module

        if provided:
            segments = {
                g: replace(seg, reference_length=len(g) + 3)
                for g, seg in campaign.segments.items()
            }
            config = replace(campaign.config, length_unit="provided-counts")
            campaign = replace(campaign, segments=segments, config=config)
        references = {seg.reference_text for seg in campaign.segments.values()}
        measured = []
        real_measure = corpus_module.measure_length

        def counting_measure(text, unit, direction):
            if text in references:
                measured.append(text)
            return real_measure(text, unit, direction)

        monkeypatch.setattr(corpus_module, "measure_length", counting_measure)
        tasks = [t for t in campaign.tasks() if t.direction == "en-zh"]
        assert tasks
        for task in tasks:
            native = score_tables_for_task(campaign, task)
            (table,) = [t for t in native.tables if t.metric_id == LENGTH_DEV_ID]
            for seg in campaign.segments_for_direction(task.direction):
                if provided:
                    length = seg.reference_length
                else:
                    length = len(tokenize(seg.reference_text, "character"))
                target = max(expected_length(task.ratio, length), 1)
                for system in campaign.config.systems:
                    record = campaign.hypothesis(system, seg.seg_id, task.ratio)
                    out_len = len(tokenize(record.text, "character"))
                    expected = abs(out_len - target) / target
                    assert table.cells[(system, seg.seg_id)] == expected
        assert measured == []

    def test_system_stage_logs_one_line_per_task(self, campaign, caplog):
        state = PipelineState(campaign, hybrids=20)
        state.human_by_task, state.natives  # they log their own lines
        with caplog.at_level(logging.INFO, logger="lcmteval.pipeline"):
            state.system_stage
        messages = [
            r.getMessage() for r in caplog.records if r.name == "lcmteval.pipeline"
        ]
        tasks = campaign.tasks()
        assert len(messages) == len(tasks) + 1
        for task, message in zip(tasks, messages):
            # 11 native tables without LengthDev, plus neuralA's three
            # variants and neuralB; 2 systems never take a rejection branch
            assert message.startswith(
                f"hybrid pass {task.label}: 15 tables (11 native, 4 external), "
                "K=20 hybrids drawn in one call (0 redrawn one by one), "
            )
        # the system stage reads the selections, which log their own line
        assert messages[-1].startswith(
            "variant selection: 2 metrics, 4 variants, system level, "
        )
        assert all(message.endswith(" s") for message in messages)

    def test_human_aggregation_and_native_scores_log_work_at_info(
        self, campaign, caplog
    ):
        state = PipelineState(campaign)
        with caplog.at_level(logging.INFO, logger="lcmteval.pipeline"):
            state.human_by_task
            state.natives
        messages = [
            r.getMessage() for r in caplog.records if r.name == "lcmteval.pipeline"
        ]
        tasks = campaign.tasks()
        assert len(messages) == 1 + len(tasks)
        # 2 systems x 12 segments per direction rated by 3 annotators per
        # task, plus 48 trap ratings left out of the z-scores
        assert messages[0].startswith(
            "human aggregation: 336 ratings (288 normalised), 96 cells over 4 tasks, "
        )
        for task, message in zip(tasks, messages[1:]):
            # every distinct n-gram of orders 1-4 over the task's 36 texts
            scheme = scheme_for_direction(task.direction)
            seg_ids = campaign.segment_ids_for_direction(task.direction)
            texts = [
                tokenize(campaign.segments[g].reference_text, scheme).tokens
                for g in seg_ids
            ] + [
                tokenize(campaign.hypothesis(s, g, task.ratio).text, scheme).tokens
                for s in campaign.config.systems
                for g in seg_ids
            ]
            distinct = sum(
                len({text[i : i + n] for text in texts for i in range(len(text) - n + 1)})
                for n in range(1, 5)
            )
            assert message.startswith(
                f"native scores {task.label}: 24 cells against 12 references, "
                f"{distinct} distinct n-grams of orders 1-4 counted in one array "
                "pass, "
            )
        assert all(message.endswith(" s") for message in messages)

    def test_one_hybrid_draw_set_per_task(self, campaign, monkeypatch):
        # one integer_rows call per task draws all K index rows
        import lcmteval.metaeval as metaeval_module

        calls = []
        real_integer_rows = metaeval_module.integer_rows

        def counting_integer_rows(master_seed, tag, k, high, size):
            calls.append((master_seed, tag, k))
            return real_integer_rows(master_seed, tag, k, high, size)

        monkeypatch.setattr(metaeval_module, "integer_rows", counting_integer_rows)
        state = PipelineState(campaign, hybrids=20)
        state.selections
        state.system_stage
        assert len(calls) == len(campaign.tasks())
        assert all(k == 20 for _, _, k in calls)
        assert len(set(calls)) == len(calls)

    def test_hybrid_pass_equals_separate_calls(self, campaign):
        # one pass per task gives the selections and the system stage what
        # one call per external metric and one native call give
        k, seed = 37, 11
        state = PipelineState(campaign, hybrids=k, seed=seed)
        sys_vectors, human_vectors = state.system_stage
        for selection in state.selections:
            variants = state.external_variants[selection.metric_id]
            for t in state.tasks:
                _, vectors, human_vec = hybrid_supersample(
                    [per_task[t] for per_task in variants.values()],
                    state.human_by_task[t],
                    k,
                    seed,
                )
                per_variant = {
                    v: pearson(human_vec.values, vectors[per_task[t].key].values).value
                    for v, per_task in variants.items()
                }
                assert selection.per_task[t] == per_variant[selection.variant_id]
                assert per_variant[selection.variant_id] == max(per_variant.values())
                chosen = variants[selection.variant_id][t]
                assert (
                    sys_vectors[t][chosen.display_name()].tolist()
                    == vectors[chosen.key].values
                )
                assert human_vectors[t].tolist() == human_vec.values
        for t in state.tasks:
            native = score_tables_for_task(campaign, t)
            tables = [tb for tb in native.tables if tb.metric_id != LENGTH_DEV_ID]
            _, vectors, human_vec = hybrid_supersample(
                tables,
                state.human_by_task[t],
                k,
                seed,
                corpus_scorer=native.corpus_scorer,
            )
            for tb in tables:
                vector = sys_vectors[t][tb.display_name()]
                assert vector.tolist() == vectors[tb.key].values
            assert human_vectors[t].tolist() == human_vec.values

    def test_significance_and_comparison_log_work_at_info(
        self, campaign, caplog, tmp_path
    ):
        state = PipelineState(campaign, hybrids=20, bootstrap=30)
        state.system_stage
        with caplog.at_level(logging.INFO, logger="lcmteval.pipeline"):
            state.emit_sig_system(tmp_path)
            state.emit_system_eval(tmp_path)
        messages = [
            r.getMessage() for r in caplog.records if r.name == "lcmteval.pipeline"
        ]
        tasks = campaign.tasks()
        assert len(messages) == len(tasks) + 1
        for task, message in zip(tasks, messages):
            # 13 tables of the system stage, 2 real systems + K = 20 hybrids
            assert message.startswith(
                f"system significance {task.label}: 13 metrics, 156 ordered pairs, "
                "n=22 systems, "
            )
            assert message.endswith(" s")
        # 9 ROUGE variants, neuralA and neuralB
        assert messages[-1].startswith(
            f"system comparison: {len(tasks)} tasks, 11 metrics, B=30 resamples, "
        )
        assert messages[-1].endswith(" s")

    def test_load_validation_qc_agreement_and_selection_log_at_info(
        self, fixture_config_path, caplog, tmp_path
    ):
        with caplog.at_level(logging.INFO, logger="lcmteval.pipeline"):
            run_pipeline(
                fixture_config_path,
                tmp_path,
                hybrids=20,
                permutations=10,
                bootstrap=20,
                level="segment",
            )
        messages = [
            r.getMessage() for r in caplog.records if r.name == "lcmteval.pipeline"
        ]
        # 2 x 12 segments, 2 systems x 2 ratios per segment, 336 ratings with
        # 48 traps, 384 external cells (4 variants x 4 tasks x 24 cells); the
        # agreement line counts the pairable items of its 8 rows
        _, rows = read_csv_table(tmp_path / "agreement.csv")
        items = sum(int(row[-1]) for row in rows)
        for prefix in (
            "campaign load: 24 segments, 96 hypotheses, 336 ratings, 384 external "
            "score cells, ",
            "campaign validation: 288 of 288 expected ratings found, 0 missing and "
            "0 duplicate cells, 48 trap ratings (excluded from the grid), ",
            "qc: 4 tasks, 336 ratings, timing cutoff 600 s, ",
            f"agreement: 4 tasks, with and without traps, {items} pairable items "
            "(one item table per task and trap setting), ",
            "variant selection: 2 metrics, 4 variants, segment level, ",
        ):
            (line,) = [m for m in messages if m.startswith(prefix)]
            assert line.endswith(" s")

    def test_composition_matches_direct_metric_calls(self, campaign):
        # the task tables must equal metric calls composed by hand
        from lcmteval.metrics import rouge_l, rouge_n

        task = Task("en-zh", 0.8)
        scheme = scheme_for_direction(task.direction)
        tables = {t.metric_id: t for t in score_tables_for_task(campaign, task).tables}
        seg_ids = campaign.segment_ids_for_direction(task.direction)

        for system in campaign.config.systems:
            hyps, refs = [], []
            for seg_id in seg_ids:
                hyp = tokenize(campaign.hypothesis(system, seg_id, 0.8).text, scheme)
                ref = tokenize(campaign.segments[seg_id].reference_text, scheme)
                hyps.append(hyp)
                refs.append(ref)
                r1 = rouge_n(hyp, ref, 1)
                assert tables["ROUGE1-P"].cells[(system, seg_id)] == r1.precision
                assert tables["ROUGE1-R"].cells[(system, seg_id)] == r1.recall
                r2 = rouge_n(hyp, ref, 2)
                assert tables["ROUGE2-F1"].cells[(system, seg_id)] == r2.f1
                rl = rouge_l(hyp, ref)
                assert tables["ROUGEL-F1"].cells[(system, seg_id)] == rl.f1
            bleu = corpus_bleu(hyps, refs)
            assert by_system(tables[BLEU_ID])[system] == bleu.bleu
            assert by_system(tables[BLEU_STAR_ID])[system] == bleu.bleu_star


def generated_campaign(
    segments: int, systems: int, seed: int, variants=()
) -> Campaign:
    """A campaign from the benchmark's generator: two directions (one
    character-scored), repetitive text over a small vocabulary, and one
    external metric per (name, variant count) of ``variants``."""
    spec = importlib.util.spec_from_file_location("campaign_gen", CAMPAIGN_GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_campaign(segments, systems, list(variants), seed)


@pytest.fixture(scope="module", params=["fixture", "generated", "unsorted-systems"])
def scored_campaign(request, campaign):
    if request.param == "fixture":
        return campaign
    generated = generated_campaign(segments=6, systems=5, seed=5)
    if request.param == "generated":
        return generated
    # config order is not sorted order: sys01, sys03, sys00, sys04, sys02
    systems = tuple(generated.config.systems[i] for i in (1, 3, 0, 4, 2))
    return replace(generated, config=replace(generated.config, systems=systems))


class TestNativeScoresEqualPairwiseCalls:
    # the native stage counts each text once; every number must equal the
    # pairwise library call on that cell's tokens, exactly

    @staticmethod
    def _tokens(campaign, task):
        scheme = scheme_for_direction(task.direction)
        seg_ids = sorted(campaign.segment_ids_for_direction(task.direction))
        refs = {
            g: tokenize(campaign.segments[g].reference_text, scheme) for g in seg_ids
        }
        hyps = {
            (s, g): tokenize(campaign.hypothesis(s, g, task.ratio).text, scheme)
            for s in campaign.config.systems
            for g in seg_ids
        }
        return seg_ids, refs, hyps

    def test_rouge_cells(self, scored_campaign):
        for task in scored_campaign.tasks():
            tables = {
                t.metric_id: t
                for t in score_tables_for_task(scored_campaign, task).tables
            }
            _, refs, hyps = self._tokens(scored_campaign, task)
            for (system, g), hyp in hyps.items():
                for prefix, score in (
                    ("ROUGE1", rouge_n(hyp, refs[g], 1)),
                    ("ROUGE2", rouge_n(hyp, refs[g], 2)),
                    ("ROUGEL", rouge_l(hyp, refs[g])),
                ):
                    assert tables[f"{prefix}-P"].cells[(system, g)] == score.precision
                    assert tables[f"{prefix}-R"].cells[(system, g)] == score.recall
                    assert tables[f"{prefix}-F1"].cells[(system, g)] == score.f1

    def test_system_bleu_equals_corpus_bleu(self, scored_campaign):
        for task in scored_campaign.tasks():
            tables = {
                t.metric_id: t
                for t in score_tables_for_task(scored_campaign, task).tables
            }
            seg_ids, refs, hyps = self._tokens(scored_campaign, task)
            for system in scored_campaign.config.systems:
                score = corpus_bleu(
                    [hyps[(system, g)] for g in seg_ids], [refs[g] for g in seg_ids]
                )
                assert by_system(tables[BLEU_ID])[system] == score.bleu
                assert by_system(tables[BLEU_STAR_ID])[system] == score.bleu_star

    def test_statistics_rows_equal_cell_bleu_stats(self, scored_campaign):
        for task in scored_campaign.tasks():
            native = score_tables_for_task(scored_campaign, task)
            seg_ids, refs, hyps = self._tokens(scored_campaign, task)
            systems = sorted(scored_campaign.config.systems)
            assert native.bleu_stats.shape == (len(systems), len(seg_ids), 10)
            for row, system in zip(native.bleu_stats.tolist(), systems):
                assert row == [
                    list(bleu_stats(hyps[(system, g)], refs[g])) for g in seg_ids
                ]


def golden_run(config_path, golden_path, tmp_path_factory):
    out = tmp_path_factory.mktemp(golden_path.stem)
    golden = json.loads(golden_path.read_text())
    run_pipeline(config_path, out, **golden["flags"])
    return out


@pytest.fixture(scope="module")
def run_dir(fixture_config_path, tmp_path_factory):
    return golden_run(fixture_config_path, GOLDEN, tmp_path_factory)


@pytest.fixture(scope="module")
def segment_run_dir(fixture_config_path, tmp_path_factory):
    """A run at segment-level variant selection."""
    return golden_run(fixture_config_path, GOLDEN_SEGMENT, tmp_path_factory)


@pytest.fixture(scope="module")
def paper_run_dir(tmp_path_factory):
    """A run of the paper-shaped campaign its golden names (4 systems, 100
    segments per direction, 17 segment-level metrics over 400 cells per
    task), so the multi-tile permutation kernel, the chunked hybrid gathers
    and 17-metric matrices are pinned byte for byte."""
    spec = json.loads(GOLDEN_PAPER.read_text())["campaign"]
    campaign = generated_campaign(
        spec["segments"], spec["systems"], spec["seed"], spec["variants"].items()
    )
    directory = tmp_path_factory.mktemp("paper_campaign")
    save_campaign(campaign, directory)
    return golden_run(directory / "campaign.conf", GOLDEN_PAPER, tmp_path_factory)


def display_name(metric: str, variant: str) -> str:
    return metric if variant == "-" else f"{metric}.{variant}"


class TestRunArtifacts:
    def test_digests_match_committed_goldens(self, run_dir, segment_run_dir):
        for out, path in ((run_dir, GOLDEN), (segment_run_dir, GOLDEN_SEGMENT)):
            golden = json.loads(path.read_text())
            manifest = json.loads((out / "manifest.json").read_text())
            produced = {f["name"]: f["sha256"] for f in manifest["files"]}
            assert produced == golden["files"], path.name

    def test_paper_digests_match_committed_golden(self, paper_run_dir):
        golden = json.loads(GOLDEN_PAPER.read_text())
        manifest = json.loads((paper_run_dir / "manifest.json").read_text())
        assert manifest["config_digest"] == golden["config_digest"]
        produced = {f["name"]: f["sha256"] for f in manifest["files"]}
        assert produced == golden["files"]

    def test_reports_cover_the_same_metrics(self, run_dir, segment_run_dir, campaign):
        for out in (run_dir, segment_run_dir):
            _, rows = read_csv_table(out / "correlations_system.csv")
            system = [(row[0], row[1]) for row in rows]
            _, rows = read_csv_table(out / "correlations_segment.csv")
            segment = [(row[0], row[1]) for row in rows]
            _, rows = read_csv_table(out / "system_eval.csv")
            assert list(dict.fromkeys((row[0], row[1]) for row in rows)) == segment
            # the segment-level set is the system-level one without the
            # system-only corpus BLEU scores
            assert segment == [m for m in system if m[0] not in (BLEU_ID, BLEU_STAR_ID)]
            assert LENGTH_DEV_ID not in {metric for metric, _ in system}
            for task in campaign.tasks():
                for level, metrics in (("system", system), ("segment", segment)):
                    _, rows = read_csv_table(out / f"sig_{level}_{task.label}.csv")
                    names = {row[3] for row in rows} | {row[4] for row in rows}
                    assert names == {display_name(*m) for m in metrics}

    def test_four_decimal_formatting(self, run_dir):
        header, rows = read_csv_table(run_dir / "correlations_system.csv")
        cell_pattern = re.compile(r"^-?\d+\.\d{4}$")
        for row in rows:
            for cell in row[2:]:
                assert cell_pattern.match(cell), cell

    def test_agreement_rows_per_task(self, run_dir):
        header, rows = read_csv_table(run_dir / "agreement.csv")
        assert len(rows) == 8  # 4 tasks x {with, without} traps
        assert {row[2] for row in rows} == {"true", "false"}

    def test_system_eval_daggers_only_on_best(self, run_dir):
        header, rows = read_csv_table(run_dir / "system_eval.csv")
        by_metric = {}
        for row in rows:
            by_metric.setdefault((row[0], row[1]), []).append(row)
        for (metric, variant), metric_rows in by_metric.items():
            for col in range(3, len(header)):
                values = []
                for row in metric_rows:
                    marked = row[col].endswith("†")
                    values.append((float(row[col].rstrip("†")), marked))
                best = max(v for v, _ in values)
                for value, marked in values:
                    if marked:
                        assert value == best

    def test_length_deviation_table_shape(self, run_dir, campaign):
        header, rows = read_csv_table(run_dir / "length_deviation.csv")
        assert header[0] == "system"
        assert [row[0] for row in rows] == list(campaign.config.systems)

    def test_variant_selection_picks_low_noise_variant(self, run_dir):
        header, rows = read_csv_table(run_dir / "variant_selection.csv")
        selected = {row[0]: row[2] for row in rows}
        assert selected["neuralA"] == "v2"
        assert selected["neuralB"] == "-"

    def test_sig_segment_excludes_system_only_metrics(self, run_dir):
        header, rows = read_csv_table(run_dir / "sig_segment_en-zh.80.csv")
        metrics = {row[3] for row in rows} | {row[4] for row in rows}
        assert BLEU_ID not in metrics and BLEU_STAR_ID not in metrics
        assert LENGTH_DEV_ID not in metrics

    def test_sig_matrices_complete_off_diagonal(self, run_dir):
        for name in ("sig_system_zh-en.50.csv", "sig_segment_zh-en.50.csv"):
            header, rows = read_csv_table(run_dir / name)
            metrics = sorted({row[3] for row in rows} | {row[4] for row in rows})
            assert len(rows) == len(metrics) * (len(metrics) - 1)

    def test_segment_wins_mutually_exclusive(self, run_dir):
        header, rows = read_csv_table(run_dir / "sig_segment_en-zh.50.csv")
        significant = {
            (row[3], row[4]) for row in rows if row[9] == "true"
        }
        for row_m, col_m in significant:
            assert (col_m, row_m) not in significant


@pytest.mark.parametrize(
    "option, value",
    [
        ("level", "sytem"),
        ("hybrids", -1),
        ("permutations", 0),
        ("bootstrap", 0),
        ("alpha", 0.0),
        ("alpha", 1.5),
        ("timing_cutoff", -1.0),
        ("timing_cutoff", math.nan),
    ],
)
def test_a_bad_option_is_refused_before_any_file(
    fixture_config_path, tmp_path, option, value
):
    # the library options follow the rules of the CLI flags
    with pytest.raises(ValueError, match=option):
        run_pipeline(fixture_config_path, tmp_path, **{option: value})
    assert list(tmp_path.iterdir()) == []


def test_ratings_layer_compares_tasks_less_than_once_per_rating(
    fixture_config_path, tmp_path, monkeypatch
):
    # the ratings are grouped by task once and share one Task per direction
    # and ratio, so opening the campaign, QC and agreement compare far fewer
    # Task pairs than there are ratings (one scan per task compared each)
    comparisons = []
    real_eq = Task.__eq__

    def counting_eq(task, other):
        comparisons.append(task)
        return real_eq(task, other)

    monkeypatch.setattr(Task, "__eq__", counting_eq)
    state = open_state(fixture_config_path)
    state.emit_qc(tmp_path)
    state.emit_agreement(tmp_path)
    assert len(state.campaign.ratings) == 336
    assert len(comparisons) < len(state.campaign.ratings)
