"""Acceptance gate: one test per criterion, at the stated tolerance and
time budget.  Each test prints a single PASS line (visible with -s/-rA);
pytest -v shows one line per criterion either way.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from lcmteval.corpus import (
    Campaign,
    CampaignConfig,
    ScoreTable,
    SegmentRecord,
    Task,
    validate_campaign,
)
from lcmteval.metaeval import (
    apply_selector,
    hybrid_supersample,
    kendall_tau_b,
    pearson,
    select_best_variant,
    system_scores,
)
from lcmteval.metrics import (
    LengthRecord,
    corpus_bleu,
    length_deviation,
    rouge_l,
    rouge_n,
    tokenize,
)
from lcmteval.pipeline import run_pipeline
from lcmteval.ratings import krippendorff_alpha, trap_schedule_count
from lcmteval.reports import load_sig_matrix_csv
from lcmteval.significance import dagger_marks, paired_bootstrap, perm_both, zou_ci

from .oracles import (
    clipped_ngram_overlap,
    kendall_tau_b_enumeration,
    krippendorff_interval_bruteforce,
    lcs_length_recursive,
    pearson_textbook,
    read_csv_table,
)
from .test_ratings import rating


@contextmanager
def budget(seconds: float, label: str):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{label} took {elapsed:.1f}s, budget {seconds}s"
    print(f"PASS {label} ({elapsed:.2f}s)")


def tok(words):
    return tokenize(" ".join(words), "whitespace")


def test_criterion_01_campaign_arithmetic():
    with budget(1.0, "criterion 1: campaign arithmetic (6480 ratings, 720 traps)"):
        segments = {}
        for direction in ("en-zh", "zh-en"):
            for i in range(270):
                seg_id = f"{direction}-{i:03d}"
                segments[seg_id] = SegmentRecord(
                    seg_id=seg_id, direction=direction, source_text="s",
                    reference_text="r",
                )
        config = CampaignConfig(
            directions=("en-zh", "zh-en"),
            length_ratios=(0.8, 0.5),
            systems=("length-embedding", "translate-then-summarize"),
            annotators_per_task=3,
            length_unit="whitespace-tokens",
            seed=1,
        )
        campaign = Campaign(config, segments, {}, (), {})
        report = validate_campaign(campaign)
        assert report.expected_rating_count == 6480
        assert trap_schedule_count(2, 2, 3, 60) == 720


def test_criterion_02_lexical_metric_oracles():
    with budget(10.0, "criterion 2: lexical metric oracles (1000 random pairs)"):
        rng = np.random.default_rng(2024)
        alphabet = list("abcdefgh")
        pairs = []
        for _ in range(1000):
            hyp = [str(w) for w in rng.choice(alphabet, size=int(rng.integers(0, 21)))]
            ref = [str(w) for w in rng.choice(alphabet, size=int(rng.integers(0, 21)))]
            pairs.append((hyp, ref))

        for hyp, ref in pairs:
            lcs = lcs_length_recursive(tuple(hyp), tuple(ref))
            score = rouge_l(tok(hyp), tok(ref))
            assert score.precision == (lcs / len(hyp) if hyp else 0.0)
            assert score.recall == (lcs / len(ref) if ref else 0.0)
            for n in (1, 2):
                overlap, hyp_total, ref_total = clipped_ngram_overlap(hyp, ref, n)
                rn = rouge_n(tok(hyp), tok(ref), n)
                assert rn.precision == (overlap / hyp_total if hyp_total else 0.0)
                assert rn.recall == (overlap / ref_total if ref_total else 0.0)

        for start in range(0, 1000, 5):
            batch = [(h, r) for h, r in pairs[start : start + 5] if h or r]
            hyps = [tok(h) for h, _ in batch]
            refs = [tok(r) for _, r in batch]
            if not hyps or sum(len(h) for h in hyps) == 0:
                continue
            score = corpus_bleu(hyps, refs)
            assert score.bleu_star >= score.bleu
            if score.brevity_penalty == 1.0:
                assert score.bleu_star == score.bleu
            elif score.bleu > 0:
                assert score.bleu_star > score.bleu


def test_criterion_03_correlation_oracles():
    with budget(10.0, "criterion 3: pearson/kendall brute-force oracles (500 vectors)"):
        rng = np.random.default_rng(33)
        checked = 0
        while checked < 500:
            n = int(rng.integers(2, 51))
            x = [float(v) for v in rng.integers(0, 8, size=n)]  # small grid: ties
            y = [float(v) for v in rng.integers(0, 8, size=n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert pearson(x, y).value == pytest.approx(
                pearson_textbook(x, y), abs=1e-12
            )
            assert kendall_tau_b(x, y).value == pytest.approx(
                kendall_tau_b_enumeration(x, y), abs=1e-12
            )
            checked += 1


def test_criterion_04_krippendorff_alpha():
    with budget(10.0, "criterion 4: Krippendorff alpha oracle and calibration"):
        perfect = [
            rating(a, f"g{i}", s)
            for a in ("a1", "a2", "a3")
            for i, s in enumerate([5, 40, 60, 95])
        ]
        assert krippendorff_alpha(perfect) == 1.0

        rng = np.random.default_rng(44)
        uniform = [
            rating(f"a{j}", f"g{i}", int(rng.integers(0, 101)))
            for i in range(500)
            for j in range(3)
        ]
        assert abs(krippendorff_alpha(uniform)) < 0.05

        for trial in range(40):
            units = {}
            records = []
            for i in range(int(rng.integers(3, 9))):
                values = rng.integers(0, 101, size=int(rng.integers(2, 5)))
                units[f"g{i}"] = [float(v) for v in values]
                records += [
                    rating(f"a{j}", f"g{i}", int(v)) for j, v in enumerate(values)
                ]
            expected = krippendorff_interval_bruteforce(units)
            assert krippendorff_alpha(records) == pytest.approx(expected, abs=1e-12)


def test_criterion_05_zou_ci_coverage():
    with budget(60.0, "criterion 5: Zou CI Monte-Carlo coverage in [0.93, 0.97]"):
        r12, r13, r23 = 0.5, 0.3, 0.4
        chol = np.linalg.cholesky(
            np.array([[1, r12, r13], [r12, 1, r23], [r13, r23, 1]])
        )
        rng = np.random.default_rng(777)
        reps, n = 2000, 100
        covered = 0
        for _ in range(reps):
            sample = rng.standard_normal((n, 3)) @ chol.T
            c = np.corrcoef(sample, rowvar=False)
            ci = zou_ci(c[0, 1], c[0, 2], c[1, 2], n)
            covered += ci.lower <= (r12 - r13) <= ci.upper
        coverage = covered / reps
        assert 0.93 <= coverage <= 0.97, f"coverage {coverage}"


def test_criterion_06_perm_both_calibration():
    with budget(60.0, "criterion 6: PERM-BOTH null calibration and exact p=1"):
        task = Task("aa-bb", 0.8)
        keys = [(s, f"g{i:02d}") for s in ("s1", "s2") for i in range(75)]

        values = [float(i % 7) + 0.1 for i in range(len(keys))]
        ta = ScoreTable.segment_table("A", "-", task, dict(zip(keys, values)))
        tb = ScoreTable.segment_table("B", "-", task, dict(zip(keys, list(values))))
        human = dict(zip(keys, np.linspace(0.0, 1.0, len(keys))))
        assert perm_both(ta, tb, human, r=200, seed=0) == 1.0

        rng = np.random.default_rng(4242)
        rejections = 0
        trials = 200
        for trial in range(trials):
            h = rng.standard_normal(len(keys))
            a = 0.5 * h + 0.8 * rng.standard_normal(len(keys))
            b = 0.5 * h + 0.8 * rng.standard_normal(len(keys))
            pa = ScoreTable.segment_table("A", "-", task, dict(zip(keys, a)))
            pb = ScoreTable.segment_table("B", "-", task, dict(zip(keys, b)))
            p = perm_both(pa, pb, dict(zip(keys, h)), r=250, seed=trial)
            rejections += p <= 0.05
        fraction = rejections / trials
        assert 0.02 <= fraction <= 0.09, f"null rejection fraction {fraction}"


def test_criterion_07_paired_bootstrap():
    with budget(10.0, "criterion 7: paired bootstrap null, dominance, daggers"):
        a = {f"g{i}": float(i % 11) + 0.25 for i in range(200)}
        p_null = paired_bootstrap(a, dict(a), b_iter=1000, seed=3)
        assert 0.3 <= p_null <= 0.7

        b = {k: v + 1.0 for k, v in a.items()}
        assert paired_bootstrap(b, a, b_iter=1000, seed=3) == 0.0

        assert dagger_marks(0.009) == "††"
        assert dagger_marks(0.049) == "†"
        assert dagger_marks(0.051) == ""


def test_criterion_08_hybrid_supersampling():
    with budget(10.0, "criterion 8: hybrid super sampling determinism"):
        task = Task("aa-bb", 0.8)
        rng = np.random.default_rng(88)
        systems = ("s1", "s2", "s3")
        cells = {
            (s, f"g{i:02d}"): float(rng.random())
            for s in systems
            for i in range(10)
        }
        human = {k: float(rng.random()) for k in cells}
        table = ScoreTable.segment_table("m", "-", task, cells)

        vec = system_scores(table)
        for system in systems:
            constant = {g: system for g in table.segment_ids()}
            assert apply_selector(table, constant) == vec.scores[system]

        _, vectors, _ = hybrid_supersample([table], human, 0, seed=5)
        assert vectors[table.key].scores == vec.scores

        serialized = {}
        for threads in (1, 2, 8):
            selectors, vectors, human_vec = hybrid_supersample(
                [table], human, 50, seed=5, threads=threads
            )
            serialized[threads] = json.dumps(
                [
                    [sel.hybrid_id, sorted(sel.choices.items()), list(sel.seed_lineage)]
                    for sel in selectors
                ]
            ).encode()
        assert serialized[1] == serialized[2] == serialized[8]


def test_criterion_09_length_deviation():
    with budget(1.0, "criterion 9: length deviation formula cases"):
        assert length_deviation([LengthRecord(10, 10), LengthRecord(4, 4)]) == 0.0
        assert length_deviation(
            [LengthRecord(8, 10), LengthRecord(12, 10)]
        ) == pytest.approx(0.2, abs=1e-15)
        base = [LengthRecord(9, 10), LengthRecord(10, 10)]
        worse = [LengthRecord(7, 10), LengthRecord(10, 10)]
        assert length_deviation(worse) > length_deviation(base)


def test_criterion_10_end_to_end_determinism(fixture_config_path, tmp_path):
    with budget(60.0, "criterion 10: byte-identical pipeline runs and round-trip"):
        flags = dict(hybrids=100, permutations=100, bootstrap=150, seed=77)
        art_a = run_pipeline(fixture_config_path, tmp_path / "a", **flags)
        art_b = run_pipeline(fixture_config_path, tmp_path / "b", **flags)
        art_c = run_pipeline(fixture_config_path, tmp_path / "c", threads=4, **flags)
        assert art_a.manifest == art_b.manifest == art_c.manifest
        for name, _ in art_a.manifest:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name

        # every emitted table loads back through the tool's own readers
        for name, _ in art_a.manifest:
            path = tmp_path / "a" / name
            if name.startswith("sig_") and name.endswith(".csv"):
                matrix = load_sig_matrix_csv(path)
                assert matrix.cells
            elif name.endswith(".csv"):
                header, rows = read_csv_table(path)
                assert header and rows
        manifest_doc = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest_doc["seed"] == 77
        assert len(manifest_doc["files"]) == len(art_a.manifest)


def test_criterion_11_variant_selection():
    with budget(5.0, "criterion 11: best-variant selection with exact average"):
        rng = np.random.default_rng(111)
        tasks = [Task("aa-bb", r) for r in (0.8, 0.5)] + [
            Task("bb-aa", r) for r in (0.8, 0.5)
        ]
        human = {
            t: {
                (s, f"g{i:02d}"): float(rng.standard_normal())
                for s in ("s1", "s2")
                for i in range(8)
            }
            for t in tasks
        }

        def noisy(t, scale):
            return ScoreTable.segment_table(
                "sweep", "x", t,
                {k: v + scale * float(rng.standard_normal()) for k, v in human[t].items()},
            )

        variants = {
            "layer.1.P": {t: noisy(t, 0.9) for t in tasks},
            "layer.2.R": {t: ScoreTable.segment_table("sweep", "layer.2.R", t, dict(human[t])) for t in tasks},
            "layer.3.F": {t: noisy(t, 0.4) for t in tasks},
        }
        selection = select_best_variant(variants, human, tasks, level="segment")
        assert selection.variant_id == "layer.2.R"
        assert selection.average == pytest.approx(1.0, abs=1e-12)
        recomputed = sum(selection.per_task.values()) / len(selection.per_task)
        assert abs(selection.average - recomputed) <= 1e-12
