import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcmteval.metaeval as metaeval_module

from lcmteval.corpus import ScoreTable, Task
from lcmteval.errors import (
    AllTied,
    CellMismatch,
    IncompleteTable,
    LengthMismatch,
    NonFiniteScore,
    NoVariants,
    SystemOnlyTable,
    TooFewSystems,
    ZeroVariance,
)
from lcmteval.metaeval import (
    apply_selector,
    hybrid_supersample,
    kendall_tau_b,
    pearson,
    segment_correlation,
    select_best_variant,
    system_scores,
)

from .oracles import kendall_tau_b_enumeration, pearson_textbook

TASK = Task("aa-bb", 0.8)


def seg_table(cells, metric="m", variant="v", task=TASK):
    return ScoreTable.segment_table(metric, variant, task, cells)


def grid(values_by_system):
    cells = {}
    for system, values in values_by_system.items():
        for i, value in enumerate(values):
            cells[(system, f"g{i:02d}")] = float(value)
    return cells


class TestSystemScores:
    def test_single_segment_identity(self):
        table = seg_table({("s1", "g1"): 0.7, ("s2", "g1"): 0.4})
        vec = system_scores(table)
        assert vec.scores == {"s1": 0.7, "s2": 0.4}

    def test_mean(self):
        table = seg_table(grid({"s1": [0.2, 0.4]}))
        assert system_scores(table).scores["s1"] == pytest.approx(0.3)

    def test_missing_cell(self):
        table = seg_table({("s1", "g1"): 0.2, ("s1", "g2"): 0.4, ("s2", "g1"): 0.5})
        with pytest.raises(IncompleteTable):
            system_scores(table)

    def test_system_only_pass_through(self):
        table = ScoreTable.system_table("BLEU", "-", TASK, {"s1": 0.3, "s2": 0.5})
        assert system_scores(table).scores == {"s1": 0.3, "s2": 0.5}


class TestPearson:
    def test_positive_affine(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert pearson(x, [2 * v + 1 for v in x]).value == pytest.approx(1.0)

    def test_reflection(self):
        x = [1.0, 2.0, 5.0]
        assert pearson(x, [-v for v in x]).value == pytest.approx(-1.0)

    def test_textbook_case(self):
        # frozen from the covariance/sigma hand formula
        result = pearson([1, 2, 3, 5], [2, 1, 4, 5])
        assert result.value == pytest.approx(0.8552359741197579, abs=1e-12)
        assert result.n == 4

    def test_zero_variance(self):
        with pytest.raises(ZeroVariance):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_score_rejected(self, bad):
        # the clamp to [-1, 1] would turn a NaN r into 1.0
        with pytest.raises(NonFiniteScore):
            pearson([1, 2, bad, 4], [1, 2, 3, 5])
        with pytest.raises(NonFiniteScore):
            pearson([1, 2, 3, 5], [1, 2, bad, 4])

    @given(
        st.lists(st.integers(-50, 50), min_size=3, max_size=50),
        st.integers(1, 9),
        st.integers(-20, 20),
    )
    @settings(max_examples=150)
    def test_affine_invariance(self, xs, slope, intercept):
        ys = [float(3 * v - 7) for v in xs]
        if len(set(xs)) < 2:
            return
        base = pearson([float(v) for v in xs], ys).value
        transformed = pearson([float(slope * v + intercept) for v in xs], ys).value
        assert transformed == pytest.approx(base, abs=1e-12)
        flipped = pearson([float(-slope * v) for v in xs], ys).value
        assert flipped == pytest.approx(-base, abs=1e-12)

    @given(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    min_size=2, max_size=50))
    @settings(max_examples=300)
    def test_matches_textbook_oracle(self, pairs):
        xs = [float(a) for a, _ in pairs]
        ys = [float(b) for _, b in pairs]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            return
        assert pearson(xs, ys).value == pytest.approx(
            pearson_textbook(xs, ys), abs=1e-12
        )


class TestKendallTauB:
    def test_identical_ranking(self):
        assert kendall_tau_b([1, 2, 3, 4], [10, 20, 30, 40]).value == 1.0

    def test_reversed_ranking(self):
        assert kendall_tau_b([1, 2, 3, 4], [8, 6, 4, 2]).value == -1.0

    def test_all_tied(self):
        with pytest.raises(AllTied):
            kendall_tau_b([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            kendall_tau_b([1.0], [1.0, 2.0])

    def test_ties_hand_case_n8(self):
        x = [1, 1, 2, 3, 3, 3, 4, 5]
        y = [2, 1, 1, 4, 4, 3, 5, 5]
        expected = kendall_tau_b_enumeration(x, y)
        assert kendall_tau_b(x, y).value == pytest.approx(expected, abs=1e-12)

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    min_size=2, max_size=50))
    @settings(max_examples=300)
    def test_matches_enumeration_oracle(self, pairs):
        xs = [float(a) for a, _ in pairs]
        ys = [float(b) for _, b in pairs]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            return
        assert kendall_tau_b(xs, ys).value == pytest.approx(
            kendall_tau_b_enumeration(xs, ys), abs=1e-12
        )

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                    min_size=3, max_size=30))
    @settings(max_examples=100)
    def test_monotone_transform_invariance(self, pairs):
        xs = [float(a) for a, _ in pairs]
        ys = [float(b) for _, b in pairs]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            return
        base = kendall_tau_b(xs, ys).value
        transformed = kendall_tau_b([v**3 + 2 * v for v in xs], ys).value
        assert transformed == pytest.approx(base, abs=1e-12)


@pytest.fixture(scope="module")
def scipy_stats():
    """scipy is a test-only reference for the exact tau-b count."""
    return pytest.importorskip("scipy.stats")


# Few distinct values, signed zeros and both infinities: many ties.
TIE_HEAVY = st.sampled_from([-math.inf, -2.0, -0.5, -0.0, 0.0, 0.5, 3.0, math.inf])


class TestKendallTauBCount:
    @given(st.lists(st.tuples(TIE_HEAVY, TIE_HEAVY), min_size=2, max_size=120))
    @settings(max_examples=400, deadline=None)
    def test_equals_scipy_tau_b(self, scipy_stats, pairs):
        xs = [a for a, _ in pairs]
        ys = [b for _, b in pairs]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            return
        expected = float(scipy_stats.kendalltau(xs, ys, variant="b").statistic)
        assert kendall_tau_b(xs, ys).value == expected

    @pytest.mark.parametrize("side", [0, 1])
    def test_nan_raises_all_tied(self, side):
        vectors = [[1.0, 2.0, 3.0, 4.0], [4.0, 1.0, 3.0, 2.0]]
        vectors[side][2] = math.nan
        with pytest.raises(AllTied, match="denominator degenerate"):
            kendall_tau_b(*vectors)

    @pytest.mark.parametrize("n, rows", [(2, 1), (57, 1), (57, 4), (300, 7)])
    def test_tiled_count_matches(self, scipy_stats, monkeypatch, n, rows):
        rng = np.random.default_rng(n + rows)
        x = rng.integers(0, 6, n).astype(float)
        y = rng.integers(0, 4, n).astype(float)
        x[0], y[0], x[1], y[1] = 1.0, 0.0, 2.0, 1.0  # never all ties
        x[rng.random(n) < 0.1] = math.inf
        whole = kendall_tau_b(x, y).value
        # the two sign arrays of one tile hold 2 * rows * n entries
        monkeypatch.setattr(metaeval_module, "_BUDGET", 2 * rows * n)
        tiled = kendall_tau_b(x, y).value
        assert tiled == whole
        assert tiled == float(scipy_stats.kendalltau(x, y, variant="b").statistic)


def test_no_scipy_at_run_time(fixture_config_path, tmp_path):
    """Neither importing the package nor a whole run loads scipy."""
    src = Path(metaeval_module.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import lcmteval\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded, ('import', loaded)\n"
        "from lcmteval.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded, ('run', loaded)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code, "run", str(fixture_config_path),
         "--out", str(tmp_path), "--hybrids", "10", "--permutations", "5",
         "--bootstrap", "5"],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "manifest.json").exists()


def make_aligned(n_segs=6, seed=0):
    rng = np.random.default_rng(seed)
    systems = ("s1", "s2", "s3")
    cells_metric = {}
    cells_human = {}
    for s in systems:
        for i in range(n_segs):
            cells_metric[(s, f"g{i:02d}")] = float(rng.random())
            cells_human[(s, f"g{i:02d}")] = float(rng.random())
    return seg_table(cells_metric), cells_human


class TestHybridSupersample:
    def test_k_zero_equals_system_scores(self):
        table, human = make_aligned()
        selectors, vectors, human_vec = hybrid_supersample([table], human, 0, seed=5)
        assert selectors == []
        assert vectors[table.key].scores == system_scores(table).scores

    def test_constant_selector_reproduces_system_score(self):
        table, human = make_aligned()
        seg_ids = table.segment_ids()
        for system in table.systems():
            choices = {g: system for g in seg_ids}
            assert apply_selector(table, choices) == system_scores(table).scores[system]

    def test_same_seed_identical_any_threads(self):
        table, human = make_aligned()
        results = {}
        for threads in (1, 2, 8):
            selectors, vectors, human_vec = hybrid_supersample(
                [table], human, 40, seed=9, threads=threads
            )
            results[threads] = (selectors, vectors[table.key].scores, human_vec.scores)
        assert results[1] == results[2] == results[8]

    @pytest.mark.parametrize("n_segs", [5, 20])
    def test_matches_one_generator_and_one_mean_per_hybrid(self, n_segs):
        # the batched draws and means equal, with ==, one rng_for generator
        # per hybrid and one mean over each hybrid's selected cells
        table, human = make_aligned(n_segs=n_segs, seed=3)
        other = seg_table({key: 2.0 * v - 1.0 for key, v in human.items()}, variant="w")
        selectors, vectors, human_vec = hybrid_supersample(
            [table, other], human, 25, seed=8
        )
        systems, seg_ids = table.systems(), table.segment_ids()
        for i, sel in enumerate(selectors):
            row = metaeval_module.rng_for(8, f"hybrid:{TASK.label}", i).integers(
                0, len(systems), size=len(seg_ids)
            )
            assert sel.choices == {g: systems[j] for g, j in zip(seg_ids, row)}
            for tb in (table, other):
                score = vectors[tb.key].scores[sel.hybrid_id]
                assert score == apply_selector(tb, sel.choices)
            expected_human = np.mean([human[(sel.choices[g], g)] for g in seg_ids])
            assert human_vec.scores[sel.hybrid_id] == float(expected_human)
        for tb in (table, other):
            real = {s: vectors[tb.key].scores[s] for s in systems}
            assert real == system_scores(tb).scores

    def test_different_seed_differs(self):
        table, human = make_aligned()
        a = hybrid_supersample([table], human, 20, seed=1)[1][table.key].scores
        b = hybrid_supersample([table], human, 20, seed=2)[1][table.key].scores
        assert a != b

    def test_selector_lineage_and_totality(self):
        table, human = make_aligned()
        selectors, _, _ = hybrid_supersample([table], human, 5, seed=3)
        seg_ids = set(table.segment_ids())
        systems = set(table.systems())
        for i, sel in enumerate(selectors):
            assert sel.seed_lineage == (3, i)
            assert set(sel.choices) == seg_ids
            assert set(sel.choices.values()) <= systems

    def test_hybrid_scores_are_segment_convex(self):
        table, human = make_aligned(n_segs=4)
        selectors, vectors, _ = hybrid_supersample([table], human, 30, seed=4)
        per_seg_min = {}
        per_seg_max = {}
        for (s, g), v in table.cells.items():
            per_seg_min[g] = min(per_seg_min.get(g, v), v)
            per_seg_max[g] = max(per_seg_max.get(g, v), v)
        lo = sum(per_seg_min.values()) / len(per_seg_min)
        hi = sum(per_seg_max.values()) / len(per_seg_max)
        values = vectors[table.key].values
        for v in values[len(table.systems()):]:
            assert lo - 1e-12 <= v <= hi + 1e-12

    def test_too_few_systems(self):
        cells = {("s1", "g0"): 0.1, ("s1", "g1"): 0.2}
        human = dict(cells)
        with pytest.raises(TooFewSystems):
            hybrid_supersample([seg_table(cells)], human, 3, seed=1)

    def test_misaligned_human_rejected(self):
        table, human = make_aligned()
        human.pop(("s1", "g00"))
        with pytest.raises(CellMismatch):
            hybrid_supersample([table], human, 3, seed=1)

    def test_system_only_table_needs_scorer(self):
        table, human = make_aligned()
        bleu = ScoreTable.system_table("BLEU", "-", TASK, {"s1": 0.1, "s2": 0.2, "s3": 0.3})
        with pytest.raises(SystemOnlyTable):
            hybrid_supersample([table, bleu], human, 2, seed=1)
        calls = []

        def scorer(index_rows):
            calls.append(index_rows.copy())
            return {("BLEU", "-"): [0.42 + i for i in range(len(index_rows))]}

        # a system-only table missing from the scorer's result
        star = ScoreTable.system_table("BLEU*", "-", TASK, bleu.system_cells)
        with pytest.raises(SystemOnlyTable):
            hybrid_supersample([table, bleu, star], human, 2, seed=1, corpus_scorer=scorer)
        calls.clear()
        selectors, vectors, _ = hybrid_supersample(
            [table, bleu], human, 2, seed=1, corpus_scorer=scorer
        )
        assert vectors[("BLEU", "-")].values[3:] == [0.42, 1.42]
        # one call with the whole index matrix: rows are hybrids, columns the
        # sorted segment ids, entries index the sorted systems
        (index_rows,) = calls
        systems, seg_ids = table.systems(), table.segment_ids()
        assert [
            {g: systems[j] for g, j in zip(seg_ids, row)} for row in index_rows
        ] == [sel.choices for sel in selectors]

    def test_negative_k_rejected(self):
        table, human = make_aligned()
        with pytest.raises(ValueError):
            hybrid_supersample([table], human, -5, seed=1)

    def test_pearson_k0_equals_real_system_pearson(self):
        table, human = make_aligned(n_segs=8, seed=12)
        _, vectors, human_vec = hybrid_supersample([table], human, 0, seed=1)
        direct_metric = system_scores(table)
        direct_human = {
            s: float(np.mean([human[(s, g)] for g in sorted(table.segment_ids())]))
            for s in table.systems()
        }
        r_hybrid = pearson(human_vec.values, vectors[table.key].values).value
        r_direct = pearson(
            [direct_human[s] for s in table.systems()],
            [direct_metric.scores[s] for s in table.systems()],
        ).value
        assert r_hybrid == pytest.approx(r_direct, abs=1e-12)


class TestSegmentCorrelation:
    def test_identity_tau_one(self):
        table, _ = make_aligned()
        human = dict(table.cells)
        assert segment_correlation(table, human).value == 1.0

    def test_constant_metric_all_tied(self):
        cells = {("s1", "g0"): 0.5, ("s1", "g1"): 0.5, ("s2", "g0"): 0.5, ("s2", "g1"): 0.5}
        human = {k: float(i) for i, k in enumerate(sorted(cells))}
        with pytest.raises(AllTied):
            segment_correlation(seg_table(cells), human)

    def test_system_only_rejected(self):
        bleu = ScoreTable.system_table("BLEU", "-", TASK, {"s1": 0.1, "s2": 0.2})
        with pytest.raises(SystemOnlyTable):
            segment_correlation(bleu, {})

    def test_pooled_matches_enumeration(self):
        rng = np.random.default_rng(3)
        cells = {
            (s, f"g{i}"): float(rng.integers(0, 5))
            for s in ("s1", "s2")
            for i in range(3)
        }
        human = {
            k: float(rng.integers(0, 5)) for k in cells
        }
        keys = sorted(cells)
        expected = kendall_tau_b_enumeration(
            [cells[k] for k in keys], [human[k] for k in keys]
        )
        assert segment_correlation(seg_table(cells), human).value == pytest.approx(
            expected, abs=1e-12
        )


class TestSelectBestVariant:
    def _tasks_and_human(self, n_segs=5, seed=21):
        rng = np.random.default_rng(seed)
        tasks = [Task("aa-bb", 0.8), Task("aa-bb", 0.5)]
        human = {
            t: {
                (s, f"g{i:02d}"): float(rng.standard_normal())
                for s in ("s1", "s2")
                for i in range(n_segs)
            }
            for t in tasks
        }
        return tasks, human

    def test_single_variant_chosen(self):
        tasks, human = self._tasks_and_human()
        variants = {
            "only": {
                t: seg_table({k: v + 0.01 * i for i, (k, v) in enumerate(sorted(human[t].items()))}, task=t)
                for t in tasks
            }
        }
        selection = select_best_variant(variants, human, tasks, level="segment")
        assert selection.variant_id == "only"

    def test_variant_equal_to_human_dominates(self):
        tasks, human = self._tasks_and_human()
        rng = np.random.default_rng(5)

        def noisy(t, scale):
            return seg_table(
                {k: v + scale * float(rng.standard_normal()) for k, v in human[t].items()},
                task=t,
            )

        variants = {
            "v1": {t: noisy(t, 0.8) for t in tasks},
            "v2": {t: seg_table(dict(human[t]), task=t) for t in tasks},
            "v3": {t: noisy(t, 0.5) for t in tasks},
        }
        selection = select_best_variant(variants, human, tasks, level="segment")
        assert selection.variant_id == "v2"
        assert selection.average == pytest.approx(1.0, abs=1e-12)
        recomputed = sum(selection.per_task.values()) / len(selection.per_task)
        assert selection.average == pytest.approx(recomputed, abs=1e-12)

    def test_tie_breaks_lexicographically(self):
        tasks, human = self._tasks_and_human()
        exact = {t: seg_table(dict(human[t]), task=t) for t in tasks}
        variants = {"zeta": exact, "alpha": {
            t: seg_table(dict(human[t]), task=t) for t in tasks
        }}
        selection = select_best_variant(variants, human, tasks, level="segment")
        assert selection.variant_id == "alpha"

    def test_no_variants(self):
        with pytest.raises(NoVariants):
            select_best_variant({}, {}, [], level="segment")

    @staticmethod
    def _hybrid_vectors(variants, human, tasks, k, seed):
        """Per task, one hybrid_supersample call over every variant's table,
        as (values by table key, human values)."""
        out = {}
        for t in tasks:
            _, vectors, human_vec = hybrid_supersample(
                [per_task[t] for per_task in variants.values()], human[t], k, seed
            )
            out[t] = (
                {key: vector.values for key, vector in vectors.items()},
                human_vec.values,
            )
        return out

    def test_system_level_with_hybrids(self):
        tasks, human = self._tasks_and_human(n_segs=6)
        rng = np.random.default_rng(9)
        variants = {
            "good": {t: seg_table(dict(human[t]), variant="good", task=t) for t in tasks},
            "noise": {
                t: seg_table(
                    {k: float(rng.standard_normal()) for k in human[t]},
                    variant="noise",
                    task=t,
                )
                for t in tasks
            },
        }
        selection = select_best_variant(
            variants,
            human,
            tasks,
            level="system",
            system_vectors=self._hybrid_vectors(variants, human, tasks, 50, seed=3),
        )
        assert selection.variant_id == "good"
        assert selection.average == pytest.approx(1.0, abs=1e-9)

    def test_system_level_draws_nothing(self, monkeypatch):
        # the hybrids come with the vectors; selection itself draws none and
        # needs the vectors and one key per variant
        tasks, human = self._tasks_and_human(n_segs=6)
        rng = np.random.default_rng(13)
        variants = {
            f"v{j}": {
                t: seg_table(
                    {k: v + j * float(rng.standard_normal()) for k, v in human[t].items()},
                    variant=f"v{j}",
                    task=t,
                )
                for t in tasks
            }
            for j in range(4)
        }
        system_vectors = self._hybrid_vectors(variants, human, tasks, 7, seed=3)
        draws = []
        real_rng_for = metaeval_module.rng_for

        def counting_rng_for(*key):
            draws.append(key)
            return real_rng_for(*key)

        monkeypatch.setattr(metaeval_module, "rng_for", counting_rng_for)
        select_best_variant(
            variants, human, tasks, level="system", system_vectors=system_vectors
        )
        assert draws == []
        with pytest.raises(ValueError, match="system_vectors"):
            select_best_variant(variants, human, tasks, level="system")
        shared = dict(variants, w={t: variants["v0"][t] for t in tasks})
        with pytest.raises(ValueError, match="share a table key"):
            select_best_variant(
                shared, human, tasks, level="system", system_vectors=system_vectors
            )

    def test_system_level_matches_one_variant_at_a_time(self):
        # vectors from one call over all variants give each variant the
        # correlation a call of its own gives
        tasks, human = self._tasks_and_human(n_segs=6)
        rng = np.random.default_rng(17)
        variants = {
            v: {
                t: seg_table(
                    {k: float(rng.standard_normal()) for k in human[t]},
                    variant=v,
                    task=t,
                )
                for t in tasks
            }
            for v in ("a", "b", "c")
        }
        selection = select_best_variant(
            variants,
            human,
            tasks,
            level="system",
            system_vectors=self._hybrid_vectors(variants, human, tasks, 30, seed=5),
        )
        for t in tasks:
            table = variants[selection.variant_id][t]
            _, vectors, human_vec = hybrid_supersample([table], human[t], 30, seed=5)
            expected = pearson(human_vec.values, vectors[table.key].values).value
            assert selection.per_task[t] == expected
