import logging
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lcmteval import significance
from lcmteval.corpus import ScoreTable, Task
from lcmteval.errors import (
    AlignmentMismatch,
    AllTied,
    CellMismatch,
    DegenerateCorrelation,
    LengthMismatch,
    NonFiniteScore,
    SampleTooSmall,
    ZeroVariance,
)
from lcmteval.metaeval import pearson
from lcmteval.reports import emit_sig_matrix
from lcmteval.significance import (
    _SwapTauB,
    bonferroni,
    dagger_marks,
    paired_bootstrap,
    perm_both,
    segment_sig_matrix,
    system_sig_matrix,
    zou_ci,
)

from .oracles import (
    READERS,
    kendall_tau_b_enumeration,
    perm_both_enumeration,
    read_csv_table,
)

TASK = Task("aa-bb", 0.8)

# ROUGE-style scores: a few levels, so most pairs of cells tie.
LEVELS = st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0])
SIGNED_LEVELS = st.sampled_from([-0.0, 0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0])


def seg_table(cells, metric="m", variant="-"):
    return ScoreTable.segment_table(metric, variant, TASK, cells)


def dense_keys(n, systems=1):
    """The sorted (system, segment) keys of a dense grid of n cells in
    ``systems`` rows (n a multiple of ``systems``): the permutation test
    pools a task's cells, whatever their grid."""
    return sorted((f"s{i % systems}", f"g{i // systems:04d}") for i in range(n))


@st.composite
def tie_heavy_cells(draw, max_n=30):
    """(a, b, h) over the same n cells; h takes five values."""
    n = draw(st.integers(2, max_n))
    a = draw(st.lists(LEVELS, min_size=n, max_size=n))
    b = draw(st.lists(LEVELS, min_size=n, max_size=n))
    h = draw(st.lists(st.integers(-2, 2).map(float), min_size=n, max_size=n))
    return a, b, h


@st.composite
def tie_heavy_metrics(draw, max_n=16):
    """(scores of 2-5 metrics, h) over the same n cells; h takes five values."""
    n = draw(st.integers(3, max_n))
    m = draw(st.integers(2, 5))
    scores = [draw(st.lists(SIGNED_LEVELS, min_size=n, max_size=n)) for _ in range(m)]
    h = draw(st.lists(st.integers(-2, 2).map(float), min_size=n, max_size=n))
    return scores, h


def assert_each_pair_in_one_tile(tiles, n):
    """Every cell pair i < j lies in exactly one of the (lo, hi, c0, c1)
    rectangles ``tiles``."""
    covered = np.zeros((n, n), dtype=int)
    for lo, hi, c0, c1 in tiles:
        covered[lo:hi, c0:c1] += 1
    assert np.array_equal(np.triu(covered, 1), np.triu(np.ones((n, n), dtype=int), 1))


def swapped(a, b, mask):
    """(A*, B*) of the per-cell swap under ``mask``."""
    return (
        [y if m else x for x, y, m in zip(a, b, mask)],
        [x if m else y for x, y, m in zip(a, b, mask)],
    )


class TestZouCI:
    def test_identical_metrics_degenerate_interval(self):
        ci = zou_ci(0.6, 0.6, 1.0, n=50)
        assert abs(ci.lower) <= 1e-12 and abs(ci.upper) <= 1e-12

    def test_antisymmetry(self):
        a = zou_ci(0.7, 0.4, 0.5, n=80)
        b = zou_ci(0.4, 0.7, 0.5, n=80)
        assert a.lower == pytest.approx(-b.upper, abs=1e-12)
        assert a.upper == pytest.approx(-b.lower, abs=1e-12)

    def test_width_shrinks_with_n(self):
        widths = [
            zou_ci(0.7, 0.4, 0.5, n=n).upper - zou_ci(0.7, 0.4, 0.5, n=n).lower
            for n in (10, 50, 200, 1000)
        ]
        assert widths == sorted(widths, reverse=True)

    def test_contains_point_estimate(self):
        ci = zou_ci(0.7, 0.4, 0.5, n=60)
        assert ci.lower <= 0.7 - 0.4 <= ci.upper

    def test_degenerate_correlation(self):
        with pytest.raises(DegenerateCorrelation):
            zou_ci(1.0, 0.4, 0.5, n=60)
        with pytest.raises(DegenerateCorrelation):
            zou_ci(0.7, 0.4, 1.0, n=60)  # r23 = 1 but r12 != r13

    def test_sample_too_small(self):
        with pytest.raises(SampleTooSmall):
            zou_ci(0.5, 0.3, 0.2, n=3)

    @given(
        st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8),
        st.integers(5, 500),
    )
    @settings(max_examples=200)
    def test_antisymmetry_property(self, a, b, c, n):
        r12, r13, r23 = a / 10, b / 10, c / 10
        fwd = zou_ci(r12, r13, r23, n)
        rev = zou_ci(r13, r12, r23, n)
        assert fwd.lower == pytest.approx(-rev.upper, abs=1e-12)
        assert fwd.upper == pytest.approx(-rev.lower, abs=1e-12)

    def test_monte_carlo_coverage_quick(self):
        # smaller replicate count than the acceptance gate, wider band
        r12, r13, r23 = 0.5, 0.3, 0.4
        chol = np.linalg.cholesky(
            np.array([[1, r12, r13], [r12, 1, r23], [r13, r23, 1]])
        )
        rng = np.random.default_rng(31)
        covered = 0
        reps = 400
        for _ in range(reps):
            sample = rng.standard_normal((100, 3)) @ chol.T
            c = np.corrcoef(sample, rowvar=False)
            ci = zou_ci(c[0, 1], c[0, 2], c[1, 2], 100)
            covered += ci.lower <= (r12 - r13) <= ci.upper
        assert 0.90 <= covered / reps <= 0.99


class TestSystemSigMatrix:
    def test_tracking_metric_beats_noise(self):
        rng = np.random.default_rng(17)
        n = 503
        human = rng.standard_normal(n)
        tracking = human + 0.1 * rng.standard_normal(n)
        noise = rng.standard_normal(n)
        matrix = system_sig_matrix(
            {"tracking": list(tracking), "noise": list(noise)}, list(human), TASK
        )
        assert matrix.cells[("tracking", "noise")].significant
        assert not matrix.cells[("noise", "tracking")].significant

    def test_duplicate_metric_no_significance(self):
        rng = np.random.default_rng(23)
        human = list(rng.standard_normal(60))
        metric = list(rng.standard_normal(60))
        matrix = system_sig_matrix(
            {"m1": metric, "m2": list(metric)}, human, TASK
        )
        assert not matrix.cells[("m1", "m2")].significant
        assert not matrix.cells[("m2", "m1")].significant

    def test_wins_mutually_exclusive_and_complete(self):
        rng = np.random.default_rng(29)
        human = rng.standard_normal(80)
        vectors = {
            f"m{i}": list(0.3 * i * human + rng.standard_normal(80))
            for i in range(4)
        }
        matrix = system_sig_matrix(vectors, list(human), TASK)
        names = matrix.metrics
        assert len(matrix.cells) == len(names) * (len(names) - 1)
        for row in names:
            for col in names:
                if row == col:
                    continue
                if matrix.cells[(row, col)].significant:
                    assert not matrix.cells[(col, row)].significant

    @staticmethod
    def _per_ordered_pair(vectors, human):
        """The cells from one ``pearson`` per correlation and one ``zou_ci``
        per ordered pair."""
        human_r = {name: pearson(human, v).value for name, v in vectors.items()}
        cells = {}
        for row in vectors:
            for col in vectors:
                if row != col:
                    r23 = pearson(vectors[row], vectors[col]).value
                    ci = zou_ci(human_r[row], human_r[col], r23, len(human))
                    cells[(row, col)] = (ci, ci.lower > 0.0)
        return cells

    @given(
        st.integers(4, 12).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]),
                             min_size=n, max_size=n),
                    min_size=1, max_size=5,
                ),
                st.lists(st.floats(-3, 3), min_size=n, max_size=n),
            )
        ),
        st.integers(0, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_cells_equal_per_ordered_pair_construction(self, drawn, short):
        # few levels, so constant vectors (ZeroVariance) and exact copies
        # occur; ``short`` > 0 cuts one vector (LengthMismatch)
        columns, human = drawn
        vectors = {f"m{j}": column for j, column in enumerate(columns)}
        if short and short < len(columns[0]):
            vectors[f"m{short % len(columns)}"] = columns[short % len(columns)][short:]
        try:
            expected = self._per_ordered_pair(vectors, human)
        except Exception as exc:  # the same error, with the same message
            with pytest.raises(type(exc)) as raised:
                system_sig_matrix(vectors, human, TASK)
            assert str(raised.value) == str(exc)
            return
        matrix = system_sig_matrix(vectors, human, TASK)
        assert {
            key: (cell.ci, cell.significant) for key, cell in matrix.cells.items()
        } == expected

    def test_zero_variance_and_length_mismatch(self):
        human = [0.1, 0.4, 0.2, 0.9, 0.5]
        with pytest.raises(ZeroVariance):
            system_sig_matrix({"a": [1, 2, 3, 4, 6], "b": [2.0] * 5}, human, TASK)
        with pytest.raises(LengthMismatch):
            system_sig_matrix({"a": [1, 2, 3, 4, 6], "b": [1, 2, 3, 4]}, human, TASK)


class TestPermBoth:
    def _tables(self, a, b, keys):
        return (
            seg_table(dict(zip(keys, a)), metric="A"),
            seg_table(dict(zip(keys, b)), metric="B"),
        )

    def test_no_replicates_rejected(self):
        keys = [(s, f"g{i}") for s in ("s1", "s2") for i in range(10)]
        ta, tb = self._tables(np.arange(20.0), np.arange(20.0)[::-1], keys)
        human = dict(zip(keys, np.linspace(0, 1, 20)))
        with pytest.raises(ValueError):
            perm_both(ta, tb, human, r=0, seed=5)

    def test_identical_tables_p_one(self):
        keys = [(s, f"g{i}") for s in ("s1", "s2") for i in range(10)]
        values = [float(i % 7) + 0.1 for i in range(20)]
        ta, tb = self._tables(values, list(values), keys)
        human = dict(zip(keys, np.linspace(0, 1, 20)))
        assert perm_both(ta, tb, human, r=200, seed=5) == 1.0

    def test_known_separation(self):
        rng = np.random.default_rng(41)
        keys = [(s, f"g{i:03d}") for s in ("s1", "s2") for i in range(100)]
        human = rng.standard_normal(200)
        a = human.copy()  # metric equal to the human scores
        b = rng.standard_normal(200)
        ta, tb = self._tables(a, b, keys)
        p = perm_both(ta, tb, dict(zip(keys, human)), r=500, seed=7)
        assert p < 0.01

    def test_p_value_in_unit_interval(self):
        rng = np.random.default_rng(43)
        keys = [(s, f"g{i}") for s in ("s1", "s2") for i in range(15)]
        ta, tb = self._tables(
            rng.standard_normal(30), rng.standard_normal(30), keys
        )
        p = perm_both(ta, tb, dict(zip(keys, rng.standard_normal(30))), r=99, seed=1)
        assert 0.0 < p <= 1.0

    def test_deterministic_and_seed_sensitive(self):
        rng = np.random.default_rng(47)
        keys = [(s, f"g{i}") for s in ("s1", "s2") for i in range(25)]
        ta, tb = self._tables(
            rng.standard_normal(50), rng.standard_normal(50), keys
        )
        human = dict(zip(keys, rng.standard_normal(50)))
        p = perm_both(ta, tb, human, r=240, seed=11)
        assert perm_both(ta, tb, human, r=240, seed=11) == p
        assert perm_both(ta, tb, human, r=240, seed=12) != p

    def test_one_generator_per_call(self, monkeypatch):
        keys = [(s, f"g{i}") for s in ("s1", "s2") for i in range(10)]
        ta, tb = self._tables(np.arange(20.0), np.arange(20.0)[::-1], keys)
        human = dict(zip(keys, np.linspace(0, 1, 20)))
        real_rng_for = significance.rng_for
        keys_seen = []

        def counting_rng_for(*key):
            keys_seen.append(key)
            return real_rng_for(*key)

        monkeypatch.setattr(significance, "rng_for", counting_rng_for)
        monkeypatch.setattr(significance, "_BLOCK", 7 * 20)  # 43 batches
        perm_both(ta, tb, human, r=300, seed=17)
        assert keys_seen == [(17, "perm-both")]

    def test_cell_mismatch(self):
        keys = [("s1", "g0"), ("s1", "g1"), ("s2", "g0"), ("s2", "g1")]
        human = dict(zip(keys, [1.0, 2.0, 3.0, 4.0]))
        ta = seg_table(human)
        tb = seg_table({keys[0]: 1.0})
        with pytest.raises(CellMismatch):
            perm_both(ta, tb, human, r=10, seed=0)
        # the same cells under another task
        other = ScoreTable.segment_table("B", "-", Task("bb-aa", 0.8), human)
        for name in ("hybrid_supersample", "perm_both", "segment_sig_matrix"):
            with pytest.raises(CellMismatch, match="task"):
                READERS[name]([ta, other], human)
        with pytest.raises(CellMismatch, match="bb-aa"):
            segment_sig_matrix({"A": ta}, human, other.task, r=10, seed=0)

    def test_all_tied_human_rejected(self):
        keys = [("s1", "g0"), ("s1", "g1"), ("s2", "g0"), ("s2", "g1")]
        ta = seg_table(dict(zip(keys, [1.0, 2.0, 3.0, 4.0])))
        tb = seg_table(dict(zip(keys, [4.0, 3.0, 2.0, 1.0])), metric="B")
        with pytest.raises(AllTied):
            perm_both(ta, tb, {k: 1.0 for k in keys}, r=10, seed=0)


class TestSwapKernel:
    @given(tie_heavy_metrics(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_replicate_taus_equal_enumeration(self, cells, data):
        # every pair's tau-b of A* and B* under arbitrary masks, from the
        # shared forms of one product per tile
        scores, h = cells
        assume(len(set(h)) > 1)
        n = len(h)
        masks = [[False] * n] + data.draw(
            st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                     min_size=1, max_size=5)
        )
        kernel = _SwapTauB(np.array(scores), np.array(h))
        w = np.array(masks, dtype=np.float32).T
        size = data.draw(st.integers(1, len(masks)))  # replicates a batch
        forms = kernel._forms(w.astype(bool), size)
        for k, (a, b) in enumerate(kernel.pairs):
            try:
                expected = [
                    tuple(
                        kendall_tau_b_enumeration(side, h)
                        for side in swapped(scores[a], scores[b], m)
                    )
                    for m in masks
                ]
            except ZeroDivisionError:  # some A* or B* is all ties
                with pytest.raises(AllTied):
                    kernel._taus(kernel._counts(k, k + 1, w, forms))
                continue
            tau = kernel._taus(kernel._counts(k, k + 1, w, forms))
            assert list(zip(tau[0, 0].tolist(), tau[0, 1].tolist())) == expected

    @given(tie_heavy_cells(max_n=20), st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_p_equals_enumeration_oracle(self, cells, seed):
        a, b, h = cells
        keys = dense_keys(len(a))
        ta, tb = seg_table(dict(zip(keys, a)), "A"), seg_table(dict(zip(keys, b)), "B")
        human = dict(zip(keys, h))
        try:
            expected = perm_both_enumeration(a, b, h, r=40, seed=seed)
        except ZeroDivisionError:  # h, a, b or some replicate is all ties
            with pytest.raises(AllTied):
                perm_both(ta, tb, human, r=40, seed=seed)
            return
        assert perm_both(ta, tb, human, r=40, seed=seed) == expected

    def test_tiles_and_batches_match_untiled(self, monkeypatch):
        rng = np.random.default_rng(79)
        n = 90
        keys = dense_keys(n)
        a, b = rng.integers(0, 5, n) / 4, rng.integers(0, 5, n) / 4
        h = rng.integers(-3, 4, n).astype(float)
        ta, tb = seg_table(dict(zip(keys, a)), "A"), seg_table(dict(zip(keys, b)), "B")
        human = dict(zip(keys, h))
        masks = rng.random((n, 30)) < 0.5
        # one tile (6 forms of 89 x 89 entries), 6 batches of 5 masks
        untiled = _SwapTauB(np.stack([a, b]), h)
        whole = untiled._forms(masks, 5)
        assert untiled.blocks_built == 1
        p_untiled = perm_both(ta, tb, human, r=150, seed=13)

        # tiles of at most 100 entries (55 of them), each multiplied with 5
        # batches of 6 masks
        monkeypatch.setattr(significance, "_BLOCK", 600)
        tiled = _SwapTauB(np.stack([a, b]), h)
        assert np.array_equal(tiled._forms(masks, 6), whole)
        assert tiled.blocks_built == 55
        assert np.array_equal(tiled.lin, untiled.lin)
        assert np.array_equal(tiled.const, untiled.const)
        assert perm_both(ta, tb, human, r=150, seed=13) == p_untiled

    def test_mask_chunks_at_nonzero_indices_equal_oracle(self, monkeypatch):
        rng = np.random.default_rng(83)
        n = 12
        keys = dense_keys(n)
        a, b = rng.integers(0, 4, n) / 3, rng.integers(0, 4, n) / 3
        h = rng.integers(-2, 3, n).astype(float)
        ta, tb = seg_table(dict(zip(keys, a)), "A"), seg_table(dict(zip(keys, b)), "B")
        expected = perm_both_enumeration(a.tolist(), b.tolist(), h.tolist(), r=45, seed=21)
        # batches of 7 masks: replicates 0-6, 7-13, ..., 42-44
        monkeypatch.setattr(significance, "_BLOCK", 7 * n)
        assert perm_both(ta, tb, dict(zip(keys, h)), r=45, seed=21) == expected

    def test_each_tile_built_once_per_task(self, monkeypatch):
        # tiles of at most 100 entries and 4 batches of 5 replicates: each
        # tile is built once, in the order _tiles gives, and covers its cell
        # pairs for every batch
        rng = np.random.default_rng(89)
        n = 90
        a, b = rng.integers(0, 5, n) / 4, rng.integers(0, 5, n) / 4
        h = rng.integers(-3, 4, n).astype(float)
        built, sizes = [], []
        real_coefficients, real_forms = _SwapTauB._coefficients, _SwapTauB._forms

        def counting_coefficients(self, lo, hi, c0, c1, out, sums):
            built.append((lo, hi, c0, c1))
            return real_coefficients(self, lo, hi, c0, c1, out, sums)

        def counting_forms(self, masks, size):
            sizes.append((masks.shape[1], size))
            return real_forms(self, masks, size)

        monkeypatch.setattr(_SwapTauB, "_coefficients", counting_coefficients)
        monkeypatch.setattr(_SwapTauB, "_forms", counting_forms)
        monkeypatch.setattr(significance, "_BLOCK", 600)
        kernel = _SwapTauB(np.stack([a, b]), h)
        kernel.hits(significance.rng_for(5, "perm-both"), 20)
        assert sizes == [(20, 5)]
        tiles = kernel._tiles(100)
        assert len(tiles) == 55
        assert built == tiles
        assert kernel.blocks_built == len(tiles)
        assert_each_pair_in_one_tile(built, n)

    @pytest.mark.parametrize("budget", [2**17, 8 * 40, 3 * 40])
    def test_sign_sums_from_tiles_equal_full_sums(self, monkeypatch, budget):
        # rowsum and colsum of every G_xy, added up from the tiles' s1 and s2
        # halves, equal the n x n sums; three metrics on five levels and h on
        # seven, so most pairs of cells tie somewhere
        rng = np.random.default_rng(113)
        n = 40
        scores = rng.integers(0, 5, (3, n)) / 4
        h = rng.integers(-3, 4, n).astype(float)
        captured = []
        real_coefficients = _SwapTauB._coefficients

        def capturing_coefficients(self, lo, hi, c0, c1, out, sums):
            captured.append(sums)
            return real_coefficients(self, lo, hi, c0, c1, out, sums)

        monkeypatch.setattr(_SwapTauB, "_coefficients", capturing_coefficients)
        monkeypatch.setattr(significance, "_BLOCK", budget)
        kernel = _SwapTauB(scores, h)
        kernel._forms(rng.random((n, 8)) < 0.5, 8)
        assert (kernel.blocks_built == 1) == (budget == 2**17)
        assert all(sums is captured[0] for sums in captured)
        rows, cols = captured[0]
        g = np.sign(h[:, None] - h[None, :])
        for k, (x, y) in enumerate(zip(*kernel.sign_pairs)):
            full = g * np.sign(scores[x][:, None] - scores[y][None, :])
            assert rows[k].tolist() == full.sum(axis=1).astype(int).tolist()
            assert cols[k].tolist() == full.sum(axis=0).astype(int).tolist()

    def test_non_finite_score_rejected(self):
        keys = [("s1", "g0"), ("s1", "g1"), ("s2", "g0"), ("s2", "g1")]
        ta = seg_table(dict(zip(keys, [1.0, float("nan"), 3.0, 4.0])))
        tb = seg_table(dict(zip(keys, [4.0, 3.0, 2.0, 1.0])), metric="B")
        with pytest.raises(NonFiniteScore):
            perm_both(ta, tb, dict(zip(keys, [1.0, 2.0, 3.0, 4.0])), r=10, seed=0)


class TestBonferroni:
    def test_single_comparison(self):
        assert bonferroni([0.04]) == [True]

    def test_two_comparisons(self):
        assert bonferroni([0.001, 0.04]) == [True, False]

    def test_empty(self):
        assert bonferroni([]) == []

    def test_bad_pvalue(self):
        with pytest.raises(ValueError):
            bonferroni([1.5])

    @given(st.lists(st.floats(0, 1), max_size=20), st.floats(0.01, 0.2))
    def test_implies_uncorrected(self, pvals, alpha):
        flags = bonferroni(pvals, alpha)
        for p, flag in zip(pvals, flags):
            if flag:
                assert p < alpha


class TestSegmentSigMatrix:
    def _human_and_tables(self, seed=53, n=40):
        rng = np.random.default_rng(seed)
        keys = [(s, f"g{i:02d}") for s in ("s1", "s2") for i in range(n)]
        human = rng.standard_normal(2 * n)
        tables = {
            "good": seg_table(dict(zip(keys, human + 0.05 * rng.standard_normal(2 * n))), metric="good"),
            "noise1": seg_table(dict(zip(keys, rng.standard_normal(2 * n))), metric="noise1"),
            "noise2": seg_table(dict(zip(keys, rng.standard_normal(2 * n))), metric="noise2"),
        }
        return dict(zip(keys, human)), tables

    def test_identical_metrics_nothing_significant(self):
        rng = np.random.default_rng(59)
        keys = [(s, f"g{i}") for s in ("s1", "s2") for i in range(12)]
        values = rng.standard_normal(24)
        tables = {
            "m1": seg_table(dict(zip(keys, values)), metric="m1"),
            "m2": seg_table(dict(zip(keys, values.copy())), metric="m2"),
        }
        human = dict(zip(keys, rng.standard_normal(24)))
        matrix = segment_sig_matrix(tables, human, TASK, r=100, seed=3)
        assert all(not cell.significant for cell in matrix.cells.values())

    def test_human_tracking_metric_wins_row(self):
        human, tables = self._human_and_tables()
        matrix = segment_sig_matrix(tables, human, TASK, r=300, seed=4)
        assert matrix.cells[("good", "noise1")].significant
        assert matrix.cells[("good", "noise2")].significant
        assert not matrix.cells[("noise1", "good")].significant

    def test_bonferroni_implies_significant(self):
        human, tables = self._human_and_tables(seed=61)
        matrix = segment_sig_matrix(tables, human, TASK, r=200, seed=5)
        for cell in matrix.cells.values():
            if cell.bonferroni_significant:
                assert cell.significant

    def test_work_counts_logged_at_info(self, caplog):
        human, tables = self._human_and_tables(seed=71, n=10)
        with caplog.at_level(logging.INFO, logger="lcmteval.significance"):
            segment_sig_matrix(tables, human, TASK, r=20, seed=7)
        work, resolution = [r.getMessage() for r in caplog.records]
        assert work.startswith(
            "segment significance aa-bb.80: 3 metrics, 6 ordered pairs, "
            "n=20 cells, R=20 replicates, 1 mask set, 3 unordered pairs, "
            "1 coefficient blocks built, "
        )
        assert resolution == (
            "segment significance aa-bb.80: no Bonferroni flag can be true: "
            "the smallest p-value at R=20, 1/(R+1), is not below alpha/m over "
            "m=6 ordered pairs; R=120 replicates or more can resolve it"
        )

    def test_bonferroni_flag_fires_from_the_least_resolving_r(
        self, caplog, tmp_path
    ):
        # 3 metrics give m = 6 ordered pairs: the smallest p-value 1/(R + 1)
        # is below alpha/m = 0.05/6 from R = 120 on, where the metric that
        # tracks the human scores beats both noise metrics under the flag in
        # every written format; below that the run says no flag can be true
        human, tables = self._human_and_tables()
        for r, resolves in ((119, False), (120, True)):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="lcmteval.significance"):
                matrix = segment_sig_matrix(tables, human, TASK, r=r, seed=4)
            messages = [record.getMessage() for record in caplog.records]
            unresolved = [m for m in messages if "no Bonferroni flag" in m]
            for fmt in ("csv", "txt", "svg"):
                emit_sig_matrix(
                    matrix, "textgrid" if fmt == "txt" else fmt, tmp_path / f"sig.{fmt}"
                )
            header, rows = read_csv_table(tmp_path / "sig.csv")
            column = header.index("bonferroni_significant")
            flagged = {(row[3], row[4]) for row in rows if row[column] == "true"}
            grid = (tmp_path / "sig.txt").read_text()
            svg = (tmp_path / "sig.svg").read_text()
            if resolves:
                assert unresolved == []
                assert flagged == {("good", "noise1"), ("good", "noise2")}
                assert matrix.cells[("good", "noise1")].p_value == 1 / 121
            else:
                assert len(unresolved) == 1
                assert "R=120 replicates or more" in unresolved[0]
                assert flagged == set()
            # "b" marks a Bonferroni win in the grid (no metric name has one),
            # an orange outline in the SVG
            assert grid.count("b") == svg.count('stroke="#ef6c00"') == len(flagged)

    @given(tie_heavy_metrics(), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_p_values_equal_one_perm_both_per_ordered_pair(self, cells, seed):
        scores, h = cells
        n = len(h)
        keys = dense_keys(n)
        tables = {
            f"m{j}": seg_table(dict(zip(keys, column)), f"m{j}")
            for j, column in enumerate(scores)
        }
        human = dict(zip(keys, h))
        try:
            expected = {
                (row, col): perm_both(tables[row], tables[col], human, r=40, seed=seed)
                for row in tables
                for col in tables
                if row != col
            }
        except AllTied:  # h or some replicate of some pair is all ties
            expected = None
        # the default budget (one tile, one batch), then tiles of a row or
        # less, each built once, and several batches
        for budget in (significance._BLOCK, 8 * n):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(significance, "_BLOCK", budget)
                if expected is None:
                    with pytest.raises(AllTied):
                        segment_sig_matrix(tables, human, TASK, r=40, seed=seed)
                    continue
                matrix = segment_sig_matrix(tables, human, TASK, r=40, seed=seed)
            assert {k: c.p_value for k, c in matrix.cells.items()} == expected

    @given(
        st.integers(3, 10).flatmap(
            lambda n: st.tuples(
                st.lists(
                    st.lists(SIGNED_LEVELS, min_size=n, max_size=n),
                    min_size=3, max_size=4,
                ),
                st.lists(st.integers(-2, 2).map(float), min_size=n, max_size=n),
            )
        ),
        st.integers(0, 2**32),
    )
    @settings(max_examples=30, deadline=None)
    def test_shrunk_budget_p_values_equal_enumeration_oracle(self, cells, seed):
        # tiles of a row or less, each built once, and several batches of a
        # few replicates at R = 25
        scores, h = cells
        n = len(h)
        keys = dense_keys(n)
        tables = {
            f"m{j}": seg_table(dict(zip(keys, column)), f"m{j}")
            for j, column in enumerate(scores)
        }
        human = dict(zip(keys, h))
        try:
            expected = {
                (row, col): perm_both_enumeration(
                    scores[int(row[1:])], scores[int(col[1:])], h, r=25, seed=seed
                )
                for row in tables
                for col in tables
                if row != col
            }
        except ZeroDivisionError:  # h or some replicate of some pair is all ties
            expected = None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(significance, "_BLOCK", 8 * n)
            if expected is None:
                with pytest.raises(AllTied):
                    segment_sig_matrix(tables, human, TASK, r=25, seed=seed)
                return
            matrix = segment_sig_matrix(tables, human, TASK, r=25, seed=seed)
        assert {k: c.p_value for k, c in matrix.cells.items()} == expected

    def test_pairs_share_q_and_cells_are_ranked_once(self, monkeypatch, caplog):
        # 3 metrics (3 unordered pairs) share one mask set and one product of
        # all their forms per tile and batch; each tile is built once
        rng = np.random.default_rng(97)
        n = 90
        keys = dense_keys(n)
        tables = {
            name: seg_table(dict(zip(keys, rng.integers(0, 5, n) / 4)), name)
            for name in ("A", "B", "C")
        }
        human = dict(zip(keys, rng.integers(-3, 4, n).astype(float)))
        calls = {"_gather": 0, "_dense_ranks": 0}
        built, sizes = [], []

        def counting(name):
            real = getattr(significance, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(significance, name, counting(name))
        real_coefficients, real_forms = _SwapTauB._coefficients, _SwapTauB._forms

        def counting_coefficients(self, lo, hi, c0, c1, out, sums):
            built.append((lo, hi, c0, c1))
            return real_coefficients(self, lo, hi, c0, c1, out, sums)

        def counting_forms(self, masks, size):
            sizes.append(size)
            return real_forms(self, masks, size)

        monkeypatch.setattr(_SwapTauB, "_coefficients", counting_coefficients)
        monkeypatch.setattr(_SwapTauB, "_forms", counting_forms)
        for budget, r, size, n_tiles in (
            # one tile (89 x 89 entries) and one batch of R = 200
            (200 * 89 * 89, 200, 200, 1),
            # 46 tiles of at most 126 entries, R = 60 in 3 batches of 20
            (4 * n * 7, 60, 20, 46),
        ):
            for counter in calls:
                calls[counter] = 0
            built.clear()
            sizes.clear()
            caplog.clear()
            monkeypatch.setattr(significance, "_BLOCK", budget)
            with caplog.at_level(logging.INFO, logger="lcmteval.significance"):
                segment_sig_matrix(tables, human, TASK, r=r, seed=8)
            # one gather and two rankings (the scores and h) per task
            assert calls == {"_gather": 1, "_dense_ranks": 2}
            assert sizes == [size]
            assert len(built) == n_tiles
            assert_each_pair_in_one_tile(built, n)
            (message,) = [
                r.getMessage() for r in caplog.records if "blocks built" in r.getMessage()
            ]
            assert (
                f"R={r} replicates, 1 mask set, 3 unordered pairs, "
                f"{n_tiles} coefficient blocks built, "
            ) in message

    def test_one_generator_per_matrix(self, monkeypatch):
        # 4 metrics, not in sorted order: the 6 unordered pairs share the
        # matrix's one generator; 4 batches of 5 replicates
        rng = np.random.default_rng(101)
        n = 12
        keys = dense_keys(n)
        names = ["m2", "m0", "m3", "m1"]
        tables = {
            name: seg_table(dict(zip(keys, rng.standard_normal(n))), name)
            for name in names
        }
        human = dict(zip(keys, rng.standard_normal(n)))
        real_rng_for = significance.rng_for
        keys_seen = []

        def counting_rng_for(*key):
            keys_seen.append(key)
            return real_rng_for(*key)

        monkeypatch.setattr(significance, "rng_for", counting_rng_for)
        monkeypatch.setattr(significance, "_BLOCK", 7 * n)
        segment_sig_matrix(tables, human, TASK, r=20, seed=9)
        assert keys_seen == [(9, "perm-both")]

    def test_generator_is_built_before_the_clock_starts(self, monkeypatch):
        # the first generator of a process imports numpy.random; the INFO
        # time of a matrix must not include it
        keys = dense_keys(6)
        tables = {name: seg_table(dict(zip(keys, range(6))), name) for name in "AB"}
        human = dict(zip(keys, [0.5, 0.1, 0.9, 0.3, 0.7, 0.2]))
        events = []
        real_rng_for = significance.rng_for

        def noting_rng_for(*key):
            events.append("rng_for")
            return real_rng_for(*key)

        def noting_perf_counter():
            events.append("clock")
            return 0.0

        monkeypatch.setattr(significance, "rng_for", noting_rng_for)
        monkeypatch.setattr(
            significance, "time", SimpleNamespace(perf_counter=noting_perf_counter)
        )
        segment_sig_matrix(tables, human, TASK, r=10, seed=4)
        assert events == ["rng_for", "clock", "clock"]

    @pytest.mark.parametrize("n, r", [(24, 1000), (200, 20)])
    def test_peak_memory_bounded(self, n, r):
        # the fixture's shape (24 cells, 11 metrics, R = 1000) and the pool
        # workload's (200 cells, R = 20); six score levels shared by every
        # metric give every pair both cross forms
        rng = np.random.default_rng(103)
        keys = dense_keys(n, systems=4)
        tables = {
            f"m{j}": seg_table(dict(zip(keys, rng.integers(0, 6, n) / 5)), f"m{j}")
            for j in range(11)
        }
        human = dict(zip(keys, rng.standard_normal(n)))
        tracemalloc.start()
        try:
            segment_sig_matrix(tables, human, TASK, r=r, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_float64_counts_equal_float32(self, monkeypatch):
        # past n = 2048 the forms and counts are taken in float64; forcing
        # that path here gives the same p-values, under one tile and under
        # several tiles and batches
        human, tables = self._human_and_tables(seed=107, n=15)
        for budget in (significance._BLOCK, 300):
            monkeypatch.setattr(significance, "_BLOCK", budget)
            monkeypatch.setattr(significance, "_FLOAT32_EXACT", 2**24)
            single = segment_sig_matrix(tables, human, TASK, r=90, seed=2)
            monkeypatch.setattr(significance, "_FLOAT32_EXACT", 0)
            double = segment_sig_matrix(tables, human, TASK, r=90, seed=2)
            assert {k: c.p_value for k, c in double.cells.items()} == {
                k: c.p_value for k, c in single.cells.items()
            }

    def test_cell_errors_match_perm_both(self):
        keys = [("s1", "g0"), ("s1", "g1"), ("s2", "g0"), ("s2", "g1")]
        human = dict(zip(keys, [1.0, 2.0, 3.0, 4.0]))
        tables = {
            "A": seg_table(dict(zip(keys, [1.0, 2.0, 3.0, 4.0])), "A"),
            "B": seg_table(dict(zip(keys, [4.0, 3.0, 2.0, 1.0])), "B"),
            # dense, but over other cells than A and B
            "C": seg_table(dict(zip(keys[:2], [1.0, 2.0])), "C"),
        }
        with pytest.raises(CellMismatch) as single:
            perm_both(tables["A"], tables["C"], human, r=10, seed=0)
        with pytest.raises(CellMismatch) as matrix:
            segment_sig_matrix(tables, human, TASK, r=10, seed=0)
        assert str(matrix.value) == str(single.value)
        # a human mapping that misses a cell or holds one more: every reader
        # of A and B refuses it with the same message
        for misaligned in (
            {k: v for k, v in human.items() if k != keys[2]},
            {**human, ("s3", "g0"): 5.0},
        ):
            messages = set()
            for read in READERS.values():
                with pytest.raises(CellMismatch) as error:
                    read([tables["A"], tables["B"]], misaligned)
                messages.add(str(error.value))
            assert len(messages) == 1, messages
        tables["C"] = seg_table(dict(zip(keys, [1.0, float("inf"), 3.0, 4.0])), "C")
        with pytest.raises(NonFiniteScore):
            segment_sig_matrix(tables, human, TASK, r=10, seed=0)

    def test_pair_order_does_not_change_results(self):
        # three equally noisy readings of the human scores: no metric is
        # better, so each pair's p-value sits mid-range and moves with the
        # masks, which therefore must not depend on the table order
        rng = np.random.default_rng(67)
        keys = [(s, f"g{i:02d}") for s in ("s1", "s2") for i in range(20)]
        h = rng.standard_normal(40)
        human = dict(zip(keys, h))
        tables = {
            name: seg_table(dict(zip(keys, h + rng.standard_normal(40))), name)
            for name in ("near1", "near2", "near3")
        }
        forward = segment_sig_matrix(tables, human, TASK, r=150, seed=6)
        assert all(0.1 < cell.p_value < 0.9 for cell in forward.cells.values())
        reordered = segment_sig_matrix(
            dict(reversed(list(tables.items()))), human, TASK, r=150, seed=6
        )
        for key, cell in forward.cells.items():
            assert reordered.cells[key].p_value == cell.p_value


class TestPairedBootstrap:
    def test_no_resamples_rejected(self):
        a = {f"g{i}": float(i) for i in range(10)}
        with pytest.raises(ValueError):
            paired_bootstrap(a, dict(a), b_iter=0, seed=1)

    def test_identical_arrays_half(self):
        a = {f"g{i}": float(i % 7) for i in range(200)}
        assert paired_bootstrap(a, dict(a), b_iter=1000, seed=1) == 0.5

    def test_strict_dominance_zero(self):
        b = {f"g{i}": float(i % 5) for i in range(50)}
        a = {k: v + 1.0 for k, v in b.items()}
        assert paired_bootstrap(a, b, b_iter=500, seed=2) == 0.0

    def test_common_shift_invariance(self):
        rng = np.random.default_rng(71)
        b = {f"g{i}": float(rng.integers(0, 10)) for i in range(60)}
        a = {k: v + float(rng.integers(0, 3)) for k, v in b.items()}
        base = paired_bootstrap(a, b, b_iter=400, seed=3)
        shifted = paired_bootstrap(
            {k: v + 10.0 for k, v in a.items()},
            {k: v + 10.0 for k, v in b.items()},
            b_iter=400,
            seed=3,
        )
        assert base == shifted

    def test_alignment_mismatch(self):
        with pytest.raises(AlignmentMismatch):
            paired_bootstrap({"g1": 1.0, "g2": 2.0}, {"g1": 1.0, "g3": 2.0})

    def test_deterministic(self):
        rng = np.random.default_rng(73)
        a = {f"g{i}": float(rng.random()) for i in range(30)}
        b = {f"g{i}": float(rng.random()) for i in range(30)}
        assert paired_bootstrap(a, b, seed=9) == paired_bootstrap(a, b, seed=9)
        assert paired_bootstrap(a, b, seed=9) != paired_bootstrap(a, b, seed=10)

    def test_dagger_marks(self):
        assert dagger_marks(0.005) == "††"
        assert dagger_marks(0.03) == "†"
        assert dagger_marks(0.2) == ""
        assert dagger_marks(0.05) == ""  # thresholds are strict
