import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmteval.corpus import RatingRecord, SegmentRecord, Task
from lcmteval.errors import (
    EmptySet,
    InsufficientOverlap,
    NoPairableUnits,
    NotEnoughSegments,
    ZeroVariance,
)
from lcmteval.metrics import CHARACTER
from lcmteval import ratings as ratings_module
from lcmteval.ratings import (
    NormalizedRating,
    agreement,
    aggregate_segment_human,
    generate_traps,
    krippendorff_alpha,
    one_vs_rest,
    timing_report,
    trap_report,
    trap_schedule_count,
    znormalize,
)

from .oracles import krippendorff_interval_bruteforce, one_vs_rest_bruteforce

TASK = Task("aa-bb", 0.8)


def rating(annotator, seg, score, system="s1", task=TASK, duration=30.0, trap=False):
    return RatingRecord(
        annotator_id=annotator,
        task=task,
        seg_id=seg,
        system_id=system,
        raw_score=score,
        duration_s=duration,
        is_trap=trap,
    )


def segment(seg_id, reference, direction="aa-bb"):
    return SegmentRecord(
        seg_id=seg_id, direction=direction, source_text="src",
        reference_text=reference,
    )


class TestGenerateTraps:
    def test_floor_rule_ten_tokens(self):
        segs = [segment("g1", "t1 t2 t3 t4 t5 t6 t7 t8 t9 t10")]
        (trap,) = generate_traps(segs, 0.5, 1, seed=1)
        assert trap.truncated_text == "t1 t2 t3 t4 t5"

    def test_floor_rule_seven_tokens(self):
        segs = [segment("g1", "t1 t2 t3 t4 t5 t6 t7")]
        (trap,) = generate_traps(segs, 0.5, 1, seed=1)
        assert trap.truncated_text == "t1 t2 t3"

    def test_character_scheme(self):
        segs = [segment("g1", "明天下雨了")]
        (trap,) = generate_traps(segs, 0.8, 1, seed=1, scheme=CHARACTER)
        assert trap.truncated_text == "明天下雨"

    def test_strict_prefix_invariant(self):
        segs = [segment(f"g{i}", f"w{i} a b c d e f") for i in range(20)]
        for trap in generate_traps(segs, 0.5, 10, seed=3):
            original = trap.original_reference.split()
            truncated = trap.truncated_text.split()
            assert len(truncated) < len(original)
            assert original[: len(truncated)] == truncated

    def test_sampling_without_replacement(self):
        segs = [segment(f"g{i}", "a b c d") for i in range(30)]
        traps = generate_traps(segs, 0.5, 30, seed=5)
        assert len({t.seg_id for t in traps}) == 30

    def test_not_enough_segments(self):
        with pytest.raises(NotEnoughSegments):
            generate_traps([segment("g1", "a b")], 0.5, 2, seed=1)

    def test_negative_count_rejected(self):
        segs = [segment(f"g{i}", "a b c d") for i in range(10)]
        with pytest.raises(ValueError, match="trap count"):
            generate_traps(segs, 0.5, -3, seed=1)

    def test_deterministic_across_runs(self):
        segs = [segment(f"g{i}", f"x{i} y z w v") for i in range(50)]
        first = generate_traps(segs, 0.5, 20, seed=99)
        second = generate_traps(segs, 0.5, 20, seed=99)
        assert first == second
        assert first != generate_traps(segs, 0.5, 20, seed=100)

    def test_schedule_count_matches_campaign_arithmetic(self):
        assert trap_schedule_count(2, 2, 3, 60) == 720


class TestTrapReport:
    def test_all_zero(self):
        buckets = trap_report([rating("a", "g", 0, trap=True) for _ in range(3)])
        assert (buckets.zero, buckets.low, buckets.high) == (3, 0, 0)

    def test_bucket_boundaries(self):
        records = [
            rating("a", "g", 0, trap=True),
            rating("a", "g", 15, trap=True),
            rating("a", "g", 30, trap=True),
        ]
        buckets = trap_report(records)
        assert (buckets.zero, buckets.low, buckets.high) == (1, 1, 1)

    def test_boundary_score_20_is_low(self):
        buckets = trap_report([rating("a", "g", 20, trap=True)])
        assert buckets.low == 1

    def test_campaign_scale_report(self):
        # a task shape like a strict annotator pool: 180 traps, all zeroed
        records = [rating("a", f"g{i}", 0, trap=True) for i in range(180)]
        buckets = trap_report(records)
        assert (buckets.zero, buckets.low, buckets.high) == (180, 0, 0)

    def test_rejects_non_trap(self):
        with pytest.raises(ValueError):
            trap_report([rating("a", "g", 5, trap=False)])

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=50))
    def test_buckets_partition(self, scores):
        records = [rating("a", f"g{i}", s, trap=True) for i, s in enumerate(scores)]
        buckets = trap_report(records)
        assert buckets.total == len(scores)


class TestTimingReport:
    def test_simple_mean(self):
        stats = timing_report([rating("a", "g", 1, duration=50.0),
                               rating("a", "g", 1, duration=70.0)])
        assert stats.all_ave == 60.0
        assert stats.cut_ave == 60.0

    def test_cutoff(self):
        records = [rating("a", "g", 1, duration=d) for d in (50.0, 70.0, 1000.0)]
        stats = timing_report(records)
        assert stats.all_ave == pytest.approx(373.3333333333333)
        assert stats.cut_ave == 60.0

    def test_all_above_cutoff(self):
        stats = timing_report([rating("a", "g", 1, duration=700.0)])
        assert stats.cut_ave is None

    def test_cutoff_is_strict(self):
        stats = timing_report([rating("a", "g", 1, duration=600.0)], cutoff_s=600.0)
        assert stats.cut_ave is None

    def test_empty(self):
        with pytest.raises(EmptySet):
            timing_report([])


class TestZNormalize:
    def test_hand_computed_case(self):
        records = [rating("a", f"g{i}", s) for i, s in enumerate([0, 50, 100])]
        z = [r.z for r in znormalize(records)]
        assert z == pytest.approx(
            [-1.224744871391589, 0.0, 1.224744871391589], abs=1e-12
        )

    def test_a_normalized_rating_is_its_rating_plus_z(self):
        records = [rating("a", f"g{i}", s, trap=s == 0) for i, s in enumerate([0, 90])]
        for rec, out in zip(records, znormalize(records, include_traps=True)):
            assert isinstance(out, RatingRecord)
            assert out == NormalizedRating(**vars(rec), z=out.z)
        # normalising normalised ratings again gives the same records
        normalized = znormalize(records, include_traps=True)
        assert znormalize(normalized, include_traps=True) == normalized

    def test_constant_scores_zero_variance(self):
        records = [rating("a", f"g{i}", 42) for i in range(5)]
        with pytest.raises(ZeroVariance):
            znormalize(records)

    def test_group_moments(self):
        rng = np.random.default_rng(7)
        records = [
            rating(a, f"g{i}", int(score))
            for a in ("a1", "a2")
            for i, score in enumerate(rng.integers(0, 101, size=40))
        ]
        normalized = znormalize(records)
        for annotator in ("a1", "a2"):
            zs = [r.z for r in normalized if r.annotator_id == annotator]
            assert abs(sum(zs) / len(zs)) < 1e-9
            var = sum(z * z for z in zs) / len(zs)
            assert abs(var - 1.0) < 1e-9

    def test_traps_dropped_by_default(self):
        records = [rating("a", f"g{i}", s) for i, s in enumerate([10, 90])]
        records.append(rating("a", "gt", 0, trap=True))
        normalized = znormalize(records)
        assert len(normalized) == 2
        with_traps = znormalize(records, include_traps=True)
        assert len(with_traps) == 3

    @given(st.lists(st.integers(0, 20), min_size=3, max_size=30).filter(
        lambda s: len(set(s)) > 1
    ))
    def test_affine_invariance(self, scores):
        base = [rating("a", f"g{i}", s) for i, s in enumerate(scores)]
        shifted = [rating("a", f"g{i}", 4 * s + 7) for i, s in enumerate(scores)]
        z_base = [r.z for r in znormalize(base)]
        z_shift = [r.z for r in znormalize(shifted)]
        assert z_shift == pytest.approx(z_base, abs=1e-12)


class TestAggregate:
    def test_single_annotator_identity(self):
        normalized = znormalize([rating("a", "g1", 0), rating("a", "g2", 100)])
        aggregated, warnings = aggregate_segment_human(normalized)
        assert aggregated[(TASK, "s1", "g1")] == normalized[0].z
        assert not warnings

    def test_symmetric_values_average_to_zero(self):
        scores = {"a1": 0, "a2": 50, "a3": 100}
        records = [
            rating(a, seg, scores[a])
            for a in scores
            for seg in ("g1", "g2", "g3")
        ]
        # vary one cell per annotator to avoid zero variance
        records += [rating(a, "g4", 25) for a in scores]
        normalized = znormalize(records)
        aggregated, _ = aggregate_segment_human(normalized)
        zs = [r.z for r in normalized if r.seg_id == "g1"]
        assert aggregated[(TASK, "s1", "g1")] == pytest.approx(sum(zs) / 3)

    def test_missing_annotator_warning(self):
        records = [
            rating(a, seg, score)
            for a in ("a1", "a2", "a3")
            for seg, score in (("g1", 10), ("g2", 90), ("g3", 55))
        ]
        records = [
            r for r in records if not (r.annotator_id == "a3" and r.seg_id == "g2")
        ]
        normalized = znormalize(records)
        aggregated, warnings = aggregate_segment_human(
            normalized, annotators_per_task=3
        )
        assert len(warnings) == 1 and "g2" in warnings[0]
        assert len(aggregated) == 3


class TestOneVsRest:
    def test_perfect_agreement(self):
        records = [
            rating(a, f"g{i}", s)
            for a in ("a1", "a2", "a3")
            for i, s in enumerate([10, 40, 70, 90])
        ]
        assert one_vs_rest(records) == pytest.approx(1.0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(11)
        matrix = {
            a: {f"g{i}": float(rng.integers(0, 101)) for i in range(12)}
            for a in ("a1", "a2", "a3")
        }
        records = [
            rating(a, item, int(score))
            for a, items in matrix.items()
            for item, score in items.items()
        ]
        expected = one_vs_rest_bruteforce(matrix)
        assert one_vs_rest(records) == pytest.approx(expected, abs=1e-12)

    def test_needs_two_annotators(self):
        records = [rating("a1", f"g{i}", 10 * i) for i in range(5)]
        with pytest.raises(InsufficientOverlap):
            one_vs_rest(records)

    def test_insufficient_shared_items(self):
        records = [
            rating("a1", "g1", 10), rating("a1", "g2", 20),
            rating("a2", "g1", 30), rating("a2", "g2", 40),
        ]
        with pytest.raises(InsufficientOverlap):
            one_vs_rest(records)

    def test_affine_invariance_per_annotator(self):
        rng = np.random.default_rng(13)
        base = {
            a: {f"g{i}": int(rng.integers(0, 26)) for i in range(10)}
            for a in ("a1", "a2", "a3")
        }
        records = [
            rating(a, item, score)
            for a, items in base.items()
            for item, score in items.items()
        ]
        transformed = [
            rating(
                r.annotator_id,
                r.seg_id,
                3 * r.raw_score + {"a1": 5, "a2": 0, "a3": 11}[r.annotator_id],
            )
            for r in records
        ]
        assert one_vs_rest(records) == pytest.approx(
            one_vs_rest(transformed), abs=1e-12
        )


class TestKrippendorff:
    def test_perfect_agreement(self):
        records = [
            rating(a, f"g{i}", s)
            for a in ("a1", "a2", "a3")
            for i, s in enumerate([5, 30, 60, 95])
        ]
        assert krippendorff_alpha(records) == 1.0

    def test_every_unit_rated_once(self):
        records = [rating("a1", "g1", 5), rating("a2", "g2", 10)]
        with pytest.raises(NoPairableUnits):
            krippendorff_alpha(records)

    def test_matches_bruteforce_on_small_matrix(self):
        # 3 raters x 4 units with one missing cell
        data = {
            ("a1", "g1"): 10, ("a1", "g2"): 40, ("a1", "g3"): 70, ("a1", "g4"): 90,
            ("a2", "g1"): 20, ("a2", "g2"): 45, ("a2", "g3"): 60,
            ("a3", "g1"): 15, ("a3", "g2"): 50, ("a3", "g3"): 80, ("a3", "g4"): 85,
        }
        records = [rating(a, g, s) for (a, g), s in data.items()]
        units = {}
        for (a, g), s in data.items():
            units.setdefault(g, []).append(float(s))
        expected = krippendorff_interval_bruteforce(units)
        assert krippendorff_alpha(records) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_bruteforce_randomized(self, seed):
        rng = np.random.default_rng(seed)
        units = {}
        records = []
        for i in range(int(rng.integers(3, 8))):
            n_raters = int(rng.integers(1, 5))
            values = rng.integers(0, 101, size=n_raters)
            units[f"g{i}"] = [float(v) for v in values]
            records += [
                rating(f"a{j}", f"g{i}", int(v)) for j, v in enumerate(values)
            ]
        pairable = [vals for vals in units.values() if len(vals) > 1]
        if not pairable:
            with pytest.raises(NoPairableUnits):
                krippendorff_alpha(records)
            return
        expected = krippendorff_interval_bruteforce(units)
        assert krippendorff_alpha(records) == pytest.approx(expected, abs=1e-12)

    def test_identical_values_alpha_one(self):
        records = [rating(a, "g1", 50) for a in ("a1", "a2", "a3")]
        assert krippendorff_alpha(records) == 1.0

    def test_random_ratings_near_zero(self):
        rng = np.random.default_rng(42)
        records = [
            rating(f"a{j}", f"g{i}", int(rng.integers(0, 101)))
            for i in range(500)
            for j in range(3)
        ]
        assert abs(krippendorff_alpha(records)) < 0.05


class TestAgreement:
    def test_equals_the_separate_statistics(self, campaign):
        for task in campaign.tasks():
            task_ratings = campaign.ratings_for_task(task)
            for with_traps in (True, False):
                result = agreement(task_ratings, include_traps=with_traps)
                assert result.one_vs_rest_r == one_vs_rest(task_ratings, with_traps)
                assert result.krippendorff_alpha == krippendorff_alpha(
                    task_ratings, with_traps
                )
                kept = [r for r in task_ratings if with_traps or not r.is_trap]
                raters: dict[tuple[str, str], set[str]] = {}
                for r in kept:
                    raters.setdefault((r.system_id, r.seg_id), set()).add(
                        r.annotator_id
                    )
                assert result.n_items == sum(len(a) > 1 for a in raters.values())
                assert result.with_traps is with_traps

    def test_one_item_table_per_call(self, campaign, monkeypatch):
        calls = []
        real = ratings_module._item_scores

        def counting(ratings, include_traps):
            calls.append(include_traps)
            return real(ratings, include_traps)

        monkeypatch.setattr(ratings_module, "_item_scores", counting)
        agreement(campaign.ratings_for_task(campaign.tasks()[0]), include_traps=True)
        assert calls == [True]

    def test_one_task_check_hashes_no_task(self, monkeypatch):
        hashes = []
        real_hash = Task.__hash__

        def counting_hash(task):
            hashes.append(task)
            return real_hash(task)

        monkeypatch.setattr(Task, "__hash__", counting_hash)
        records = [
            rating(a, f"g{i}", s, task=Task("aa-bb", 0.8))  # equal, not shared
            for a in ("a1", "a2", "a3")
            for i, s in enumerate([10, 40, 70, 90])
        ]
        assert agreement(records).n_items == 4
        assert hashes == []

    def test_ratings_from_two_tasks_rejected(self):
        records = [
            rating(a, f"g{i}", s)
            for a in ("a1", "a2", "a3")
            for i, s in enumerate([10, 40, 70, 90])
        ]
        records.append(rating("a1", "g9", 50, task=Task("aa-bb", 0.5)))
        for statistic in (agreement, one_vs_rest, krippendorff_alpha):
            with pytest.raises(
                ValueError, match="agreement expects ratings from one task, got 2"
            ):
                statistic(records)

    def test_no_ratings_rejected(self):
        for statistic in (agreement, one_vs_rest, krippendorff_alpha):
            with pytest.raises(EmptySet):
                statistic([rating("a1", "g1", 10, trap=True)])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: generate_traps([segment("g1", "a b c d")], 1.0, 1, 0), ValueError,
         "trap ratio must be in (0, 1), got 1.0"),
        # a1 rates every shared item alike, so its one-vs-rest r is undefined
        (
            lambda: one_vs_rest(
                [rating(a, g, score)
                 for g, others in (("g1", 10), ("g2", 20), ("g3", 40))
                 for a, score in (("a1", 50), ("a2", others))]
            ),
            ZeroVariance,
            "constant vector in one-vs-rest correlation",
        ),
    ],
    ids=["trap-ratio-one", "constant-annotator"],
)
def test_each_refusal_names_its_cause(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
