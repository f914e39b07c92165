"""Human-rating processing: trap samples, timing QC, per-annotator
z-normalization, segment-score aggregation, and inter-annotator agreement.

The agreement statistics read one task's ratings through one item table,
(system, segment) -> annotator -> score: :func:`agreement` builds it once
and takes one-vs-rest r, Krippendorff's alpha and the pairable item count
from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, Sequence

from .corpus import RatingRecord, SegmentRecord, Task
from .errors import (
    EmptySet,
    InsufficientOverlap,
    NoPairableUnits,
    NotEnoughSegments,
    ZeroVariance,
)
from .metrics import WHITESPACE, left_sum, tokenize
from .seeding import rng_for


@dataclass(frozen=True)
class TrapPair:
    """A truncated-reference trap item paired with its original reference."""

    seg_id: str
    truncated_text: str
    original_reference: str
    ratio: float


@dataclass(frozen=True)
class NormalizedRating(RatingRecord):
    """A rating with its raw score standardised in its (annotator, task)
    group."""

    z: float


# a rating's fields, read one by one: vars() would make CPython build a
# __dict__ object for every loaded rating, which outlives the call
_rating_fields = attrgetter(*(f.name for f in fields(RatingRecord)))


@dataclass(frozen=True)
class TrapBuckets:
    zero: int
    low: int
    high: int

    @property
    def total(self) -> int:
        return self.zero + self.low + self.high


@dataclass(frozen=True)
class TimingStats:
    all_ave: float
    cut_ave: float | None


@dataclass(frozen=True)
class AgreementResult:
    one_vs_rest_r: float
    krippendorff_alpha: float
    with_traps: bool
    n_items: int


def generate_traps(
    segments: Sequence[SegmentRecord],
    ratio: float,
    count: int,
    seed: int,
    scheme: str = WHITESPACE,
) -> list[TrapPair]:
    """Sample ``count`` segments without replacement and truncate each
    reference to the leading floor(ratio * token_count) tokens.
    """
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"trap ratio must be in (0, 1), got {ratio}")
    if count < 0:
        raise ValueError(f"trap count must be >= 0, got {count}")
    if count > len(segments):
        raise NotEnoughSegments(
            f"requested {count} traps from {len(segments)} segments"
        )
    rng = rng_for(seed, "traps")
    order = rng.permutation(len(segments))[:count]
    joiner = " " if scheme == WHITESPACE else ""
    traps = []
    for ix in order:
        seg = segments[int(ix)]
        tokens = tokenize(seg.reference_text, scheme).tokens
        keep = math.floor(ratio * len(tokens))
        traps.append(
            TrapPair(
                seg_id=seg.seg_id,
                truncated_text=joiner.join(tokens[:keep]),
                original_reference=seg.reference_text,
                ratio=ratio,
            )
        )
    return traps


def trap_schedule_count(
    n_directions: int, n_ratios: int, annotators_per_task: int, traps_per_annotator: int
) -> int:
    """Total trap annotations a campaign schedules."""
    return n_directions * n_ratios * annotators_per_task * traps_per_annotator


def trap_report(ratings: Iterable[RatingRecord]) -> TrapBuckets:
    """Bucket trap ratings: zero (= 0), low (0 < score <= 20), high (> 20)."""
    zero = low = high = 0
    for rec in ratings:
        if not rec.is_trap:
            raise ValueError(f"non-trap rating passed to trap_report: {rec}")
        if rec.raw_score == 0:
            zero += 1
        elif rec.raw_score <= 20:
            low += 1
        else:
            high += 1
    return TrapBuckets(zero=zero, low=low, high=high)


def timing_report(
    ratings: Sequence[RatingRecord], cutoff_s: float = 600.0
) -> TimingStats:
    """Mean annotation duration, overall and restricted to < cutoff seconds."""
    if not ratings:
        raise EmptySet("timing_report needs at least one rating")
    durations = [r.duration_s for r in ratings]
    below = [d for d in durations if d < cutoff_s]
    return TimingStats(
        all_ave=left_sum(durations) / len(durations),
        cut_ave=left_sum(below) / len(below) if below else None,
    )


def znormalize(
    ratings: Iterable[RatingRecord], include_traps: bool = False
) -> list[NormalizedRating]:
    """Standardize raw scores per (annotator, task) group.

    Uses the population standard deviation so each group's z-scores have
    mean 0 and variance exactly 1.  With ``include_traps`` false, trap
    ratings are dropped before normalization and do not appear in the
    output.
    """
    kept = [r for r in ratings if include_traps or not r.is_trap]
    groups: dict[tuple[str, Task], list[RatingRecord]] = {}
    for rec in kept:
        groups.setdefault((rec.annotator_id, rec.task), []).append(rec)

    stats: dict[tuple[str, Task], tuple[float, float]] = {}
    for key, group in groups.items():
        scores = [r.raw_score for r in group]
        if len(set(scores)) < 2:
            annotator, task = key
            raise ZeroVariance(
                f"annotator {annotator!r} has constant scores in task {task.label}"
            )
        mean = sum(scores) / len(scores)
        var = left_sum((s - mean) ** 2 for s in scores) / len(scores)
        stats[key] = (mean, math.sqrt(var))

    out = []
    for rec in kept:
        mean, sd = stats[(rec.annotator_id, rec.task)]
        out.append(NormalizedRating(*_rating_fields(rec), (rec.raw_score - mean) / sd))
    return out


def aggregate_segment_human(
    normalized: Iterable[NormalizedRating],
    annotators_per_task: int | None = None,
) -> tuple[dict[tuple[Task, str, str], float], list[str]]:
    """Average z-scores across annotators per (task, system, segment) key.

    Returns the aggregate map plus warnings for keys rated by fewer than
    ``annotators_per_task`` annotators.
    """
    by_key: dict[tuple[Task, str, str], list[float]] = {}
    for rec in normalized:
        if rec.is_trap:
            continue
        by_key.setdefault((rec.task, rec.system_id, rec.seg_id), []).append(rec.z)

    warnings = []
    aggregated = {}
    for key in sorted(by_key, key=lambda k: (k[0], k[1], k[2])):
        values = by_key[key]
        aggregated[key] = left_sum(values) / len(values)
        if annotators_per_task is not None and len(values) < annotators_per_task:
            task, system, seg = key
            warnings.append(
                f"({task.label}, {system}, {seg}): {len(values)} of "
                f"{annotators_per_task} annotators"
            )
    return aggregated, warnings


def _pearson(x: Sequence[float], y: Sequence[float]) -> float:
    n = len(x)
    mx = left_sum(x) / n
    my = left_sum(y) / n
    sxx = left_sum((a - mx) ** 2 for a in x)
    syy = left_sum((b - my) ** 2 for b in y)
    sxy = left_sum((a - mx) * (b - my) for a, b in zip(x, y))
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVariance("constant vector in one-vs-rest correlation")
    return max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))


Items = dict[tuple[str, str], dict[str, float]]


def _item_scores(ratings: Sequence[RatingRecord], include_traps: bool) -> Items:
    """item (system, seg) -> annotator -> raw score, for a single task."""
    kept = [r for r in ratings if include_traps or not r.is_trap]
    if not kept:
        raise EmptySet("no ratings for agreement computation")
    task = kept[0].task
    if any(r.task != task for r in kept):
        tasks = {r.task for r in kept}
        raise ValueError(f"agreement expects ratings from one task, got {len(tasks)}")
    items: Items = {}
    for rec in kept:
        item = items.setdefault((rec.system_id, rec.seg_id), {})
        item[rec.annotator_id] = float(rec.raw_score)
    return items


def _one_vs_rest(items: Items) -> float:
    annotators = sorted({a for scores in items.values() for a in scores})
    if len(annotators) < 2:
        raise InsufficientOverlap("one_vs_rest needs at least two annotators")

    # one pass over the items: each annotator's scores and the mean of the
    # others' on the items it shares, in item order
    own: dict[str, list[float]] = {a: [] for a in annotators}
    rest: dict[str, list[float]] = {a: [] for a in annotators}
    for scores in items.values():
        if len(scores) < 2:
            continue
        for annotator, score in scores.items():
            others = [v for a, v in scores.items() if a != annotator]
            own[annotator].append(score)
            rest[annotator].append(left_sum(others) / len(others))

    correlations = []
    for annotator in annotators:
        if len(own[annotator]) < 3:
            raise InsufficientOverlap(
                f"annotator {annotator!r} shares only {len(own[annotator])} items "
                "with the rest"
            )
        correlations.append(_pearson(own[annotator], rest[annotator]))
    return left_sum(correlations) / len(correlations)


def one_vs_rest(
    ratings: Sequence[RatingRecord],
    include_traps: bool = False,
) -> float:
    """Mean over annotators of Pearson r between the annotator's scores and
    the unweighted mean of all other annotators' scores on shared items;
    every annotator needs at least three of them.
    """
    return _one_vs_rest(_item_scores(ratings, include_traps))


def _pairable(items: Items) -> list[list[float]]:
    """The scores of every item rated by at least two annotators."""
    return [list(scores.values()) for scores in items.values() if len(scores) > 1]


def _krippendorff_alpha(units: list[list[float]]) -> float:
    if not units:
        raise NoPairableUnits("no unit has two or more ratings")

    n = sum(len(u) for u in units)
    if n < 2:
        raise NoPairableUnits("need at least two pairable values")

    # Sum of squared differences over ordered pairs (i != j) inside a group
    # of values v equals 2m*sum(v^2) - 2*(sum(v))^2 ... with m = len(v);
    # the i == j terms contribute zero so they can be included for free.
    s1s = [left_sum(values) for values in units]
    s2s = [left_sum(v * v for v in values) for values in units]
    d_obs = 0.0
    for values, s1, s2 in zip(units, s1s, s2s):
        m = len(values)
        d_obs += (2 * m * s2 - 2 * s1 * s1) / (m - 1)
    d_obs /= n

    all_s1 = left_sum(s1s)
    all_s2 = left_sum(s2s)
    d_exp = (2 * n * all_s2 - 2 * all_s1 * all_s1) / (n * (n - 1))

    if d_exp == 0.0:
        return 1.0
    return 1.0 - d_obs / d_exp


def krippendorff_alpha(
    ratings: Sequence[RatingRecord],
    include_traps: bool = False,
) -> float:
    """Krippendorff's alpha for interval data over (system, segment) units.

    alpha = 1 - D_o / D_e with squared-difference disagreement, computed over
    units carrying at least two ratings.  If every pairable value is
    identical the expected disagreement is zero and alpha is defined as 1.
    """
    return _krippendorff_alpha(_pairable(_item_scores(ratings, include_traps)))


def agreement(
    ratings: Sequence[RatingRecord],
    include_traps: bool = False,
) -> AgreementResult:
    """Both agreement statistics over the same pairable item set, from one
    item table."""
    items = _item_scores(ratings, include_traps)
    units = _pairable(items)
    return AgreementResult(
        one_vs_rest_r=_one_vs_rest(items),
        krippendorff_alpha=_krippendorff_alpha(units),
        with_traps=include_traps,
        n_items=len(units),
    )
