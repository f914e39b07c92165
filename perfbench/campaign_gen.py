#!/usr/bin/env python3
"""Generate a synthetic lcmteval campaign of a given size.

    python3 perfbench/campaign_gen.py OUT_DIR --segments 40 --systems 5 \
        --variants neuralA=3 --variants neuralB=1 --seed 1

The campaign has two directions (en-zh, zh-en) at ratios 0.8 and 0.5, three
annotators per direction and four trap ratings per annotator and task.
Sentence lengths follow the segment index, not the seed, so every seed
gives the same amount of text and the run time depends on the sizes alone.
Systems shorten each reference to roughly the target ratio and corrupt a
system-specific share of the kept tokens; that share is the latent quality
from which the human ratings and the external metric scores are drawn, so
every correlation the pipeline computes is well defined.  Each ``--variants
METRIC=V`` adds one external metric with V variants (variant ``-`` when V is
1); variant noise follows a U shape over the variant index, like a per-layer
sweep whose layer two thirds of the way along tracks quality best.

The same arguments give the same files: one generator seeded by ``--seed``
draws everything, and the files are written through the package's own
``lcmteval.save_campaign``.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lcmteval import (  # noqa: E402
    Campaign,
    CampaignConfig,
    HypothesisRecord,
    RatingRecord,
    ScoreTable,
    SegmentRecord,
    Task,
    save_campaign,
)

CJK = list(
    "的一是在不了有和人这中大为上个国我以要他时来用们生到作地于出就分对成会可主"
    "发年动同工也能下过子说产种面而方后多定行学法所民得经十三之进着等部度家电力"
)
EN_WORDS = (
    "the market rose sharply after the new report while analysts warned of "
    "slower growth in several key sectors and officials said further measures "
    "could follow within months despite public concern about rising costs "
    "across the region where trade and energy prices shaped local budgets"
).split()

DIRECTIONS = ("en-zh", "zh-en")
RATIOS = (0.8, 0.5)
ANNOTATORS_PER_TASK = 3
TRAPS_PER_TASK = 4


def _vocab(lang: str) -> list[str]:
    return CJK if lang == "zh" else EN_WORDS


def _sentence(
    lang: str, rng: np.random.Generator, lo: int, hi: int, index: int
) -> list[str]:
    # lengths cycle through lo..hi-1 in a fixed order
    size = lo + (7 * index) % (hi - lo)
    return [str(t) for t in rng.choice(_vocab(lang), size=size)]


def _join(lang: str, tokens: list[str]) -> str:
    # Chinese text is unsegmented; English is whitespace-separated.
    return ("" if lang == "zh" else " ").join(tokens)


def build_campaign(
    segments: int,
    systems: int,
    variants: list[tuple[str, int]],
    seed: int,
) -> Campaign:
    rng = np.random.default_rng(seed)
    system_ids = tuple(f"sys{i:02d}" for i in range(systems))
    corrupt = dict(zip(system_ids, np.linspace(0.08, 0.40, systems)))

    seg_records: dict[str, SegmentRecord] = {}
    ref_tokens: dict[str, list[str]] = {}
    target_lang: dict[str, str] = {}
    for direction in DIRECTIONS:
        source, target = direction.split("-")
        prefix = "ez" if direction == "en-zh" else "ze"
        for i in range(segments):
            seg_id = f"{prefix}{i:04d}"
            if target == "zh":
                ref = _sentence(target, rng, 12, 25, i)
                src = _sentence(source, rng, 8, 16, i)
            else:
                ref = _sentence(target, rng, 8, 17, i)
                src = _sentence(source, rng, 12, 25, i)
            ref_tokens[seg_id] = ref
            target_lang[seg_id] = target
            seg_records[seg_id] = SegmentRecord(
                seg_id=seg_id,
                direction=direction,
                source_text=_join(source, src),
                reference_text=_join(target, ref),
                reference_length=None,
            )

    hypotheses = {}
    quality: dict[tuple[str, str, float], float] = {}
    for seg in seg_records.values():
        tokens = ref_tokens[seg.seg_id]
        lang = target_lang[seg.seg_id]
        for ratio in RATIOS:
            for system in system_ids:
                keep = round(ratio * len(tokens)) + int(rng.integers(-1, 2))
                keep = min(max(2, keep), len(tokens))
                out, intact = [], 0
                for tok in tokens[:keep]:
                    if rng.random() < corrupt[system]:
                        out.append(str(rng.choice(_vocab(lang))))
                    else:
                        out.append(tok)
                        intact += 1
                hypotheses[(system, seg.seg_id, ratio)] = HypothesisRecord(
                    system_id=system,
                    seg_id=seg.seg_id,
                    length_ratio=ratio,
                    text=_join(lang, out),
                )
                quality[(system, seg.seg_id, ratio)] = intact / len(tokens) / ratio

    ratings = []
    external = {}
    for d, direction in enumerate(DIRECTIONS):
        seg_ids = sorted(s for s, r in seg_records.items() if r.direction == direction)
        annotators = [f"{'ab'[d]}{k + 1}" for k in range(ANNOTATORS_PER_TASK)]
        bias = {a: float(rng.normal(0.0, 4.0)) for a in annotators}
        for ratio in RATIOS:
            task = Task(direction, ratio)
            for annotator in annotators:
                for seg_id in seg_ids:
                    for system in system_ids:
                        q = quality[(system, seg_id, ratio)]
                        raw = 100.0 * q + bias[annotator] + rng.normal(0.0, 7.0)
                        duration = float(np.round(math.exp(rng.normal(3.8, 0.5)), 1))
                        if rng.random() < 0.02:
                            duration = float(np.round(rng.uniform(700, 1200), 1))
                        ratings.append(
                            RatingRecord(
                                annotator_id=annotator,
                                task=task,
                                seg_id=seg_id,
                                system_id=system,
                                raw_score=int(min(100, max(0, round(raw)))),
                                duration_s=duration,
                                is_trap=False,
                            )
                        )
                for seg_id in rng.choice(seg_ids, TRAPS_PER_TASK, replace=False):
                    score = 0 if rng.random() < 0.8 else int(rng.integers(1, 26))
                    ratings.append(
                        RatingRecord(
                            annotator_id=annotator,
                            task=task,
                            seg_id=str(seg_id),
                            system_id="_trap",
                            raw_score=score,
                            duration_s=float(
                                np.round(math.exp(rng.normal(3.2, 0.4)), 1)
                            ),
                            is_trap=True,
                        )
                    )

            tables = []
            for metric, n_variants in variants:
                for v in range(n_variants):
                    variant = "-" if n_variants == 1 else f"L{v:02d}"
                    # U-shaped noise: the variant two thirds along is the best.
                    dist = abs(v - (2 * (n_variants - 1)) // 3) / n_variants
                    noise = 0.05 + 0.4 * dist
                    cells = {
                        (system, seg_id): float(
                            np.round(
                                quality[(system, seg_id, ratio)]
                                + rng.normal(0.0, noise),
                                6,
                            )
                        )
                        for system in system_ids
                        for seg_id in seg_ids
                    }
                    tables.append(ScoreTable.segment_table(metric, variant, task, cells))
            external[task] = tuple(tables)

    config = CampaignConfig(
        directions=DIRECTIONS,
        length_ratios=RATIOS,
        systems=system_ids,
        annotators_per_task=ANNOTATORS_PER_TASK,
        length_unit="characters",
        seed=20250810,
        segments_path="segments.jsonl",
        hypotheses_path="hypotheses.jsonl",
        ratings_path="ratings.csv",
        scores_dir="scores",
    )
    return Campaign(
        config=config,
        segments=seg_records,
        hypotheses=hypotheses,
        ratings=tuple(ratings),
        external_scores=external,
    )


def _variant_spec(text: str) -> tuple[str, int]:
    metric, _, count = text.partition("=")
    if not metric or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(f"expected METRIC=COUNT, got {text!r}")
    return metric, int(count)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="directory to write the campaign into")
    parser.add_argument("--segments", type=int, required=True,
                        help="segments per direction")
    parser.add_argument("--systems", type=int, required=True)
    parser.add_argument("--variants", type=_variant_spec, action="append",
                        required=True, metavar="METRIC=V",
                        help="an external metric with V variants (repeatable)")
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    args = parser.parse_args(argv)
    campaign = build_campaign(args.segments, args.systems, args.variants, args.seed)
    save_campaign(campaign, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
