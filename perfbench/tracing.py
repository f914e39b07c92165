"""Spans and counters around the layers of one ``lcmteval run``.

:func:`install` replaces functions of the ``lcmteval`` modules with wrappers
that record a span per call: name, start, end and the span that caused it.
A function that a module imports by name is wrapped where it is looked up,
for example ``rng_for`` in ``metaeval`` and ``significance`` and
``corpus_bleu`` in ``pipeline``.  Nothing under ``src/`` changes; the
wrappers live only in the traced process.

Spans are kept in memory.  :meth:`Tracer.summary` turns them into per-layer
metrics once the run is over:

* a module layer's time (``corpus.load_s``, ``significance.perm_both_s``,
  ...) is the sum of its spans' self times, where self time is a span's
  duration minus the part of it that its child spans cover;
* a pipeline stage's time (``pipeline.natives_s``, ...) is the stage span
  minus the stage spans nested in it, so the stages and
  ``pipeline.other_s`` add up to the whole run;
* counts come from the number of spans and from small notes recorded with
  them (replicates, draw keys, token texts).

Worker threads of the thread-pool paths have no span of their own on their
stack; their spans are attributed to the span open on the main thread,
which is waiting for them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
from collections import defaultdict
from time import perf_counter

# span name -> the (module, attribute) lookups that are wrapped to record it
MODULE_SPANS = {
    "pipeline.run": [("cli", "run_pipeline")],
    "corpus.load": [("pipeline", "load_campaign")],
    "corpus.validate": [("pipeline", "validate_campaign")],
    "ratings.normalize": [
        ("pipeline", "znormalize"),
        ("pipeline", "aggregate_segment_human"),
    ],
    "ratings.qc": [("pipeline", "timing_report"), ("pipeline", "trap_report")],
    "ratings.agreement": [("pipeline", "agreement")],
    "metrics.native": [("pipeline", "score_tables_for_task")],
    "metrics.tokenize": [("pipeline", "tokenize"), ("corpus", "tokenize")],
    "metrics.corpus_bleu": [("pipeline", "corpus_bleu")],
    "metaeval.select_best_variant": [("pipeline", "select_best_variant")],
    "metaeval.hybrid_supersample": [
        ("pipeline", "hybrid_supersample"),
        ("metaeval", "hybrid_supersample"),
    ],
    "metaeval.segment_correlation": [
        ("pipeline", "segment_correlation"),
        ("metaeval", "segment_correlation"),
    ],
    "seeding.rng_for": [
        ("metaeval", "rng_for"),
        ("significance", "rng_for"),
        ("ratings", "rng_for"),
    ],
    "significance.perm_both": [("significance", "perm_both")],
    "significance.system_sig": [("pipeline", "system_sig_matrix")],
    "significance.paired_bootstrap": [("pipeline", "paired_bootstrap")],
    "reports.emit": [("pipeline", "write_csv"), ("pipeline", "emit_sig_matrix")],
    "reports.sha256": [("pipeline", "sha256_file")],
}

# pipeline stage -> PipelineState attribute (cached property or emitter)
STAGE_SPANS = {
    "pipeline.human": "human_by_task",
    "pipeline.natives": "natives",
    "pipeline.selection": "selections",
    "pipeline.system_stage": "system_stage",
    "pipeline.sig_system": "emit_sig_system",
    "pipeline.sig_segment": "emit_sig_segment",
    "pipeline.syscompare": "emit_system_eval",
}

TIMED = [
    "corpus.load",
    "corpus.validate",
    "ratings.normalize",
    "ratings.qc",
    "ratings.agreement",
    "metrics.native",
    "metrics.tokenize",
    "metrics.corpus_bleu",
    "metaeval.select_best_variant",
    "metaeval.hybrid_supersample",
    "metaeval.segment_correlation",
    "seeding.rng_for",
    "significance.perm_both",
    "significance.system_sig",
    "significance.paired_bootstrap",
    "reports.emit",
    "reports.sha256",
]
COUNTED = [
    "metrics.tokenize",
    "metrics.corpus_bleu",
    "metaeval.hybrid_supersample",
    "seeding.rng_for",
    "significance.perm_both",
]


def _note_records(args, kwargs, campaign):
    return (
        len(campaign.segments)
        + len(campaign.hypotheses)
        + len(campaign.ratings)
        + sum(len(t.cells) for ts in campaign.external_scores.values() for t in ts)
    )


def _note_tokenize(args, kwargs, result):
    return args + tuple(kwargs.values())  # (text, scheme)


def _note_rng_for(args, kwargs, result):
    # Only hybrid draws are needed: (master seed, "hybrid:<task>", index).
    if len(args) > 1 and str(args[1]).startswith("hybrid:"):
        return args
    return None


def _note_perm_both(signature):
    def note(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        n = len(bound.arguments["table_a"].cells)
        return (bound.arguments["r"], n)

    return note


class Tracer:
    """Records spans from every thread of one process."""

    def __init__(self):
        # (span id, parent id or None, name, start, end, note)
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._main_thread = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, note=None):
        spans = self.spans
        ids = self._ids
        main_stack = self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif main_stack:  # a worker thread: caused by the waiting main span
                parent = main_stack[-1]
            else:
                parent = None
            sid = next(ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans.append((sid, parent, name, t0, perf_counter(), None))
                raise
            t1 = perf_counter()
            stack.pop()
            info = None
            if note is not None:
                try:
                    info = note(args, kwargs, result)
                except (KeyError, TypeError, AttributeError, IndexError):
                    info = None
            spans.append((sid, parent, name, t0, t1, info))
            return result

        return traced

    def summary(self) -> dict:
        """Per-layer metrics of every span recorded so far."""
        start, end, parent_of = {}, {}, {}
        children = defaultdict(list)
        by_name = defaultdict(list)
        for sid, parent, name, t0, t1, _ in self.spans:
            start[sid], end[sid], parent_of[sid] = t0, t1, parent
            by_name[name].append(sid)
            if parent is not None:
                children[parent].append((t0, t1))

        def duration(sid: int) -> float:
            return end[sid] - start[sid]

        def self_time(sid: int) -> float:
            # duration minus the union of the child intervals (children in
            # worker threads may overlap each other)
            covered, reach = 0.0, start[sid]
            for a, b in sorted(children.get(sid, ())):
                a, b = max(a, reach), min(b, end[sid])
                if b > a:
                    covered += b - a
                    reach = b
            return duration(sid) - covered

        metrics: dict[str, float] = {}
        for name in TIMED:
            metrics[f"{name}_s"] = sum(self_time(s) for s in by_name[name])
        for name in COUNTED:
            metrics[f"{name}_calls"] = len(by_name[name])

        notes = defaultdict(list)
        for _, _, name, _, _, info in self.spans:
            if info is not None:
                notes[name].append(info)
        metrics["corpus.records"] = sum(notes["corpus.load"])
        tok = notes["metrics.tokenize"]
        metrics["metrics.tokenize_unique_ratio"] = (
            len(set(tok)) / len(tok) if tok else 0.0
        )
        draws = notes["seeding.rng_for"]
        metrics["metaeval.hybrid_draws"] = len(draws)
        metrics["metaeval.hybrid_draw_unique_ratio"] = (
            len(set(draws)) / len(draws) if draws else 0.0
        )
        perm = notes["significance.perm_both"]
        metrics["significance.perm_replicates"] = sum(r for r, _ in perm)
        metrics["significance.perm_pair_comparisons"] = sum(
            r * n * (n - 1) // 2 for r, n in perm
        )

        # Stage times: each stage minus the stages nested in it.
        stage_ids = {s for name in STAGE_SPANS for s in by_name[name]}

        def enclosing_stage(sid: int):
            p = parent_of[sid]
            while p is not None and p not in stage_ids:
                p = parent_of[p]
            return p

        nested = defaultdict(float)  # enclosing stage (None = top) -> time
        for s in stage_ids:
            nested[enclosing_stage(s)] += duration(s)
        for name in STAGE_SPANS:
            metrics[f"{name}_s"] = sum(duration(s) - nested[s] for s in by_name[name])
        run_total = sum(duration(s) for s in by_name["pipeline.run"])
        metrics["pipeline.other_s"] = run_total - nested[None]
        return {"metrics": metrics, "missing": self.missing}


def install() -> Tracer:
    """Wrap the lookups of MODULE_SPANS and STAGE_SPANS; return the tracer.

    A lookup that no longer exists is skipped and listed in
    ``Tracer.missing``; the run goes on, and ``run.py`` reports the trace
    as not correct, since the layers of a missing lookup would read 0.
    """
    tracer = Tracer()
    notes = {
        "corpus.load": _note_records,
        "metrics.tokenize": _note_tokenize,
        "seeding.rng_for": _note_rng_for,
    }
    wrapped = {}  # one wrapper per original function and span name
    for name, lookups in MODULE_SPANS.items():
        for module_name, attr in lookups:
            try:
                module = importlib.import_module(f"lcmteval.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            key = (id(original), name)
            if key not in wrapped:
                note = notes.get(name)
                if name == "significance.perm_both":
                    note = _note_perm_both(inspect.signature(original))
                wrapped[key] = tracer.wrap(name, original, note)
            setattr(module, attr, wrapped[key])

    state_cls = importlib.import_module("lcmteval.pipeline").PipelineState
    for name, attr in STAGE_SPANS.items():
        member = state_cls.__dict__.get(attr)
        if isinstance(member, functools.cached_property):
            replacement = functools.cached_property(tracer.wrap(name, member.func))
            replacement.__set_name__(state_cls, attr)
        elif callable(member):
            replacement = tracer.wrap(name, member)
        else:
            tracer.missing.append(f"PipelineState.{attr}")
            continue
        setattr(state_cls, attr, replacement)
    return tracer
