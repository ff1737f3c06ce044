"""Spans around the public functions of every relkmeans layer, installed from
outside the program.

Several modules import functions by name, so each function is replaced at
every module that binds it; methods are replaced on their class.  A span
records its name, start, end and parent span.  Per-name totals (calls,
time, self time) are kept for every span; the raw spans are kept in memory
only down to a fixed depth plus a bounded number of deeper ones, because
one run can make hundreds of thousands of pass calls.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# (span name, function label, binding sites).  A site is "module:attr" for a
# module-level binding or "module:Class.method" for a method.  Each label
# names the function as defined; every listed site must hold that same
# object.  eval_sumprod's own grouped pass stays inside the sumprod.scalar
# span: the defining module's binding of eval_sumprod_grouped is left alone.
WRAPPED = [
    ("relational.load", "relational.load_database",
     ["relkmeans.relational:load_database", "relkmeans.cli:load_database"]),
    ("relational.gyo", "relational.gyo_reduce",
     ["relkmeans.relational:gyo_reduce", "relkmeans.cli:gyo_reduce"]),
    ("sumprod.count", "sumprod.JoinEvaluator.count_grouped",
     ["relkmeans.sumprod:JoinEvaluator.count_grouped"]),
    ("sumprod.count", "sumprod.JoinEvaluator.count_scalar",
     ["relkmeans.sumprod:JoinEvaluator.count_scalar"]),
    ("sumprod.costpair", "sumprod.JoinEvaluator.costpair_grouped",
     ["relkmeans.sumprod:JoinEvaluator.costpair_grouped"]),
    ("sumprod.box_masks", "sumprod.JoinEvaluator.masks_for_box",
     ["relkmeans.sumprod:JoinEvaluator.masks_for_box"]),
    ("sumprod.grouped", "sumprod.eval_sumprod_grouped",
     ["relkmeans.ballcount:eval_sumprod_grouped"]),
    ("sumprod.scalar", "sumprod.eval_sumprod",
     ["relkmeans.sumprod:eval_sumprod", "relkmeans.ballcount:eval_sumprod"]),
    ("boxes.build", "boxes.build_boxes",
     ["relkmeans.boxes:build_boxes", "relkmeans.sampling:build_boxes",
      "relkmeans.clustering:build_boxes"]),
    ("boxes.assign", "boxes.assignment_reps_batch",
     ["relkmeans.boxes:assignment_reps_batch",
      "relkmeans.sampling:assignment_reps_batch"]),
    ("sampling.kmeanspp", "sampling.run_kmeanspp",
     ["relkmeans.sampling:run_kmeanspp", "relkmeans.cli:run_kmeanspp"]),
    ("sampling.surrogate_weights", "sampling.assignment_cost_grouped",
     ["relkmeans.sampling:assignment_cost_grouped"]),
    ("ballcount.profile", "ballcount.distance_profile",
     ["relkmeans.ballcount:distance_profile",
      "relkmeans.weighting:distance_profile"]),
    ("ballcount.radius", "ballcount.radius_for_count",
     ["relkmeans.ballcount:radius_for_count",
      "relkmeans.weighting:radius_for_count"]),
    ("ballcount.draw", "ballcount.BallSampler.sample_batch",
     ["relkmeans.ballcount:BallSampler.sample_batch"]),
    ("weighting.weigh", "weighting.compute_weights",
     ["relkmeans.weighting:compute_weights", "relkmeans.cli:compute_weights"]),
    ("weighting.ring_size", "weighting.ring_sample_size",
     ["relkmeans.weighting:ring_sample_size"]),
    ("clustering.solve", "clustering.solve_weighted_kmeans",
     ["relkmeans.clustering:solve_weighted_kmeans",
      "relkmeans.cli:solve_weighted_kmeans"]),
    ("clustering.relcost", "clustering.relational_cost",
     ["relkmeans.clustering:relational_cost", "relkmeans.cli:relational_cost"]),
    ("cli.run", "cli.run", ["relkmeans.cli:run"]),
]

# Span names whose time the per-layer report carries (with self time).
TIMED = sorted({name for name, _, _ in WRAPPED} - {"weighting.ring_size"})

KEEP_DEPTH = 2          # every span at this depth or shallower is kept
KEEP_DEEP_SPANS = 20_000  # deeper spans kept beyond that


class Tracer:
    """Span stack plus per-name and per-function totals for one traced run."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.dropped = 0
        self.calls: Counter[str] = Counter()        # outermost calls per name
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.fn_calls: Counter[str] = Counter()     # calls per function label
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._open: Counter[str] = Counter()
        self._next_id = 0
        self._deep_kept = 0

    def _enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1
        self._open[name] += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        dur = end - start
        self._open[name] -= 1
        self.self_time[name] += dur - child
        if self._open[name] == 0:  # nested same-name spans count once
            self.calls[name] += 1
            self.total[name] += dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        shallow = len(self._stack) <= KEEP_DEPTH
        if shallow or self._deep_kept < KEEP_DEEP_SPANS:
            self._deep_kept += not shallow
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent is not None else None))
        else:
            self.dropped += 1

    def wrap(self, name: str, label: str, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.fn_calls[label] += 1
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if on_return is not None:
                on_return(self.counters, args, kwargs, result)
            return result
        return wrapper

    def write(self, path: Path) -> None:
        """Kept spans as JSON lines, start-ordered."""
        with path.open("w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in sorted(
                    self.spans, key=lambda s: s[2]):
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _resolve(site: str):
    mod_name, attr = site.split(":")
    owner = importlib.import_module(mod_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _rows_of_tables(tables) -> int:
    return sum(t.n_rows for t in tables)


def _count_evaluator_rows(counters, args, kwargs, result):
    counters["sumprod.rows_touched"] += _rows_of_tables(args[0].tables)


def _count_generic_rows(counters, args, kwargs, result):
    tables = args[1] if len(args) > 1 else kwargs["tables"]
    counters["sumprod.rows_touched"] += _rows_of_tables(tables)


def _count_forest(counters, args, kwargs, result):
    counters["boxes.forest_entries_sum"] += result.size
    counters["boxes.forest_entries_max"] = max(
        counters["boxes.forest_entries_max"], result.size)


def _count_draws(counters, args, kwargs, result):
    counters["ballcount.draw_points"] += len(result)


def _count_rings(counters, args, kwargs, result):
    _, stats = result
    counters["weighting.rings"] += len(stats)
    counters["weighting.donut_hits"] += sum(s.samples for s in stats)
    counters["weighting.rings_above_threshold"] += sum(
        1 for s in stats if s.ratio > 0 and s.samples > 0)


def _ring_size_counter(original):
    def count(counters, args, kwargs, result):
        cfg, rest = args[0], args[1:]
        uncapped = original(dataclasses.replace(cfg, max_ring_samples=None),
                            *rest, **kwargs)
        counters["weighting.ring_draws_requested"] += uncapped
        counters["weighting.ring_draws_used"] += result
        counters["weighting.ring_cap_binds"] += int(result < uncapped)
    return count


def _on_return(label: str, original):
    return {
        "sumprod.JoinEvaluator.count_grouped": _count_evaluator_rows,
        "sumprod.JoinEvaluator.costpair_grouped": _count_evaluator_rows,
        "sumprod.eval_sumprod_grouped": _count_generic_rows,
        "sumprod.eval_sumprod": _count_generic_rows,
        "boxes.build_boxes": _count_forest,
        "ballcount.BallSampler.sample_batch": _count_draws,
        "weighting.compute_weights": _count_rings,
        "weighting.ring_sample_size": _ring_size_counter(original),
    }.get(label)


class installed:
    """Context manager replacing every binding site with a traced wrapper
    and restoring the originals on exit.

    With ``strict``, a missing site raises; otherwise it is skipped and
    listed in ``missing`` (a refactor that renames a function then shows
    up as zero calls instead of a crashed run).
    """

    def __init__(self, tracer: Tracer, strict: bool = True):
        self.tracer = tracer
        self.strict = strict
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "installed":
        try:
            for name, label, sites in WRAPPED:
                self._install(name, label, sites)
        except BaseException:
            self._restore()
            raise
        return self

    def _install(self, name: str, label: str, sites: list[str]) -> None:
        found = []
        for site in sites:
            try:
                owner, leaf = _resolve(site)
                found.append((owner, leaf, owner.__dict__[leaf]))
            except (ImportError, AttributeError, KeyError):
                if self.strict:
                    raise LookupError(f"binding site {site} not found")
                self.missing.append(site)
        if not found:
            return
        original = found[0][2]
        if any(fn is not original for _, _, fn in found):
            raise LookupError(f"sites of {label} bind different objects")
        wrapper = self.tracer.wrap(name, label, original,
                                   _on_return(label, original))
        for owner, leaf, fn in found:
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, wrapper)

    def _restore(self) -> None:
        for owner, leaf, fn in reversed(self._saved):
            setattr(owner, leaf, fn)
        self._saved.clear()

    def __exit__(self, *exc) -> None:
        self._restore()


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, times and self times from one traced run."""
    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}_calls"] = tracer.calls[name]
        out[f"{name}_s"] = tracer.total[name]
        out[f"{name}_self_s"] = tracer.self_time[name]
    c = tracer.counters
    for key in ("sumprod.rows_touched", "boxes.forest_entries_max",
                "boxes.forest_entries_sum", "ballcount.draw_points",
                "weighting.rings", "weighting.rings_above_threshold",
                "weighting.ring_draws_requested", "weighting.ring_draws_used",
                "weighting.ring_cap_binds"):
        out[key] = c[key]
    # each ring that is not skipped makes exactly one sample_batch call
    out["weighting.rings_skipped"] = c["weighting.rings"] - tracer.calls["ballcount.draw"]
    out["weighting.donut_hit_ratio"] = (
        c["weighting.donut_hits"] / c["ballcount.draw_points"]
        if c["ballcount.draw_points"] else 0.0)
    stages = ("relational.load", "relational.gyo", "sampling.kmeanspp",
              "weighting.weigh", "clustering.solve", "clustering.relcost")
    out["cli.stage_sum_s"] = sum(tracer.total[s] for s in stages)
    out["cli.unstaged_s"] = tracer.total["cli.run"] - out["cli.stage_sum_s"]
    return out


def _timed(name: str, calls: bool = True) -> list[tuple[str, str, str]]:
    out = [(f"{name}_calls", "count", "lower")] if calls else []
    return out + [(f"{name}_s", "s", "lower"), (f"{name}_self_s", "s", "lower")]


# The per-layer metrics a traced run reports: (name, unit, better).
PER_LAYER = [
    *_timed("relational.load", calls=False),
    *_timed("relational.gyo", calls=False),
    *_timed("sumprod.count"), *_timed("sumprod.costpair"),
    *_timed("sumprod.box_masks"), *_timed("sumprod.grouped"),
    *_timed("sumprod.scalar"),
    ("sumprod.rows_touched", "count", "lower"),
    *_timed("boxes.build"),
    ("boxes.forest_entries_max", "count", "lower"),
    ("boxes.forest_entries_sum", "count", "lower"),
    *_timed("boxes.assign", calls=False),
    *_timed("sampling.kmeanspp", calls=False),
    *_timed("sampling.surrogate_weights"),
    ("sampling.candidates", "count", "lower"),
    ("sampling.centers", "count", "higher"),
    ("sampling.accept_ratio", "ratio", "higher"),
    *_timed("ballcount.profile"), *_timed("ballcount.radius"),
    *_timed("ballcount.draw"),
    ("ballcount.draw_points", "count", "lower"),
    *_timed("weighting.weigh", calls=False),
    ("weighting.rings", "count", "lower"),
    ("weighting.rings_skipped", "count", "higher"),
    ("weighting.rings_above_threshold", "count", "higher"),
    ("weighting.donut_hit_ratio", "ratio", "higher"),
    ("weighting.ring_draws_requested", "count", "lower"),
    ("weighting.ring_draws_used", "count", "lower"),
    ("weighting.ring_cap_binds", "count", "lower"),
    *_timed("clustering.solve", calls=False),
    *_timed("clustering.relcost", calls=False),
    ("clustering.brute_lloyd_s", "s", "lower"),
    ("oracle.materialize_s", "s", "lower"),
    ("oracle.brute_s", "s", "lower"),
    *_timed("cli.run", calls=False),
    ("cli.stage_sum_s", "s", "lower"),
    ("cli.unstaged_s", "s", "lower"),
    ("cli.trace_overhead", "ratio", "lower"),
]
