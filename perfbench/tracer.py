"""Per-layer tracing of one ``causalgeo`` CLI run, installed from outside the package.

Run as ``python3 tracer.py spans|counts TRACE_JSON SUBCOMMAND [FLAGS...]``:
it wraps the public functions of ``cli``, ``geodesic``, ``midpoints``,
``nulldist``, ``spaces`` and ``core`` under the names their callers look them
up by (for example ``causalgeo.geodesic.find_midpoint``, the name
``build_dyadic_curve`` calls), runs ``causalgeo.cli.main`` on the remaining
arguments, and writes what it kept in memory to TRACE_JSON when ``main``
returns.  Nothing in ``src/`` changes.

``spans`` records a span ``[name, start, end, parent]`` per call of a layer
function, plus counts read from their returned values.  ``counts`` only counts
calls of the hot primitives ``tau``, ``causal_le`` and ``extend_curve``: they
run millions of times, so even a bare counter costs seconds, and counting them
in the same run as the spans would inflate the layer times around them.
:func:`layer_metrics` turns the merged traces of one round into the per-layer
metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from collections import Counter

# Span name -> ("module[:Class]", attribute) the caller looks the function up
# by.  Methods are patched on the class that defines them.
SPAN_TARGETS = {
    "cli.main": [("causalgeo.cli", "main")],
    "geodesic.synthesize": [("causalgeo.cli", "synthesize_geodesic")],
    "geodesic.build": [("causalgeo.geodesic", "build_dyadic_curve")],
    "geodesic.subsequent_bound": [("causalgeo.geodesic", "check_subsequent_bound")],
    "geodesic.holder": [("causalgeo.geodesic", "check_holder")],
    "geodesic.extension_tail": [("causalgeo.geodesic", "check_extension_tail")],
    "geodesic.causal_extension": [("causalgeo.geodesic", "check_causal_extension")],
    "geodesic.realizer": [("causalgeo.geodesic", "check_realizer")],
    "midpoints.find_midpoint": [("causalgeo.geodesic", "find_midpoint")],
    "midpoints.certify_compatibility": [("causalgeo.cli", "certify_compatibility")],
    "nulldist.null_distance": [("causalgeo.cli", "null_distance"),
                               ("causalgeo.nulldist", "null_distance")],
    "nulldist.metric_axioms": [("causalgeo.cli", "check_metric_axioms")],
    "spaces.time_graph_distance": [("causalgeo.spaces:CausalSetSpace",
                                    "time_graph_distance")],
    "spaces.sprinkle": [("causalgeo.cli", "sprinkle_causet")],
    "spaces.save": [("causalgeo.cli", "save_causet_json"),
                    ("causalgeo.cli", "save_causet_csv")],
    "spaces.load": [("causalgeo.cli", "load_causet_json"),
                    ("causalgeo.cli", "load_causet_csv")],
    "core.chronology": [("causalgeo.cli", "check_chronology")],
    "core.reverse_triangle": [("causalgeo.cli", "check_reverse_triangle")],
    "core.anti_lipschitz": [("causalgeo.cli", "check_anti_lipschitz")],
}

# PuncturedMinkowski.tau and .causal_le add a membership test and call these
# through super(), so wrapping the base classes counts each call once.
COUNT_TARGETS = {
    "spaces.tau": [("causalgeo.spaces:MinkowskiSpace", "tau"),
                   ("causalgeo.spaces:CausalSetSpace", "tau")],
    "spaces.causal_le": [("causalgeo.spaces:MinkowskiSpace", "causal_le"),
                         ("causalgeo.spaces:CausalSetSpace", "causal_le")],
    "geodesic.extend_curve": [("causalgeo.geodesic", "extend_curve")],
}

# Per-layer metric name -> unit, in the order they are reported.
LAYER_UNITS = {
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "geodesic.build_self_s": "s", "geodesic.midpoints_inserted": "count",
    "geodesic.extend_curve_calls": "count",
    "geodesic.subsequent_bound_s": "s", "geodesic.holder_s": "s",
    "geodesic.extension_tail_s": "s", "geodesic.causal_extension_s": "s",
    "geodesic.realizer_s": "s",
    "midpoints.find_midpoint_calls": "count", "midpoints.find_midpoint_s": "s",
    "midpoints.off_affine": "count",
    "midpoints.certify_compatibility_s": "s", "midpoints.pairs_with_midpoint": "count",
    "midpoints.pairs_sampled": "count",
    "nulldist.null_distance_calls": "count", "nulldist.null_distance_s": "s",
    "nulldist.causal_exact_calls": "count", "nulldist.zigzag_calls": "count",
    "nulldist.graph_calls": "count", "nulldist.zigzag_four_segment_wins": "count",
    "nulldist.metric_axioms_s": "s",
    "spaces.tau_calls": "count", "spaces.causal_le_calls": "count",
    "spaces.time_graph_distance_calls": "count", "spaces.time_graph_distance_s": "s",
    "spaces.dijkstra_sources": "count", "spaces.longest_tables": "count",
    "spaces.sprinkle_s": "s", "spaces.save_s": "s", "spaces.load_s": "s",
    "spaces.vertices": "count", "spaces.links": "count",
    "core.chronology_s": "s", "core.reverse_triangle_s": "s", "core.anti_lipschitz_s": "s",
    "trace.overhead_s": "s",
}

# A midpoint further than this from (p+q)/2 in some coordinate counts as off-affine.
OFF_AFFINE_TOL = 1e-9


def _resolve(owner):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Spans, counters and the few returned values the layer metrics need."""

    def __init__(self, kind):
        self.kind = kind
        self.spans = []
        self.stack = []
        self.active = set()
        self.counters = {name: itertools.count() for name in COUNT_TARGETS}
        self.written_paths = []
        self.midpoints = []
        self.curve_sizes = []
        self.null_methods = Counter()
        self.four_segment_wins = 0
        self.dijkstra_sources = set()
        self.spaces = []
        self.compatibility = []

    def spanned(self, name, fn, record=None):
        spans, stack, active = self.spans, self.stack, self.active
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            active.add(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active.discard(name)
                stack.pop()
                spans[index] = (name, start, end, parent)
            if record is not None:
                record(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        tick = self.counters[name].__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def recording_writes(self, write):
        def wrapper(path, text):
            write(path, text)
            self.written_paths.append(path)

        return wrapper

    # -- recorders: keep only what the layer metrics read --------------------------

    def _record_midpoint(self, args, result):
        query = args[2]
        self.midpoints.append((query.p, query.q, result))

    def _record_curve(self, args, result):
        self.curve_sizes.append(len(result.values))

    def _record_null_distance(self, args, result):
        self.null_methods[result.method] += 1
        if result.method == "zigzag" and len(result.witness_curve.points) == 5:
            self.four_segment_wins += 1

    def _record_dijkstra(self, args, result):
        self.dijkstra_sources.add(args[2])

    def _record_space(self, args, result):
        self.spaces.append(result)

    def _record_compatibility(self, args, result):
        self.compatibility.append((result.samples_checked, result.data["pairs_checked"]))

    def install(self):
        import causalgeo.cli  # noqa: F401  (imports every layer module)

        if self.kind == "counts":
            for name, targets in COUNT_TARGETS.items():
                for owner_path, attr in targets:
                    owner = _resolve(owner_path)
                    setattr(owner, attr, self.counted(name, getattr(owner, attr)))
            return
        recorders = {
            "midpoints.find_midpoint": self._record_midpoint,
            "geodesic.build": self._record_curve,
            "nulldist.null_distance": self._record_null_distance,
            "spaces.time_graph_distance": self._record_dijkstra,
            "spaces.sprinkle": self._record_space,
            "spaces.load": self._record_space,
            "midpoints.certify_compatibility": self._record_compatibility,
        }
        for name, targets in SPAN_TARGETS.items():
            for owner_path, attr in targets:
                owner = _resolve(owner_path)
                setattr(owner, attr,
                        self.spanned(name, getattr(owner, attr), recorders.get(name)))
        cli = sys.modules["causalgeo.cli"]
        cli.atomic_write = self.recording_writes(cli.atomic_write)

    def payload(self):
        """Spans and counts, the latter reduced from the recorded values."""
        if self.kind == "counts":
            return {"spans": [], "counts": {name: next(counter)
                                            for name, counter in self.counters.items()}}
        off_affine = 0
        for p, q, m in self.midpoints:
            if m is not None and any(abs(mi - (pi + qi) / 2) > OFF_AFFINE_TOL
                                     for pi, qi, mi in zip(p, q, m)):
                off_affine += 1
        counts = {
            "cli.bytes_written": sum(os.path.getsize(p) for p in self.written_paths
                                     if os.path.exists(p)),
            "geodesic.midpoints_inserted": sum(n - 2 for n in self.curve_sizes),
            "midpoints.off_affine": off_affine,
            "midpoints.pairs_sampled": sum(s for s, _ in self.compatibility),
            "midpoints.pairs_with_midpoint": sum(w for _, w in self.compatibility),
            "nulldist.causal_exact_calls": self.null_methods["causal_exact"],
            "nulldist.zigzag_calls": self.null_methods["zigzag"],
            "nulldist.graph_calls": self.null_methods["graph"],
            "nulldist.zigzag_four_segment_wins": self.four_segment_wins,
            "spaces.dijkstra_sources": len(self.dijkstra_sources),
            # The longest-path memo is private; a backend without one holds none.
            "spaces.longest_tables": sum(len(getattr(s, "_longest_cache", ()))
                                         for s in self.spaces),
            "spaces.vertices": sum(len(s.vertices) for s in self.spaces),
            "spaces.links": sum(len(s.edges) for s in self.spaces),
        }
        return {"spans": self.spans, "counts": counts}


def _span_times(spans):
    """Total (inclusive) and self seconds per span name."""
    total, self_time = Counter(), Counter()
    child_time = [0.0] * len(spans)
    for name in SPAN_TARGETS:
        total[name] = self_time[name] = 0.0
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, _) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
    calls = Counter(name for name, *_ in spans)
    return total, self_time, calls


def layer_metrics(trace, setup_trace=None):
    """Per-layer metric values (without ``trace.overhead_s``) from trace payloads.

    ``trace`` merges the ``spans`` and the ``counts`` traces of one round.
    ``setup_trace`` is the traced ``causalgeo causet`` run of the set-up; only
    its sprinkle and save times are taken, so the timed-phase counts are not
    mixed with set-up work.
    """
    total, self_time, calls = _span_times(trace["spans"])
    counts = trace["counts"]
    values = {
        "cli.self_s": self_time["cli.main"],
        "cli.bytes_written": counts["cli.bytes_written"],
        "geodesic.build_self_s": self_time["geodesic.build"],
        "geodesic.midpoints_inserted": counts["geodesic.midpoints_inserted"],
        "geodesic.extend_curve_calls": counts["geodesic.extend_curve"],
        "midpoints.find_midpoint_calls": calls["midpoints.find_midpoint"],
        "midpoints.find_midpoint_s": total["midpoints.find_midpoint"],
        "midpoints.off_affine": counts["midpoints.off_affine"],
        "midpoints.certify_compatibility_s": total["midpoints.certify_compatibility"],
        "midpoints.pairs_with_midpoint": counts["midpoints.pairs_with_midpoint"],
        "midpoints.pairs_sampled": counts["midpoints.pairs_sampled"],
        "nulldist.null_distance_calls": calls["nulldist.null_distance"],
        "nulldist.null_distance_s": total["nulldist.null_distance"],
        "nulldist.metric_axioms_s": total["nulldist.metric_axioms"],
        "spaces.tau_calls": counts["spaces.tau"],
        "spaces.causal_le_calls": counts["spaces.causal_le"],
        "spaces.time_graph_distance_calls": calls["spaces.time_graph_distance"],
        "spaces.time_graph_distance_s": total["spaces.time_graph_distance"],
        "spaces.load_s": total["spaces.load"],
        "core.chronology_s": total["core.chronology"],
        "core.reverse_triangle_s": total["core.reverse_triangle"],
        "core.anti_lipschitz_s": total["core.anti_lipschitz"],
    }
    for cert in ("subsequent_bound", "holder", "extension_tail", "causal_extension",
                 "realizer"):
        values[f"geodesic.{cert}_s"] = total[f"geodesic.{cert}"]
    for key in ("nulldist.causal_exact_calls", "nulldist.zigzag_calls",
                "nulldist.graph_calls", "nulldist.zigzag_four_segment_wins",
                "spaces.dijkstra_sources", "spaces.longest_tables", "spaces.vertices",
                "spaces.links"):
        values[key] = counts[key]
    setup_total = _span_times(setup_trace["spans"] if setup_trace else [])[0]
    values["spaces.sprinkle_s"] = setup_total["spaces.sprinkle"]
    values["spaces.save_s"] = setup_total["spaces.save"]
    return values


def main(argv):
    if len(argv) < 3 or argv[0] not in ("spans", "counts"):
        print("usage: tracer.py spans|counts TRACE_JSON SUBCOMMAND [FLAGS...]",
              file=sys.stderr)
        return 2
    kind, out_path, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(kind)
    tracer.install()
    status = sys.modules["causalgeo.cli"].main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.payload(), fh)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
