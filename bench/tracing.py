"""Spans around the library's layers, recorded from the benchmark's side.

``Tracer`` replaces each traced function in every ``asymcolour`` module
namespace that holds it (and ``PermGroup.subgroup`` on its class) by a
wrapper that records a span: name, start, end, parent span and exact work
counts. Leaving the ``with`` block puts the originals back. A name that no
longer exists in the library is skipped and reports 0 calls.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# span name -> (module, attribute); the span name is the metric prefix
TRACED = {
    "symmetry.automorphism_group": ("symmetry", "automorphism_group"),
    "symmetry.subgroup": ("symmetry", "PermGroup.subgroup"),
    "symmetry.colouring_stabilizer": ("symmetry", "colouring_stabilizer"),
    "symmetry.pointwise_stabilizer": ("symmetry", "pointwise_stabilizer"),
    "symmetry.block_stabilizer": ("symmetry", "block_stabilizer"),
    "symmetry.orbits": ("symmetry", "orbits"),
    "symmetry.minimal_fixing_set": ("symmetry", "minimal_fixing_set"),
    "graphs.distances": ("graphs", "distances"),
    "graphs.parse_graph": ("graphs", "parse_graph"),
    "colouring.run": ("colouring", "run"),
    "colouring.extend_colouring": ("colouring", "extend_colouring"),
    "colouring.neighbourhood_refinement": ("colouring", "neighbourhood_refinement"),
    "colouring.serialize_trace": ("colouring", "serialize_trace"),
    "audit.audit_run": ("audit", "audit_run"),
    "oracle.is_asymmetric": ("oracle", "is_asymmetric"),
    "oracle.motion_lemma_check": ("oracle", "motion_lemma_check"),
    "oracle.distinguishing_number": ("oracle", "distinguishing_number"),
    "oracle.interior_support_check": ("oracle", "interior_support_check"),
    "oracle.motion": ("oracle", "motion"),
}

# exact work counts taken from a span's arguments and result
WORK = {
    "symmetry.automorphism_group": {"elements": lambda args, result: len(result.elements)},
    "symmetry.subgroup": {
        "scanned": lambda args, result: len(args[0].elements),
        "kept": lambda args, result: len(result.elements),
    },
    "symmetry.minimal_fixing_set": {"picks": lambda args, result: len(result)},
    "oracle.motion_lemma_check": {"search_space": lambda args, result: result.search_space},
}

# the per-layer metrics a traced run reports, with unit and direction
PER_LAYER = [
    ("symmetry.automorphism_group.calls", "count", "lower"),
    ("symmetry.automorphism_group.self_s", "s", "lower"),
    ("symmetry.automorphism_group.elements", "count", "lower"),
    ("symmetry.automorphism_group.builds_per_op", "count/op", "lower"),
    ("symmetry.subgroup.calls", "count", "lower"),
    ("symmetry.subgroup.self_s", "s", "lower"),
    ("symmetry.subgroup.scanned", "count", "lower"),
    ("symmetry.subgroup.kept", "count", "lower"),
    ("symmetry.subgroup.keep_ratio", "1", "higher"),
    ("symmetry.colouring_stabilizer.calls", "count", "lower"),
    ("symmetry.colouring_stabilizer.total_s", "s", "lower"),
    ("symmetry.pointwise_stabilizer.calls", "count", "lower"),
    ("symmetry.pointwise_stabilizer.total_s", "s", "lower"),
    ("symmetry.block_stabilizer.calls", "count", "lower"),
    ("symmetry.block_stabilizer.total_s", "s", "lower"),
    ("symmetry.orbits.calls", "count", "lower"),
    ("symmetry.orbits.self_s", "s", "lower"),
    ("symmetry.minimal_fixing_set.calls", "count", "lower"),
    ("symmetry.minimal_fixing_set.self_s", "s", "lower"),
    ("symmetry.minimal_fixing_set.picks", "count", "lower"),
    ("graphs.distances.calls", "count", "lower"),
    ("graphs.distances.self_s", "s", "lower"),
    ("graphs.parse_graph.self_s", "s", "lower"),
    ("colouring.run.total_s", "s", "lower"),
    ("colouring.run.self_s", "s", "lower"),
    ("colouring.extend_colouring.calls", "count", "lower"),
    ("colouring.extend_colouring.self_s", "s", "lower"),
    ("colouring.neighbourhood_refinement.calls", "count", "lower"),
    ("colouring.neighbourhood_refinement.self_s", "s", "lower"),
    ("colouring.serialize_trace.self_s", "s", "lower"),
    ("audit.audit_run.total_s", "s", "lower"),
    ("audit.audit_run.self_s", "s", "lower"),
    ("oracle.is_asymmetric.total_s", "s", "lower"),
    ("oracle.motion_lemma_check.calls", "count", "lower"),
    ("oracle.motion_lemma_check.total_s", "s", "lower"),
    ("oracle.motion_lemma_check.search_space", "count", "lower"),
    ("oracle.distinguishing_number.total_s", "s", "lower"),
    ("oracle.interior_support_check.total_s", "s", "lower"),
    ("oracle.motion.total_s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
    ("machine.calib_s", "s", "lower"),
]

COLOUR_OP = "op.colour"


class Tracer:
    """Records spans in memory while installed (``with Tracer() as t``).

    A span is ``[name, start, end, parent index, {counter: value} or None]``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counters = WORK.get(name, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if counters:
                    span[4] = {counter: count(args, result) for counter, count in counters.items()}
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items()) if key == "asymcolour" or key.startswith("asymcolour.")]
        for name, (module_name, attr) in TRACED.items():
            home = sys.modules.get(f"asymcolour.{module_name}")
            if "." in attr:
                owner_name, attr = attr.split(".")
                owner = getattr(home, owner_name, None)
                if getattr(owner, attr, None) is not None:
                    self._replace(owner, attr, self.wrap(name, getattr(owner, attr)))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._replace(module, attr, wrapper)
        return self

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self time, work counts, and how many
    calls sit under a colour op.

    Self time is a span's duration minus the durations of its child spans;
    spans nest strictly because the program is single-threaded.
    """
    child_time = [0.0] * len(spans)
    root_name: list[str] = []
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
        root_name.append(name if parent < 0 else root_name[parent])

    table: dict[str, dict] = {}
    for i, (name, start, end, _, work) in enumerate(spans):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "in_colour_op": 0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        row["in_colour_op"] += root_name[i] == COLOUR_OP
        for counter, value in (work or {}).items():
            row[counter] = row.get(counter, 0) + value
    return table


def exact_counts(summary: dict) -> dict:
    """Every count of one traced round; two rounds must give equal ones."""
    return {name: {k: v for k, v in row.items() if not k.endswith("_s")} for name, row in summary.items()}


def layer_metrics(rounds: list[dict], overhead_ratio: float, calib_s: float) -> dict[str, tuple[float, str]]:
    """The ``PER_LAYER`` metrics from the summaries of the traced rounds.

    Counts are those of the first round; times are medians over rounds.
    """
    first = rounds[0]

    def count(name, field):
        return first.get(name, {}).get(field, 0)

    metrics = {}
    for metric, unit, _ in PER_LAYER:
        span, field = metric.rsplit(".", 1)
        if field.endswith("_s") and span in TRACED:
            value = statistics.median(r.get(span, {}).get(field, 0.0) for r in rounds)
        elif field == "keep_ratio":
            scanned = count(span, "scanned")
            value = count(span, "kept") / scanned if scanned else 0.0
        elif field == "builds_per_op":
            ops = count(COLOUR_OP, "calls")
            value = count(span, "in_colour_op") / ops if ops else 0.0
        elif metric == "trace.overhead_ratio":
            value = overhead_ratio
        elif metric == "machine.calib_s":
            value = calib_s
        else:
            value = count(span, field)
        metrics[metric] = (value, unit)
    return metrics
