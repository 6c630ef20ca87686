"""In-memory spans for traced runs, and the per-layer metrics built from them.

A span is the list ``[op_id, span_id, parent_id, name, start_ns, end_ns,
count]``: one call the benchmark made into a public function of the package,
timed with ``time.perf_counter_ns`` (CLOCK_MONOTONIC, so spans from
different processes share one clock).  ``count`` is the size of the work the
call did (classes, roots, monomials, matrix entries), or 0.

Spans are recorded from the benchmark's own files only: around the calls
the workers make, and around ``rational_rank`` by replacing the name where
``adecox.cox`` and ``adecox.flag`` look it up.  Nothing in the package is
edited.
"""

from __future__ import annotations

import time

# metric name -> (span name, field); field is "self_s" (span duration minus
# the time its child spans cover), "count" (summed counts) or "calls".
LAYER_METRICS = {
    "curves.enumerate_s": ("curves.enumerate", "self_s"),
    "curves.classes": ("curves.enumerate", "count"),
    "roots.build_s": ("roots.build", "self_s"),
    "roots.positive_roots": ("roots.build", "count"),
    "roots.orbit_s": ("roots.orbit", "self_s"),
    "roots.orbit_classes": ("roots.orbit", "count"),
    "weights.line_multiset_s": ("weights.line_multiset", "self_s"),
    "weights.sym2_s": ("weights.sym2", "self_s"),
    "weights.sym2_terms": ("weights.sym2", "count"),
    "weights.freudenthal_s": ("weights.freudenthal", "self_s"),
    "weights.freudenthal_dim": ("weights.freudenthal", "count"),
    "weights.weyl_dim_s": ("weights.weyl_dim", "self_s"),
    "weights.lemma_s": ("weights.lemma", "self_s"),
    "cox.verify_hilbert_s": ("cox.verify_hilbert", "self_s"),
    "cox.classes_checked": ("cox.verify_hilbert", "count"),
    "cox.graded_piece_dim_s": ("cox.graded_piece_dim", "self_s"),
    "cox.git_s": ("cox.git", "self_s"),
    "cox.census_s": ("cox.census", "self_s"),
    "cox.census_monomials": ("cox.census", "count"),
    "cox.section_dim_s": ("cox.section_dim", "self_s"),
    "linalg.rank_s": ("linalg.rank", "self_s"),
    "linalg.rank_calls": ("linalg.rank", "calls"),
    "linalg.rank_entries": ("linalg.rank", "count"),
    "flag.embed_s": ("flag.embed", "self_s"),
    **{f"selftest.C{i}_s": (f"selftest.C{i}", "self_s") for i in range(1, 10)},
    "cli.main_s": ("cli.main", "self_s"),
    "cli.output_bytes": ("cli.main", "count"),
}


class Tracer:
    """Records spans in memory; ``enabled=False`` makes every call direct."""

    def __init__(self, enabled: bool, op_id=0):
        self.enabled = enabled
        self.op_id = op_id
        self.spans: list[list] = []
        self.stack: list[int] = []

    def open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        span = [self.op_id, len(self.spans), parent, name, 0, 0, 0]
        self.spans.append(span)
        self.stack.append(span[1])
        span[4] = time.perf_counter_ns()
        return span

    def close(self, span: list) -> None:
        span[5] = time.perf_counter_ns()
        self.stack.pop()

    def call(self, name: str, fn, *args, count=None):
        """``fn(*args)`` inside a span; ``count(result)`` sizes the work."""
        if not self.enabled:
            return fn(*args)
        span = self.open(name)
        try:
            result = fn(*args)
        finally:
            self.close(span)
        if count is not None:
            span[6] = count(result)
        return result

    def wrap_rank(self, *modules) -> None:
        """Time ``rational_rank`` where the given modules look it up."""
        for module in modules:
            original = module.rational_rank

            def traced(rows, _original=original):
                if not self.enabled:
                    return _original(rows)
                rows = rows if isinstance(rows, (list, tuple)) else tuple(rows)
                entries = len(rows) * (len(rows[0]) if rows else 0)
                return self.call("linalg.rank", _original, rows, count=lambda _: entries)

            module.rational_rank = traced


def self_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: summed self time (s), summed count and number of calls."""
    child_ns: dict[tuple, int] = {}
    for op_id, _, parent, _, start, end, _ in spans:
        if parent is not None:
            key = (op_id, parent)
            child_ns[key] = child_ns.get(key, 0) + (end - start)
    out: dict[str, dict[str, float]] = {}
    for op_id, span_id, _, name, start, end, count in spans:
        entry = out.setdefault(name, {"self_s": 0.0, "count": 0, "calls": 0})
        entry["self_s"] += (end - start - child_ns.get((op_id, span_id), 0)) / 1e9
        entry["count"] += count
        entry["calls"] += 1
    return out


# The spans each workload is built to produce; see README.md for the
# end-to-end metric each should move.
EXPECTED_SPANS = {
    "ring": {"cox.verify_hilbert", "cox.graded_piece_dim", "cox.git", "linalg.rank", "flag.embed",
             "selftest.C4", "selftest.C6", "selftest.C7", "cli.main"},
    "weyl": {"curves.enumerate", "roots.build", "roots.orbit", "weights.line_multiset", "weights.sym2",
             "weights.freudenthal", "weights.weyl_dim", "weights.lemma", "selftest.C1", "selftest.C2",
             "selftest.C3", "selftest.C5", "selftest.C8", "selftest.C9", "cli.main"},
    "session": {"curves.enumerate", "roots.build", "roots.orbit", "cox.graded_piece_dim", "cox.census",
                "cox.section_dim", "linalg.rank"},
}


def layer_metrics(spans: list[list], workload: str) -> tuple[dict[str, float], list[str], list[str]]:
    """Every metric of ``LAYER_METRICS``, the missing ones and the idle ones.

    A metric with no span is 0 in the values.  It is *missing* when the
    workload is built to call its layer, so a layer that silently stopped
    being called shows as missing rather than as free; otherwise it is
    *idle*, a layer this workload does not use.
    """
    totals = self_times(spans)
    values = {}
    missing = []
    idle = []
    for metric, (name, field) in LAYER_METRICS.items():
        if name in totals:
            values[metric] = totals[name][field]
        else:
            values[metric] = 0
            (missing if name in EXPECTED_SPANS[workload] else idle).append(metric)
    return values, missing, idle
