"""Spans and counts at the layer boundaries of rootmat, recorded from outside.

A `Tracer` replaces the public functions of each layer with wrappers that
record a span (name, start, end, parent span, trace id) and add counts
derived from the call's arguments or result.  Each name is wrapped where
callers look it up: a module attribute when callers reach it through the
module (`linmatroid.rank`, `graphauto.refine`, ...), and the imported name
when a module imported it directly (`verify.build_incidence`,
`graphauto.bsgs`).  `restore()` puts the original functions back.

Spans stay in memory; `write_spans` writes them out at the end of a run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("rootsystems", "linmatroid", "incidencegraph", "graphauto", "permgrp", "verify")

# per-layer metric names, in report order, with their units
METRICS = {
    "rootsystems.total_s": "s",
    "rootsystems.self_s": "s",
    "rootsystems.parse_s": "s",
    "rootsystems.kgens_s": "s",
    "rootsystems.kgens_count": "count",
    "linmatroid.total_s": "s",
    "linmatroid.self_s": "s",
    "linmatroid.c3_s": "s",
    "linmatroid.c3_count": "count",
    "linmatroid.rank_calls": "count",
    "linmatroid.rank_s": "s",
    "linmatroid.allcircuits_s": "s",
    "linmatroid.allcircuits_count": "count",
    "incidencegraph.total_s": "s",
    "incidencegraph.self_s": "s",
    "incidencegraph.build_s": "s",
    "incidencegraph.vertices": "count",
    "incidencegraph.edges": "count",
    "graphauto.total_s": "s",
    "graphauto.self_s": "s",
    "graphauto.search_s": "s",
    "graphauto.refine_s": "s",
    "graphauto.selfcheck_s": "s",
    "graphauto.nodes": "count",
    "graphauto.leaves": "count",
    "graphauto.gens": "count",
    "graphauto.compared_leaves": "count",
    "graphauto.gens_per_leaf": "ratio",
    "permgrp.total_s": "s",
    "permgrp.self_s": "s",
    "permgrp.aut_bsgs_s": "s",
    "permgrp.k_bsgs_s": "s",
    "permgrp.k_base_len": "count",
    "permgrp.subgroup_s": "s",
    "verify.total_s": "s",
    "verify.self_s": "s",
}

# span name -> metric that sums its durations
SPAN_METRICS = {
    "rootsystems.parse": "rootsystems.parse_s",
    "rootsystems.kgens": "rootsystems.kgens_s",
    "linmatroid.c3": "linmatroid.c3_s",
    "linmatroid.rank": "linmatroid.rank_s",
    "linmatroid.allcircuits": "linmatroid.allcircuits_s",
    "incidencegraph.build": "incidencegraph.build_s",
    "graphauto.search": "graphauto.search_s",
    "graphauto.refine": "graphauto.refine_s",
    "permgrp.selfcheck": "graphauto.selfcheck_s",
    "permgrp.aut_bsgs": "permgrp.aut_bsgs_s",
    "permgrp.k_bsgs": "permgrp.k_bsgs_s",
    "permgrp.subgroup": "permgrp.subgroup_s",
}

COUNTS = [name for name, unit in METRICS.items() if unit == "count"]

VERDICT = "verify.verdict"
AUT_GROUP = "verify.aut_group"


class Tracer:
    """Records spans and counts while the layer functions are wrapped."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, trace id]
        self.counts = defaultdict(lambda: defaultdict(int))  # trace id -> name -> n
        self.trace_id = None
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent, self.trace_id])

    def end(self):
        self.spans[self._stack.pop()][2] = perf_counter()

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def add(self, name, n):
        self.counts[self.trace_id][name] += n

    def wrap(self, owner, attr, span, counts=None):
        """Replace owner.attr by a wrapper that records `span` around it.

        `span` is a name or a function of the parent span's name.  A call
        made directly inside a span of the same name (recursion, or
        `permgrp.equal` calling `is_subgroup`) passes through unrecorded.
        `counts(result, *args)` returns {count name: increment}.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            parent = self.parent_name()
            name = span(parent) if callable(span) else span
            if name == parent:
                return original(*args, **kwargs)
            self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end()
            if counts is not None:
                for key, n in counts(result, *args, **kwargs).items():
                    self.add(key, n)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, rootmat):
        """Wrap the public functions of every layer of the rootmat package."""
        rs, lm = rootmat.rootsystems, rootmat.linmatroid
        ga, pg, vf = rootmat.graphauto, rootmat.permgrp, rootmat.verify
        self.wrap(rs, "parse_system_id", "rootsystems.parse")
        self.wrap(rs, "build", "rootsystems.build")
        self.wrap(rs, "known_group_generators", "rootsystems.kgens",
                  lambda gens, *a, **k: {"rootsystems.kgens_count": len(gens)})
        self.wrap(lm, "matroid_of", "linmatroid.matroid")
        self.wrap(lm, "circuits3", "linmatroid.c3",
                  lambda c3, *a, **k: {"linmatroid.c3_count": len(c3)})
        self.wrap(lm, "rank", "linmatroid.rank",
                  lambda r, *a, **k: {"linmatroid.rank_calls": 1})
        self.wrap(lm, "all_circuits_upto", "linmatroid.allcircuits",
                  lambda cs, *a, **k: {"linmatroid.allcircuits_count": len(cs)})
        self.wrap(vf, "build_incidence", "incidencegraph.build",
                  lambda g, *a, **k: {"incidencegraph.vertices": g.num_vertices,
                                      "incidencegraph.edges": g.num_edges})
        self.wrap(vf, "restrict_to_ground", "incidencegraph.restrict")
        self.wrap(ga, "automorphism_group", "graphauto.search",
                  lambda gens, *a, **k: {"graphauto.gens": len(gens),
                                         "graphauto.searches": 1})
        self.wrap(ga, "refine", "graphauto.refine",
                  lambda cells, g, *a, **k: {
                      "graphauto.nodes": 1,
                      "graphauto.leaves": int(len(cells) == g.num_vertices)})
        # the search's self-check runs Schreier-Sims, so its time is permgrp's
        self.wrap(ga, "bsgs", "permgrp.selfcheck")
        self.wrap(pg, "bsgs",
                  lambda parent: "permgrp.aut_bsgs" if parent == AUT_GROUP else "permgrp.k_bsgs",
                  self._count_k_base)
        self.wrap(pg, "is_subgroup", "permgrp.subgroup")
        self.wrap(pg, "equal", "permgrp.subgroup")
        self.wrap(vf, "aut_group_from_family", AUT_GROUP)

    def _count_k_base(self, group, *args, **kwargs):
        # the wrapper has already closed the span, so the current span is its parent
        if self.parent_name() == AUT_GROUP:
            return {}
        return {"permgrp.k_base_len": len(group.base)}

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def call(self, trace_id, fn, *args):
        """Run one verdict as the root span of its trace."""
        self.trace_id = trace_id
        self.begin(VERDICT)
        try:
            return fn(*args)
        finally:
            self.end()
            self.trace_id = None

    # -- aggregation -----------------------------------------------------

    def metrics_by_trace(self):
        """Per-layer metrics of every trace (system id) recorded so far."""
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent, tid) in enumerate(spans):
            m = out.setdefault(tid, dict.fromkeys(METRICS, 0))
            layer = name.split(".")[0]
            m[layer + ".self_s"] += end - start - child_time[i]
            if not _inside_layer(spans, parent, layer):
                m[layer + ".total_s"] += end - start
            if name in SPAN_METRICS:
                m[SPAN_METRICS[name]] += end - start
        for tid, m in out.items():
            counts = self.counts[tid]
            for name in COUNTS:
                m[name] = counts.get(name, 0)
            # the first leaf of each search is its reference; the others are compared
            m["graphauto.compared_leaves"] = m["graphauto.leaves"] - counts.get("graphauto.searches", 0)
            set_gens_per_leaf(m)
        return out


def set_gens_per_leaf(m):
    """graphauto.gens_per_leaf = gens / compared leaves (0 when nothing was compared)."""
    base = m["graphauto.compared_leaves"]
    m["graphauto.gens_per_leaf"] = m["graphauto.gens"] / base if base else 0.0


def total(per_trace):
    """Sum per-trace metrics into one workload row."""
    m = dict.fromkeys(METRICS, 0)
    for row in per_trace.values():
        for name in METRICS:
            m[name] += row[name]
    set_gens_per_leaf(m)
    return m


def _inside_layer(spans, parent, layer):
    while parent >= 0:
        if spans[parent][0].split(".")[0] == layer:
            return True
        parent = spans[parent][3]
    return False


def write_spans(path, spans):
    """Write one span per line as a JSON array."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
