"""Spans around calls into the engine's modules, recorded from outside.

The engine is not changed.  Each wrapper replaces a name where the
caller looks it up: the benchmark calls the counting entry points
through the package, ``dp`` binds the graph, decomposition and reduct
helpers in its own namespace, ``graphs`` binds ``primal_graph`` for its
own calls, ``backends`` and ``semantics`` both bind ``answer_sets``, and
``semantics`` reaches the enumeration kernel through the ``kernel``
module attribute.  Patching only the defining module would miss most
calls.
"""

from __future__ import annotations

import time

# (module, attribute, span name).  ``InternalBackend`` methods are patched
# on the class, so every backend the engine builds is covered.
PATCHES = (
    ("wvcount", "count_world_views", "dp.count_world_views"),
    ("wvcount", "acceptance_probability", "dp.acceptance_probability"),
    ("wvcount", "count_plausible", "dp.count_plausible"),
    ("dp", "primal_graph", "graphs.primal_graph"),
    ("graphs", "primal_graph", "graphs.primal_graph"),
    ("dp", "epistemic_primal_graph", "graphs.epistemic_primal_graph"),
    ("dp", "nested_primal_graph", "graphs.nested_primal_graph"),
    ("dp", "assign_compatible_sets", "graphs.assign_compatible_sets"),
    ("dp", "build_td", "decomp.build_td"),
    ("dp", "make_nice", "decomp.make_nice"),
    ("dp", "choose_abstraction", "dp.choose_abstraction"),
    ("dp", "plausible_tables", "dp.plausible_tables"),
    ("dp", "epistemic_reduct", "semantics.epistemic_reduct"),
    ("backends", "answer_sets", "semantics.answer_sets"),
    ("semantics", "answer_sets", "semantics.answer_sets"),
    ("semantics", "enumerate_world_views", "semantics.enumerate_world_views"),
    ("kernel", "answer_sets_masks", "kernel.answer_sets_masks"),
)
BACKEND_METHODS = ("count_wv", "wv_exists", "as_exists", "as_forbid_all")


def _counts(name, args, result):
    """Work counts taken from a call's inputs and result."""
    if name == "decomp.make_nice":
        return (("decomp.nice_nodes", result.node_count),)
    if name == "dp.plausible_tables":
        return (("dp.plausible_rows", sum(len(t) for t in result.values())),)
    if name == "semantics.enumerate_world_views":
        return (("semantics.wv_guesses", 3 ** args[0].eats_mask.bit_count()),)
    if name == "kernel.answer_sets_masks":
        return (("kernel.interps", 1 << args[3]),)
    return ()


class Tracer:
    """Collects spans as (name, start, end, parent index) in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            for key, value in _counts(name, args, result):
                counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def install(self, wv):
        """Patch the wrappers into the package ``wv``'s modules."""
        modules = {
            "wvcount": wv,
            "dp": wv.dp,
            "graphs": wv.graphs,
            "backends": wv.backends,
            "semantics": wv.semantics,
            "kernel": wv.kernel,
        }
        for mod_name, attr, span in PATCHES:
            mod = modules[mod_name]
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.wrap(span, getattr(mod, attr)))
        cls = wv.backends.InternalBackend
        for attr in BACKEND_METHODS:
            self._saved.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, self.wrap("backends." + attr, cls.__dict__[attr]))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()


def self_times(spans):
    """Per span: its duration minus the time its direct children cover.
    Calls are single-threaded and nested, so children never overlap."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


LAYER_TIMES = {
    # metric: (span names, measure) -- "self" subtracts traced children
    "graphs.s": (
        ("graphs.primal_graph", "graphs.epistemic_primal_graph", "graphs.nested_primal_graph"),
        "self",
    ),
    "graphs.compat_s": (("graphs.assign_compatible_sets",), "total"),
    "decomp.s": (("decomp.build_td", "decomp.make_nice"), "self"),
    "dp.abstraction_s": (("dp.choose_abstraction",), "total"),
    "dp.tables_s": (
        (
            "dp.count_world_views",
            "dp.acceptance_probability",
            "dp.count_plausible",
            "dp.plausible_tables",
        ),
        "self",
    ),
    "dp.reduct_s": (("semantics.epistemic_reduct",), "total"),
    "backends.s": (tuple("backends." + m for m in BACKEND_METHODS), "self"),
    "semantics.s": (("semantics.answer_sets", "semantics.enumerate_world_views"), "self"),
    "kernel.s": (("kernel.answer_sets_masks",), "total"),
}
LAYER_CALLS = {
    "graphs.primal_builds": ("graphs.primal_graph",),
    "graphs.nested_builds": ("graphs.nested_primal_graph",),
    "decomp.td_builds": ("decomp.build_td",),
    "backends.calls": tuple("backends." + m for m in BACKEND_METHODS),
    "kernel.calls": ("kernel.answer_sets_masks",),
}
LAYER_COUNTS = (
    "decomp.nice_nodes",
    "dp.plausible_rows",
    "semantics.wv_guesses",
    "kernel.interps",
)


def layer_metrics(spans, counts):
    """Per-layer seconds and counts of one traced pass."""
    own = self_times(spans)
    out = {}
    for metric, (names, measure) in LAYER_TIMES.items():
        total = 0.0
        for (name, start, end, _parent), self_s in zip(spans, own):
            if name in names:
                total += self_s if measure == "self" else end - start
        out[metric] = total
    for metric, names in LAYER_CALLS.items():
        out[metric] = sum(1 for span in spans if span[0] in names)
    for metric in LAYER_COUNTS:
        out[metric] = counts.get(metric, 0)
    return out
