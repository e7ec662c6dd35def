"""Per-layer spans for the traced pass.

Spans are taken around calls into each p5color module's public
functions by swapping the module attributes the solvers look up, for the
duration of the traced pass only; nothing under src/ changes. Each span
is labelled with the per-layer metric its self time feeds. The
callbacks the pipeline hands to the composition routines (prime_solver,
leaf_chi) are pipeline code, so they get spans of their own and their
time is taken out of composition.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

PIPELINE = "pipeline.self_ms"

TIME_METRICS = (
    "detect.ms",
    "modular.md_tree_ms",
    "modular.compose_ms",
    "oracle.chi_w_ms",
    "oracle.chi_ms",
    "cliquesep.build_tree_ms",
    "cliquesep.compose_ms",
    "matching.chi_o3_free_ms",
    "coloring.validate_ms",
    PIPELINE,
)
SUM_COUNTS = (
    "modular.nodes",
    "modular.prime_nodes",
    "oracle.chi_w_calls",
    "cliquesep.blocks",
    "cliquesep.mcs_passes",
    "matching.blocks",
)
MAX_COUNTS = ("modular.max_quotient_n", "oracle.max_blowup_n", "cliquesep.depth")


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    instance: str


class Tracer:
    """Spans and counters of one traced solve at a time, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.instance = ""

    def begin(self, instance: str) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self.instance = instance

    def wrap(self, layer: str, fn, after=None):
        """fn with a span around every call; after(args, kwargs, result)
        records counters outside the timed interval."""

        def traced(*args, **kwargs):
            span = Span(layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.instance)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def bump(self, name: str, by: int = 1) -> None:
        self.counts[name] += by

    def high(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def self_ms(self) -> dict[str, float]:
        """Self time per layer: each span minus its children, in ms."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out = dict.fromkeys(TIME_METRICS, 0.0)
        for span, inner in zip(self.spans, child):
            out[span.layer] += (span.end - span.start - inner) * 1000.0
        return out

    def root_ms(self) -> float:
        root = self.spans[0]
        return (root.end - root.start) * 1000.0


def _walk(root, children):
    """(node, depth) pairs of a tree, without recursion."""
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        stack.extend((c, depth + 1) for c in children(node))


@contextmanager
def traced_modules(lib, tracer: Tracer):
    """Swap in traced versions of the functions the solvers call."""
    pipeline, modular, cliquesep = lib.pipeline, lib.modular, lib.cliquesep

    def md_counts(args, kwargs, tree):
        for node, _ in _walk(tree, lambda t: getattr(t, "children", ())):
            tracer.bump("modular.nodes")
            quotient = getattr(node, "quotient", None)
            if quotient is not None:
                tracer.bump("modular.prime_nodes")
                tracer.high("modular.max_quotient_n", quotient.n)

    def cs_counts(args, kwargs, tree):
        for _, depth in _walk(tree, lambda t: (t.left, t.right) if hasattr(t, "left") else ()):
            tracer.high("cliquesep.depth", depth)
        tracer.bump("cliquesep.blocks", len(cliquesep.tree_leaves(tree)))

    def blowup_counts(args, kwargs, result):
        g, w = args[0], args[1]
        tracer.bump("oracle.chi_w_calls")
        tracer.high("oracle.max_blowup_n", sum(w.values()) if w else g.n)

    def with_callback(fn, position: int, name: str, layer: str):
        def call(*args, **kwargs):
            args = list(args)
            if name in kwargs:
                kwargs[name] = tracer.wrap(PIPELINE, kwargs[name])
            else:
                args[position] = tracer.wrap(PIPELINE, args[position])
            return fn(*args, **kwargs)

        return tracer.wrap(layer, call)

    originals = {}

    def swap(module, attr, make):
        originals[(module, attr)] = getattr(module, attr)
        setattr(module, attr, make(getattr(module, attr)))

    swap(pipeline, "find_class_violation", lambda f: tracer.wrap("detect.ms", f))
    swap(pipeline, "find_independent_triple", lambda f: tracer.wrap("detect.ms", f))
    swap(pipeline, "is_berge_small", lambda f: tracer.wrap("detect.ms", f))
    swap(pipeline, "chi_w_exact", lambda f: tracer.wrap("oracle.chi_w_ms", f, blowup_counts))
    swap(pipeline, "chi_exact", lambda f: tracer.wrap("oracle.chi_ms", f))
    swap(
        pipeline,
        "chi_o3_free",
        lambda f: tracer.wrap("matching.chi_o3_free_ms", f, lambda *_: tracer.bump("matching.blocks")),
    )
    for module in (pipeline, modular, cliquesep):
        swap(module, "validate_coloring", lambda f: tracer.wrap("coloring.validate_ms", f))
    swap(modular, "md_tree", lambda f: tracer.wrap("modular.md_tree_ms", f, md_counts))
    swap(modular, "chi_w", lambda f: with_callback(f, 2, "prime_solver", "modular.compose_ms"))
    swap(cliquesep, "build_tree", lambda f: tracer.wrap("cliquesep.build_tree_ms", f, cs_counts))
    swap(cliquesep, "chi_compose", lambda f: with_callback(f, 2, "leaf_chi", "cliquesep.compose_ms"))

    def count_mcs(f):
        def counted(*args, **kwargs):
            tracer.bump("cliquesep.mcs_passes")
            return f(*args, **kwargs)

        return counted

    swap(cliquesep, "_mcs_m", count_mcs)
    try:
        yield
    finally:
        for (module, attr), fn in originals.items():
            setattr(module, attr, fn)
