"""Vertex weights and multicolorings.

A multicoloring assigns each vertex a set of color indices from 1..k;
adjacent vertices get disjoint sets. Ordinary proper colorings are the
all-weights-1 case (singleton color sets).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .errors import ParseError
from .graph import Graph

Weights = Mapping[int, int]


def unit_weights(g: Graph) -> dict[int, int]:
    return {v: 1 for v in g.vertices()}


def normalize_weights(g: Graph, w: Weights | None) -> list[int]:
    """Weights as a dense list indexed by vertex; missing entries default
    to 1, values must be positive integers."""
    out = [1] * g.n
    if w is not None:
        for v, wt in w.items():
            if not 0 <= v < g.n:
                raise ValueError(f"weight for unknown vertex {v}")
            if wt < 1:
                raise ValueError(f"weight of vertex {v} must be >= 1, got {wt}")
            out[v] = int(wt)
    return out


def parse_weights(text: str) -> dict[int, int]:
    """Weights file: lines "vertex weight", 0-indexed; blank lines and
    "#" comments ignored. Missing vertices default to weight 1."""
    out: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"malformed weight line {line!r}", lineno)
        try:
            v, wt = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"malformed weight line {line!r}", lineno) from None
        if v < 0 or wt < 1:
            raise ParseError(f"bad vertex or weight in {line!r}", lineno)
        out[v] = wt
    return out


@dataclass(frozen=True)
class MultiColoring:
    """Color sets per vertex: colors[v] is a frozenset drawn from 1..k."""

    colors: tuple[frozenset[int], ...]
    k: int

    def of(self, v: int) -> frozenset[int]:
        return self.colors[v]

    def colors_used(self) -> frozenset[int]:
        out: set[int] = set()
        for cs in self.colors:
            out |= cs
        return frozenset(out)

    def to_json(self) -> dict[str, list[int]]:
        return {str(v): sorted(cs) for v, cs in enumerate(self.colors)}

    @classmethod
    def from_singletons(cls, assignment: Mapping[int, int], n: int) -> MultiColoring:
        """Ordinary coloring (one color per vertex) as a multicoloring."""
        if set(assignment) != set(range(n)):
            raise ValueError("assignment must cover vertices 0..n-1")
        colors = tuple(frozenset([assignment[v]]) for v in range(n))
        return cls(colors, max(assignment.values(), default=0))


def validate_coloring(g: Graph, mc: MultiColoring, w: Weights | None = None) -> None:
    """Raise ValueError unless mc is a proper multicoloring of g for w.

    Checks |colors[v]| = w(v), colors drawn from 1..k, and disjointness
    across every edge.
    """
    weights = normalize_weights(g, w)
    if len(mc.colors) != g.n:
        raise ValueError(f"coloring covers {len(mc.colors)} vertices, graph has {g.n}")
    for v in g.vertices():
        cs = mc.colors[v]
        if len(cs) != weights[v]:
            raise ValueError(
                f"vertex {v} has {len(cs)} colors, weight demands {weights[v]}"
            )
        for c in cs:
            if not 1 <= c <= mc.k:
                raise ValueError(f"vertex {v} uses color {c} outside 1..{mc.k}")
    for u, v in g.edges:
        if mc.colors[u] & mc.colors[v]:
            shared = sorted(mc.colors[u] & mc.colors[v])
            raise ValueError(f"adjacent vertices {u},{v} share colors {shared}")

