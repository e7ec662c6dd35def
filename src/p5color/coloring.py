"""Vertex weights and multicolorings.

A multicoloring assigns each vertex a set of color indices from 1..k;
adjacent vertices get disjoint sets. Ordinary proper colorings are the
all-weights-1 case (singleton color sets).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .errors import ParseError
from .graph import Graph, int_pairs

Weights = Mapping[int, int]


def normalize_weights(g: Graph, w: Weights | None) -> list[int]:
    """Weights as a dense list indexed by vertex; missing entries default
    to 1, values must be positive integers (an int, not a bool)."""
    out = [1] * g.n
    if w is not None:
        for v, wt in w.items():
            if not 0 <= v < g.n:
                raise ValueError(f"weight for unknown vertex {v}")
            if not isinstance(wt, int) or isinstance(wt, bool) or wt < 1:
                raise ValueError(f"weight of vertex {v} must be an integer >= 1, got {wt!r}")
            out[v] = wt
    return out


def parse_weights(text: str, n: int) -> dict[int, int]:
    """Weights file of a graph on n vertices: lines "vertex weight",
    0-indexed; blank lines and "#" comments ignored. Missing vertices
    default to weight 1."""
    out: dict[int, int] = {}
    for lineno, line, v, wt in int_pairs(text, "weight"):
        if v < 0 or wt < 1:
            raise ParseError(f"bad vertex or weight in {line!r}", lineno)
        if v >= n:
            raise ParseError(f"weight for unknown vertex {v}", lineno)
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
    def from_singletons(cls, color: list[int]) -> MultiColoring:
        """Ordinary coloring as a multicoloring: color[v] is vertex v's
        color, numbered from 1. Each color's set is built once."""
        k = max(color, default=0)
        single = [frozenset((c,)) for c in range(k + 1)]
        return cls(tuple([single[c] for c in color]), k)


def validate_coloring(g: Graph, mc: MultiColoring, w: Weights | None = None) -> None:
    """Raise ValueError unless mc is a proper multicoloring of g for w.

    Checks |colors[v]| = w(v) and colors drawn from 1..k for every vertex
    first, then that no color class holds both ends of an edge, naming
    the smallest vertex with a clash and its smallest clashing neighbor.
    """
    weights = normalize_weights(g, w)
    if len(mc.colors) != g.n:
        raise ValueError(f"coloring covers {len(mc.colors)} vertices, graph has {g.n}")
    classes: dict[int, int] = {}  # color -> bitmask of the vertices using it
    for v, cs in enumerate(mc.colors):
        if len(cs) != weights[v]:
            raise ValueError(
                f"vertex {v} has {len(cs)} colors, weight demands {weights[v]}"
            )
        for c in cs:
            if not 1 <= c <= mc.k:
                raise ValueError(f"vertex {v} uses color {c} outside 1..{mc.k}")
            classes[c] = classes.get(c, 0) | 1 << v
    for v, (cs, near) in enumerate(zip(mc.colors, g.adj_masks)):
        clash = 0
        for c in cs:
            clash |= near & classes[c]
        if clash:
            u = (clash & -clash).bit_length() - 1
            shared = sorted(cs & mc.colors[u])
            raise ValueError(f"adjacent vertices {v},{u} share colors {shared}")
