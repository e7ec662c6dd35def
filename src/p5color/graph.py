"""Immutable simple undirected graphs with dense 0-indexed vertex ids.

Adjacency is kept twice: as per-vertex bitmasks (O(1) adjacency tests,
cheap set algebra for the pattern detectors) and as sorted neighbor
tuples (cheap iteration for the decompositions).
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import ParseError

VertexSubset = frozenset  # members of 0..n-1 of a host graph


class Graph:
    """A simple undirected graph on vertices 0..n-1.

    Immutable after construction: no self-loops, no parallel edges,
    adjacency is symmetric.
    """

    __slots__ = ("n", "_adj", "_nbrs", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        adj = [0] * n
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u > v:
                u, v = v, u
            norm.add((u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)
        self._nbrs = tuple(tuple(iter_bits(mask)) for mask in adj)
        self._edges = frozenset(norm)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> Graph:
        return cls(n)

    @classmethod
    def complete(cls, n: int) -> Graph:
        return cls(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

    @classmethod
    def path(cls, n: int) -> Graph:
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> Graph:
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    # -- basic accessors ------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v."""
        return self._edges

    def vertices(self) -> range:
        return range(self.n)

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def adj_bits(self, v: int) -> int:
        """Neighborhood of v as a bitmask."""
        return self._adj[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._nbrs[v]

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    # -- derived graphs -------------------------------------------------------

    def complement(self) -> Graph:
        n = self.n
        return Graph(
            n,
            [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if not self._adj[u] >> v & 1
            ],
        )

    def induced(self, subset: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
        """Subgraph induced by `subset`, relabeled 0..k-1.

        Returns the subgraph and the id map back to this graph: local
        vertex i corresponds to host vertex map[i]. The map is sorted,
        so local order agrees with host order.
        """
        ids = sorted(set(subset))
        for v in ids:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range for n={self.n}")
        local = {v: i for i, v in enumerate(ids)}
        edges = [
            (local[u], local[v])
            for u, v in self._edges
            if u in local and v in local
        ]
        return Graph(len(ids), edges), tuple(ids)

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def iter_bits(mask: int):
    """The vertices of a bitmask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_of(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def set_of(mask: int) -> frozenset[int]:
    return frozenset(iter_bits(mask))


def components(g: Graph, mask: int | None = None) -> list[frozenset[int]]:
    """Connected components of the subgraph induced by the vertex bitmask
    (all of g by default), ordered by smallest contained vertex id."""
    rest = (1 << g.n) - 1 if mask is None else mask
    out = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= g.adj_bits(v)
            frontier = nxt & rest & ~comp
            comp |= frontier
        rest &= ~comp
        out.append(set_of(comp))
    return out


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


def is_clique(g: Graph, subset: Iterable[int]) -> bool:
    """True iff all pairs in subset are adjacent; empty and singletons count."""
    vs = sorted(set(subset))
    mask = bits_of(vs)
    return all(g.adj_bits(v) & mask == mask & ~(1 << v) for v in vs)


def is_independent_set(g: Graph, subset: Iterable[int]) -> bool:
    vs = sorted(set(subset))
    mask = bits_of(vs)
    return all(g.adj_bits(v) & mask == 0 for v in vs)


# -- file formats ---------------------------------------------------------
#
# DIMACS .col: header "p edge n m", edge lines "e u v" (1-indexed).
# Edge list: one "u v" pair per line, 0-indexed; blank lines and "#"
# comments ignored.


def parse_graph(text: str, fmt: str = "dimacs") -> Graph:
    if fmt == "dimacs":
        return parse_dimacs(text)
    if fmt in ("edges", "edge-list"):
        return parse_edge_list(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def parse_dimacs(text: str) -> Graph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise ParseError(f"malformed header {line!r}", lineno)
            try:
                n = int(parts[2])
                int(parts[3])
            except ValueError:
                raise ParseError(f"malformed header {line!r}", lineno) from None
            if n < 0:
                raise ParseError(f"negative vertex count {n}", lineno)
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", lineno)
            if len(parts) != 3:
                raise ParseError(f"malformed edge line {line!r}", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"malformed edge line {line!r}", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id out of range in {line!r}", lineno)
            if u == v:
                raise ParseError(f"self-loop in {line!r}", lineno)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise ParseError("missing problem line", 0)
    return Graph(n, edges)


def parse_edge_list(text: str) -> Graph:
    edges = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"malformed edge line {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"malformed edge line {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"vertex id out of range in {line!r}", lineno)
        if u == v:
            raise ParseError(f"self-loop in {line!r}", lineno)
        edges.append((u, v))
        max_id = max(max_id, u, v)
    return Graph(max_id + 1, edges)


def to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def to_edge_list(g: Graph) -> str:
    lines = [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + ("\n" if lines else "")
