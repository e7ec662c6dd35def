"""Immutable simple undirected graphs with dense 0-indexed vertex ids.

A graph is its vertex count and its per-vertex adjacency bitmask rows
(O(1) adjacency tests, cheap set algebra for the detectors and
decompositions); the edge set, the edge count, equality and hashing
are all derived from the rows.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Sequence

from .errors import CutoffExceeded, ParseError


class Graph:
    """A simple undirected graph on vertices 0..n-1.

    Immutable after construction: no self-loops, no parallel edges,
    adjacency is symmetric.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def _from_masks(cls, adj: Sequence[int]) -> Graph:
        """The graph whose neighborhood bitmasks are adj, taken as given:
        the rows must be symmetric, loop-free and within range."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g._adj = tuple(adj)
        return g

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
        return sum(mask.bit_count() for mask in self._adj) // 2

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v."""
        return frozenset(
            (u, v) for u, mask in enumerate(self._adj) for v in iter_bits(mask & ~((2 << u) - 1))
        )

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    @property
    def adj_masks(self) -> tuple[int, ...]:
        """Every vertex's neighborhood bitmask, indexed by vertex."""
        return self._adj

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    # -- derived graphs -------------------------------------------------------

    def complement(self) -> Graph:
        full = (1 << self.n) - 1
        return Graph._from_masks([full ^ mask ^ 1 << v for v, mask in enumerate(self._adj)])

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
        return Graph._from_masks(induced_rows(self._adj, ids)), tuple(ids)

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def iter_bits(mask: int) -> list[int]:
    """The vertices of a bitmask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def induced_rows(adj: Sequence[int], ids: Sequence[int]) -> list[int]:
    """The rows of the subgraph that the rows adj induce on the distinct
    vertices ids, relabelled so that local vertex i is ids[i]."""
    local = {1 << v: i for i, v in enumerate(ids)}
    among = sum(local)  # the bits are distinct
    rows = []
    for v in ids:
        near = adj[v] & among
        row = 0
        while near:
            low = near & -near
            row |= 1 << local[low]
            near ^= low
        rows.append(row)
    return rows


def bits_of(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def substitute(skeleton: Graph, parts: Sequence[Graph]) -> Graph:
    """The graph that replaces each vertex i of the skeleton by the
    module parts[i]: part i's vertices come after those of parts before
    it, and two parts are fully joined when their skeleton vertices are
    adjacent."""
    offsets, blocks = [], []  # each part's first vertex and vertex bitmask
    total = 0
    for part in parts:
        offsets.append(total)
        blocks.append(((1 << part.n) - 1) << total)
        total += part.n
    rows = []
    for i, part in enumerate(parts):
        joined = sum(blocks[j] for j in iter_bits(skeleton.adj_masks[i]))
        rows += [mask << offsets[i] | joined for mask in part.adj_masks]
    return Graph._from_masks(rows)


def component_masks(adj: Sequence[int], mask: int) -> list[int]:
    """The components of the vertex bitmask mask under the neighborhood
    bitmasks adj[v], as bitmasks ordered by smallest vertex."""
    out = []
    while mask:
        comp = reach(adj, mask & -mask, mask)
        mask &= ~comp
        out.append(comp)
    return out


def co_component_masks(adj: Sequence[int], mask: int) -> list[int]:
    """The components of the complement of the graph on the vertex
    bitmask mask, for neighborhood bitmasks adj, as bitmasks ordered by
    smallest vertex. A search on the complement that steps from v to the
    unvisited vertices outside adj[v], so no complement row is built."""
    out = []
    while mask:
        comp = frontier = mask & -mask
        mask ^= comp
        while frontier and mask:
            low = frontier & -frontier
            frontier ^= low
            step = mask & ~adj[low.bit_length() - 1]
            mask ^= step
            frontier |= step
            comp |= step
        out.append(comp)
    return out


def reach(adj: Sequence[int], seed: int, mask: int) -> int:
    """Bitmask of the vertices of mask joined to the seed bitmask by
    paths inside mask (the seed itself included), where adj[v] is the
    neighborhood bitmask of v: g.adj_masks for a graph g."""
    comp = frontier = seed
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & mask & ~comp
        comp |= frontier
    return comp


def first_clique(
    adj: Sequence[int], mask: int, size: int, budget: list[int] | None = None
) -> tuple[int, ...] | None:
    """Lexicographically first clique of the given size inside the vertex
    bitmask mask, in increasing order, for neighbourhood bitmasks adj;
    None if there is none. A depth-first search on an explicit stack of
    (candidates left, vertex chosen) per level, candidates lowest bit
    first; a level with fewer candidates than vertices still needed is
    left at once. So is a level entered needing at least 3 vertices
    whose candidates split greedily into fewer independent sets than
    that (_colour_bound, the colouring bound of Tomita and Seki's MCQ
    in the bitmask form of San Segundo et al.'s BBMC): a clique takes
    at most one vertex from each set, so only branches without one are
    cut and the first clique stays first. With budget, a one-item list
    of the pushes left that searches may share, each push and each row
    the bound reads takes one from budget[0], and the search raises
    CutoffExceeded once it is past zero."""
    if size == 0:
        return ()
    budget = [sys.maxsize] if budget is None else budget
    stack: list[tuple[int, int]] = []
    cand, need = _colour_bound(adj, mask, size, budget), size
    while True:
        if budget[0] < 0:
            raise CutoffExceeded(f"the search for a clique of {size} vertices ran out of nodes")
        if cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            if need == 1:
                return (*(u for _, u in stack), v)
            budget[0] -= 1
            stack.append((cand, v))
            need -= 1
            cand = _colour_bound(adj, cand & adj[v], need, budget)
        elif stack:
            cand = stack.pop()[0]
            need += 1
        else:
            return None


def _colour_bound(adj: Sequence[int], cand: int, need: int, budget: list[int]) -> int:
    """cand, or 0 when a clique of need >= 3 vertices cannot lie in it:
    when its candidates, split greedily into independent sets (each the
    lowest candidate left, then the lowest left outside its neighbours,
    and so on), fill fewer than need sets. Each row read takes one from
    budget[0]."""
    if need < 3 or cand.bit_count() < need:
        return cand
    rest = cand
    for _ in range(need - 1):
        free = rest
        while free:
            low = free & -free
            rest ^= low
            free &= ~(adj[low.bit_length() - 1] | low)
            budget[0] -= 1
        if not rest:
            return 0
    return cand


def is_connected(g: Graph) -> bool:
    return len(component_masks(g.adj_masks, (1 << g.n) - 1)) <= 1


def is_clique(g: Graph, subset: Iterable[int]) -> bool:
    """True iff all pairs in subset are adjacent; empty and singletons count."""
    vs = sorted(set(subset))
    mask = bits_of(vs)
    return all(g.adj_masks[v] & mask == mask & ~(1 << v) for v in vs)


# -- file formats ---------------------------------------------------------
#
# DIMACS .col: header "p edge n m", edge lines "e u v" (1-indexed); m
# must count the distinct edges, repeated lines merge.
# Edge list: one "u v" pair per line, 0-indexed; blank lines and "#"
# comments ignored.


def parse_graph(text: str, fmt: str = "dimacs") -> Graph:
    if fmt == "dimacs":
        return parse_dimacs(text)
    if fmt == "edges":
        return parse_edge_list(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def parse_dimacs(text: str) -> Graph:
    """One pass over the lines: each is split once, edge lines first,
    and each edge goes into the adjacency rows as its line is read. A
    vertex-id token is converted and range-checked the first time it
    is seen and looked up by its text after that. The first faulty line
    raises."""
    n = None
    adj: list[int] = []
    ids: dict[str, int] = {}  # vertex-id token -> its 0-indexed vertex
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if len(parts) == 3 and parts[0] == "e" and n is not None:
            try:
                u, v = ids[parts[1]], ids[parts[2]]
            except KeyError:
                u, v = _new_ends(parts[1], parts[2], ids, n, raw, lineno)
            if u == v:
                raise ParseError(f"self-loop in {raw.strip()!r}", lineno)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        elif not parts or parts[0][0] == "c":
            continue
        elif parts[0] == "p":
            line = raw.strip()
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] not in ("edge", "col"):
                raise ParseError(f"malformed header {line!r}", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed header {line!r}", lineno) from None
            if not 0 <= n <= sys.maxsize:
                raise ParseError(f"vertex count {n} out of range", lineno)
            adj = _empty_rows(n, lineno)
            header = lineno
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", lineno)
            raise ParseError(f"malformed edge line {raw.strip()!r}", lineno)
        else:
            raise ParseError(f"unrecognized line {raw.strip()!r}", lineno)
    if n is None:
        raise ParseError("missing problem line", 0)
    g = Graph._from_masks(adj)
    if g.m != m:
        raise ParseError(f"header declares {m} edges but {g.m} distinct edges follow", header)
    return g


def _new_ends(a: str, b: str, ids: dict[str, int], n: int, raw: str, lineno: int) -> tuple[int, int]:
    """The 0-indexed ends of the edge line raw, whose id tokens a and b
    are not both in ids yet: a new token is converted and range-checked,
    and remembered in ids once the line's two ids pass."""
    try:
        u, v = (ids[t] if t in ids else int(t) - 1 for t in (a, b))
    except ValueError:
        raise ParseError(f"malformed edge line {raw.strip()!r}", lineno) from None
    if not (0 <= u < n and 0 <= v < n):
        raise ParseError(f"vertex id out of range in {raw.strip()!r}", lineno)
    ids[a], ids[b] = u, v
    return u, v


def _empty_rows(n: int, lineno: int) -> list[int]:
    """n empty adjacency rows, or a ParseError naming the line that set
    n when the list cannot be allocated."""
    try:
        return [0] * n
    except MemoryError:
        raise ParseError(f"vertex count {n} cannot be allocated", lineno) from None


def int_pairs(text: str, kind: str) -> Iterator[tuple[int, str, int, int]]:
    """(line number, stripped line, a, b) for each line "a b" of two
    integers; blank lines and "#" comments are skipped, and any other
    line raises a ParseError naming it a malformed {kind} line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            a, b = map(int, line.split())
        except ValueError:
            raise ParseError(f"malformed {kind} line {line!r}", lineno) from None
        yield lineno, line, a, b


def parse_edge_list(text: str) -> Graph:
    edges = []
    max_id = max_line = -1
    for lineno, line, u, v in int_pairs(text, "edge"):
        if not (0 <= u < sys.maxsize and 0 <= v < sys.maxsize):
            raise ParseError(f"vertex id out of range in {line!r}", lineno)
        if u == v:
            raise ParseError(f"self-loop in {line!r}", lineno)
        edges.append((u, v))
        if u > max_id or v > max_id:
            max_id, max_line = max(u, v), lineno
    adj = _empty_rows(max_id + 1, max_line)
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph._from_masks(adj)


def to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def to_edge_list(g: Graph) -> str:
    lines = [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + ("\n" if lines else "")
