"""Clique-separator decomposition: separator search, the binary
decomposition tree, and bottom-up composition of chromatic numbers.

Separator search runs MCS-M to obtain a minimal triangulation H of the
input; every clique separator of a graph contains a clique minimal
separator, clique minimal separators survive minimal triangulation, and
in a chordal graph every minimal separator shows up as the set of
later-ordered H-neighbors of some vertex. Testing those n candidate
sets for cliqueness in the original graph and for disconnection is
therefore a complete (and polynomial) search.

The search and the tree work on vertex bitmasks of the input graph:
each tree node runs MCS-M once on its span and tests each candidate Q
by the components of span - Q, without relabelled copies. The validator
re-checks each leaf on an induced copy.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass

from .coloring import MultiColoring, validate_coloring
from .graph import Graph, bits_of, components, is_clique, iter_bits, set_of


@dataclass(frozen=True)
class CLeaf:
    """A C-block: an induced subgraph with no clique separator."""

    block: frozenset[int]


@dataclass(frozen=True)
class CNode:
    separator: frozenset[int]
    left: CDecompTree
    right: CDecompTree

    @property
    def span(self) -> frozenset[int]:
        return tree_span(self.left) | tree_span(self.right)


CDecompTree = CLeaf | CNode


def tree_span(t: CDecompTree) -> frozenset[int]:
    if isinstance(t, CLeaf):
        return t.block
    return t.span


def tree_leaves(t: CDecompTree) -> list[CLeaf]:
    if isinstance(t, CLeaf):
        return [t]
    return tree_leaves(t.left) + tree_leaves(t.right)


def tree_to_json(t: CDecompTree) -> dict:
    if isinstance(t, CLeaf):
        return {"leaf": sorted(t.block)}
    return {
        "separator": sorted(t.separator),
        "left": tree_to_json(t.left),
        "right": tree_to_json(t.right),
    }


# -- separator search ----------------------------------------------------------


def _mcs_m(g: Graph, span: int) -> tuple[dict[int, int], dict[int, int]]:
    """Maximum cardinality search for minimal triangulation of g[span].

    Returns (number, h_adj), keyed by the vertices of the bitmask span:
    number[v] is v's position (|span| down to 1) and h_adj[v] the
    adjacency bitmask of v in the triangulated graph H.
    """
    weight = dict.fromkeys(iter_bits(span), 0)
    number = {}
    h_adj = {v: g.adj_bits(v) & span for v in weight}
    unnumbered = span
    for i in range(len(weight), 0, -1):
        # heaviest unnumbered vertex; max keeps the first, so ties go to the smallest id
        v = max(iter_bits(unnumbered), key=weight.__getitem__)
        number[v] = i
        unnumbered ^= 1 << v
        # minimax reachability: best[u] = min over u..v paths through
        # unnumbered vertices of the largest interior weight (-1 = direct edge)
        best = {}
        heap: list[tuple[int, int]] = []
        for u in iter_bits(g.adj_bits(v) & unnumbered):
            best[u] = -1
            heapq.heappush(heap, (-1, u))
        while heap:
            cost, x = heapq.heappop(heap)
            if cost > best[x]:
                continue
            through = max(cost, weight[x])
            for y in iter_bits(g.adj_bits(x) & unnumbered):
                if y not in best or through < best[y]:
                    best[y] = through
                    heapq.heappush(heap, (through, y))
        for u in best:
            if best[u] < weight[u]:
                weight[u] += 1
                h_adj[u] |= 1 << v
                h_adj[v] |= 1 << u
    return number, h_adj


def find_clique_separator(
    g: Graph, span: int | None = None
) -> tuple[frozenset[int], frozenset[int], frozenset[int]] | None:
    """A clique separator split (Q, A, B) of g[span], or None when it
    has none; span is a vertex bitmask, all of g by default.

    Q is a clique whose removal disconnects; A is the component of the
    rest containing the smallest remaining vertex id and B is everything
    else (kept whole; recursion re-splits it). A disconnected input
    returns the empty separator with its component groups. Among clique
    separators found, the lexicographically smallest vertex set wins.
    """
    if span is None:
        span = (1 << g.n) - 1
    comps = components(g, span)
    if len(comps) >= 2:
        a = comps[0]
        b = frozenset().union(*comps[1:])
        return frozenset(), a, b
    if span.bit_count() <= 2:
        return None
    # candidates: the later-ordered H-neighbourhood of each vertex
    number, h_adj = _mcs_m(g, span)
    tried = set()
    found = []
    for v in iter_bits(span):
        later = 0
        for u in iter_bits(h_adj[v]):
            if number[u] > number[v]:
                later |= 1 << u
        if not later or later in tried:
            continue
        tried.add(later)
        q = set_of(later)
        if not is_clique(g, q):
            continue
        parts = components(g, span & ~later)
        if len(parts) >= 2:
            found.append((q, parts))
    if not found:
        return None
    q, parts = min(found, key=lambda item: sorted(item[0]))
    a = parts[0]
    b = frozenset().union(*parts[1:])
    return q, a, b


# -- decomposition tree ----------------------------------------------------------


def build_tree(g: Graph) -> CDecompTree:
    """Binary decomposition tree whose leaves are the C-blocks of g.

    Deterministic: separators are tie-broken lexicographically and the
    left side is the component holding the smallest vertex.
    """

    def build(span: frozenset[int]) -> CDecompTree:
        split = find_clique_separator(g, bits_of(span))
        if split is None:
            return CLeaf(span)
        q, a, b = split
        return CNode(q, build(a | q), build(b | q))

    return build(frozenset(range(g.n)))


def validate_tree(g: Graph, t: CDecompTree) -> None:
    """Raise ValueError unless t satisfies every structural invariant."""
    if tree_span(t) != frozenset(range(g.n)):
        raise ValueError("tree span does not cover the vertex set")

    def walk(node: CDecompTree) -> None:
        if isinstance(node, CLeaf):
            sub, _ = g.induced(node.block)
            if find_clique_separator(sub) is not None:
                raise ValueError(f"leaf block {sorted(node.block)} has a clique separator")
            return
        left = tree_span(node.left)
        right = tree_span(node.right)
        if left & right != node.separator:
            raise ValueError("left and right spans must intersect exactly in the separator")
        if not is_clique(g, node.separator):
            raise ValueError(f"separator {sorted(node.separator)} is not a clique")
        for u, v in g.edges:
            if (u in left - node.separator and v in right - node.separator) or (
                v in left - node.separator and u in right - node.separator
            ):
                raise ValueError(f"edge ({u},{v}) crosses the separator {sorted(node.separator)}")
        walk(node.left)
        walk(node.right)

    walk(t)


# -- chromatic composition ----------------------------------------------------------

LeafSolver = Callable[[Graph], tuple[int, MultiColoring]]


def chi_compose(
    g: Graph, t: CDecompTree, leaf_chi: LeafSolver
) -> tuple[int, MultiColoring]:
    """Compose leaf chromatic numbers/colorings into one for g.

    chi(g) is the max over the two sides at every node; the merge
    permutes the smaller side's colors so its classes agree with the
    larger side on the separator clique, then maps its surplus colors
    into the larger side's unused ones.
    """

    def solve(node: CDecompTree) -> tuple[int, dict[int, int]]:
        if isinstance(node, CLeaf):
            sub, ids = g.induced(node.block)
            k, mc = leaf_chi(sub)
            try:
                validate_coloring(sub, mc)
            except ValueError as exc:
                raise RuntimeError(f"leaf solver returned an invalid coloring: {exc}") from exc
            if mc.k > k:
                raise RuntimeError("leaf solver used more colors than it reported")
            return k, {ids[v]: next(iter(mc.of(v))) for v in range(sub.n)}
        k1, c1 = solve(node.left)
        k2, c2 = solve(node.right)
        if k1 > k2:
            k1, c1, k2, c2 = k2, c2, k1, c1
        # align the smaller side's colors with the larger side's on Q
        perm = {c1[q]: c2[q] for q in sorted(node.separator)}
        free_targets = [c for c in range(1, k2 + 1) if c not in perm.values()]
        for c in range(1, k1 + 1):
            if c not in perm:
                perm[c] = free_targets.pop(0)
        merged = {v: perm[c] for v, c in c1.items()}
        merged.update(c2)
        return k2, merged

    k, cmap = solve(t)
    mc = MultiColoring.from_singletons(cmap, g.n)
    validate_coloring(g, mc)
    return k, mc
