"""Maximum cardinality matching in general graphs (blossom algorithm)
and the coloring reduction for graphs with no independent triple.

The matching search is the classic iterative augmenting-path scheme with
blossom contraction tracked through a base[] array, O(n^3) overall.
Exposed vertices are scanned in ascending id order so results are
reproducible.
"""

from __future__ import annotations

from collections import deque

from .coloring import MultiColoring
from .detect import Witness
from .errors import NotO3Free
from .graph import Graph, first_clique, iter_bits

Matching = frozenset  # of (u, v) pairs with u < v


def validate_matching(g: Graph, matching: Matching) -> None:
    used: set[int] = set()
    for u, v in matching:
        if not g.adjacent(u, v):
            raise ValueError(f"matched pair ({u},{v}) is not an edge")
        if u in used or v in used:
            raise ValueError(f"vertex reused by matched pair ({u},{v})")
        used |= {u, v}


def max_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching of g."""
    n = g.n
    nbrs = [iter_bits(row) for row in g.adj_masks]  # every augmenting search walks them
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        x = a
        while True:
            x = base[x]
            seen[x] = True
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if seen[y]:
                return y
            y = parent[match[y]]

    def mark_path(v: int, stem: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stem:
            in_blossom[base[v]] = True
            in_blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def augment_from(root: int) -> bool:
        nonlocal parent, base
        visited = [False] * n
        parent = [-1] * n
        base = list(range(n))
        visited[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in nbrs[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # odd cycle: shrink the blossom onto its stem
                    stem = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, stem, to, in_blossom)
                    mark_path(to, stem, v, in_blossom)
                    for u in range(n):
                        if in_blossom[base[u]]:
                            base[u] = stem
                            if not visited[u]:
                                visited[u] = True
                                queue.append(u)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        # augment: alternate along the tree path to the root
                        u = to
                        while u != -1:
                            pv = parent[u]
                            nxt = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = nxt
                        return True
                    visited[match[to]] = True
                    queue.append(match[to])
        return False

    # greedy warm start cuts down augmentation rounds
    for v in range(n):
        if match[v] == -1:
            for u in nbrs[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break
    for v in range(n):
        if match[v] == -1:
            augment_from(v)

    return frozenset((v, match[v]) for v in range(n) if v < match[v])


def chi_o3_free(g: Graph) -> tuple[int, MultiColoring]:
    """Chromatic number of an O3-free graph: n minus the matching number
    of the complement.

    Each matched complement edge becomes one color class of two vertices
    (non-adjacent in g); every unmatched vertex gets a fresh color. The
    complement is built once: its first triangle is the independent
    triple that NotO3Free carries, as detect.find_independent_triple
    finds it, and the matching runs on it.
    """
    co = g.complement()
    triple = first_clique(co.adj_masks, (1 << g.n) - 1, 3)
    if triple is not None:
        raise NotO3Free(Witness("O3", triple))
    partner = list(range(g.n))
    for u, v in max_matching(co):
        partner[u], partner[v] = v, u
    # classes numbered by their smallest vertex, as they first show up
    color = [0] * g.n
    k = 0
    for v in range(g.n):
        if not color[v]:
            k += 1
            color[v] = color[partner[v]] = k
    return k, MultiColoring.from_singletons(color)
