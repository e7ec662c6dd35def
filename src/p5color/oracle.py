"""Exact desk-scale solvers: ground truth for every property test and
leaf solver inside the pipelines.

Every oracle is bounded by its work alone, never by the size or weight
of its input, and raises CutoffExceeded past WORK_BUDGET reads: an
oracle must never silently approximate. The chromatic number is the
unit-weight case of the weighted one: chi_exact is chi_w_exact(g, None).
Both run one DSATUR branch and bound, whose first dive is the greedy
DSATUR colouring and whose lower bound is a clique grown from the
greedy one; it returns as soon as a colouring meets that bound.
"""

from __future__ import annotations

import contextlib
import itertools

from .coloring import MultiColoring, Weights, normalize_weights
from .errors import CutoffExceeded
from .graph import Graph, first_clique, iter_bits, substitute

# Reads an oracle may make before it raises CutoffExceeded. In the
# chromatic branch and bound a saturation scan reads n + 2m; n scans are
# set aside for its first dive, the greedy DSATUR colouring, and each
# later search node makes one. The largest calls measured, 2,655 nodes at
# n + 2m = 135 in the test suite and 85,739 at 240 in the benchmark's
# exact cross-checks, read about 2 * 10**7. A refusal on G(80, 0.5),
# G(200, 0.3) or G(80, 0.9) takes 1.3-2 s on one core of Python 3.11. A
# clique or matching search node reads one n-bit row, and the clique
# bound of the branch and bound may take WORK_BUDGET // n such nodes
# besides: G(80, 0.9) is refused after 1.25 million clique nodes, in
# under 1 s.
WORK_BUDGET = 10**8


# -- exact chromatic number ----------------------------------------------------


def chi_exact(g: Graph) -> tuple[int, MultiColoring]:
    """Exact chromatic number with a certificate coloring: chi_w_exact
    at unit weights, whose clique blow-up has the same rows as g."""
    return chi_w_exact(g, None)


def _chi_branch_and_bound(g: Graph) -> tuple[int, list[int]]:
    """chi(g) and a colouring with that many colours: the colour of
    each vertex, numbered from 1. Branch and bound with DSATUR-ordered
    branching and no initial upper bound, so its first dive is the
    greedy DSATUR colouring. The lower bound is a clique pinned to the
    first colours: the greedy one, grown one vertex at a time by
    first_clique within WORK_BUDGET // n nodes; a clique search that
    runs out keeps the clique reached. The search returns once a
    colouring meets the bound."""
    n = g.n
    if n == 0:
        return 0, []
    if g.m == 0:
        return 1, [1] * n

    budget = _search_nodes(n, g.m)
    clique = tuple(sorted(greedy_clique(g)))
    full, clique_nodes = (1 << n) - 1, [WORK_BUDGET // n]
    with contextlib.suppress(CutoffExceeded):  # a clique only bounds chi from below
        while larger := first_clique(g.adj_masks, full, len(clique) + 1, clique_nodes):
            clique = larger
    lower = len(clique)
    nbrs = [iter_bits(row) for row in g.adj_masks]  # walked at every search node
    color = [0] * n
    # symmetry breaking: pin the clique to colors 1..|clique|
    for i, v in enumerate(clique):
        color[v] = i + 1

    order_pool = [v for v in range(n) if color[v] == 0]
    best_k, best = n + 1, None
    nodes = 0
    used = lower
    # an explicit stack, as the search may go deeper than the recursion
    # limit: per vertex coloured on the way down, the vertex, the colours
    # used above it and its untried colours, the next one last
    path: list[tuple[int, int, list[int]]] = []
    while True:
        if best is not None:  # the first dive runs on the scans set aside for it
            nodes += 1
            if nodes > budget:
                raise CutoffExceeded(
                    f"chromatic branch and bound on {n} vertices passed its budget of "
                    f"{budget} search nodes (bounds {lower}..{best_k})"
                )
        if used < best_k:
            v = _most_saturated(nbrs, color, order_pool)
            if v is None:
                best_k = used
                best = color.copy()
                if best_k == lower:
                    return best_k, best
            else:
                seen = {color[u] for u in nbrs[v]}
                limit = min(used + 1, best_k - 1)
                path.append((v, used, [c for c in range(limit, 0, -1) if c not in seen]))
        while path:
            v, above, untried = path[-1]
            if untried:
                color[v] = untried.pop()
                used = max(above, color[v])
                break
            color[v] = 0
            path.pop()
        else:
            return best_k, best


def _search_nodes(n: int, m: int) -> int:
    """Search nodes the chromatic branch and bound may visit on n vertices
    and m >= 1 edges; CutoffExceeded if its greedy pass alone passes it."""
    nodes = WORK_BUDGET // (n + 2 * m) - n
    if nodes < 0:
        raise CutoffExceeded(
            f"chromatic branch and bound on {n} vertices and {m} edges: its greedy "
            f"pass alone passes its budget of {WORK_BUDGET} reads"
        )
    return nodes


def _most_saturated(nbrs: list[list[int]], color: list[int], pool: list[int]) -> int | None:
    """Uncolored vertex with the most distinctly-colored neighbors; ties
    broken by degree, then by id. nbrs[v] lists the neighbors of v."""
    best_v = None
    best_key = None
    for v in pool:
        if color[v]:
            continue
        sat = len({color[u] for u in nbrs[v] if color[u]})
        key = (-sat, -len(nbrs[v]), v)
        if best_key is None or key < best_key:
            best_key = key
            best_v = v
    return best_v


def greedy_clique(g: Graph) -> frozenset[int]:
    """Maximal clique grown greedily by degree; a chromatic lower bound."""
    if g.n == 0:
        return frozenset()
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    start = order[0]
    clique = [start]
    cand = g.adj_masks[start]
    while cand:
        pick = None
        for v in order:
            if cand >> v & 1:
                pick = v
                break
        assert pick is not None
        clique.append(pick)
        cand &= g.adj_masks[pick]
    return frozenset(clique)


# -- exact weighted chromatic number -------------------------------------------


def chi_w_exact(g: Graph, w: Weights | None) -> tuple[int, MultiColoring]:
    """Exact weighted chromatic number via the blow-up reduction.

    Each vertex v is substituted by a clique of w(v) copies, so copies
    of adjacent vertices are fully joined; the blow-up's chromatic
    number equals chi_w, and the copy colors are gathered back into
    color sets. The blow-up's size follows from the weights, and one
    the branch and bound would refuse is refused before it is built.
    """
    weights = normalize_weights(g, w)
    total = sum(weights)
    edges = sum(wt * (wt - 1) // 2 for wt in weights)
    edges += sum(weights[u] * weights[v] for u, v in g.edges)
    if edges:
        _search_nodes(total, edges)
    k, color = _chi_branch_and_bound(substitute(g, [Graph.complete(wt) for wt in weights]))
    copies = iter(color)  # v's copies follow those of 0..v-1
    colors = tuple(frozenset(itertools.islice(copies, wt)) for wt in weights)
    return k, MultiColoring(colors, k)


# -- exact clique and independence ---------------------------------------------


def max_clique_exact(g: Graph) -> frozenset[int]:
    """The lexicographically first maximum clique: the first clique as
    large as the greedy one, then the first clique one larger than the
    best so far, searched for until there is none. The searches share
    WORK_BUDGET // n search nodes."""
    full, budget = (1 << g.n) - 1, [WORK_BUDGET // max(g.n, 1)]
    best = first_clique(g.adj_masks, full, len(greedy_clique(g)), budget)
    while (larger := first_clique(g.adj_masks, full, len(best) + 1, budget)) is not None:
        best = larger
    return frozenset(best)


def clique_number_exact(g: Graph) -> int:
    return len(max_clique_exact(g))


def max_independent_set_exact(g: Graph) -> frozenset[int]:
    return max_clique_exact(g.complement())


# -- exhaustive matching oracle --------------------------------------------------


def max_matching_bruteforce(g: Graph) -> int:
    """Maximum matching size by exhaustive branching on the lowest free
    vertex: leave it exposed or match it to each free neighbor, on an
    explicit stack of WORK_BUDGET // n branches at most, each reading at
    most n rows. A branch is skipped when its free vertices could not
    lift it past the best matching found: they hold at most half their
    number of matching edges, and at most as many as any vertex cover of
    the edges among them, here a greedy one taking the highest degrees
    first. Both bounds keep the search exact: K8 takes 21 branches and
    K15 65, and K5,15, whose matchings fall far short of n / 2, 81."""
    adj = g.adj_masks
    nodes, best = WORK_BUDGET // max(g.n, 1), 0
    stack = [((1 << g.n) - 1, 0)]  # (free vertices, edges matched)
    while stack:
        nodes -= 1
        if nodes < 0:
            raise CutoffExceeded(f"exhaustive matching on {g.n} vertices ran out of nodes")
        free, size = stack.pop()
        if size + free.bit_count() // 2 <= best or size + _greedy_cover(adj, free) <= best:
            continue
        if not free:
            best = size
            continue
        low = free & -free
        rest = free ^ low
        stack.append((rest, size))
        cand = adj[low.bit_length() - 1] & rest
        while cand:
            u = cand & -cand
            cand ^= u
            stack.append((rest ^ u, size + 1))
    return best


def _greedy_cover(adj: tuple[int, ...], free: int) -> int:
    """The size of a vertex cover of the edges inside free: its vertices
    by degree there, highest first, each taken while it still has an
    edge to a vertex not yet taken."""
    order = sorted(((adj[v] & free).bit_count(), v) for v in iter_bits(free))
    left, taken = free, 0
    for _, v in reversed(order):
        if adj[v] & left:
            left ^= 1 << v
            taken += 1
    return taken
