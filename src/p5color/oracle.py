"""Exact desk-scale solvers: ground truth for every property test and
leaf solver inside the pipelines.

Cutoffs are configuration and the errors are loud; an oracle must never
silently approximate. The chromatic branch and bound has a work budget
and no size cutoff.
"""

from __future__ import annotations

import itertools

from .coloring import MultiColoring, Weights, normalize_weights
from .errors import CutoffExceeded
from .graph import Graph, first_clique, iter_bits, substitute

DEFAULT_CLIQUE_MAX_N = 24
DEFAULT_MAX_TOTAL_WEIGHT = 64
DEFAULT_MATCHING_MAX_N = 14
# Reads _chi_branch_and_bound may make before it raises CutoffExceeded: a
# saturation scan reads n + 2m, the greedy DSATUR pass makes n scans and
# each search node one. The largest calls measured, 117,439 nodes at
# n + 2m = 172 in the test suite and 85,751 at 240 in the benchmark's exact
# cross-checks, read about 2 * 10**7; the benchmark's exact-fallback blocks
# never branch, as their bounds meet. A refusal on G(80, 0.5) or G(200, 0.3)
# takes 2-3 s on one core of Python 3.11.
CHI_WORK_BUDGET = 10**8


# -- exact chromatic number ----------------------------------------------------


def chi_exact(g: Graph) -> tuple[int, MultiColoring]:
    """Exact chromatic number with a certificate coloring.

    Branch and bound: greedy clique lower bound, DSATUR-ordered
    branching, initial upper bound from a greedy DSATUR coloring.
    """
    k, assignment = _chi_branch_and_bound(g)
    return k, MultiColoring.from_singletons(assignment, g.n)


def _chi_branch_and_bound(
    g: Graph, node_budget: int | None = None
) -> tuple[int, dict[int, int]]:
    n = g.n
    if n == 0:
        return 0, {}
    if g.m == 0:
        return 1, {v: 1 for v in range(n)}

    clique = greedy_clique(g)
    lower = len(clique)
    if node_budget is None:
        node_budget = CHI_WORK_BUDGET // (n + 2 * g.m) - n  # what the greedy pass leaves
        if node_budget < 0:
            raise CutoffExceeded(
                f"chromatic branch and bound on {n} vertices and {g.m} edges: its greedy "
                f"pass alone passes its budget of {CHI_WORK_BUDGET} reads (bounds {lower}..{n})"
            )
    nbrs = [iter_bits(row) for row in g.adj_masks]  # walked at every search node
    upper, greedy = _dsatur_greedy(nbrs)
    if lower == upper:
        return upper, greedy

    best_k = upper
    best = dict(greedy)
    color = [0] * n
    # symmetry breaking: pin a maximal clique to colors 1..|clique|
    for i, v in enumerate(sorted(clique)):
        color[v] = i + 1

    order_pool = [v for v in range(n) if color[v] == 0]
    nodes = 0
    used = lower
    # an explicit stack, as the search may go deeper than the recursion
    # limit: per vertex coloured on the way down, the vertex, the colours
    # used above it and its untried colours, the next one last
    path: list[tuple[int, int, list[int]]] = []
    while True:
        nodes += 1
        if nodes > node_budget:
            raise CutoffExceeded(
                f"chromatic branch and bound on {n} vertices passed its budget of "
                f"{node_budget} search nodes (bounds {lower}..{best_k})"
            )
        if used < best_k:
            v = _most_saturated(nbrs, color, order_pool)
            if v is None:
                best_k = used
                best = {u: color[u] for u in range(n)}
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


def _dsatur_greedy(nbrs: list[list[int]]) -> tuple[int, dict[int, int]]:
    n = len(nbrs)
    color = [0] * n
    for _ in range(n):
        v = _most_saturated(nbrs, color, list(range(n)))
        assert v is not None
        seen = {color[u] for u in nbrs[v] if color[u]}
        c = 1
        while c in seen:
            c += 1
        color[v] = c
    k = max(color, default=0)
    return k, {v: color[v] for v in range(n)}


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


def chi_w_exact(
    g: Graph,
    w: Weights | None,
    max_total_weight: int = DEFAULT_MAX_TOTAL_WEIGHT,
) -> tuple[int, MultiColoring]:
    """Exact weighted chromatic number via the blow-up reduction.

    Each vertex v is substituted by a clique of w(v) copies, so copies
    of adjacent vertices are fully joined; the blow-up's chromatic
    number equals chi_w, and the copy colors are gathered back into
    color sets.
    """
    weights = normalize_weights(g, w)
    total = sum(weights)
    if total > max_total_weight:
        raise CutoffExceeded(
            f"chi_w_exact: total weight {total} exceeds cutoff {max_total_weight}"
        )
    k, assignment = _chi_branch_and_bound(substitute(g, [Graph.complete(wt) for wt in weights]))
    copies = (assignment[c] for c in range(total))  # v's copies follow those of 0..v-1
    colors = tuple(frozenset(itertools.islice(copies, wt)) for wt in weights)
    return k, MultiColoring(colors, k)


# -- exact clique and independence ---------------------------------------------


def max_clique_exact(g: Graph, max_n: int = DEFAULT_CLIQUE_MAX_N) -> frozenset[int]:
    """The lexicographically first maximum clique: the first clique one
    larger than the best so far, searched for until there is none."""
    if g.n > max_n:
        raise CutoffExceeded(f"max_clique_exact: n={g.n} exceeds cutoff {max_n}")
    full = (1 << g.n) - 1
    best: tuple[int, ...] = ()
    while (larger := first_clique(g.adj_masks, full, len(best) + 1)) is not None:
        best = larger
    return frozenset(best)


def clique_number_exact(g: Graph, max_n: int = DEFAULT_CLIQUE_MAX_N) -> int:
    return len(max_clique_exact(g, max_n))


def max_independent_set_exact(g: Graph, max_n: int = DEFAULT_CLIQUE_MAX_N) -> frozenset[int]:
    return max_clique_exact(g.complement(), max_n)


# -- exhaustive matching oracle --------------------------------------------------


def max_matching_bruteforce(g: Graph, max_n: int = DEFAULT_MATCHING_MAX_N) -> int:
    """Maximum matching size by exhaustive branching on the lowest free
    vertex: leave it exposed or match it to each free neighbor."""
    if g.n > max_n:
        raise CutoffExceeded(f"max_matching_bruteforce: n={g.n} exceeds cutoff {max_n}")
    adj = g.adj_masks

    def best_from(free: int) -> int:
        if not free:
            return 0
        low = free & -free
        v = low.bit_length() - 1
        rest = free ^ low
        best = best_from(rest)  # v stays exposed
        cand = adj[v] & rest
        while cand:
            lowu = cand & -cand
            u = lowu.bit_length() - 1
            cand ^= lowu
            best = max(best, 1 + best_from(rest ^ lowu))
        return best

    return best_from((1 << g.n) - 1)
