"""Exact desk-scale solvers: ground truth for every property test and
leaf solver inside the pipelines.

Cutoffs are configuration and the errors are loud; an oracle must never
silently approximate.
"""

from __future__ import annotations

from .coloring import MultiColoring, Weights, normalize_weights
from .errors import CutoffExceeded
from .graph import Graph

DEFAULT_CHI_MAX_N = 24
DEFAULT_MAX_TOTAL_WEIGHT = 64
DEFAULT_MATCHING_MAX_N = 14
# Search nodes _chi_branch_and_bound may visit before it raises
# CutoffExceeded. The test suite needs at most 117,439 (on 18 vertices)
# and the benchmark's exact cross-checks 85,751; a million nodes take
# about 7 s on a 25-vertex blow-up, where a hard instance could run for
# hours.
CHI_NODE_BUDGET = 1_000_000


# -- exact chromatic number ----------------------------------------------------


def chi_exact(g: Graph, max_n: int = DEFAULT_CHI_MAX_N) -> tuple[int, MultiColoring]:
    """Exact chromatic number with a certificate coloring.

    Branch and bound: greedy clique lower bound, DSATUR-ordered
    branching, initial upper bound from a greedy DSATUR coloring.
    """
    if g.n > max_n:
        raise CutoffExceeded(f"chi_exact: n={g.n} exceeds cutoff {max_n}")
    k, assignment = _chi_branch_and_bound(g)
    return k, MultiColoring.from_singletons(assignment, g.n)


def _chi_branch_and_bound(
    g: Graph, node_budget: int = CHI_NODE_BUDGET
) -> tuple[int, dict[int, int]]:
    n = g.n
    if n == 0:
        return 0, {}
    if g.m == 0:
        return 1, {v: 1 for v in range(n)}

    clique = greedy_clique(g)
    lower = len(clique)
    upper, greedy = _dsatur_greedy(g)
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

    def branch(used: int) -> None:
        nonlocal best_k, best, nodes
        nodes += 1
        if nodes > node_budget:
            raise CutoffExceeded(
                f"chromatic branch and bound on {n} vertices passed its budget of "
                f"{node_budget} search nodes (bounds {lower}..{best_k})"
            )
        if used >= best_k:
            return
        v = _most_saturated(g, color, order_pool)
        if v is None:
            best_k = used
            best = {u: color[u] for u in range(n)}
            return
        seen = 0
        for u in g.neighbors(v):
            if color[u]:
                seen |= 1 << color[u]
        limit = min(used + 1, best_k - 1)
        for c in range(1, limit + 1):
            if seen >> c & 1:
                continue
            color[v] = c
            branch(max(used, c))
            color[v] = 0

    branch(lower)
    return best_k, best


def _most_saturated(g: Graph, color: list[int], pool: list[int]) -> int | None:
    """Uncolored vertex with the most distinctly-colored neighbors; ties
    broken by degree, then by id."""
    best_v = None
    best_key = None
    for v in pool:
        if color[v]:
            continue
        sat = len({color[u] for u in g.neighbors(v) if color[u]})
        key = (-sat, -g.degree(v), v)
        if best_key is None or key < best_key:
            best_key = key
            best_v = v
    return best_v


def _dsatur_greedy(g: Graph) -> tuple[int, dict[int, int]]:
    n = g.n
    color = [0] * n
    for _ in range(n):
        v = _most_saturated(g, color, list(range(n)))
        assert v is not None
        seen = {color[u] for u in g.neighbors(v) if color[u]}
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
    cand = g.adj_bits(start)
    while cand:
        pick = None
        for v in order:
            if cand >> v & 1:
                pick = v
                break
        assert pick is not None
        clique.append(pick)
        cand &= g.adj_bits(pick)
    return frozenset(clique)


# -- exact weighted chromatic number -------------------------------------------


def chi_w_exact(
    g: Graph,
    w: Weights | None,
    max_total_weight: int = DEFAULT_MAX_TOTAL_WEIGHT,
) -> tuple[int, MultiColoring]:
    """Exact weighted chromatic number via the blow-up reduction.

    Each vertex v becomes a clique of w(v) copies and copies of adjacent
    vertices are fully joined; the blow-up's chromatic number equals
    chi_w, and the copy colors are gathered back into color sets.
    """
    weights = normalize_weights(g, w)
    total = sum(weights)
    if total > max_total_weight:
        raise CutoffExceeded(
            f"chi_w_exact: total weight {total} exceeds cutoff {max_total_weight}"
        )
    offsets = [0] * g.n
    acc = 0
    for v in range(g.n):
        offsets[v] = acc
        acc += weights[v]
    copies_of = [
        range(offsets[v], offsets[v] + weights[v]) for v in range(g.n)
    ]
    blow_edges = []
    for v in range(g.n):
        blow_edges += [
            (a, b)
            for i, a in enumerate(copies_of[v])
            for b in list(copies_of[v])[i + 1 :]
        ]
    for u, v in g.edges:
        blow_edges += [(a, b) for a in copies_of[u] for b in copies_of[v]]
    blow = Graph(total, blow_edges)
    k, assignment = _chi_branch_and_bound(blow)
    colors = tuple(
        frozenset(assignment[c] for c in copies_of[v]) for v in range(g.n)
    )
    return k, MultiColoring(colors, k)


# -- exact clique and independence ---------------------------------------------


def max_clique_exact(g: Graph, max_n: int = DEFAULT_CHI_MAX_N) -> frozenset[int]:
    """A maximum clique, by branch and bound with a size-bound prune."""
    if g.n > max_n:
        raise CutoffExceeded(f"max_clique_exact: n={g.n} exceeds cutoff {max_n}")
    best = list(greedy_clique(g))
    current: list[int] = []

    def expand(cand: int) -> None:
        nonlocal best
        if len(current) + cand.bit_count() <= len(best):
            return
        if not cand:
            if len(current) > len(best):
                best = list(current)
            return
        while cand:
            if len(current) + cand.bit_count() <= len(best):
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            current.append(v)
            expand(cand & g.adj_bits(v))
            current.pop()

    expand((1 << g.n) - 1)
    return frozenset(best)


def clique_number_exact(g: Graph, max_n: int = DEFAULT_CHI_MAX_N) -> int:
    return len(max_clique_exact(g, max_n))


def max_independent_set_exact(g: Graph, max_n: int = DEFAULT_CHI_MAX_N) -> frozenset[int]:
    return max_clique_exact(g.complement(), max_n)


# -- exhaustive matching oracle --------------------------------------------------


def max_matching_bruteforce(g: Graph, max_n: int = DEFAULT_MATCHING_MAX_N) -> int:
    """Maximum matching size by exhaustive branching on the lowest free
    vertex: leave it exposed or match it to each free neighbor."""
    if g.n > max_n:
        raise CutoffExceeded(f"max_matching_bruteforce: n={g.n} exceeds cutoff {max_n}")

    def best_from(free: int) -> int:
        if not free:
            return 0
        low = free & -free
        v = low.bit_length() - 1
        rest = free ^ low
        best = best_from(rest)  # v stays exposed
        cand = g.adj_bits(v) & rest
        while cand:
            lowu = cand & -cand
            u = lowu.bit_length() - 1
            cand ^= lowu
            best = max(best, 1 + best_from(rest ^ lowu))
        return best

    return best_from((1 << g.n) - 1)
