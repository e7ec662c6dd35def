"""Weighted coloring of the prime quotients of a {P5, co-P5}-free graph.

Every such quotient is the 5-cycle or perfect (Fouquet 1993). Both
solvers here work over the quotient's vertices, maximal cliques and
maximal stable sets, so their cost depends on the quotient's structure
and not on its weights:

  chi_w_c5       chi_w = max(heaviest edge, ceil(W / 2)), W the total
                 weight; the multicoloring gives each of the five
                 maximal stable sets a block of consecutive colors
  chi_w_perfect  chi_w = omega_w, the heaviest clique (Lovasz 1972, by
                 the replication lemma); the multicoloring peels off
                 stable sets that meet every heaviest clique, and a
                 clique of weight omega_w proves it optimal
"""

from __future__ import annotations

from .coloring import MultiColoring, Weights, normalize_weights
from .errors import PreconditionError
from .graph import Graph, bits_of, is_connected, iter_bits


def is_c5(g: Graph) -> bool:
    return g.n == 5 and all(g.degree(v) == 2 for v in range(5)) and is_connected(g)


def chi_w_c5(g: Graph, w: Weights | None) -> tuple[int, MultiColoring]:
    """Weighted chromatic number of a 5-cycle, in closed form, with a
    multicoloring that meets it."""
    if not is_c5(g):
        raise PreconditionError("chi_w_c5 needs a 5-cycle")
    weights = normalize_weights(g, w)
    # The complement is a 5-cycle u[0..4] too. Its edges are the maximal
    # stable sets: set j = {u[j-1], u[j]} with multiplicity x[j], so u[j]
    # lies in sets j and j+1 and needs x[j] + x[j+1] >= d[j]. Edges of g
    # join u[j] and u[j+2].
    u = [0]
    while len(u) < 5:
        u.append(min(v for v in range(5) if v not in u and not g.adjacent(u[-1], v)))
    d = [weights[v] for v in u]
    k = max(max(d[j] + d[(j + 2) % 5] for j in range(5)), -(-sum(d) // 2))
    # Rotate by the first r with e[1] + e[3] >= e[2] (one exists: over all
    # r these differences sum to W). Then x = (k - e[1] - e[3], a,
    # e[1] - a, b, e[3] - b), with a and b at the ends of their ranges,
    # is non-negative, sums to k and meets all five demands: each check
    # reduces to an edge bound, to 2k >= W or to the choice of r.
    r = next(r for r in range(5) if d[(r + 1) % 5] + d[(r + 3) % 5] >= d[(r + 2) % 5])
    e = d[r:] + d[:r]
    x0 = k - e[1] - e[3]
    a = max(0, e[0] - x0)
    b = min(e[3], x0 + e[3] - e[4])
    y = (x0, a, e[1] - a, b, e[3] - b)
    x = [y[(j - r) % 5] for j in range(5)]
    blocks = []
    start = 1
    for size in x:
        blocks.append(range(start, start + size))
        start += size
    colors = [frozenset()] * 5
    for j, v in enumerate(u):
        colors[v] = frozenset([*blocks[j], *blocks[(j + 1) % 5]][: d[j]])
    return k, MultiColoring(tuple(colors), k)


def chi_w_perfect(g: Graph, w: Weights | None) -> tuple[int, MultiColoring]:
    """Weighted chromatic number of a perfect graph: the heaviest clique
    omega_w, with a multicoloring on omega_w colors.

    Each round takes the lexicographically first maximal stable set
    that, cut down to the vertices with weight left, meets every
    heaviest clique. That S gets t new colors, t the smallest weight
    left on S or the gap between the heaviest clique and the heaviest
    one S misses, whichever is less. Every heaviest clique then loses exactly t, so omega_w
    falls by t. In a perfect graph such an S always exists; if none
    does, g is not perfect and PreconditionError says so.
    """
    weights = normalize_weights(g, w)
    cliques = maximal_cliques(g)
    stables = sorted(maximal_cliques(g.complement()), key=lambda m: list(iter_bits(m)))
    colors: list[list[int]] = [[] for _ in range(g.n)]
    omega = left = max(_weight(c, weights) for c in cliques)
    while left:
        alive = bits_of(v for v in range(g.n) if weights[v])
        clique_weights = [_weight(c, weights) for c in cliques]
        heaviest = [c for c, cw in zip(cliques, clique_weights) if cw == left]
        s = next(
            (st & alive for st in stables if all(st & alive & c for c in heaviest)),
            None,
        )
        if s is None:
            raise PreconditionError(
                "no stable set meets every heaviest clique, so the graph is not perfect"
            )
        missed = max((cw for c, cw in zip(cliques, clique_weights) if not c & s), default=0)
        t = min(left - missed, min(weights[v] for v in iter_bits(s)))
        new = range(omega - left + 1, omega - left + t + 1)
        for v in iter_bits(s):
            colors[v].extend(new)
            weights[v] -= t
        left -= t
    return omega, MultiColoring(tuple(frozenset(cs) for cs in colors), omega)


def _weight(mask: int, weights: list[int]) -> int:
    return sum(weights[v] for v in iter_bits(mask))


def maximal_cliques(g: Graph) -> list[int]:
    """Every maximal clique of g as a vertex bitmask: Bron-Kerbosch with
    pivoting, on an explicit stack."""
    out = []
    stack = [(0, (1 << g.n) - 1, 0)]  # clique so far, candidates, excluded
    while stack:
        r, p, x = stack.pop()
        if not p | x:
            out.append(r)
            continue
        pivot = max(iter_bits(p | x), key=lambda v: (g.adj_bits(v) & p).bit_count())
        for v in iter_bits(p & ~g.adj_bits(pivot)):
            nbrs = g.adj_bits(v)
            stack.append((r | 1 << v, p & nbrs, x & nbrs))
            p &= ~(1 << v)
            x |= 1 << v
    return out
