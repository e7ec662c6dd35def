"""Weighted coloring of the prime quotients of a {P5, co-P5}-free graph.

Every such quotient is the 5-cycle or perfect (Fouquet 1993), and
chi_w_prime checks which once and names the route it takes: the first
link of the prime-quotient chain in pipeline. A perfect
one is C5-free, its holes of length 6 or more contain P5 and its
antiholes of length 6 or more contain co-P5, so it is weakly chordal.
The work of both solvers depends on the quotient's structure and not
on its weights:

  the 5-cycle    chi_w = max(heaviest edge, ceil(W / 2)), W the total
                 weight, in closed form; the multicoloring gives each of
                 the five maximal stable sets a block of consecutive colors
  chi_w_perfect  weighted two-pair contraction (Hayward, Hoang and
                 Maffray 1989): at most one step per non-edge, ending
                 in a clique whose weight is chi_w, with colors lifted
                 back through the contractions
"""

from __future__ import annotations

from .coloring import MultiColoring, Weights, normalize_weights
from .errors import PreconditionError
from .graph import Graph, bits_of, reach

ROUTE_PRIME_C5 = "prime-C5"
ROUTE_PERFECT_EXACT = "perfect-exact"


def is_c5(g: Graph) -> bool:
    """True iff g is the 5-cycle: on five vertices, a 2-regular graph is
    one cycle, as a triangle would leave two vertices for the rest."""
    return g.n == 5 and all(row.bit_count() == 2 for row in g.adj_masks)


def chi_w_prime(g: Graph, w: Weights | None) -> tuple[str, int, MultiColoring]:
    """The route of a prime quotient of a {P5, co-P5}-free graph, its
    chi_w and a multicoloring that meets it, with one 5-cycle check."""
    if is_c5(g):
        return ROUTE_PRIME_C5, *_c5_closed_form(g, normalize_weights(g, w))
    return ROUTE_PERFECT_EXACT, *chi_w_perfect(g, w)


def _c5_closed_form(g: Graph, weights: list[int]) -> tuple[int, MultiColoring]:
    # The complement is a 5-cycle u[0..4] too. Its edges are the maximal
    # stable sets: set j = {u[j-1], u[j]} with multiplicity x[j], so u[j]
    # lies in sets j and j+1 and needs x[j] + x[j+1] >= d[j]. Edges of g
    # join u[j] and u[j+2]; the walk goes to the lower free non-neighbour.
    u, left = [0], 30  # the walk, and the vertices not on it yet
    while left:
        u.append(((step := left & ~g.adj_masks[u[-1]]) & -step).bit_length() - 1)
        left ^= 1 << u[-1]
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
    """Weighted chromatic number of a weakly chordal graph by weighted
    two-pair contraction, with a multicoloring that meets it.

    A two-pair is a non-adjacent x, y that N(x) & N(y) separates. Each
    step takes one (see _two_pair) with t = min(w_x, w_y) and appends z
    of weight t, joined to N(x) | N(y) and to whichever of x and y
    keeps weight; the one that reaches 0 drops out. That is t
    contractions of copy pairs in the clique blow-up, and a two-pair is
    an even pair, so chi_w stays put. Each step removes a non-edge, so
    the loop ends when no two-pair is left, and the vertices left must
    form a clique whose weight is chi_w. Each of them takes a block of
    consecutive colors, and x and y take z's colors in reverse merge
    order. If the vertices left are no clique, g is not weakly chordal
    and PreconditionError says so.
    """
    weight = normalize_weights(g, w)
    nbrs = list(g.adj_masks)
    alive = (1 << g.n) - 1
    merged: list[tuple[int, int]] = []  # the pair contracted into vertex g.n + i
    while pair := _two_pair(nbrs, alive):
        x, y = pair
        t = min(weight[x], weight[y])
        weight[x] -= t
        weight[y] -= t
        kept = bits_of(v for v in pair if weight[v])
        alive &= ~(1 << x | 1 << y) | kept
        z = len(nbrs)
        near = todo = (nbrs[x] | nbrs[y] | kept) & alive
        while todo:
            low = todo & -todo
            nbrs[low.bit_length() - 1] |= 1 << z
            todo ^= low
        nbrs.append(near)
        weight.append(t)
        merged.append(pair)
        alive |= 1 << z
    colors: list[list[int]] = [[] for _ in nbrs]
    k = 0
    while alive:
        low = alive & -alive
        v = low.bit_length() - 1
        if alive & ~nbrs[v] != low:
            raise PreconditionError(
                "no two-pair is left but the rest is no clique, so the graph is not weakly chordal"
            )
        alive ^= low
        colors[v] = list(range(k + 1, k + weight[v] + 1))
        k += weight[v]
    for z in reversed(range(g.n, len(nbrs))):
        for v in merged[z - g.n]:
            colors[v] += colors[z]
    return k, MultiColoring(tuple(frozenset(colors[v]) for v in range(g.n)), k)


def _two_pair(nbrs: list[int], alive: int) -> tuple[int, int] | None:
    """A non-adjacent x < y of alive that lie in different components
    of alive - (N(x) & N(y)), if any: the first x for the highest such
    y, so a freshly contracted vertex is tried first."""
    rest = alive
    while rest:
        y = rest.bit_length() - 1
        rest ^= 1 << y
        far = rest & ~nbrs[y]
        while far:
            low = far & -far
            x = low.bit_length() - 1
            if not reach(nbrs, 1 << y, alive & ~(nbrs[x] & nbrs[y])) & low:
                return x, y
            far ^= low
    return None
