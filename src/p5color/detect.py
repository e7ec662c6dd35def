"""Induced-subgraph detectors and hereditary class membership checks.

Each detector is a specialized backtracking enumeration over vertex
tuples in lexicographic order, pruned with adjacency bitmasks, so the
returned witnesses are reproducible. Witness vertices are listed in a
canonical pattern order: path order for paths, cyclic order for holes,
the non-adjacent pair first for near-complete patterns.

The P5 and co-P5 searches run on the twin kernel: what is left after
repeatedly deleting every vertex that has a smaller twin (a vertex
with the same open or the same closed neighbourhood) or that is
isolated or universal among the vertices kept. They still return the
lexicographically first witness of the whole graph. P5 has no twins,
so a witness through a vertex with a smaller twin stays a witness when
the twin takes that vertex's place, and that witness is
lexicographically smaller; every vertex of P5 and of co-P5 has a
neighbour and a non-neighbour among the other four. The first witness
therefore avoids every deleted vertex. Twins of a graph are exactly
the twins of its complement, and isolated and universal vertices swap
roles, so one kernel serves both searches, and the co-P5 search reads
complement neighbourhoods off the adjacency masks without building the
complement. On members built by substitution most vertices have twins,
so the kernel is small. Kp-e has twins, so its detector searches the
whole graph, skipping only vertices of too low degree.

{P5, co-P5} membership decides in two stages. First the kernel P5
search, then the co-P5 search, each within a budget of 8 * n search
nodes (at least 128), where a node is one (a, b, c) prefix or one
(a, b, c, d) extension; near-members usually meet a witness within it.
A search that runs out hands over to the prime quotients of the
modular decomposition tree, which the {P5, co-P5} solver reuses. On a
member no search can succeed, and the tree is near-linear in n and
needed by the solve anyway, so the budget is kept linear too: a member
pays at most about what the fallback costs before reaching it. Take
the first witness W and the lowest tree node N whose span contains W.
A child M of N is a module, so W & M is a module of G[W], and not all
of W as N is lowest; P5 and co-P5 are prime, so W meets M in at most
one vertex. N is then prime, since W is connected and co-connected and
meets at least two children, and W induces the same pattern on the
quotient of N. The vertex W has in M is min(M): the minimum sees the
rest of W exactly as that vertex does, and swapping it in would give a
smaller witness. The node's reps are those minima, in increasing
order, so W is the smallest of the quotients' first paths mapped
through their reps, and the quotient stage needs no search of the
whole graph afterwards.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import modular
from .errors import CutoffExceeded, PreconditionError
from .graph import Graph, bits_of, set_of

DEFAULT_BERGE_MAX_N = 16
# each budgeted P5 / co-P5 kernel search may visit _BUDGET_PER_VERTEX * n
# search nodes, and at least _BUDGET_FLOOR, before membership falls back to
# the prime quotients; linear, like the fallback (see the module docstring).
# Below n = 16 a whole search costs less than the tree. Against 8n, a budget
# of 4n made the near-member benchmark about 10 % slower, and 16n kept only
# about 60 % of the members' gain.
_BUDGET_PER_VERTEX = 8
_BUDGET_FLOOR = 128


@dataclass(frozen=True)
class Witness:
    """An induced occurrence of a named forbidden pattern."""

    pattern: str
    vertices: tuple[int, ...]


def witness_ok(g: Graph, w: Witness) -> bool:
    """Re-verify that w.vertices induce w.pattern in the listed order."""
    vs = w.vertices
    if len(set(vs)) != len(vs) or any(not 0 <= v < g.n for v in vs):
        return False
    required = _pattern_edges(w.pattern, len(vs))
    if required is None:
        return False
    actual = {
        (i, j)
        for i, j in itertools.combinations(range(len(vs)), 2)
        if g.adjacent(vs[i], vs[j])
    }
    return actual == required


def _pattern_edges(pattern: str, size: int) -> set[tuple[int, int]] | None:
    """Edge set of the named pattern on positions 0..size-1, or None."""
    all_pairs = set(itertools.combinations(range(size), 2))
    path = {(i, i + 1) for i in range(size - 1)}
    cycle = path | ({(0, size - 1)} if size >= 3 else set())
    if pattern == "P5":
        return path if size == 5 else None
    if pattern == "co-P5":
        return all_pairs - path if size == 5 else None
    if pattern == "O3":
        return set() if size == 3 else None
    if pattern.startswith("co-C"):
        length = _int_suffix(pattern[4:])
        return all_pairs - cycle if length == size and size >= 5 else None
    if pattern.startswith("C"):
        length = _int_suffix(pattern[1:])
        return cycle if length == size and size >= 3 else None
    if pattern.startswith("K") and pattern.endswith("-e"):
        p = _int_suffix(pattern[1:-2])
        return all_pairs - {(0, 1)} if p == size and size >= 3 else None
    return None


def _int_suffix(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        return -1


# -- induced P5 and co-P5 ----------------------------------------------------


def _twin_kernel(g: Graph) -> int:
    """Bitmask of the vertices left after repeatedly deleting every
    vertex that has a smaller twin (same open or same closed
    neighbourhood among the vertices still kept), no kept neighbour, or
    every other kept vertex as a neighbour.

    No vertex's open neighbourhood equals another vertex's closed one,
    so one set of both keys finds both kinds of twin in one pass.
    """
    adj = g.adj_masks
    keep = (1 << g.n) - 1
    while True:
        seen: set[int] = set()
        drop = 0
        rest = keep
        while rest:
            low = rest & -rest
            rest ^= low
            nbrs = adj[low.bit_length() - 1] & keep
            closed = nbrs | low
            if not nbrs or closed == keep or nbrs in seen or closed in seen:
                drop |= low
            else:
                seen.add(nbrs)
                seen.add(closed)
        if not drop:
            return keep
        keep &= ~drop


class _BudgetSpent(Exception):
    """A budgeted _first_p5 search visited more nodes than allowed."""


def _first_p5(adj: list[int], keep: int, budget: float = math.inf) -> tuple[int, ...] | None:
    """Lexicographically first vertex tuple of keep inducing P5 in path
    order, for neighbourhood masks adj (indexed by vertex, each inside
    keep). Each level takes its candidates lowest bit first; the fifth
    vertex is the lowest bit of the last candidate mask.

    Every (a, b, c) prefix and every (a, b, c, d) extension visited
    costs one node of the budget; _BudgetSpent is raised once more than
    budget nodes are needed. The extensions of a prefix are charged
    when the prefix is visited.
    """
    cand_a = keep
    while cand_a:
        low_a = cand_a & -cand_a
        cand_a ^= low_a
        a = low_a.bit_length() - 1
        ban_a = adj[a] | low_a
        cand_b = adj[a]
        while cand_b:
            low_b = cand_b & -cand_b
            cand_b ^= low_b
            b = low_b.bit_length() - 1
            ban_b = ban_a | adj[b]
            cand_c = adj[b] & ~ban_a
            while cand_c:
                low_c = cand_c & -cand_c
                cand_c ^= low_c
                c = low_c.bit_length() - 1
                ban_c = ban_b | adj[c]
                cand_d = adj[c] & ~ban_b
                budget -= 1 + cand_d.bit_count()
                if budget < 0:
                    raise _BudgetSpent
                while cand_d:
                    low_d = cand_d & -cand_d
                    cand_d ^= low_d
                    d = low_d.bit_length() - 1
                    last = adj[d] & ~ban_c
                    if last:
                        return a, b, c, d, (last & -last).bit_length() - 1
    return None


def _p5_in(g: Graph, keep: int, budget: float = math.inf) -> Witness | None:
    adj = [m & keep for m in g.adj_masks]
    path = _first_p5(adj, keep, budget)
    return Witness("P5", path) if path is not None else None


def _co_p5_in(g: Graph, keep: int, budget: float = math.inf) -> Witness | None:
    co = [keep & ~(m | 1 << v) for v, m in enumerate(g.adj_masks)]
    path = _first_p5(co, keep, budget)
    return Witness("co-P5", path) if path is not None else None


def find_induced_p5(g: Graph) -> Witness | None:
    return _p5_in(g, _twin_kernel(g))


def find_induced_co_p5(g: Graph) -> Witness | None:
    """Vertices listed in path order of the complement."""
    return _co_p5_in(g, _twin_kernel(g))


def _quotient_violation(tree: modular.MDTree) -> Witness | None:
    """The first P5, else the first co-P5, of the graph whose modular
    decomposition tree is given, found on its prime quotients alone.

    Each quotient's first path is mapped to host vertices through the
    node's reps, which increase with the quotient index, so the mapping
    keeps lexicographic order and the smallest mapped tuple over all
    quotients is the host's first witness (see the module docstring).
    A prime quotient on four vertices is a P4 and holds neither pattern.
    """
    primes = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, modular.MDPrime) and node.quotient.n >= 5:
            primes.append(node)
        stack.extend(getattr(node, "children", ()))
    for pattern, search in (("P5", _p5_in), ("co-P5", _co_p5_in)):
        found = []
        for node in primes:
            w = search(node.quotient, (1 << node.quotient.n) - 1)
            if w is not None:
                found.append(tuple(node.reps[i] for i in w.vertices))
        if found:
            return Witness(pattern, min(found))
    return None


def p5_cop5_violation(g: Graph) -> tuple[Witness | None, modular.MDTree | None]:
    """The {P5, co-P5} witness of find_class_violation, and the modular
    decomposition tree of g when deciding needed it (else None).

    The twin-kernel P5 search, then the co-P5 search, each get
    max(_BUDGET_PER_VERTEX * n, _BUDGET_FLOOR) search nodes, a budget
    linear in n like the fallback. If either runs out, the answer comes
    from the prime quotients of md_tree(g) instead; that is the same
    first witness (see the module docstring), so the budget decides
    only the cost, never the answer.
    """
    keep = _twin_kernel(g)
    budget = max(_BUDGET_PER_VERTEX * g.n, _BUDGET_FLOOR)
    try:
        return _p5_in(g, keep, budget) or _co_p5_in(g, keep, budget), None
    except _BudgetSpent:
        tree = modular.md_tree(g)
        return _quotient_violation(tree), tree


def find_induced_c5(g: Graph) -> Witness | None:
    """Lexicographically first induced 5-cycle, in cyclic order starting
    at its smallest vertex."""
    hole = _find_hole(g, 5)
    return Witness("C5", hole) if hole is not None else None


def _find_hole(g: Graph, length: int) -> tuple[int, ...] | None:
    """Induced cycle of the given length, as a tuple in cyclic order.

    The tuple starts at the cycle's smallest vertex; orientation is fixed
    by requiring the second vertex to be smaller than the last. Two
    banned masks are tracked because the closing vertex must avoid the
    interior's neighborhoods yet meet the start's.
    """

    def extend(
        path: list[int], banned_all: int, banned_mid: int
    ) -> tuple[int, ...] | None:
        first = path[0]
        tip = path[-1]
        if len(path) == length - 1:
            cand = g.adj_bits(tip) & g.adj_bits(first) & ~banned_mid
            while cand:
                low = cand & -cand
                v = low.bit_length() - 1
                cand ^= low
                if v > path[1]:
                    return (*path, v)
            return None
        cand = g.adj_bits(tip) & ~banned_all
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            if v < first:
                continue
            found = extend(
                path + [v],
                banned_all | g.adj_bits(tip) | low,
                banned_mid | low | (g.adj_bits(tip) if len(path) >= 2 else 0),
            )
            if found is not None:
                return found
        return None

    if g.n < length:
        return None
    for start in range(g.n):
        found = extend([start], 1 << start, 1 << start)
        if found is not None:
            return found
    return None


# -- near-complete patterns --------------------------------------------------


def find_induced_kp_minus_e(g: Graph, p: int) -> Witness | None:
    """Induced K_p minus one edge; the two non-adjacent vertices come first.

    Ends need degree >= p - 2 and clique vertices degree >= p - 1, and
    for p >= 4 the ends need two common neighbours of that degree. Only
    searches that cannot succeed are cut, so the witness stays the
    lexicographically first one.
    """
    if p < 3:
        raise PreconditionError(f"K_p-e needs p >= 3, got p={p}")
    adj = g.adj_masks
    ends = sum(1 << v for v, row in enumerate(adj) if row.bit_count() >= p - 2)
    core = sum(1 << v for v, row in enumerate(adj) if row.bit_count() >= p - 1)
    xs = ends
    while xs:
        low_x = xs & -xs
        xs ^= low_x
        row = adj[low_x.bit_length() - 1]
        far = ends & ~row & ~((low_x << 1) - 1)
        if not far:
            continue
        near = row & core
        once = twice = 0  # far vertices with at least one / two neighbours in near
        zs = near
        while zs:
            low = zs & -zs
            zs ^= low
            nbrs = adj[low.bit_length() - 1]
            twice |= once & nbrs
            once |= far & nbrs
        ys = twice if p > 3 else once
        while ys:
            low = ys & -ys
            ys ^= low
            y = low.bit_length() - 1
            common = near & adj[y]
            if common.bit_count() >= p - 2:
                clique = _lex_clique_in_mask(adj, common, p - 2)
                if clique is not None:
                    return Witness(f"K{p}-e", (low_x.bit_length() - 1, y, *clique))
    return None


def _lex_clique_in_mask(adj: tuple[int, ...], mask: int, size: int) -> tuple[int, ...] | None:
    """Lexicographically first clique of the given size inside mask, for
    neighbourhood masks adj: a depth-first search on an explicit stack of
    (candidates left, vertex chosen) per level, candidates lowest bit
    first."""
    if size == 0:
        return ()
    stack: list[tuple[int, int]] = []
    cand, need = mask, size
    while True:
        if cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            if need == 1:
                return (*(u for _, u in stack), v)
            stack.append((cand, v))
            cand &= adj[v]
            need -= 1
        elif stack:
            cand = stack.pop()[0]
            need += 1
        else:
            return None


def find_independent_triple(g: Graph) -> Witness | None:
    """An independent set of size 3, or None if g is O3-free."""
    full = (1 << g.n) - 1
    for u in range(g.n):
        non_u = full & ~g.adj_bits(u) & ~((1 << (u + 1)) - 1)
        cand_v = non_u
        while cand_v:
            low = cand_v & -cand_v
            v = low.bit_length() - 1
            cand_v ^= low
            third = non_u & ~g.adj_bits(v) & ~((1 << (v + 1)) - 1)
            if third:
                w = (third & -third).bit_length() - 1
                return Witness("O3", (u, v, w))
    return None


def is_o3_free(g: Graph) -> bool:
    """True iff g has no independent set of size 3."""
    return find_independent_triple(g) is None


# -- Berge check (desk scale) -------------------------------------------------


def find_odd_hole_or_antihole(
    g: Graph, max_n: int = DEFAULT_BERGE_MAX_N
) -> Witness | None:
    """First induced odd hole of g or of its complement, length >= 5.

    Enumeration over vertex subsets; refuses graphs beyond max_n rather
    than approximating.
    """
    if g.n > max_n:
        raise CutoffExceeded(
            f"Berge check is desk-scale only: n={g.n} exceeds cutoff {max_n}"
        )
    co = g.complement()
    for length in range(5, g.n + 1, 2):
        hole = _hole_on_some_subset(g, length)
        if hole is not None:
            return Witness(f"C{length}", hole)
        # co-C5 is again C5, so length 5 needs only one side
        if length >= 7:
            anti = _hole_on_some_subset(co, length)
            if anti is not None:
                return Witness(f"co-C{length}", anti)
    return None


def _hole_on_some_subset(g: Graph, length: int) -> tuple[int, ...] | None:
    """Scan subsets of the given size for one inducing a chordless cycle."""
    for subset in itertools.combinations(range(g.n), length):
        mask = bits_of(subset)
        if all((g.adj_bits(v) & mask).bit_count() == 2 for v in subset):
            cyc = _walk_cycle(g, subset, mask)
            if cyc is not None:
                return cyc
    return None


def _walk_cycle(g: Graph, subset: tuple[int, ...], mask: int) -> tuple[int, ...] | None:
    """Cyclic order of a 2-regular induced subgraph, if it is one cycle."""
    start = subset[0]
    first_two = sorted(set_of(g.adj_bits(start) & mask))
    order = [start, first_two[0]]
    while len(order) < len(subset):
        nbrs = set_of(g.adj_bits(order[-1]) & mask)
        nxt = [x for x in nbrs if x != order[-2]]
        if len(nxt) != 1 or nxt[0] in order:
            return None
        order.append(nxt[0])
    if not g.adjacent(order[-1], start):
        return None
    return tuple(order)


def is_berge_small(g: Graph, max_n: int = DEFAULT_BERGE_MAX_N) -> bool:
    """True iff neither g nor its complement has an induced odd hole."""
    return find_odd_hole_or_antihole(g, max_n=max_n) is None


# -- class membership ----------------------------------------------------------

CLASS_P5_COP5 = "p5-cop5"
CLASS_P5_KPE = "p5-kpe"


def _normalize_class(name: str) -> str:
    return name.replace("_", "-").lower()


def find_class_violation(g: Graph, class_name: str, p: int | None = None) -> Witness | None:
    """First forbidden-pattern witness under deterministic vertex order,
    or None when g belongs to the class."""
    cls = _normalize_class(class_name)
    if cls == CLASS_P5_COP5:
        return p5_cop5_violation(g)[0]
    if cls == CLASS_P5_KPE:
        if p is None or p < 3:
            raise PreconditionError(f"class {CLASS_P5_KPE} needs a parameter p >= 3")
        return find_induced_p5(g) or find_induced_kp_minus_e(g, p)
    raise ValueError(f"unknown graph class {class_name!r}")


def class_membership(g: Graph, class_name: str, p: int | None = None) -> bool:
    return find_class_violation(g, class_name, p) is None

