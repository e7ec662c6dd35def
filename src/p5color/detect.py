"""Induced-subgraph detectors and hereditary class membership checks.

Each detector is a specialized backtracking enumeration over vertex
tuples in lexicographic order, pruned with adjacency bitmasks, so the
returned witnesses are reproducible. Witness vertices are listed in a
canonical pattern order: path order for paths, cyclic order for holes,
the non-adjacent pair first for near-complete patterns.

The P5 and co-P5 searches run after one twin pass. The pass deletes
every vertex that has a smaller twin (a vertex with the same open or
the same closed neighbourhood) or that is isolated or universal. The
rule lives in modular.twin_core, and the modular decomposition is
refined on the same core, from the same pass, which a caller may hand
in: a {P5, co-P5} solve takes it once. The searches still return the
lexicographically first witness of the whole graph. P5 has no twins,
so a witness through a vertex with a smaller twin stays a witness
when the twin takes that vertex's place, and that witness is
lexicographically smaller; every vertex of P5 and of co-P5 has a
neighbour and a non-neighbour among the other four. The first witness
therefore avoids every vertex the pass deletes, and the first witness
among the vertices kept is the first of the whole graph.
Twins of a graph are exactly the twins of its complement, and isolated
and universal vertices swap roles, so one pass serves both searches,
and the co-P5 search reads complement neighbourhoods off the adjacency
masks without building the complement. On members built by
substitution most vertices have twins, so few are left. Often a count
then settles the core with no search: P5 and co-P5 have five
vertices, P5 four edges and co-P5 six, so a core of fewer than five
vertices, or of five with neither four edges nor six, holds no
witness, and then neither does the graph. Kp-e has twins, so its
detector searches the whole graph, skipping only vertices of too low
degree.

The P5 search takes a, b, c, d, e lowest vertex first at each level,
and three prunes cut it. An induced P5 a-b-c-d-e holds the independent
triple a, c, e, with c and e outside N[a]. So a first vertex a is
skipped when the vertices of its search set outside N[a] are pairwise
adjacent. Once a and b are chosen, d and e can only lie in the far
set: the vertices of the search set outside N[a] | N[b]. A pair whose
far set holds fewer than two vertices is skipped. And e lies in the
far set outside N[c], so a prefix (a, b, c) with no far vertex there
tries no d. Each prune cuts only branches that hold no P5, so the
search meets the same first witness; the co-P5 search, on complement
rows, is cut the same way. A P5 is connected, so find_induced_p5 and
find_induced_co_p5 take the search set inside a's component (a
co-component on complement rows), found once per component. On a cone,
whose twin pass drops the apex and leaves its blocks apart, that skips
every vertex of an O3-free block, whose non-neighbours in the block are
pairwise adjacent, and cuts every pair whose block is too dense for a
path to leave N[a] | N[b]. The {P5, co-P5} searches take all the
vertices kept as the search set: these are almost always connected,
so a component map would be pure cost. A skipped first vertex is
still charged its pairs, and a prefix that tries no d its one node,
so the prunes only take charges away from the budget below: a
budgeted search that ended within its budget still does, and fewer
near-members fall back to the walk below.

Membership in either class decides the same way. After the twin pass
each of its k searches gets max(16 * n // k, 128) search nodes, where
a node is one (a, b) pair, one (a, b, c) prefix or one (a, b, c, d)
extension: 8 * n each for the P5 then the co-P5 search of {P5, co-P5}
membership, 16 * n for the lone P5 search of {P5, Kp-e} membership.
Pairs are charged whether skipped or not: otherwise a member, whose
search cannot succeed, would spend its budget over more uncharged
pairs and reach the fallback later. Near-members usually meet a
witness within it. A search that runs out hands over to the prime
quotients that modular.md_walk, the modular decomposition's walk over
the same core, reaches. On a member no search can succeed, and the
walk is near-linear in n, so the budget is kept linear too: a member
pays at most about what the fallback costs before reaching it. Take
the first witness W of a pattern, P5 or co-P5, and the lowest tree
node N whose span contains W. A child M of N is a module, so W & M is
a module of G[W], and not all of W as N is lowest; both patterns are
prime, so W meets M in at most one vertex. N is then prime, since W is
connected and co-connected and meets at least two children, and W
induces the same pattern on the quotient of N. The vertex W has in M
is min(M): the minimum sees the rest of W exactly as that vertex does,
and swapping it in would give a smaller witness. The node's reps are
those minima, in increasing order, so W is the smallest of the
quotients' first witnesses of the pattern mapped through their reps,
and the walk needs no search of the whole graph afterwards. Nor does
it need the whole tree. A witness on the quotient of a node lies in
the node's span, so it starts at the span's smallest vertex or above;
once a witness V is found, a span whose smallest vertex exceeds V[0]
holds none smaller than V, and the walk does not split it. It takes
children lowest vertex first, so that V comes early. The argument
holds for each pattern alone: the walk searches each quotient for the
first pattern as it reaches it, and only when none is found are the
finished walk's quotients searched for the second, cut the same way. A
near-member is thus rejected with no tree built; only a member's walk
is assembled into the tree, which the {P5, co-P5} solver reuses. No
quotient that the same count settles is searched: the P4s, and the
5-cycles and bulls, with five edges each, which are most of the prime
nodes of a generated member.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import modular
from .errors import CutoffExceeded, PreconditionError
from .graph import Graph, first_clique, iter_bits, reach

DEFAULT_BERGE_MAX_N = 16
# a membership check of k P5 / co-P5 searches gives each
# max(_BUDGET_PER_VERTEX * n // k, _BUDGET_FLOOR) search nodes before it falls
# back to the decomposition walk; linear, like the fallback (see the module
# docstring). The floor lets small graphs finish a whole search, which costs
# them less than the tree. For the {P5, co-P5} pair, 4n each made the
# near-member benchmark about 10 % slower than 8n, and 16n each kept only
# about 60 % of the members' gain. A lone P5 search needs 16n: on the
# co-Andrasfai cones of the {P5, Kp-e} separator benchmark it takes up to
# about 10n nodes, so at 8n those members fell back to the tree.
_BUDGET_PER_VERTEX = 16
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


class _BudgetSpent(Exception):
    """A budgeted _first_p5 search visited more nodes than allowed."""


def _first_p5(
    adj: list[int], keep: int, budget: float = math.inf, by_component: bool = False
) -> tuple[int, ...] | None:
    """Lexicographically first vertex tuple of keep inducing P5 in path
    order, for neighbourhood masks adj (indexed by vertex, each inside
    keep). Each level takes its candidates lowest bit first; the fifth
    vertex is the lowest bit of the last candidate mask.

    The search set is keep, or with by_component a's component of keep
    under adj, found with one reach the first time a enters it (an a
    outside every component found so far scans none of them): a path
    is connected. The c and e of a path from a are non-adjacent and lie
    in the search set outside N[a], so a is skipped when those vertices
    are pairwise adjacent. The d and e of a path through a, b lie in
    far, the vertices of the search set outside N[a] | N[b], so a pair
    (a, b) whose far set holds fewer than two vertices is skipped. The
    e lies in far outside N[c], so a prefix (a, b, c) with none there
    tries no d. Only branches without a witness are cut, and the first
    witness stays first.

    Every (a, b) pair, every (a, b, c) prefix and every (a, b, c, d)
    extension tried costs one node of the budget. The pairs of a are
    charged when a is taken, skipped or not, and the extensions of a
    prefix when the prefix is visited: none when it tries no d.
    _BudgetSpent is raised at the first prefix reached with more than
    budget nodes charged.
    """
    comps: list[int] = []
    covered = 0  # the vertices of comps
    comp = 0 if by_component else keep  # a's component, or all of keep
    cand_a = keep
    while cand_a:
        low_a = cand_a & -cand_a
        cand_a ^= low_a
        if not low_a & comp:
            if low_a & covered:
                for comp in comps:
                    if comp & low_a:
                        break
            else:
                comp = reach(adj, low_a, keep)
                comps.append(comp)
                covered |= comp
        a = low_a.bit_length() - 1
        ban_a = adj[a] | low_a
        cand_b = adj[a]
        budget -= cand_b.bit_count()
        rest = comp & ~ban_a  # c and e lie here, and are not adjacent
        left = rest
        while left:
            low = left & -left
            left ^= low
            if rest & ~adj[low.bit_length() - 1] != low:
                break
        else:
            continue
        while cand_b:
            low_b = cand_b & -cand_b
            cand_b ^= low_b
            b = low_b.bit_length() - 1
            ban_b = ban_a | adj[b]
            far = comp & ~ban_b
            if far & (far - 1) == 0:
                continue
            cand_c = adj[b] & ~ban_a
            while cand_c:
                low_c = cand_c & -cand_c
                cand_c ^= low_c
                c = low_c.bit_length() - 1
                ban_c = ban_b | adj[c]
                cand_d = adj[c] & far
                if cand_d == far:  # e lies in far outside N[c]
                    cand_d = 0
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


def _p5_in(
    g: Graph, keep: int, budget: float = math.inf, by_component: bool = False
) -> Witness | None:
    adj = [m & keep for m in g.adj_masks]
    path = _first_p5(adj, keep, budget, by_component)
    return Witness("P5", path) if path is not None else None


def _co_p5_in(
    g: Graph, keep: int, budget: float = math.inf, by_component: bool = False
) -> Witness | None:
    co = [keep & ~(m | 1 << v) for v, m in enumerate(g.adj_masks)]
    path = _first_p5(co, keep, budget, by_component)
    return Witness("co-P5", path) if path is not None else None


_P5_COP5 = (_p5_in, _co_p5_in)
Verdict = tuple[Witness | None, modular.MDTree | None]  # a witness, or a member's tree if deciding built it


def find_induced_p5(g: Graph) -> Witness | None:
    return _violation(g, (_p5_in,))[0]


def find_induced_co_p5(g: Graph) -> Witness | None:
    """Vertices listed in path order of the complement."""
    return _violation(g, (_co_p5_in,))[0]


def p5_cop5_violation(g: Graph, twins: modular.Twins | None = None) -> Verdict:
    """The {P5, co-P5} witness of find_class_violation, and the modular
    decomposition tree of g when deciding needed it (else None); twins
    as in _violation."""
    return _violation(g, _P5_COP5, twins=twins)


def _settled(g: Graph, keep: int) -> bool:
    """True when the vertices of keep hold neither P5 nor co-P5 by their
    count alone: fewer than five, or five with neither the four edges of
    P5 nor the six of co-P5."""
    size = keep.bit_count()
    if size != 5:
        return size < 5
    return sum((g.adj_masks[v] & keep).bit_count() for v in iter_bits(keep)) // 2 not in (4, 6)


def _violation(g: Graph, searches: tuple, twins: modular.Twins | None = None) -> Verdict:
    """The first witness of the first of searches (_p5_in, _co_p5_in)
    that finds one, and the modular decomposition tree of g when no
    search finds one and deciding built the tree (else None).

    The searches run on the core of twins, g's twin pass if the caller
    has taken it (else it is taken here), unless _settled rules out a
    witness there, and so in g. Each runs within
    max(_BUDGET_PER_VERTEX * n // len(searches), _BUDGET_FLOOR) search
    nodes; a lone search takes its search sets inside a's component, a
    pair all of the core. If one runs out, _walk_violation decides on
    the same pass instead; that is the same first witness (see the
    module docstring), so the budget decides only the cost, never the
    answer.
    """
    twins = twins or modular.twin_core(g.adj_masks, (1 << g.n) - 1)
    if _settled(g, twins[0]):
        return None, None
    budget = max(_BUDGET_PER_VERTEX * g.n // len(searches), _BUDGET_FLOOR)
    try:
        for search in searches:
            w = search(g, twins[0], budget, len(searches) == 1)
            if w is not None:
                return w, None
        return None, None
    except _BudgetSpent:
        return _walk_violation(g, twins, searches)


def _walk_violation(g: Graph, twins: modular.Twins, searches: tuple) -> Verdict:
    """_violation decided on the prime quotients that modular.md_walk
    reaches over the core of twins, and the tree, assembled from the
    walk, when there is no witness.

    The first search runs on each quotient as the walk reaches it, and
    once it has found a witness W the walk skips every span whose
    smallest vertex exceeds W[0]. The other searches run on the finished
    walk's quotients, skipping such spans the same way. Quotients that
    _settled rules out are not searched: one on four vertices is a P4,
    and the 5-cycle and the bull have five edges.
    """
    best = None  # the smallest witness so far of the search running

    def wanted(span: int) -> bool:  # a witness inside span starts at min(span) or above
        return best is None or span & -span <= 1 << best.vertices[0]

    walk, primes = [], []  # every split, and those with a quotient to search
    for split in modular.md_walk(g.adj_masks, twins[0], wanted):
        walk.append(split)
        q = split[3]
        if q is not None and not _settled(q, (1 << q.n) - 1):
            primes.append(split)
            best = _smaller(searches[0], split, best)
    for search in searches[1:]:
        if best is not None:
            break
        for split in primes:
            if wanted(split[0]):
                best = _smaller(search, split, best)
    if best is not None:
        return best, None
    return None, modular.md_assemble(g, twins, walk)


def _smaller(search, split: modular.Split, best: Witness | None) -> Witness | None:
    """The smaller of best and the first witness of search on the prime
    quotient of split, mapped to host vertices through the smallest
    vertices of its children. These increase with the quotient index, so
    the mapping keeps lexicographic order."""
    _, _, parts, q = split
    w = search(q, (1 << q.n) - 1)
    if w is None:
        return best
    w = Witness(w.pattern, tuple([(parts[i] & -parts[i]).bit_length() - 1 for i in w.vertices]))
    return w if best is None or w.vertices < best.vertices else best


def find_induced_c5(g: Graph) -> Witness | None:
    """Lexicographically first induced 5-cycle, in cyclic order starting
    at its smallest vertex."""
    hole = _find_hole(g, 5)
    return Witness("C5", hole) if hole is not None else None


def _find_hole(g: Graph, length: int) -> tuple[int, ...] | None:
    """Lexicographically first induced cycle of the given length (at
    least 3), as a tuple in cyclic order, or None.

    The tuple starts at the cycle's smallest vertex; orientation is fixed
    by requiring the second vertex to be smaller than the last. Induced
    paths from each start are grown depth first on an explicit stack of
    (candidates left, banned_all, banned_mid) per path vertex, lowest
    candidate first. Two banned masks are tracked because the closing
    vertex must avoid the interior's neighborhoods yet meet the start's:
    banned_all is the path and the neighborhoods of all but its tip,
    banned_mid the path and the neighborhoods of all but its two ends.
    """
    adj = g.adj_masks
    for first in range(g.n - length + 1):
        above = ~((2 << first) - 1)
        path = [first]
        stack = [(adj[first] & above, 1 << first, 1 << first)]
        while stack:
            cand, banned_all, banned_mid = stack[-1]
            if not cand:
                stack.pop()
                path.pop()
                continue
            low = cand & -cand
            stack[-1] = (cand ^ low, banned_all, banned_mid)
            near_tip = adj[path[-1]]
            banned_all |= near_tip | low
            banned_mid |= low | (near_tip if len(path) >= 2 else 0)
            path.append(low.bit_length() - 1)
            if len(path) < length - 1:
                stack.append((adj[path[-1]] & above & ~banned_all, banned_all, banned_mid))
                continue
            close = adj[path[-1]] & adj[first] & ~banned_mid & ~((2 << path[1]) - 1)
            if close:
                return (*path, (close & -close).bit_length() - 1)
            path.pop()
    return None


# -- near-complete patterns --------------------------------------------------


def find_induced_kp_minus_e(g: Graph, p: int) -> Witness | None:
    """Induced K_p minus one edge; the two non-adjacent vertices come first.

    Ends need degree >= p - 2 and clique vertices degree >= p - 1, and
    for p >= 4 the ends need two common neighbours of that degree. One
    end with the p - 2 clique vertices is a K_(p-1), all of it among
    the ends, so a graph whose ends hold no K_(p-1) is settled by that
    one search. A common neighbourhood is searched for a clique once
    per x, as the search depends on it alone. Only searches that cannot
    succeed are cut, and the per-x search runs unchanged whenever a
    K_(p-1) exists, so the witness stays the lexicographically first one.
    """
    if p < 3:
        raise PreconditionError(f"K_p-e needs p >= 3, got p={p}")
    adj = g.adj_masks
    ends = sum(1 << v for v, row in enumerate(adj) if row.bit_count() >= p - 2)
    if first_clique(adj, ends, p - 1) is None:
        return None
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
        searched = set()  # common neighbourhoods of x already without a clique
        while ys:
            low = ys & -ys
            ys ^= low
            y = low.bit_length() - 1
            common = near & adj[y]
            if common.bit_count() >= p - 2 and common not in searched:
                searched.add(common)
                clique = first_clique(adj, common, p - 2)
                if clique is not None:
                    return Witness(f"K{p}-e", (low_x.bit_length() - 1, y, *clique))
    return None


def find_independent_triple(g: Graph) -> Witness | None:
    """The lexicographically first independent set of size 3, a triangle
    of the complement, or None if g is O3-free."""
    full = (1 << g.n) - 1
    co = [full ^ row ^ 1 << v for v, row in enumerate(g.adj_masks)]
    triple = first_clique(co, full, 3)
    return Witness("O3", triple) if triple is not None else None


def is_o3_free(g: Graph) -> bool:
    """True iff g has no independent set of size 3."""
    return find_independent_triple(g) is None


# -- Berge check (desk scale) -------------------------------------------------


def find_odd_hole_or_antihole(g: Graph) -> Witness | None:
    """First induced odd hole of g or of its complement, length >= 5:
    by length, g before its complement, the lexicographically first
    cycle of _find_hole.

    Refuses graphs beyond DEFAULT_BERGE_MAX_N rather than approximating.
    """
    if g.n > DEFAULT_BERGE_MAX_N:
        raise CutoffExceeded(
            f"Berge check is desk-scale only: n={g.n} exceeds cutoff {DEFAULT_BERGE_MAX_N}"
        )
    co = g.complement()
    for length in range(5, g.n + 1, 2):
        hole = _find_hole(g, length)
        if hole is not None:
            return Witness(f"C{length}", hole)
        # co-C5 is again C5, so length 5 needs only one side
        if length >= 7:
            anti = _find_hole(co, length)
            if anti is not None:
                return Witness(f"co-C{length}", anti)
    return None


def is_berge_small(g: Graph) -> bool:
    """True iff neither g nor its complement has an induced odd hole."""
    return find_odd_hole_or_antihole(g) is None


# -- class membership ----------------------------------------------------------

CLASS_P5_COP5 = "p5-cop5"
CLASS_P5_KPE = "p5-kpe"


def find_class_violation(g: Graph, class_name: str, p: int | None = None) -> Witness | None:
    """First forbidden-pattern witness under deterministic vertex order,
    or None when g belongs to the class."""
    if class_name == CLASS_P5_COP5:
        return p5_cop5_violation(g)[0]
    if class_name == CLASS_P5_KPE:
        if p is None or p < 3:
            raise PreconditionError(f"class {CLASS_P5_KPE} needs a parameter p >= 3")
        return find_induced_p5(g) or find_induced_kp_minus_e(g, p)
    raise ValueError(f"unknown graph class {class_name!r}")
