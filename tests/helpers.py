"""Independent brute-force oracles and small-graph utilities.

Everything here is deliberately naive (plain enumeration, no ordering
heuristics, no shared code with the library's solvers) so the tests
check the fast paths against genuinely independent ground truth.
"""

from __future__ import annotations

import heapq
import itertools
import random
import sys

from p5color.cliquesep import Atom
from p5color.coloring import MultiColoring, normalize_weights, validate_coloring
from p5color.errors import ParseError, PreconditionError
from p5color.graph import Graph, bits_of, is_clique, iter_bits, reach
from p5color.modular import MDLeaf, MDParallel, MDSeries, md_tree
from p5color.pipeline import _all_graphs as all_graphs


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def alternating_threshold(n: int) -> Graph:
    """Odd vertex i is joined to every earlier vertex. The modular
    decomposition alternates series and parallel nodes n - 1 levels
    deep, and the 550 odd vertices with vertex 0 form a largest clique
    at n = 1100."""
    return Graph(n, [(u, i) for i in range(1, n, 2) for u in range(i)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def contains_induced(g: Graph, pattern: Graph) -> bool:
    """Generic induced-subgraph isomorphism by trying every injection."""
    k = pattern.n
    if k > g.n:
        return False
    for sub in itertools.combinations(range(g.n), k):
        for perm in itertools.permutations(sub):
            if all(
                g.adjacent(perm[i], perm[j]) == pattern.adjacent(i, j)
                for i in range(k)
                for j in range(i + 1, k)
            ):
                return True
    return False


def is_colorable(g: Graph, k: int) -> bool:
    """Plain backtracking in vertex order 0..n-1, no heuristics."""
    color = [0] * g.n

    def go(v: int) -> bool:
        if v == g.n:
            return True
        for c in range(1, k + 1):
            if all(color[u] != c for u in g.neighbors(v)):
                color[v] = c
                if go(v + 1):
                    return True
                color[v] = 0
        return False

    return go(0)


def chi_bruteforce(g: Graph) -> int:
    if g.n == 0:
        return 0
    k = 1
    while not is_colorable(g, k):
        k += 1
    return k


def chi_w_bruteforce(g: Graph, w: dict[int, int]) -> int:
    """Smallest k admitting a set coloring, by direct enumeration of
    color-set assignments."""
    weights = [w.get(v, 1) for v in range(g.n)]
    k = max(weights, default=0)
    while not _set_colorable(g, weights, k):
        k += 1
    return k


def _set_colorable(g: Graph, weights: list[int], k: int) -> bool:
    choices = [
        [frozenset(c) for c in itertools.combinations(range(1, k + 1), weights[v])]
        for v in range(g.n)
    ]
    assigned: list[frozenset] = [frozenset()] * g.n

    def go(v: int) -> bool:
        if v == g.n:
            return True
        for cs in choices[v]:
            if all(not (cs & assigned[u]) for u in g.neighbors(v) if u < v):
                assigned[v] = cs
                if go(v + 1):
                    return True
        assigned[v] = frozenset()
        return False

    return go(0)


def has_clique_separator_bruteforce(g: Graph) -> bool:
    """Any clique subset whose removal disconnects, by scanning all subsets."""
    from p5color.graph import components, is_clique

    for r in range(0, max(g.n - 1, 0)):
        for s in itertools.combinations(range(g.n), r):
            if not is_clique(g, s):
                continue
            rest = [v for v in range(g.n) if v not in s]
            if len(rest) < 2:
                continue
            sub, _ = g.induced(rest)
            if len(components(sub)) >= 2:
                return True
    return False


def max_matching_by_edge_subsets(g: Graph) -> int:
    """Maximum matching by include/exclude recursion over the edge list."""
    edges = sorted(g.edges)

    def go(i: int, used: frozenset[int]) -> int:
        if i == len(edges):
            return 0
        best = go(i + 1, used)
        u, v = edges[i]
        if u not in used and v not in used:
            best = max(best, 1 + go(i + 1, used | {u, v}))
        return best

    return go(0, frozenset())


def md_tree_reference(g: Graph) -> dict:
    """The modular decomposition tree of g in md_tree_to_json's form,
    built the slow way: components by search, and the children of a
    prime node by closing every vertex pair under distinguishing
    vertices. With g[span] and its complement connected (Gallai's third
    case), the maximal proper module through v is the union of all
    proper modules through v."""

    def closure(mask: int, within: int) -> int:
        grown = True
        while grown:
            grown = False
            for x in members(within & ~mask):
                inside = g.adj_bits(x) & mask
                if inside and inside != mask:
                    mask |= 1 << x
                    grown = True
        return mask

    def split(span: int, nbrs) -> list[int]:
        parts = []
        while span:
            comp = span & -span
            grown = True
            while grown:
                grown = False
                for x in range(g.n):
                    if comp >> x & 1 and nbrs(x) & span & ~comp:
                        comp |= nbrs(x) & span
                        grown = True
            parts.append(comp)
            span &= ~comp
        return parts

    def maximal_modules(span: int) -> list[int]:
        parts = []
        assigned = 0
        for v in range(g.n):
            if not span >> v & 1 or assigned >> v & 1:
                continue
            best = 1 << v
            for u in range(g.n):
                if span >> u & 1 and u != v:
                    m = closure(1 << v | 1 << u, span)
                    if m != span:
                        best |= m
            parts.append(best)
            assigned |= best
        return parts

    def members(mask: int) -> list[int]:
        return [v for v in range(g.n) if mask >> v & 1]

    def build(span: int) -> dict:
        if span & (span - 1) == 0:
            return {"kind": "vertex", "vertex": span.bit_length() - 1}
        out: dict = {"span": members(span)}
        parts = split(span, g.adj_bits)
        out["kind"] = "parallel"
        if len(parts) == 1:
            parts = split(span, lambda x: ~g.adj_bits(x) & ~(1 << x))
            out["kind"] = "series"
        if len(parts) == 1:
            parts = maximal_modules(span)
            reps = [members(p)[0] for p in parts]
            out["kind"] = "prime"
            out["representatives"] = reps
            out["quotient_edges"] = [
                [i, j]
                for i in range(len(reps))
                for j in range(i + 1, len(reps))
                if g.adjacent(reps[i], reps[j])
            ]
        out["children"] = [build(p) for p in parts]
        return out

    return build((1 << g.n) - 1)


def chi_w_reference(g: Graph, w, prime_solver, tree=None) -> tuple[int, MultiColoring]:
    """modular.chi_w as it was before its palette pass: each node's
    vertex-to-color-set map is composed bottom-up, so every ancestor
    rebuilds the frozensets of all the vertices below it. Same
    prime_solver protocol, call order and quotient validation."""
    if g.n < 1:
        raise ValueError("weighted coloring needs at least one vertex")
    weights = normalize_weights(g, w)
    if tree is None:
        tree = md_tree(g)
    order = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(getattr(node, "children", ()))
    solved: dict[int, tuple[int, dict[int, frozenset[int]]]] = {}
    for node in reversed(order):
        if isinstance(node, MDLeaf):
            k = weights[node.vertex]
            solved[id(node)] = k, {node.vertex: frozenset(range(1, k + 1))}
            continue
        kids = [solved.pop(id(c)) for c in node.children]
        cmap: dict[int, frozenset[int]] = {}
        if isinstance(node, MDParallel):
            k = max(child_k for child_k, _ in kids)
            for _, child_map in kids:
                cmap.update(child_map)
        elif isinstance(node, MDSeries):
            k = 0
            for child_k, child_map in kids:
                cmap.update({v: frozenset(c + k for c in cs) for v, cs in child_map.items()})
                k += child_k
        else:
            w_star = {i: child_k for i, (child_k, _) in enumerate(kids)}
            k, quot_mc = prime_solver(node.quotient, w_star, node.reps)
            try:
                validate_coloring(node.quotient, quot_mc, w_star)
            except ValueError as exc:
                raise RuntimeError(
                    f"prime solver returned an invalid quotient coloring: {exc}"
                ) from exc
            for i, (child_k, child_map) in enumerate(kids):
                pool = sorted(quot_mc.of(i))
                rename = {c: pool[c - 1] for c in range(1, child_k + 1)}
                cmap.update({v: frozenset(rename[c] for c in cs) for v, cs in child_map.items()})
        solved[id(node)] = k, cmap
    k, cmap = solved[id(tree)]
    return k, MultiColoring(tuple(cmap[v] for v in range(g.n)), k)


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def kp_minus_e_reference(g: Graph, p: int) -> tuple[int, ...] | None:
    """The lexicographically first induced K_p - e, non-adjacent pair
    first, by a clique search in the common neighbourhood of every
    non-adjacent pair x < y in order."""

    def lex_clique(mask: int, size: int) -> tuple[int, ...] | None:
        if size == 0:
            return ()
        if mask.bit_count() < size:
            return None
        for v in _bits(mask):
            rest = lex_clique(mask & g.adj_bits(v) & ~((1 << (v + 1)) - 1), size - 1)
            if rest is not None:
                return (v, *rest)
        return None

    for x in range(g.n):
        for y in range(x + 1, g.n):
            if not g.adjacent(x, y):
                clique = lex_clique(g.adj_bits(x) & g.adj_bits(y), p - 2)
                if clique is not None:
                    return (x, y, *clique)
    return None


def mcs_m_reference(g: Graph, span: int) -> list[tuple[int, int]]:
    """MCS-M generators (vertex, mask of its earlier H-neighbours) in
    numbering order, by a max scan for the next vertex (ties to the
    smallest id) and a heap-based minimax search for the vertices whose
    weight grows: u grows iff some u..v path through unnumbered
    vertices has every interior weight below u's."""
    weight = dict.fromkeys(_bits(span), 0)
    earlier = dict.fromkeys(weight, 0)
    generators = []
    previous = -1
    unnumbered = span
    while unnumbered:
        v = max(_bits(unnumbered), key=weight.__getitem__)
        if weight[v] <= previous:
            generators.append((v, earlier[v]))
        previous = weight[v]
        unnumbered ^= 1 << v
        # best[u]: least largest interior weight over u..v paths, -1 for an edge
        best = {}
        heap: list[tuple[int, int]] = []
        for u in _bits(g.adj_bits(v) & unnumbered):
            best[u] = -1
            heapq.heappush(heap, (-1, u))
        while heap:
            cost, x = heapq.heappop(heap)
            if cost > best[x]:
                continue
            through = max(cost, weight[x])
            for y in _bits(g.adj_bits(x) & unnumbered):
                if y not in best or through < best[y]:
                    best[y] = through
                    heapq.heappush(heap, (through, y))
        for u in best:
            if best[u] < weight[u]:
                weight[u] += 1
                earlier[u] |= 1 << v
    return generators


def build_tree_reference(g: Graph) -> tuple[Atom, ...]:
    """The clique-minimal-separator atoms of g in gluing order: each
    MCS-M generator (from mcs_m_reference), last numbered first, whose
    earlier H-neighbours form a clique of g splits off that clique and
    the component of the vertices left that holds the generator."""
    rest = (1 << g.n) - 1
    atoms = []
    for x, sep in reversed(mcs_m_reference(g, rest)):
        if is_clique(g, iter_bits(sep)):
            comp = reach(g.adj_masks, 1 << x, rest & ~sep)
            atoms.append(Atom(sep | comp, sep))
            rest &= ~comp
    if rest:
        atoms.append(Atom(rest, 0))
    return tuple(reversed(atoms))


def chi_compose_reference(g: Graph, atoms, leaf_chi) -> tuple[int, MultiColoring]:
    """Per-atom colorings glued along the separators, over relabelled
    induced copies and dicts: each atom's colors are permuted to agree
    with the colors already on its separator, and its other colors take
    the smallest colors the separator does not use."""
    k = 0
    color: dict[int, int] = {}
    for atom in atoms:
        sub, ids = g.induced(iter_bits(atom.block))
        k_atom, mc = leaf_chi(sub, ids)
        try:
            validate_coloring(sub, mc)
        except ValueError as exc:
            raise RuntimeError(f"leaf solver returned an invalid coloring: {exc}") from exc
        if mc.k > k_atom:
            raise RuntimeError("leaf solver used more colors than it reported")
        k = max(k, k_atom)
        local = {ids[v]: next(iter(mc.of(v))) for v in range(sub.n)}
        perm = {local[q]: color[q] for q in iter_bits(atom.separator)}
        taken = set(perm.values())
        free = (c for c in range(1, k + 1) if c not in taken)
        for c in range(1, k_atom + 1):
            if c not in perm:
                perm[c] = next(free)
        for v, c in local.items():
            color[v] = perm[c]
    return k, MultiColoring.from_singletons(color, g.n)


# -- {P5, Kp-e}-free members with many clique separators, as in the benchmark ----


def star(leaves: int) -> tuple[int, frozenset, int]:
    """K_{1,leaves}; chromatic number 2."""
    return leaves + 1, frozenset((0, v) for v in range(1, leaves + 1)), 2


def co_cycle(length: int) -> tuple[int, frozenset, int, int]:
    """Complement of an odd cycle, O3-free and P5-free: (n, edges, chi,
    omega) with chi = (length + 1) / 2 and omega = (length - 1) / 2."""
    near = {(i, (i + 1) % length) for i in range(length)}
    edges = frozenset(
        (u, v)
        for u in range(length)
        for v in range(u + 1, length)
        if (u, v) not in near and (v, u) not in near
    )
    return length, edges, (length + 1) // 2, (length - 1) // 2


def co_andrasfai(k: int) -> tuple[int, frozenset, int, int]:
    """Complement of the Andrasfai graph And(k) on 3k - 1 vertices:
    O3-free and P5-free with chi = ceil((3k - 1) / 2) and omega = k."""
    n = 3 * k - 1
    edges = frozenset((u, v) for u in range(n) for v in range(u + 1, n) if (v - u) % 3 != 1)
    return n, edges, -(-n // 2), k


def k33() -> tuple[int, frozenset, int, int]:
    """K_{3,3}: it has independent triples, so its cone takes exact-fallback."""
    return 6, frozenset((u, v) for u in range(3) for v in range(3, 6)), 2, 2


def cone(blocks) -> tuple[int, frozenset, int, int]:
    """Apex vertex 0 joined to a disjoint union of blocks: (n, edges,
    chi, p) with p = omega + 3, the smallest p for which the cone is
    {P5, Kp-e}-free."""
    edges: set[tuple[int, int]] = set()
    offset = 1
    for bn, bedges, _, _ in blocks:
        edges.update((offset + u, offset + v) for u, v in bedges)
        edges.update((0, offset + v) for v in range(bn))
        offset += bn
    return offset, frozenset(edges), 1 + max(b[2] for b in blocks), max(b[3] for b in blocks) + 3


def with_universal_and_isolated(g: Graph, rng: random.Random) -> Graph:
    """g plus one to three new vertices, each joined to all vertices
    before it or to none (universal or isolated when added), all
    relabelled by a seeded permutation."""
    extra = rng.randint(1, 3)
    n = g.n + extra
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[u], order[v]))) for u, v in g.edges}
    for i in range(g.n, n):
        if rng.random() < 0.5:
            edges |= {tuple(sorted((order[i], order[u]))) for u in range(i)}
    return Graph(n, edges)


def matching_clique(m: int) -> Graph:
    """M_m: a perfect matching a_i b_i (vertices i and m + i) and a
    clique c_0 .. c_{m-1} (vertices 2m + i), with c_i joined to every
    a_j and to every b_j but b_i. M_m and its complement are prime
    {P5, co-P5}-free members; M_m has 2^m + m maximal stable sets, so
    chi(M_m) = m + 1 and chi of the complement is m."""
    edges = [(i, m + i) for i in range(m)]
    edges += [(2 * m + i, 2 * m + j) for i in range(m) for j in range(i + 1, m)]
    for i in range(m):
        edges += [(j, 2 * m + i) for j in range(m)]
        edges += [(m + j, 2 * m + i) for j in range(m) if j != i]
    return Graph(3 * m, edges)


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


def chi_w_perfect_reference(g: Graph, w: dict[int, int] | None) -> tuple[int, MultiColoring]:
    """Weighted chromatic number of a perfect graph over its maximal
    cliques and maximal stable sets: the heaviest clique omega_w, with a
    multicoloring on omega_w colors.

    Each round takes the lexicographically first maximal stable set
    that, cut down to the vertices with weight left, meets every
    heaviest clique. That S gets t new colors, t the smallest weight
    left on S or the gap between the heaviest clique and the heaviest
    one S misses, whichever is less. Every heaviest clique then loses
    exactly t, so omega_w falls by t. In a perfect graph such an S
    always exists; if none does, PreconditionError says so.
    """
    weights = normalize_weights(g, w)

    def weight_of(mask: int) -> int:
        return sum(weights[v] for v in iter_bits(mask))

    cliques = maximal_cliques(g)
    stables = sorted(maximal_cliques(g.complement()), key=lambda m: list(iter_bits(m)))
    colors: list[list[int]] = [[] for _ in range(g.n)]
    omega = left = max(weight_of(c) for c in cliques)
    while left:
        alive = bits_of(v for v in range(g.n) if weights[v])
        clique_weights = [weight_of(c) for c in cliques]
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


# -- the P5 / co-P5 search and the DIMACS parser before their fast paths ----------


def first_p5_reference(adj: list[int], keep: int) -> tuple[int, ...] | None:
    """detect._first_p5 without its far-set prune or budget: the
    lexicographically first vertex tuple of keep inducing P5 in path
    order, for neighbourhood masks adj inside keep, every (a, b) pair
    tried."""
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
                while cand_d:
                    low_d = cand_d & -cand_d
                    cand_d ^= low_d
                    d = low_d.bit_length() - 1
                    last = adj[d] & ~ban_c
                    if last:
                        return a, b, c, d, (last & -last).bit_length() - 1
    return None


def parse_dimacs_reference(text: str) -> Graph:
    """graph.parse_dimacs as it was before its single pass: (u, v)
    tuples collected line by line and handed to Graph(n, edges)."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
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
            header = lineno
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge before problem line", lineno)
            if len(parts) != 3:
                raise ParseError(f"malformed edge line {line!r}", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"malformed edge line {line!r}", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex id out of range in {line!r}", lineno)
            if u == v:
                raise ParseError(f"self-loop in {line!r}", lineno)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise ParseError("missing problem line", 0)
    g = Graph(n, edges)
    if g.m != m:
        raise ParseError(f"header declares {m} edges but {g.m} distinct edges follow", header)
    return g


# -- spiders ----------------------------------------------------------------


def spider(legs: int, thick: bool, head: int = 0) -> Graph:
    """A spider with legs >= 2: a clique k_0 .. k_{legs-1} (vertices
    legs + i) and a stable set s_0 .. s_{legs-1} (vertices i), with s_i
    joined to k_i alone (thin) or to every k_j but k_i (thick), plus a
    head of `head` vertices joined to each other and to the whole clique
    (vertices 2 legs + i). A split graph, hence perfect and
    {P5, co-P5}-free; without a head it is prime."""
    if legs < 2:
        raise ValueError(f"a spider needs at least two legs, got {legs}")
    core = range(legs, 2 * legs + head)
    edges = [(u, v) for u in core for v in core if u < v]
    edges += [(i, legs + j) for i in range(legs) for j in range(legs) if (i == j) != thick]
    return Graph(2 * legs + head, edges)
