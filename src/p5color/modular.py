"""Modular decomposition and the weighted chromatic composition over it.

The tree has Parallel nodes (disconnected subgraphs), Series nodes
(disconnected complements) and Prime nodes carrying the quotient graph
on one representative per maximal proper module. The partition into
maximal proper modules is computed naively, by closing vertex pairs
under distinguishing vertices; auditable over fast.

Every node is a vertex bitmask of the input graph: components come
from the input, co-components from its complement (taken once), and
module closures stay inside the node's span, so no node builds a
relabelled subgraph. The validator checks the tree against induced
copies instead.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .coloring import MultiColoring, Weights, normalize_weights, validate_coloring
from .graph import Graph, bits_of, components, iter_bits, set_of


@dataclass(frozen=True)
class MDLeaf:
    vertex: int

    @property
    def span(self) -> frozenset[int]:
        return frozenset([self.vertex])


@dataclass(frozen=True)
class MDParallel:
    children: tuple[MDTree, ...]
    span: frozenset[int]


@dataclass(frozen=True)
class MDSeries:
    children: tuple[MDTree, ...]
    span: frozenset[int]


@dataclass(frozen=True)
class MDPrime:
    children: tuple[MDTree, ...]
    span: frozenset[int]
    quotient: Graph  # quotient vertex i represents children[i]
    reps: tuple[int, ...]  # host vertex standing for children[i]


MDTree = MDLeaf | MDParallel | MDSeries | MDPrime


# -- modules ----------------------------------------------------------------


def is_module(g: Graph, members: Iterable[int]) -> bool:
    """True iff every outside vertex sees all of members or none of them."""
    mask = bits_of(members)
    for x in range(g.n):
        if mask >> x & 1:
            continue
        inside = g.adj_bits(x) & mask
        if inside != 0 and inside != mask:
            return False
    return True


def min_module(g: Graph, seed: int, within: int) -> int:
    """Smallest module of g[within] containing the seed: close under
    distinguishers. Seed, within and the result are vertex bitmasks."""
    mask = seed
    changed = True
    while changed:
        changed = False
        outside = within & ~mask
        while outside:
            low = outside & -outside
            x = low.bit_length() - 1
            outside ^= low
            inside = g.adj_bits(x) & mask
            if inside != 0 and inside != mask:
                mask |= low
                changed = True
    return mask


def is_prime(g: Graph) -> bool:
    """No nontrivial modules (vacuously true below four vertices)."""
    full = (1 << g.n) - 1
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if min_module(g, 1 << u | 1 << v, full) != full:
                return False
    return True


def maximal_modules_partition(g: Graph, span: int) -> list[frozenset[int]]:
    """The partition of the vertex bitmask span into the maximal proper
    modules of g[span].

    Valid when g[span] and its complement are connected (Gallai's third
    case); the maximal proper module containing v is then the union of
    all proper modules through v.
    """
    parts: list[frozenset[int]] = []
    assigned = 0
    for v in iter_bits(span):
        if assigned >> v & 1:
            continue
        best = 1 << v
        for u in iter_bits(span & ~(1 << v)):
            m = min_module(g, 1 << v | 1 << u, span)
            if m != span:
                best |= m
        parts.append(set_of(best))
        assigned |= best
    return parts


def quotient(g: Graph, parts: list[frozenset[int]]) -> tuple[Graph, tuple[int, ...]]:
    """One vertex per part (smallest id represents); adjacency inherited.

    Parts must partition V(g) and each must be a module.
    """
    seen: set[int] = set()
    for part in parts:
        if not part or part & seen:
            raise ValueError("parts must be disjoint and non-empty")
        if not is_module(g, part):
            raise ValueError(f"part {sorted(part)} is not a module")
        seen |= part
    if seen != set(range(g.n)):
        raise ValueError("parts must cover the vertex set")
    reps = tuple(min(part) for part in parts)
    return _on_reps(g, reps), reps


def _on_reps(g: Graph, reps: tuple[int, ...]) -> Graph:
    """The graph g induces on reps, vertex i standing for reps[i]."""
    return Graph(
        len(reps),
        [
            (i, j)
            for i in range(len(reps))
            for j in range(i + 1, len(reps))
            if g.adjacent(reps[i], reps[j])
        ],
    )


# -- the tree ----------------------------------------------------------------


def md_tree(g: Graph) -> MDTree:
    if g.n < 1:
        raise ValueError("modular decomposition needs at least one vertex")
    co = g.complement()

    def build(span: frozenset[int]) -> MDTree:
        if len(span) == 1:
            return MDLeaf(next(iter(span)))
        mask = bits_of(span)
        comps = components(g, mask)
        if len(comps) > 1:
            return MDParallel(tuple(build(c) for c in comps), span)
        co_comps = components(co, mask)
        if len(co_comps) > 1:
            return MDSeries(tuple(build(c) for c in co_comps), span)
        parts = maximal_modules_partition(g, mask)
        reps = tuple(min(part) for part in parts)
        children = tuple(build(part) for part in parts)
        return MDPrime(children, span, _on_reps(g, reps), reps)

    return build(frozenset(range(g.n)))


def validate_md_tree(g: Graph, t: MDTree) -> None:
    """Raise ValueError unless t satisfies the decomposition invariants."""
    if t.span != frozenset(range(g.n)):
        raise ValueError("root span must be the whole vertex set")

    def walk(node: MDTree) -> None:
        if isinstance(node, MDLeaf):
            return
        spans = [c.span for c in node.children]
        if len(node.children) < 2:
            raise ValueError("internal nodes need at least two children")
        total: set[int] = set()
        for s in spans:
            if s & total:
                raise ValueError("child spans must be disjoint")
            total |= s
        if total != set(node.span):
            raise ValueError("child spans must partition the parent span")
        sub, ids = g.induced(node.span)
        to_local = {h: i for i, h in enumerate(ids)}
        local_spans = [frozenset(to_local[v] for v in s) for s in spans]
        if isinstance(node, MDParallel):
            if sorted(components(sub), key=min) != sorted(local_spans, key=min):
                raise ValueError("Parallel children must be the components")
        elif isinstance(node, MDSeries):
            if sorted(components(sub.complement()), key=min) != sorted(local_spans, key=min):
                raise ValueError("Series children must be the co-components")
        else:
            for s in local_spans:
                if not is_module(sub, s):
                    raise ValueError("Prime children must be modules of the parent subgraph")
            if node.quotient.n < 4:
                raise ValueError("Prime quotient needs at least four vertices")
            if not is_prime(node.quotient):
                raise ValueError("Prime quotient must be prime")
            if len(node.reps) != len(node.children):
                raise ValueError("one representative per child required")
            for i, rep in enumerate(node.reps):
                if rep not in node.children[i].span or rep != min(node.children[i].span):
                    raise ValueError("representative must be the child's smallest vertex")
            for i in range(len(node.reps)):
                for j in range(i + 1, len(node.reps)):
                    if node.quotient.adjacent(i, j) != g.adjacent(node.reps[i], node.reps[j]):
                        raise ValueError("quotient adjacency must mirror the representatives")
        for c in node.children:
            walk(c)

    walk(t)


def md_tree_to_json(t: MDTree) -> dict:
    if isinstance(t, MDLeaf):
        return {"kind": "vertex", "vertex": t.vertex}
    out: dict = {"kind": "", "span": sorted(t.span)}
    if isinstance(t, MDParallel):
        out["kind"] = "parallel"
    elif isinstance(t, MDSeries):
        out["kind"] = "series"
    else:
        out["kind"] = "prime"
        out["quotient_edges"] = sorted(map(list, t.quotient.edges))
        out["representatives"] = list(t.reps)
    out["children"] = [md_tree_to_json(c) for c in t.children]
    return out


# -- weighted chromatic composition ------------------------------------------------

PrimeSolver = Callable[[Graph, dict[int, int]], tuple[int, MultiColoring]]


def chi_w(
    g: Graph,
    w: Weights | None,
    prime_solver: PrimeSolver,
    tree: MDTree | None = None,
) -> tuple[int, MultiColoring]:
    """Weighted chromatic number composed bottom-up over the modular
    decomposition tree.

    Parallel nodes take the max over children on a shared palette;
    Series nodes sum children over disjoint palette segments; Prime
    nodes solve the quotient under the children's weighted chromatic
    numbers and expand each quotient color pool back into its child.

    prime_solver must be exact on the quotients it receives; an invalid
    quotient coloring is detected and reported.
    """
    if g.n < 1:
        raise ValueError("weighted coloring needs at least one vertex")
    weights = normalize_weights(g, w)
    if tree is None:
        tree = md_tree(g)

    def solve(node: MDTree) -> tuple[int, dict[int, frozenset[int]]]:
        if isinstance(node, MDLeaf):
            k = weights[node.vertex]
            return k, {node.vertex: frozenset(range(1, k + 1))}
        solved = [solve(c) for c in node.children]
        if isinstance(node, MDParallel):
            k = max(s[0] for s in solved)
            cmap: dict[int, frozenset[int]] = {}
            for _, child_map in solved:
                cmap.update(child_map)
            return k, cmap
        if isinstance(node, MDSeries):
            cmap = {}
            offset = 0
            for child_k, child_map in solved:
                cmap.update(
                    {v: frozenset(c + offset for c in cs) for v, cs in child_map.items()}
                )
                offset += child_k
            return offset, cmap
        w_star = {i: solved[i][0] for i in range(len(node.children))}
        k, quot_mc = prime_solver(node.quotient, w_star)
        try:
            validate_coloring(node.quotient, quot_mc, w_star)
        except ValueError as exc:
            raise RuntimeError(
                f"prime solver returned an invalid quotient coloring: {exc}"
            ) from exc
        cmap = {}
        for i, (child_k, child_map) in enumerate(solved):
            pool = sorted(quot_mc.of(i))
            rename = {c: pool[c - 1] for c in range(1, child_k + 1)}
            cmap.update(
                {v: frozenset(rename[c] for c in cs) for v, cs in child_map.items()}
            )
        return k, cmap

    k, cmap = solve(tree)
    mc = MultiColoring(tuple(cmap[v] for v in range(g.n)), k)
    validate_coloring(g, mc, w)
    return k, mc
