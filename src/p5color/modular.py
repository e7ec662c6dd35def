"""Modular decomposition and the weighted chromatic composition over it.

The tree has Parallel nodes (disconnected subgraphs), Series nodes
(disconnected complements) and Prime nodes carrying the quotient graph
on one representative per maximal proper module. A prime node's
children come from partition refinement by neighborhoods, which leaves
only the child containing the smallest vertex to be closed, on a small
quotient.

Every node is a vertex bitmask of the input graph: components come
from its adjacency masks and co-components from its complement masks
(taken once), so no node builds a relabelled subgraph. Every tree walk
uses an explicit stack, so trees as deep as the graph is large stay
within Python's recursion limit.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .coloring import MultiColoring, Weights, normalize_weights, validate_coloring
from .graph import Graph, bits_of, component_masks, iter_bits, reach, set_of


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


def min_module(nbrs: Callable[[int], int], seed: int, within: int) -> int:
    """Smallest module containing the seed of the graph on within whose
    neighborhood bitmasks are nbrs(v): close under distinguishers.
    Seed, within and the result are vertex bitmasks."""
    mask = seed
    changed = True
    while changed:
        changed = False
        outside = within & ~mask
        while outside:
            low = outside & -outside
            x = low.bit_length() - 1
            outside ^= low
            inside = nbrs(x) & mask
            if inside != 0 and inside != mask:
                mask |= low
                changed = True
    return mask


def is_prime(g: Graph) -> bool:
    """No nontrivial modules (vacuously true below four vertices)."""
    full = (1 << g.n) - 1
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if min_module(g.adj_bits, 1 << u | 1 << v, full) != full:
                return False
    return True


def _prime_children(g: Graph, span: int) -> list[int]:
    """The maximal proper modules of g[span], by smallest vertex, when
    g[span] and its complement are connected (Gallai's third case).

    Refining span - {v}, v = min(span), by neighborhoods until every part
    is a module gives the maximal modules avoiding v: the other children
    and a split of M_v - {v}, M_v the child through v. M_v is the union
    of the proper modules through v of the quotient on {v} and the parts.
    """
    low = span & -span
    rest = span ^ low
    near = g.adj_bits(low.bit_length() - 1)
    parts = [p for p in (rest & near, rest & ~near) if p]
    pivots = rest
    while pivots:
        bit = pivots & -pivots
        pivots ^= bit
        near = g.adj_bits(bit.bit_length() - 1)
        refined = []
        for p in parts:
            inside = p & near
            if inside and inside != p and not p & bit:
                refined += (inside, p ^ inside)
                pivots |= p
            else:
                refined.append(p)
        parts = refined
    parts.sort(key=lambda p: p & -p)
    # v and then the parts by smallest vertex: their reps ascend, so
    # quotient vertex i stands for the i-th of them
    q = g.induced((m & -m).bit_length() - 1 for m in [low, *parts])[0].adj_masks
    whole = (1 << len(q)) - 1
    closed = 1
    for i in range(1, len(q)):
        m = min_module(q.__getitem__, 1 | 1 << i, whole)
        if m != whole:
            closed |= m
    merged = low | sum(p for i, p in enumerate(parts, 1) if closed >> i & 1)  # disjoint
    return [merged] + [p for i, p in enumerate(parts, 1) if not closed >> i & 1]


# -- the tree ----------------------------------------------------------------


def md_tree(g: Graph) -> MDTree:
    if g.n < 1:
        raise ValueError("modular decomposition needs at least one vertex")
    full = (1 << g.n) - 1
    co = [full ^ g.adj_bits(v) ^ 1 << v for v in range(g.n)]
    built: dict[int, MDTree] = {}
    order: list[tuple[int, type, list[int]]] = []  # pre-order (span, kind, child spans)
    stack = [full]
    while stack:
        span = stack.pop()
        if span & (span - 1) == 0:
            built[span] = MDLeaf(span.bit_length() - 1)
            continue
        kind, parts = MDParallel, component_masks(g.adj_bits, span)
        if len(parts) == 1:
            kind, parts = MDSeries, component_masks(co.__getitem__, span)
        if len(parts) == 1:
            kind, parts = MDPrime, _prime_children(g, span)
        order.append((span, kind, parts))
        stack.extend(parts)
    for span, kind, parts in reversed(order):
        children = tuple(built.pop(p) for p in parts)
        if kind is MDPrime:
            reps = tuple((p & -p).bit_length() - 1 for p in parts)  # ascending
            built[span] = MDPrime(children, set_of(span), g.induced(reps)[0], reps)
        else:
            built[span] = kind(children, set_of(span))
    return built[full]


def validate_md_tree(g: Graph, t: MDTree) -> None:
    """Raise ValueError unless t satisfies the decomposition invariants."""
    if t.span != frozenset(range(g.n)):
        raise ValueError("root span must be the whole vertex set")
    full = (1 << g.n) - 1
    co = [full ^ g.adj_bits(v) ^ 1 << v for v in range(g.n)]
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, MDLeaf):
            continue
        if len(node.children) < 2:
            raise ValueError("internal nodes need at least two children")
        span = bits_of(node.span)
        masks = [bits_of(c.span) for c in node.children]
        total = 0
        for m in masks:
            if m & total:
                raise ValueError("child spans must be disjoint")
            total |= m
        if total != span:
            raise ValueError("child spans must partition the parent span")
        if isinstance(node, MDParallel):
            if any(reach(g.adj_bits, m & -m, span) != m for m in masks):
                raise ValueError("Parallel children must be the components")
        elif isinstance(node, MDSeries):
            if any(reach(co.__getitem__, m & -m, span) != m for m in masks):
                raise ValueError("Series children must be the co-components")
        else:
            for m in masks:
                if any(g.adj_bits(x) & m not in (0, m) for x in iter_bits(span & ~m)):
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
        stack.extend(node.children)


_KINDS = {MDParallel: "parallel", MDSeries: "series", MDPrime: "prime"}


def md_tree_to_json(t: MDTree) -> dict:
    root: dict = {}
    stack = [(t, root)]
    while stack:
        node, out = stack.pop()
        if isinstance(node, MDLeaf):
            out.update(kind="vertex", vertex=node.vertex)
            continue
        out["kind"] = _KINDS[type(node)]
        out["span"] = sorted(node.span)
        if isinstance(node, MDPrime):
            out["quotient_edges"] = sorted(map(list, node.quotient.edges))
            out["representatives"] = list(node.reps)
        out["children"] = [{} for _ in node.children]
        stack.extend(zip(node.children, out["children"]))
    return root


# -- weighted chromatic composition ------------------------------------------------

PrimeSolver = Callable[
    [Graph, dict[int, int], tuple[int, ...]], tuple[int, MultiColoring]
]


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

    prime_solver receives the quotient, its weights and the host vertex
    standing for each quotient vertex (the node's reps). It must be
    exact on the quotients it receives; an invalid quotient coloring is
    detected and reported. The composed coloring is proper whenever the
    quotient colorings are; the solver validates it once on g.
    """
    if g.n < 1:
        raise ValueError("weighted coloring needs at least one vertex")
    weights = normalize_weights(g, w)
    if tree is None:
        tree = md_tree(g)

    # pre-order taking children right to left; reversed, it is the
    # left-to-right post-order, so prime_solver sees quotients in child order
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
                cmap.update(
                    {v: frozenset(c + k for c in cs) for v, cs in child_map.items()}
                )
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
                cmap.update(
                    {v: frozenset(rename[c] for c in cs) for v, cs in child_map.items()}
                )
        solved[id(node)] = k, cmap

    k, cmap = solved[id(tree)]
    return k, MultiColoring(tuple(cmap[v] for v in range(g.n)), k)
