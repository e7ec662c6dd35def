"""Modular decomposition and the weighted chromatic composition over it.

The tree has Parallel nodes (disconnected subgraphs), Series nodes
(disconnected complements) and Prime nodes carrying the quotient graph
on one representative per maximal proper module. A prime node's
children come from partition refinement by splitters, which leaves
only the child containing the smallest vertex to be closed, on a small
quotient.

Building the tree takes two steps. md_walk splits the spans top-down,
lazily, lowest child first, and yields each split as plain bitmasks
and the prime quotient; md_assemble turns a finished walk into node
objects bottom-up. md_tree runs both. Membership runs the walk alone
and searches each quotient as it comes, skipping the spans that can
hold no smaller witness than one found, so a graph it rejects builds
no nodes, and only a member's walk is assembled, on demand.

The tree is refined on the twin core alone (twin_core, the twin rule
membership uses too). The vertices it sets aside come back as twin
class nodes and root leaves, under the normal form's one rule that a
series or parallel node splices in a child of its own kind; md_tree
says why the tree is the one of the whole graph.

Every node is a vertex bitmask of the input graph, and carries it as
its mask: components and co-components come from searches over the
adjacency masks, which build no complement rows, and quotients are
read off the rows of the representatives, so no node builds a
relabelled subgraph or a vertex set. The composition computes every
node's chromatic number bottom-up and then hands each child a palette
top-down. Every tree walk uses an explicit stack, so trees as deep
as the graph is large stay within Python's recursion limit, and the
JSON form is flat too: one list of nodes that name their children by
position, of size linear in the tree's, however deep it is.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from .coloring import MultiColoring, Weights, normalize_weights, validate_coloring
from .graph import Graph, bits_of, co_component_masks, component_masks, induced_rows


@dataclass(frozen=True)
class MDLeaf:
    vertex: int

    @property
    def mask(self) -> int:
        return 1 << self.vertex


@dataclass(frozen=True)
class MDParallel:
    children: tuple[MDTree, ...]
    mask: int  # the vertices below, as a bitmask


@dataclass(frozen=True)
class MDSeries:
    children: tuple[MDTree, ...]
    mask: int


@dataclass(frozen=True)
class MDPrime:
    children: tuple[MDTree, ...]
    mask: int
    quotient: Graph  # quotient vertex i represents children[i]
    reps: tuple[int, ...]  # host vertex standing for children[i]


MDTree = MDLeaf | MDParallel | MDSeries | MDPrime
Twins = tuple[int, dict[int, int]]  # a twin pass, as twin_core returns it


# -- modules ----------------------------------------------------------------


def min_module(adj: Sequence[int], seed: int, within: int) -> int:
    """Smallest module containing the seed of the graph on within whose
    neighborhood bitmasks are adj[v]: add the vertices that see some but
    not all of it, those in the OR of its rows and not in their AND,
    until none is left. Seed, within and the result are bitmasks."""
    return _closure(adj, seed, within, 0)


def _closure(adj: Sequence[int], seed: int, within: int, whole_past: int) -> int:
    """min_module, which returns within as soon as the module reaches a
    vertex of whole_past, whose smallest module with a vertex of the seed
    is known to be all of within."""
    module, add = 0, seed
    some, every = 0, within
    while add:
        if add & whole_past:
            return within
        module |= add
        while add:
            low = add & -add
            row = adj[low.bit_length() - 1]
            some |= row
            every &= row
            add ^= low
        add = some & ~every & within & ~module
    return module


def is_prime(g: Graph) -> bool:
    """No nontrivial modules: true on at most two vertices, where every
    module is trivial, and false on every graph with three, where some
    vertex is adjacent to both others or to neither."""
    full = (1 << g.n) - 1
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if min_module(g.adj_masks, 1 << u | 1 << v, full) != full:
                return False
    return True


def _prime_children(adj: Sequence[int], span: int) -> tuple[list[int], list[int]]:
    """The maximal proper modules of the graph on span, by smallest
    vertex, when it and its complement are connected (Gallai's third
    case), and the rows of the quotient on their smallest vertices.

    Refining span - {v}, v = min(span), until every part is a module
    gives the maximal modules avoiding v: the other children and a split
    of M_v - {v}, M_v the child through v. A part whose rows' OR and AND
    differ outside it is cut by the lowest such splitter. M_v is the
    union of the proper modules through v of the quotient on {v} and the
    parts. A closure from v and a part stops at the first part it meets
    whose closure with v was the whole span: a module holding both holds
    that closure.
    """
    low = span & -span
    rest = span ^ low
    near = adj[low.bit_length() - 1]
    todo = [p for p in (rest & near, rest & ~near) if p]
    parts = []
    while todo:
        part = todo.pop()
        if part & (part - 1) == 0:
            parts.append(part)
            continue
        some, every, left = 0, span, part
        while left:
            bit = left & -left
            row = adj[bit.bit_length() - 1]
            some |= row
            every &= row
            left ^= bit
        splitters = some & ~every & span & ~part
        if splitters:
            inside = part & adj[(splitters & -splitters).bit_length() - 1]
            todo += (inside, part ^ inside)
        else:
            parts.append(part)
    parts.sort(key=lambda p: p & -p)
    # v and then the parts by smallest vertex: their reps ascend, so
    # quotient vertex i stands for the i-th of them
    q = induced_rows(adj, [(m & -m).bit_length() - 1 for m in [low, *parts]])
    whole = (1 << len(q)) - 1
    closed, out = 1, 0  # quotient vertices inside M_v, and those known outside it
    for i in range(1, len(q)):
        if not closed >> i & 1:  # a merged part's module is inside closed already
            m = _closure(q, 1 | 1 << i, whole, out)
            if m != whole:
                closed |= m
            else:
                out |= 1 << i
    if closed == 1:
        return [low, *parts], q
    kept = [i for i in range(1, len(q)) if not closed >> i & 1]
    merged = low | sum(parts[i - 1] for i in range(1, len(q)) if closed >> i & 1)  # disjoint
    return [merged] + [parts[i - 1] for i in kept], induced_rows(q, [0, *kept])


# -- the tree ----------------------------------------------------------------


def twin_core(adj: Sequence[int], keep: int) -> Twins:
    """One twin pass over the vertex bitmask keep, for neighbourhood
    bitmasks adj: the core, the bitmask of the vertices it keeps, and
    each vertex it sets aside, in increasing order, mapped to the kept
    vertex it is a twin of, or to -1 when isolated or universal.

    A vertex is set aside when it has a smaller twin (the same open or
    the same closed neighbourhood inside keep), no neighbour in keep, or
    every other vertex of keep as a neighbour; the smallest vertex of a
    twin class is kept. No vertex's open neighbourhood equals another
    vertex's closed one, so one dict of both keys finds both kinds.
    """
    seen: dict[int, int] = {}  # a kept vertex's open and closed neighbourhoods -> it
    twin_of: dict[int, int] = {}
    core = 0
    for v, row in enumerate(adj):
        low = 1 << v
        if not keep & low:
            continue
        nbrs = row & keep
        closed = nbrs | low
        if not nbrs or closed == keep:
            twin_of[v] = -1
        elif nbrs in seen:
            twin_of[v] = seen[nbrs]
        elif closed in seen:
            twin_of[v] = seen[closed]
        else:
            seen[nbrs] = seen[closed] = v
            core |= low
    return core, twin_of


def md_tree(g: Graph, twins: Twins | None = None) -> MDTree:
    """The modular decomposition tree of g, each node's children ordered
    by smallest vertex: md_walk over the twin core (from twins, twin_core
    over all of g, if the caller has it), then md_assemble.

    Each kept vertex with twins stands for its twin class, a parallel
    node of open twins or a series node of closed ones; the isolated or
    universal vertices go beside the core's tree under a parallel or
    series root. A series or parallel node splices in every child of its
    own kind.

    The tree is the one refining every vertex gives: g is its core with
    each kept vertex substituted by its twin class, a module, set beside
    the isolated or joined to the universal vertices, so its tree is the
    core's with each such leaf replaced by its class's node, in the
    normal form where no node has a child of its own series or parallel
    kind. A kept vertex is the smallest of its class, so each node keeps
    its smallest vertex, its reps and its quotient.
    """
    if g.n < 1:
        raise ValueError("modular decomposition needs at least one vertex")
    twins = twins or twin_core(g.adj_masks, (1 << g.n) - 1)
    return md_assemble(g, twins, list(md_walk(g.adj_masks, twins[0])))


Split = tuple[int, type, list[int], Graph | None]  # a span, its kind, its children's spans, a prime quotient


def md_walk(adj: Sequence[int], core: int, expand: Callable[[int], bool] | None = None) -> Iterator[Split]:
    """The refinement of the vertex bitmask core under neighbourhood
    bitmasks adj, one span at a time in pre-order: each span of at least
    two vertices as (span, kind, its children's spans by smallest vertex,
    the quotient on their smallest vertices when the kind is MDPrime,
    else None). A span splits into its components, else its
    co-components, else the maximal proper modules of _prime_children.

    The walk is lazy and takes the children lowest vertex first. A span
    is split only when the walk reaches it, after every split yielded
    before it has been consumed, and it is skipped with all below it
    when expand(span) is false.
    """
    stack: list[tuple[int, type | None]] = [(core, None)] if core & (core - 1) else []
    while stack:
        span, above = stack.pop()
        if expand is not None and not expand(span):
            continue
        # a component is connected and a co-component co-connected
        quotient, kind = None, MDParallel
        parts = [span] if above is MDParallel else component_masks(adj, span)
        if len(parts) == 1:
            kind = MDSeries
            parts = [span] if above is MDSeries else co_component_masks(adj, span)
        if len(parts) == 1:
            kind = MDPrime
            parts, rows = _prime_children(adj, span)
            quotient = Graph._from_masks(rows)
        yield span, kind, parts, quotient
        stack += [(p, kind) for p in reversed(parts) if p & (p - 1)]


def md_assemble(g: Graph, twins: Twins, walk: Sequence[Split]) -> MDTree:
    """The tree md_tree(g, twins) returns, built from walk, the whole of
    md_walk over the core of twins: bottom-up, each span's node from its
    children's."""
    adj = g.adj_masks
    core, twin_of = twins
    hung: dict[int, list[int]] = {}  # a kept vertex's twins, or -1's isolated or universal vertices
    for v, twin in twin_of.items():
        hung.setdefault(twin, []).append(v)
    lone = hung.pop(-1, [])
    built: dict[int, MDTree] = {}  # nodes by core span: the internal ones, and each twin class under 1 << v
    for v, vs in hung.items():
        mask = bits_of(vs)
        kind = MDSeries if adj[v] & mask else MDParallel
        built[1 << v] = kind((MDLeaf(v), *map(MDLeaf, vs)), 1 << v | mask)

    for span, kind, parts, quotient in reversed(walk):
        kids, mask = [], span
        for p in parts:
            if p in built:
                kids.append(built.pop(p))
                mask |= kids[-1].mask
            else:
                kids.append(MDLeaf(p.bit_length() - 1))
        if kind is MDPrime:  # reps: the smallest vertices of the parts, which no twin undercuts
            reps = tuple([(p & -p).bit_length() - 1 for p in parts])
            built[span] = MDPrime(tuple(kids), mask, quotient, reps)
        else:
            built[span] = _join(kind, kids, mask)
    kids = [*map(MDLeaf, lone)]
    if core:  # the core's tree
        kids.append(built.pop(core) if core in built else MDLeaf(core.bit_length() - 1))
    if len(kids) == 1:
        return kids[0]
    kids.sort(key=_low)
    return _join(MDSeries if adj[lone[0]] else MDParallel, kids, (1 << g.n) - 1)


def _join(kind: type, kids: list[MDTree], mask: int) -> MDTree:
    """A series or parallel node over kids, in order, with each kid of
    its own kind spliced in (after which they are sorted again)."""
    if any(type(kid) is kind for kid in kids):
        kids = [c for kid in kids for c in (kid.children if type(kid) is kind else (kid,))]
        kids.sort(key=_low)
    return kind(tuple(kids), mask)


def _low(t: MDTree) -> int:
    """The smallest vertex of t, read without building a leaf's mask."""
    return t.vertex if type(t) is MDLeaf else (t.mask & -t.mask).bit_length() - 1


def validate_md_tree(g: Graph, t: MDTree) -> None:
    """Raise ValueError unless t satisfies the decomposition invariants."""
    full = (1 << g.n) - 1
    if t.mask != full:
        raise ValueError("root span must be the whole vertex set")
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, MDLeaf):
            continue
        if len(node.children) < 2:
            raise ValueError("internal nodes need at least two children")
        span = node.mask
        masks = [c.mask for c in node.children]
        total = 0
        for m in masks:
            if m & total:
                raise ValueError("child spans must be disjoint")
            total |= m
        if total != span:
            raise ValueError("child spans must partition the parent span")
        if isinstance(node, MDParallel):
            if set(component_masks(g.adj_masks, span)) != set(masks):
                raise ValueError("Parallel children must be the components")
        elif isinstance(node, MDSeries):
            if set(co_component_masks(g.adj_masks, span)) != set(masks):
                raise ValueError("Series children must be the co-components")
        else:
            if any(min_module(g.adj_masks, m, span) != m for m in masks):
                raise ValueError("Prime children must be modules of the parent subgraph")
            if node.quotient.n < 4:
                raise ValueError("Prime quotient needs at least four vertices")
            if not is_prime(node.quotient):
                raise ValueError("Prime quotient must be prime")
            if len(node.reps) != len(node.children):
                raise ValueError("one representative per child required")
            for rep, m in zip(node.reps, masks):
                if m & -m != 1 << rep:
                    raise ValueError("representative must be the child's smallest vertex")
            for i in range(len(node.reps)):
                for j in range(i + 1, len(node.reps)):
                    if node.quotient.adjacent(i, j) != g.adjacent(node.reps[i], node.reps[j]):
                        raise ValueError("quotient adjacency must mirror the representatives")
        stack.extend(node.children)


_KINDS = {MDParallel: "parallel", MDSeries: "series", MDPrime: "prime"}


def md_tree_to_json(t: MDTree | None) -> dict:
    """The tree as one flat list of nodes in pre-order, the root first,
    and no nodes for None, a graph without vertices. A leaf names its
    vertex; any other node its kind and its children's list positions,
    in the tree's child order, and a prime node also its quotient's
    edges, sorted, and its representatives."""
    nodes: list[dict] = []
    stack = [(t, [])] if t is not None else []  # (node, its parent's child positions)
    while stack:
        node, siblings = stack.pop()
        siblings.append(len(nodes))
        if type(node) is MDLeaf:
            nodes.append({"kind": "vertex", "vertex": node.vertex})
            continue
        out = {"kind": _KINDS[type(node)], "children": []}
        if type(node) is MDPrime:
            q = node.quotient.adj_masks  # rows read lowest vertex first give the edges sorted
            edges = [[u, v] for u, r in enumerate(q) for v in range(u + 1, len(q)) if r >> v & 1]
            out.update(quotient_edges=edges, representatives=list(node.reps))
        nodes.append(out)
        stack += [(c, out["children"]) for c in reversed(node.children)]
    return {"nodes": nodes}


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
    """Weighted chromatic number composed over the modular
    decomposition tree. One walk lists the nodes in pre-order, children
    right to left, with their parents' positions. Then every node's k
    is found bottom-up, so prime_solver sees the quotients in
    left-to-right post-order, and each node's palette (the host colors
    standing for its colors 1..k) top-down, last child first.

    Parallel children share the palette; Series children take disjoint
    segments of it; Prime nodes solve the quotient under the children's
    k and give each child its quotient color pool, read through the
    palette. A leaf takes the first w(v) colors of its palette.

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

    order, up, stack = [], [], [(tree, -1)]
    while stack:
        node, parent = stack.pop()
        if type(node) is not MDLeaf:
            stack += [(c, len(order)) for c in node.children]
        order.append(node)
        up.append(parent)
    # node i's children's k, then their palettes, by child; below[-1] is the root's
    below: list[list] = [[] for _ in range(len(order) + 1)]
    pools: dict[int, MultiColoring] = {}
    for i in reversed(range(len(order))):
        node = order[i]
        kind = type(node)
        if kind is MDLeaf:
            k = weights[node.vertex]
        elif kind is MDParallel:
            k = max(below[i])
        elif kind is MDSeries:
            k = sum(below[i])
        else:
            w_star = dict(enumerate(below[i]))
            k, pools[i] = prime_solver(node.quotient, w_star, node.reps)
            try:
                validate_coloring(node.quotient, pools[i], w_star)
            except ValueError as exc:
                raise RuntimeError(
                    f"prime solver returned an invalid quotient coloring: {exc}"
                ) from exc
        below[up[i]].append(k)

    top = below[-1][0]
    below[-1] = [range(1, top + 1)]
    colors: list[frozenset[int]] = [frozenset()] * g.n
    for i, node in enumerate(order):
        palette = below[up[i]].pop()
        kind = type(node)
        if kind is MDLeaf:
            colors[node.vertex] = frozenset(palette[: weights[node.vertex]])
        elif kind is MDParallel:
            below[i] = [palette] * len(node.children)
        elif kind is MDSeries:
            start, ks = 0, below[i]
            for j, k in enumerate(ks):
                ks[j], start = palette[start : start + k], start + k
        else:  # quotient vertex c stands for child c
            below[i] = [[palette[x - 1] for x in sorted(cs)] for cs in pools[i].colors]
    return top, MultiColoring(tuple(colors), top)
