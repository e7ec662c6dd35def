"""Clique-minimal-separator decomposition: the atoms of a graph in
gluing order from one MCS-M pass, their validator, and composition of
chromatic numbers over them.

MCS-M gives a minimal triangulation H of the input and the generators
of H's minimal separators: the vertices whose label, when numbered, is
not larger than the label of the vertex numbered just before. Every
clique minimal separator of the input is a minimal separator of H, the
set S of later-numbered H-neighbours of some generator x. Walking the
vertices by increasing number, each generator whose S is a clique of
the input splits off S plus the component of (remaining vertices - S)
that holds x as one atom; the vertices left at the end form the last
atom (Berry, Pogorelcnik & Simonet, "An introduction to clique minimal
separator decomposition", Algorithms 2010; Tarjan, "Decomposition by
clique separators", 1985). The pass keeps the unnumbered vertices in
buckets by label and finds the labels that grow by one sweep up the
label levels: O(n) bitmask ORs per numbered vertex, with no heap and
no scan for the next vertex.

The atoms are the C-blocks: maximal connected vertex sets without a
clique separator. They come out as a flat tuple in gluing order, each
with the separator it shares with the union of the atoms before it: a
clique, empty for the first atom and at each new component. Atoms are
pairs of vertex bitmasks of the input graph. The composition reads
each atom's rows straight off the input's adjacency masks and hands
the leaf solver that relabelled subgraph with the host ids it stands
for, as modular.chi_w hands its prime solver a quotient.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .coloring import MultiColoring, validate_coloring
from .graph import Graph, induced_rows, is_clique, iter_bits, reach


@dataclass(frozen=True)
class Atom:
    """A C-block and the clique it shares with the earlier atoms, both as
    bitmasks of host vertices."""

    block: int
    separator: int


Atoms = tuple[Atom, ...]


def tree_leaves(atoms: Atoms) -> list[Atom]:
    """The C-blocks of a decomposition, in gluing order."""
    return list(atoms)


def tree_to_json(atoms: Atoms) -> dict:
    return {
        "atoms": [
            {"block": list(iter_bits(a.block)), "separator": list(iter_bits(a.separator))}
            for a in atoms
        ]
    }


# -- decomposition ----------------------------------------------------------------


def _mcs_m(g: Graph, span: int) -> list[tuple[int, int]]:
    """Maximum cardinality search for a minimal triangulation H of g[span].

    Returns the generators of H's minimal separators in numbering order,
    each with the bitmask of its H-neighbours numbered before it.

    The next vertex v is the lowest bit of the heaviest bucket, so ties
    go to the smallest id. An unnumbered u of weight w gains weight iff
    a path from v reaches it through unnumbered vertices lighter than
    w. A sweep up the weight levels grows the set reached through
    lighter levels, OR-ing each reached vertex's adjacency mask once;
    a vertex of weight w gains iff it is adjacent to v or to that set.
    """
    adj = g.adj_masks
    buckets = [span] if span else []  # [w]: unnumbered vertices of weight w
    earlier = [0] * g.n  # H-neighbours numbered so far
    generators = []
    previous = -1
    while buckets:
        top = buckets[-1]
        low_v = top & -top
        v = low_v.bit_length() - 1
        buckets[-1] ^= low_v
        if len(buckets) - 1 <= previous:
            generators.append((v, earlier[v]))
        previous = len(buckets) - 1
        reach_nbrs = adj[v]
        reached = lighter = carry = 0
        for w, level in enumerate(buckets):
            lighter |= level
            gain = level & reach_nbrs
            buckets[w] = level & ~gain | carry
            carry = frontier = gain
            while gain:
                low = gain & -gain
                gain ^= low
                earlier[low.bit_length() - 1] |= low_v
            while frontier:
                reached |= frontier
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    reach_nbrs |= adj[low.bit_length() - 1]
                frontier = reach_nbrs & lighter & ~reached
        if carry:
            buckets.append(carry)
        while buckets and not buckets[-1]:
            buckets.pop()
    return generators


def build_tree(g: Graph) -> Atoms:
    """The atoms of g in gluing order, from one MCS-M pass.

    Deterministic: MCS-M breaks ties by the smallest vertex id.
    """
    adj = g.adj_masks
    rest = (1 << g.n) - 1
    atoms = []
    for x, sep in reversed(_mcs_m(g, rest)):
        todo = sep
        while todo:
            low = todo & -todo
            todo ^= low
            if adj[low.bit_length() - 1] & sep != sep ^ low:
                break
        else:  # sep is a clique
            comp = reach(adj, 1 << x, rest & ~sep)
            atoms.append(Atom(sep | comp, sep))
            rest &= ~comp
    if rest:
        atoms.append(Atom(rest, 0))
    return tuple(reversed(atoms))


def validate_tree(g: Graph, atoms: Atoms) -> None:
    """Raise ValueError unless atoms glue along cliques into g, in order,
    and no atom has a clique separator."""
    seen = 0
    for atom in atoms:
        block, sep = atom.block, atom.separator
        shown = list(iter_bits(sep))
        if block & seen != sep:
            raise ValueError(
                f"atom {list(iter_bits(block))} must meet the earlier atoms exactly "
                f"in its separator {shown}"
            )
        if not is_clique(g, iter_bits(sep)):
            raise ValueError(f"separator {shown} is not a clique")
        for v in iter_bits(block & ~sep):
            if g.adj_bits(v) & seen & ~sep:
                raise ValueError(f"vertex {v} has an edge across the separator {shown}")
        sub, _ = g.induced(iter_bits(block))
        if len(build_tree(sub)) != 1:
            raise ValueError(f"atom {list(iter_bits(block))} has a clique separator")
        seen |= block
    if seen != (1 << g.n) - 1:
        raise ValueError("atoms do not cover the vertex set")


# -- chromatic composition ----------------------------------------------------------

LeafSolver = Callable[[Graph, tuple[int, ...]], tuple[int, MultiColoring]]


def chi_compose(g: Graph, atoms: Atoms, leaf_chi: LeafSolver) -> tuple[int, MultiColoring]:
    """Compose per-atom chromatic numbers/colorings into one for g.

    leaf_chi(sub, ids) is called once per atom, in atom order, on the
    subgraph sub that the atom's block induces, read off the host's
    adjacency masks; local vertex i of sub is host vertex ids[i], the
    block's i-th lowest vertex. chi(g) is the max over the atoms. Each
    atom's colors are permuted to match the colors already on its
    separator clique, and its other colors go to the ones the separator
    does not use. Each atom's coloring is validated; the solver
    validates the composed one on g.
    """
    adj = g.adj_masks
    k = 0
    color = [0] * g.n  # host vertex -> composed color
    for atom in atoms:
        block = todo = atom.block
        ids = []
        while todo:
            low = todo & -todo
            todo ^= low
            ids.append(low.bit_length() - 1)
        sub = Graph._from_masks(induced_rows(adj, ids))
        k_atom, mc = leaf_chi(sub, tuple(ids))
        try:
            validate_coloring(sub, mc)
        except ValueError as exc:
            raise RuntimeError(f"leaf solver returned an invalid coloring: {exc}") from exc
        if mc.k > k_atom:
            raise RuntimeError("leaf solver used more colors than it reported")
        k = max(k, k_atom)
        local = [c for (c,) in mc.colors]
        perm = [0] * (k_atom + 1)  # atom color -> host color, 0 while unset
        todo = atom.separator
        while todo:
            low = todo & -todo
            todo ^= low
            perm[local[(block & (low - 1)).bit_count()]] = color[low.bit_length() - 1]
        taken = set(perm)
        free = (c for c in range(1, k + 1) if c not in taken)
        for c in range(1, k_atom + 1):
            if not perm[c]:
                perm[c] = next(free)
        for v, c in zip(ids, local):
            color[v] = perm[c]
    single = [frozenset((c,)) for c in range(k + 1)]
    return k, MultiColoring(tuple([single[c] for c in color]), max(color, default=0))
