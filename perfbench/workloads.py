"""Benchmark instances: class members with a chromatic number known by
construction, and near-members that must be rejected.

Instance structures come from fixed rules (the first k seeds of each
ladder rung, fixed blow-up factors), never from how long they take. The
run's --seed only draws the vertex orders of the members and the order
in which instances are visited, so the same seed gives the same inputs
while the measured work stays comparable across seeds.

Builders here return plain (n, edges) data. The only p5color call is the
membership check that turns a member into a reject.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Edges = frozenset  # of (u, v) pairs with u < v

COP5 = "p5-cop5"
KPE = "p5-kpe"

# prime {P5, co-P5}-free skeletons, as in p5color.pipeline
P4_EDGES = ((0, 1), (1, 2), (2, 3))
C5_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
BULL_EDGES = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 4))
SKELETONS = {"p4": (4, P4_EDGES), "c5": (5, C5_EDGES), "bull": (5, BULL_EDGES)}


@dataclass(frozen=True)
class Instance:
    """One solve request and the answer it must produce.

    chi is the expected (weighted) chromatic number, or None when the
    graph is a near-member that the solver must reject with a witness.
    rung is the instance's place on its workload's size ladder.
    """

    name: str
    rung: int
    cls: str
    p: int | None
    n: int
    edges: Edges
    weights: tuple[int, ...] | None
    chi: int | None

    @property
    def size(self) -> int:
        """Vertices, or total weight (the blow-up size) when weighted."""
        return sum(self.weights) if self.weights else self.n


# -- {P5, co-P5}-free members by modular substitution ------------------------------


def skeleton_chi_w(kind: str, c: list[int]) -> int:
    """Weighted chromatic number of a substitution skeleton.

    Parallel and series nodes take the max and the sum. P4 and the bull
    are perfect, so chi_w is the heaviest clique; the 5-cycle needs
    max(heaviest edge, ceil(W / 2)).
    """
    if kind == "parallel":
        return max(c)
    if kind == "series":
        return sum(c)
    if kind == "p4":
        return max(c[0] + c[1], c[1] + c[2], c[2] + c[3])
    if kind == "bull":
        return max(c[0] + c[1] + c[2], c[0] + c[3], c[1] + c[4])
    if kind == "c5":
        return max(max(c[i] + c[(i + 1) % 5] for i in range(5)), -(-sum(c) // 2))
    raise ValueError(f"unknown skeleton {kind!r}")


class _Builder:
    """Collects the edges of a substitution term and its chi_w."""

    def __init__(self, weights: list[int] | None = None):
        self.n = 0
        self.edges: set[tuple[int, int]] = set()
        self.weights = weights

    def leaf(self) -> tuple[list[int], int]:
        v = self.n
        self.n += 1
        return [v], (self.weights[v] if self.weights else 1)

    def join(self, kind: str, parts: list[tuple[list[int], int]]) -> tuple[list[int], int]:
        count = len(parts)
        if kind == "series":
            skel = [(i, j) for i in range(count) for j in range(i + 1, count)]
        elif kind == "parallel":
            skel = []
        else:
            skel = SKELETONS[kind][1]
        for i, j in skel:
            self.edges.update(
                (min(u, v), max(u, v)) for u in parts[i][0] for v in parts[j][0]
            )
        vertices = [v for part in parts for v in part[0]]
        return vertices, skeleton_chi_w(kind, [part[1] for part in parts])


def cop5_member(n: int, seed: int, weights: list[int] | None = None) -> tuple[int, Edges, int]:
    """The graph gen_p5_cop5(n, seed) returns, with its chi_w by construction.

    Follows the generator's random substitution draw for draw. Its
    membership re-check always passes on the first try, because P5 and
    co-P5 are prime and the skeletons are class members, so that check
    is skipped here.
    """
    rng = random.Random(seed)
    b = _Builder(weights)

    def build(size: int) -> tuple[list[int], int]:
        if size == 1:
            return b.leaf()
        ops = ["parallel", "series"]
        if size >= 4:
            ops.append("p4")
        if size >= 5:
            ops += ["c5", "bull"]
        op = rng.choice(ops)
        if op in ("parallel", "series"):
            count = rng.randint(2, min(size, 4))
        else:
            count = SKELETONS[op][0]
        cuts = sorted(rng.sample(range(1, size), count - 1))
        sizes = [hi - lo for lo, hi in zip([0] + cuts, cuts + [size])]
        return b.join(op, [build(s) for s in sizes])

    _, chi = build(n)
    return b.n, frozenset(b.edges), chi


def blowup(kind: str, k: int) -> tuple[int, Edges]:
    """Skeleton with every vertex replaced by a clique K_k."""
    b = _Builder()
    cliques = []
    for _ in range(SKELETONS[kind][0]):
        members = [b.leaf()[0][0] for _ in range(k)]
        b.edges.update((u, v) for i, u in enumerate(members) for v in members[i + 1 :])
        cliques.append((members, k))
    b.join(kind, cliques)
    return b.n, frozenset(b.edges)


# closed forms for clique blow-ups and uniform weights
BLOWUP_CHI = {"c5": lambda k: -(-5 * k // 2), "bull": lambda k: 3 * k, "p4": lambda k: 2 * k}


# -- {P5, Kp-e}-free members with many clique separators ---------------------------


def star(leaves: int) -> tuple[int, Edges, int]:
    """K_{1,leaves}; chromatic number 2."""
    return leaves + 1, frozenset((0, v) for v in range(1, leaves + 1)), 2


def co_cycle(length: int) -> tuple[int, Edges, int, int]:
    """Complement of an odd cycle: O3-free and P5-free.

    Returns (n, edges, chi, omega) with chi = (length + 1) / 2 and
    omega = (length - 1) / 2.
    """
    near = {(i, (i + 1) % length) for i in range(length)}
    edges = frozenset(
        (u, v)
        for u in range(length)
        for v in range(u + 1, length)
        if (u, v) not in near and (v, u) not in near
    )
    return length, edges, (length + 1) // 2, (length - 1) // 2


def co_andrasfai(k: int) -> tuple[int, Edges, int, int]:
    """Complement of the Andrasfai graph And(k), circulant on 3k - 1
    vertices with distances congruent to 1 mod 3.

    And(k) is triangle-free with a Hamiltonian cycle and independence
    number k, so the complement is O3-free and P5-free with
    chi = ceil((3k - 1) / 2) and omega = k.
    """
    n = 3 * k - 1
    edges = frozenset((u, v) for u in range(n) for v in range(u + 1, n) if (v - u) % 3 != 1)
    return n, edges, -(-n // 2), k


def k33() -> tuple[int, Edges, int, int]:
    """K_{3,3}: has independent triples, so its cone takes exact-fallback."""
    return 6, frozenset((u, v) for u in range(3) for v in range(3, 6)), 2, 2


def cone(blocks: list[tuple[int, Edges, int, int]]) -> tuple[int, Edges, int, int]:
    """Apex vertex 0 joined to a disjoint union of blocks.

    The apex is a clique separator between every pair of blocks. An
    induced P5 has no vertex of degree 4, so it avoids the apex, and a
    K_p - e through the apex needs a K_{p-1} - e inside one block, which
    cannot happen when p >= omega + 3. Returns (n, edges, chi, p).
    """
    edges: set[tuple[int, int]] = set()
    offset = 1
    for bn, bedges, _, _ in blocks:
        edges.update((offset + u, offset + v) for u, v in bedges)
        edges.update((0, offset + v) for v in range(bn))
        offset += bn
    chi = 1 + max(b[2] for b in blocks)
    p = max(b[3] for b in blocks) + 3
    return offset, frozenset(edges), chi, p


# -- near-members --------------------------------------------------------------------


def flip_to_reject(inst: Instance, seed: int, find_class_violation, graph_type) -> Instance:
    """inst with one vertex pair flipped so that it leaves its class.

    Pairs are tried in a seeded order until find_class_violation returns
    a witness; the membership checks run here, before any timing.
    """
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(inst.n) for v in range(u + 1, inst.n)]
    rng.shuffle(pairs)
    for pair in pairs:
        edges = inst.edges ^ {pair}
        if find_class_violation(graph_type(inst.n, edges), inst.cls, inst.p) is not None:
            return Instance(
                f"{inst.name}^{pair[0]}-{pair[1]}",
                inst.rung,
                inst.cls,
                inst.p,
                inst.n,
                frozenset(edges),
                None,
                None,
            )
    raise ValueError(f"no single pair flip takes {inst.name} out of its class")


def relabellings(inst: Instance, rng: random.Random, orders: int) -> list[Instance]:
    """inst under `orders` vertex orders; chi is unchanged.

    One random permutation is drawn, and order k shifts it cyclically by
    k * n / orders positions. So every vertex lands at evenly spread
    places in the orders of one instance: stratified rather than
    independent draws, which steadies the average of times that depend
    on where a few vertices fall in the order. Names get a #k tag.
    """
    n = inst.n
    base = list(range(n))
    rng.shuffle(base)
    out = []
    for k in range(orders):
        perm = [(p + k * n // orders) % n for p in base]
        edges = frozenset((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in inst.edges)
        weights = None
        if inst.weights is not None:
            moved = [0] * n
            for v, wv in enumerate(inst.weights):
                moved[perm[v]] = wv
            weights = tuple(moved)
        name = f"{inst.name}#{k}" if orders > 1 else inst.name
        out.append(Instance(name, inst.rung, inst.cls, inst.p, n, edges, weights, inst.chi))
    return out


# -- workloads -----------------------------------------------------------------------

LADDER_N = (20, 28, 40, 57, 80)  # ratio ~sqrt(2); n = 80 needs up to ~1.3 s per solve
LADDER_SEEDS = range(6)


def cop5_ladder() -> list[Instance]:
    out = []
    for n in LADDER_N:
        for seed in LADDER_SEEDS:
            nn, edges, chi = cop5_member(n, seed)
            out.append(Instance(f"cop5-n{n}-s{seed}", n, COP5, None, nn, edges, None, chi))
    return out


# Every solve of a workload must finish, so each k ladder stops at the
# last rung the current solver finishes. One rung further, C5[K5] and the
# 5-cycle with weight 5 run for minutes, and bull[K13] and P4[K17] exceed
# the oracle's total-weight cutoff. The README lists these instances as
# acceptance tests for a faster oracle.
BLOWUP_K = {"c5": (1, 2, 3, 4), "bull": (1, 2, 4, 8, 12), "p4": (2, 4, 8, 16)}
# weighted gen_p5_cop5 members: n -> seeds. At n = 40, seed 0 runs past
# the per-solve deadline, so that rung takes seeds 1-3.
WEIGHTED_SEEDS = {20: range(4), 40: range(1, 4)}
WEIGHT_MAX = 3


def size_class(size: int) -> int:
    """The smallest power of two >= size. The oracle's default cutoff,
    total weight 64, is a class boundary."""
    return 1 << (size - 1).bit_length()


def cop5_blowup() -> list[Instance]:
    """Rungs are blow-up size classes; the top one holds the weighted
    members of n = 40."""
    out = []

    def add(name, n, edges, weights, chi):
        size = sum(weights) if weights else n
        out.append(Instance(name, size_class(size), COP5, None, n, edges, weights, chi))

    for kind, ks in BLOWUP_K.items():
        for k in ks:
            n, edges = blowup(kind, k)
            chi = BLOWUP_CHI[kind](k)
            add(f"{kind}[K{k}]", n, edges, None, chi)
            if kind != "p4":
                sn, sedges = SKELETONS[kind]
                add(f"{kind}*w{k}", sn, frozenset(sedges), (k,) * sn, chi)
    for n, seeds in WEIGHTED_SEEDS.items():
        for seed in seeds:
            wrng = random.Random(seed)
            weights = [wrng.randint(1, WEIGHT_MAX) for _ in range(n)]
            nn, edges, chi = cop5_member(n, seed, weights)
            add(f"cop5-n{n}-s{seed}*w", nn, edges, tuple(weights), chi)
    return out


# one apex plus a multiple of 24 block vertices; at n = 121 the star needs
# about 0.4 s per solve
KPE_N = (25, 49, 97, 121)
STAR_P = 4


def kpe_separators() -> list[Instance]:
    out = []
    for n in KPE_N:
        reps = (n - 1) // 24
        n_star, e_star, chi_star = star(n - 1)
        out.append(Instance(f"star-K1,{n - 1}", n, KPE, STAR_P, n_star, e_star, None, chi_star))
        shapes = {
            "co-odd-cycles": [co_cycle(11), co_cycle(13)] * reps,
            "co-andrasfai3": [co_andrasfai(3)] * (3 * reps),
            "k33": [k33()] * (4 * reps),
        }
        for label, blocks in shapes.items():
            cn, cedges, chi, p = cone(blocks)
            out.append(Instance(f"cone-{label}-n{cn}", n, KPE, p, cn, cedges, None, chi))
    return out


REJECT_N = (20, 40, 80)
REJECT_SEEDS = range(12)
REJECT_ORDERS = 8


def rejects(find_class_violation, graph_type) -> list[Instance]:
    """{P5, co-P5}-free ladder members and kpe-separators cones, each with
    one pair flipped, under REJECT_ORDERS fixed vertex orders each.

    A cone joins the rung of the members of about its size. Stars are
    left out: no single flip takes a star out of {P5, K4-e}-free.

    The orders are fixed rather than drawn from the run's seed: time to
    the first witness changes 10- to 100-fold with the order, and with
    seeded orders the workload's means moved 6-17 % from seed to seed.
    """
    bases = []
    for n in REJECT_N:
        for seed in REJECT_SEEDS:
            nn, edges, _ = cop5_member(n, seed)
            bases.append(Instance(f"cop5-n{n}-s{seed}", n, COP5, None, nn, edges, None, None))
    rung_of = dict(zip(KPE_N, REJECT_N))
    bases += [
        Instance(i.name, rung_of[i.rung], i.cls, i.p, i.n, i.edges, None, None)
        for i in kpe_separators()
        if i.rung in rung_of and not i.name.startswith("star")
    ]
    return [
        moved
        for i, base in enumerate(bases)
        for moved in relabellings(
            flip_to_reject(base, i, find_class_violation, graph_type), random.Random(i), REJECT_ORDERS
        )
    ]
