"""End-to-end chromatic solvers for the two graph classes, the
verifiers of the structural lemmas and of the solvers against the exact
oracles, and class-instance generators.

Both solvers check class membership up front and reject out-of-class
inputs with a forbidden-structure witness. Every solve carries an audit
trail of which solver handled each block or prime quotient:

  o3-matching    complement-matching reduction on an O3-free C-block
                 or on a unit-weight prime quotient
  prime-C5       closed-form weighted solve of a 5-cycle prime quotient
  perfect-exact  weighted two-pair contraction of any other prime
                 quotient down to a clique, whose weight is chi_w; it
                 checks the quotient as it goes, as one that is not
                 weakly chordal ends in no clique and raises
                 PreconditionError. Also a C-block with no prime node:
                 a cograph, so perfect
  exact-fallback exact weighted solve standing in for the bounded-clique
                 fixed-k-colorability argument: the chain's last link

Both solvers compose over modular.chi_w with one prime-quotient chain,
_prime_chain: prime.chi_w_prime, whose cost depends on the quotient,
not on its weights (see prime), then chi_o3_free on unit weights, then
chi_w_exact. A {P5, co-P5} solve takes one twin pass of its graph and
hands it to both membership and the modular decomposition.
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Callable
from contextlib import suppress
from dataclasses import dataclass, field
from typing import NamedTuple

from . import cliquesep, modular
from .coloring import MultiColoring, Weights, validate_coloring
from .detect import (
    Witness,
    find_class_violation,
    find_independent_triple,
    find_induced_c5,
    find_induced_p5,
    p5_cop5_violation,
)
# unused here; the benchmark tracer (perfbench/spans.py) swaps it by name
from .detect import is_berge_small  # noqa: F401
from .errors import CutoffExceeded, NotInClass, NotO3Free, PreconditionError
from .graph import Graph, is_connected, iter_bits, substitute
from .matching import chi_o3_free, max_matching
from .oracle import chi_exact, chi_w_exact, clique_number_exact, max_matching_bruteforce
from .prime import ROUTE_PERFECT_EXACT, chi_w_prime, is_c5

ROUTE_O3_MATCHING = "o3-matching"
ROUTE_EXACT_FALLBACK = "exact-fallback"


class RouteRecord(NamedTuple):
    route: str
    vertices: tuple[int, ...]  # host ids of the block / quotient representatives
    chi: int

    def to_json(self) -> dict:
        return {
            "route": self.route,
            "vertices": list(self.vertices),
            "size": len(self.vertices),
            "chi": self.chi,
        }


@dataclass
class SolveReport:
    class_name: str
    p: int | None
    n: int
    chi: int
    coloring: MultiColoring
    decomposition: dict
    routes: list[RouteRecord]
    ms: float

    def to_json(self, include_timings: bool = False) -> dict:
        out = {
            "class": self.class_name,
            "p": self.p,
            "n": self.n,
            "chi": self.chi,
            "coloring": self.coloring.to_json(),
            "routes": [r.to_json() for r in self.routes],
            "tree": self.decomposition,
        }
        if include_timings:
            out["ms"] = self.ms
        return out


def _prime_chain(quot: Graph, w: dict[int, int]) -> tuple[str, int, MultiColoring]:
    """The route of a prime quotient, its chi_w and a multicoloring that
    meets it, from the first link of the chain that takes it."""
    try:
        return chi_w_prime(quot, w)
    except PreconditionError:  # contraction ended in no clique
        pass
    if all(x == 1 for x in w.values()):
        with suppress(NotO3Free):
            return ROUTE_O3_MATCHING, *chi_o3_free(quot)
    return ROUTE_EXACT_FALLBACK, *chi_w_exact(quot, w)


def _recording_prime_solver(routes: list[RouteRecord]) -> modular.PrimeSolver:
    """modular.chi_w's prime_solver: _prime_chain, each route appended to routes."""

    def prime_solver(quot: Graph, w_star: dict[int, int], reps: tuple[int, ...]):
        route, k, mc = _prime_chain(quot, w_star)
        routes.append(RouteRecord(route, reps, k))
        return k, mc

    return prime_solver


def solve_p5_cop5(g: Graph, w: Weights | None = None) -> SolveReport:
    """Weighted chromatic number of a {P5, co-P5}-free graph.

    Composes over the modular decomposition tree; prime quotients are
    either the 5-cycle (closed form) or perfect (two-pair contraction),
    and prime.chi_w_prime picks the route. Unit weights by default. One
    twin pass of g serves both membership and the tree.
    """
    started = time.perf_counter()
    twins = modular.twin_core(g.adj_masks, (1 << g.n) - 1)
    violation, tree = p5_cop5_violation(g, twins)
    if violation is not None:
        raise NotInClass("{P5, co-P5}-free", violation)
    routes: list[RouteRecord] = []
    chi, mc = 0, MultiColoring((), 0)  # a graph without vertices has no tree
    if g.n:
        tree = tree or modular.md_tree(g, twins)
        chi, mc = modular.chi_w(g, w, _recording_prime_solver(routes), tree=tree)
    validate_coloring(g, mc, w)
    return SolveReport(
        class_name="p5-cop5",
        p=None,
        n=g.n,
        chi=chi,
        coloring=mc,
        decomposition=modular.md_tree_to_json(tree),
        routes=routes,
        ms=(time.perf_counter() - started) * 1000.0,
    )


def solve_p5_kpe(g: Graph, p: int) -> SolveReport:
    """Chromatic number of a {P5, Kp-e}-free graph.

    Decomposes by clique separators; every O3-free C-block goes through
    the complement-matching reduction and the rest compose over their
    modular decomposition with the prime-quotient chain.
    """
    started = time.perf_counter()
    violation = find_class_violation(g, "p5-kpe", p)
    if violation is not None:
        raise NotInClass(f"{{P5, K{p}-e}}-free", violation)
    atoms = cliquesep.build_tree(g)
    routes: list[RouteRecord] = []
    # a block's chi, coloring and routes, with routes in block-local ids
    solved: dict[Graph, tuple[int, MultiColoring, list[RouteRecord]]] = {}

    def leaf_chi(sub: Graph, block: tuple[int, ...]) -> tuple[int, MultiColoring]:
        hit = solved.get(sub)
        if hit is None:
            local: list[RouteRecord] = []
            try:
                k, mc = chi_o3_free(sub)
                route = ROUTE_O3_MATCHING
            except NotO3Free:
                try:
                    k, mc = modular.chi_w(sub, None, _recording_prime_solver(local))
                except CutoffExceeded as exc:
                    raise CutoffExceeded(
                        f"C-block {list(block)} on the exact-fallback route: {exc}"
                    ) from exc
                route = ROUTE_PERFECT_EXACT  # stands if no prime quotient records one
            hit = solved[sub] = k, mc, local or [RouteRecord(route, tuple(range(sub.n)), k)]
        k, mc, local = hit
        for r in local:
            host = tuple(map(block.__getitem__, r.vertices))
            routes.append(RouteRecord(r.route, host, r.chi))
        return k, mc

    chi, mc = cliquesep.chi_compose(g, atoms, leaf_chi)
    validate_coloring(g, mc)
    return SolveReport(
        class_name="p5-kpe",
        p=p,
        n=g.n,
        chi=chi,
        coloring=mc,
        decomposition=cliquesep.tree_to_json(atoms),
        routes=routes,
        ms=(time.perf_counter() - started) * 1000.0,
    )


# -- instance generators ---------------------------------------------------------


class GenResult(NamedTuple):
    graph: Graph
    attempts: int


def _gnp(n: int, density: float, rng: random.Random) -> Graph:
    return Graph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < density
        ],
    )


def _random_split(n: int, parts: int, rng: random.Random) -> list[int]:
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


# prime {P5, co-P5}-free skeletons for modular substitution
_P4 = Graph.path(4)
_C5 = Graph.cycle(5)
_BULL = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])


def gen_p5_cop5(n: int, seed: int) -> Graph:
    """A random {P5, co-P5}-free graph on n vertices by modular
    substitution into prime class skeletons; membership is re-verified
    before returning."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    while True:
        g = _build_cop5(n, rng)
        if find_class_violation(g, "p5-cop5") is None:
            return g


def _build_cop5(n: int, rng: random.Random) -> Graph:
    if n == 1:
        return Graph(1)
    ops = ["parallel", "series"]
    if n >= 4:
        ops.append("p4")
    if n >= 5:
        ops += ["c5", "bull"]
    op = rng.choice(ops)
    if op in ("parallel", "series"):
        count = rng.randint(2, min(n, 4))
        skeleton = Graph.complete(count) if op == "series" else Graph.empty(count)
    else:
        skeleton = {"p4": _P4, "c5": _C5, "bull": _BULL}[op]
        count = skeleton.n
    sizes = _random_split(n, count, rng)
    return substitute(skeleton, [_build_cop5(s, rng) for s in sizes])


MAX_ATTEMPTS = 100_000


def gen_p5_kpe(n: int, p: int, seed: int, density: float = 0.2) -> GenResult:
    """A random {P5, Kp-e}-free graph by rejection sampling at the given
    edge density, at most MAX_ATTEMPTS draws; the accepted graph comes
    with its attempt count."""
    if n < 1 or p < 3:
        raise ValueError("need n >= 1 and p >= 3")
    rng = random.Random(seed)
    for attempt in range(1, MAX_ATTEMPTS + 1):
        g = _gnp(n, density, rng)
        if find_class_violation(g, "p5-kpe", p) is None:
            return GenResult(g, attempt)
    raise CutoffExceeded(
        f"no {{P5, K{p}-e}}-free graph on {n} vertices accepted after "
        f"{MAX_ATTEMPTS} attempts at density {density}; adjust the density"
    )


def _repaired(
    n: int,
    density: float,
    rng: random.Random,
    find_witness: Callable[[Graph], Witness | None],
) -> Graph | None:
    """Witness-guided repair: toggle random pairs inside the current
    forbidden-structure witness until find_witness finds none, at most
    400 times."""
    edges = set(_gnp(n, density, rng).edges)
    for _ in range(400):
        g = Graph(n, edges)
        witness = find_witness(g)
        if witness is None:
            return g
        u, v = sorted(rng.sample(sorted(witness.vertices), 2))
        edges ^= {(u, v)}
    return None


# -- verifiers ---------------------------------------------------------------------


@dataclass
class VerificationReport:
    name: str
    params: dict
    total: int = 0
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def bump(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "total": self.total,
            "counts": dict(sorted(self.counts.items())),
            "failures": self.failures,
            "ok": self.ok,
        }


LEMMA5_EXHAUSTIVE_UP_TO = 6


def verify_lemma5(n_max: int, samples_per_n: int, seed: int) -> VerificationReport:
    """Check that connected prime {P5, co-P5}-free graphs are Berge or
    the 5-cycle.

    Sizes up to LEMMA5_EXHAUSTIVE_UP_TO are enumerated completely; larger
    sizes are sampled by witness-guided repair. Any counterexample lands in
    failures. A member is Berge exactly when it has no induced 5-cycle:
    every hole and antihole on six or more vertices contains P5 or
    co-P5.
    """
    report = VerificationReport(
        "lemma5", {"n_max": n_max, "samples_per_n": samples_per_n, "seed": seed}
    )
    rng = random.Random(seed)

    def examine(g: Graph, n: int) -> None:
        report.total += 1
        if is_c5(g):
            report.bump(f"n={n}:c5")
        elif find_induced_c5(g) is None:
            report.bump(f"n={n}:berge")
        else:
            report.failures.append(
                {"n": n, "edges": sorted(map(list, g.edges))}
            )

    for n in range(2, min(n_max, LEMMA5_EXHAUSTIVE_UP_TO) + 1):
        for g in _all_graphs(n):
            if is_connected(g) and modular.is_prime(g) and (
                find_class_violation(g, "p5-cop5") is None
            ):
                examine(g, n)
    for n in range(LEMMA5_EXHAUSTIVE_UP_TO + 1, n_max + 1):
        seen: set[Graph] = set()
        got = 0
        budget = samples_per_n * 40
        while got < samples_per_n and budget > 0:
            budget -= 1
            g = _repaired(n, 0.5, rng, lambda h: find_class_violation(h, "p5-cop5"))
            if g is None or g in seen:
                continue
            if is_connected(g) and modular.is_prime(g):
                seen.add(g)
                examine(g, n)
                got += 1
    return report


def _all_graphs(n: int):
    """Every labeled graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def verify_lemma4(p: int, samples: int, n_max: int, seed: int) -> VerificationReport:
    """Check the C-block dichotomy for {P5, Kp-e}-free graphs: every
    block of every sampled member is O3-free or has clique number at
    most (p+1)^(p+2) * (p-2)."""
    if p < 3:
        raise ValueError("need p >= 3")
    bound = (p + 1) ** (p + 2) * (p - 2)
    report = VerificationReport(
        "lemma4",
        {"p": p, "samples": samples, "n_max": n_max, "seed": seed, "omega_bound": bound},
    )
    rng = random.Random(seed)
    while report.total < samples:
        n = rng.randint(2, n_max)
        g = gen_p5_kpe(n, p, rng.randrange(2**32), density=0.15).graph
        for atom in cliquesep.build_tree(g):
            sub, _ = g.induced(iter_bits(atom.block))
            if sub.n < 2:
                continue
            report.total += 1
            if find_independent_triple(sub) is None:
                report.bump("o3-free")
            else:
                omega = clique_number_exact(sub)
                if omega <= bound:
                    report.bump("omega-bounded")
                else:
                    report.failures.append(
                        {
                            "n": sub.n,
                            "omega": omega,
                            "edges": sorted(map(list, sub.edges)),
                        }
                    )
    return report


def verify_gyarfas(samples: int, n_max: int, seed: int) -> VerificationReport:
    """Check chi <= 4^(omega-1) over sampled P5-free graphs."""
    report = VerificationReport(
        "gyarfas", {"samples": samples, "n_max": n_max, "seed": seed}
    )
    rng = random.Random(seed)
    while report.total < samples:
        n = rng.randint(1, n_max)
        g = _repaired(n, 0.4, rng, find_induced_p5)
        if g is None:
            continue
        report.total += 1
        chi = chi_exact(g)[0]
        omega = clique_number_exact(g)
        if chi <= 4 ** (omega - 1):
            report.bump(f"omega={omega}")
        else:
            report.failures.append(
                {"n": n, "chi": chi, "omega": omega, "edges": sorted(map(list, g.edges))}
            )
    return report


def verify_oracle(samples: int, n_max: int, seed: int) -> VerificationReport:
    """Check blossom against exhaustive matching on sampled random
    graphs, and the {P5, co-P5} solver against the exact chi on sampled
    members, each of 1 to n_max vertices."""
    report = VerificationReport(
        "oracle-crosscheck", {"samples": samples, "n_max": n_max, "seed": seed}, total=samples
    )
    rng = random.Random(seed)
    for _ in range(samples):
        n = rng.randint(1, n_max)
        g = _gnp(n, rng.choice([0.2, 0.4, 0.6]), rng)
        if len(max_matching(g)) != max_matching_bruteforce(g):
            report.failures.append({"kind": "matching", "edges": sorted(map(list, g.edges))})
        member = gen_p5_cop5(n, rng.randrange(2**32))
        if solve_p5_cop5(member).chi != chi_exact(member)[0]:
            report.failures.append({"kind": "chi", "edges": sorted(map(list, member.edges))})
    return report
