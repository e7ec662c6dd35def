"""End-to-end chromatic solvers for the two graph classes, the
structural-lemma verifiers, and class-instance generators.

Both solvers check class membership up front and reject out-of-class
inputs with a forbidden-structure witness. Every solve carries an audit
trail of which solver handled each block or prime quotient:

  o3-matching    complement-matching reduction on an O3-free C-block
  prime-C5       closed-form weighted solve of a 5-cycle prime quotient
  perfect-exact  weighted two-pair contraction of any other prime
                 quotient down to a clique, whose weight is chi_w; it
                 checks the quotient as it goes, as one that is not
                 weakly chordal ends in no clique and raises
                 PreconditionError
  exact-fallback exact solve standing in for the bounded-clique
                 fixed-k-colorability argument on a non-O3-free C-block

The cost of both prime-quotient routes depends on the quotient, not on
its weights (see prime).
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

from . import cliquesep, modular
from .coloring import MultiColoring, Weights, validate_coloring
from .detect import (
    DEFAULT_BERGE_MAX_N,
    Witness,
    find_class_violation,
    find_independent_triple,
    find_induced_p5,
    is_berge_small,
    p5_cop5_violation,
)
from .errors import CutoffExceeded, NotInClass, NotO3Free
from .graph import Graph, is_connected, iter_bits
from .matching import chi_o3_free
from .oracle import DEFAULT_CHI_MAX_N, chi_exact, clique_number_exact, greedy_clique
# unused here; the benchmark tracer (perfbench/spans.py) swaps it by name
from .oracle import chi_w_exact  # noqa: F401
from .prime import chi_w_c5, chi_w_perfect, is_c5

ROUTE_O3_MATCHING = "o3-matching"
ROUTE_PRIME_C5 = "prime-C5"
ROUTE_PERFECT_EXACT = "perfect-exact"
ROUTE_EXACT_FALLBACK = "exact-fallback"


@dataclass(frozen=True)
class RouteRecord:
    route: str
    vertices: tuple[int, ...]  # host ids of the block / quotient representatives
    size: int
    chi: int

    def to_json(self) -> dict:
        return {
            "route": self.route,
            "vertices": list(self.vertices),
            "size": self.size,
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


def _trivial_report(class_name: str, p: int | None, started: float) -> SolveReport:
    return SolveReport(
        class_name=class_name,
        p=p,
        n=0,
        chi=0,
        coloring=MultiColoring((), 0),
        decomposition={},
        routes=[],
        ms=(time.perf_counter() - started) * 1000.0,
    )


def solve_p5_cop5(g: Graph, w: Weights | None = None) -> SolveReport:
    """Weighted chromatic number of a {P5, co-P5}-free graph.

    Composes over the modular decomposition tree; prime quotients are
    either the 5-cycle (closed form) or perfect (two-pair contraction).
    Unit weights by default.
    """
    started = time.perf_counter()
    violation, tree = p5_cop5_violation(g)
    if violation is not None:
        raise NotInClass("{P5, co-P5}-free", violation)
    if g.n == 0:
        return _trivial_report("p5-cop5", None, started)

    if tree is None:
        tree = modular.md_tree(g)
    routes: list[RouteRecord] = []

    def prime_solver(
        quot: Graph, w_star: dict[int, int], reps: tuple[int, ...]
    ) -> tuple[int, MultiColoring]:
        if is_c5(quot):
            route = ROUTE_PRIME_C5
            k, mc = chi_w_c5(quot, w_star)
        else:
            route = ROUTE_PERFECT_EXACT
            k, mc = chi_w_perfect(quot, w_star)
        routes.append(RouteRecord(route, reps, quot.n, k))
        return k, mc

    chi, mc = modular.chi_w(g, w, prime_solver, tree=tree)
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


def solve_p5_kpe(
    g: Graph,
    p: int,
    oracle_max_n: int = DEFAULT_CHI_MAX_N,
) -> SolveReport:
    """Chromatic number of a {P5, Kp-e}-free graph.

    Decomposes by clique separators; every O3-free C-block goes through
    the complement-matching reduction and the rest fall back to the
    exact solver.
    """
    started = time.perf_counter()
    violation = find_class_violation(g, "p5-kpe", p)
    if violation is not None:
        raise NotInClass(f"{{P5, K{p}-e}}-free", violation)
    if g.n == 0:
        return _trivial_report("p5-kpe", p, started)

    atoms = cliquesep.build_tree(g)
    routes: list[RouteRecord] = []
    solved: dict[Graph, tuple[int, MultiColoring, str]] = {}

    def leaf_chi(sub: Graph, block: tuple[int, ...]) -> tuple[int, MultiColoring]:
        if sub not in solved:
            try:
                k, mc = chi_o3_free(sub)
                route = ROUTE_O3_MATCHING
            except NotO3Free:
                try:
                    k, mc = chi_exact(sub, max_n=oracle_max_n)
                except CutoffExceeded as exc:
                    raise CutoffExceeded(
                        f"C-block {list(block)} with {sub.n} vertices exceeded the "
                        f"exact-fallback cutoff (clique lower bound "
                        f"{len(greedy_clique(sub))}): {exc}"
                    ) from exc
                route = ROUTE_EXACT_FALLBACK
            solved[sub] = (k, mc, route)
        k, mc, route = solved[sub]
        routes.append(RouteRecord(route, block, sub.n, k))
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


class GenerationTimeout(CutoffExceeded):
    """Rejection sampling ran out of attempts; try another density. A
    cutoff on work like the others, so the CLI exits 4 on it."""


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


def _substitute(skeleton: Graph, parts: list[Graph]) -> Graph:
    offsets, blocks = [], []  # each part's first vertex and vertex bitmask
    total = 0
    for part in parts:
        offsets.append(total)
        blocks.append(((1 << part.n) - 1) << total)
        total += part.n
    rows = []
    for i, part in enumerate(parts):
        joined = sum(blocks[j] for j in iter_bits(skeleton.adj_bits(i)))
        rows += [mask << offsets[i] | joined for mask in part.adj_masks]
    return Graph._from_masks(rows)


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
    return _substitute(skeleton, [_build_cop5(s, rng) for s in sizes])


def gen_p5_kpe(
    n: int,
    p: int,
    seed: int,
    density: float = 0.2,
    max_attempts: int = 100_000,
) -> GenResult:
    """A random {P5, Kp-e}-free graph by rejection sampling at the given
    edge density; the accepted graph comes with its attempt count."""
    if n < 1 or p < 3:
        raise ValueError("need n >= 1 and p >= 3")
    rng = random.Random(seed)
    for attempt in range(1, max_attempts + 1):
        g = _gnp(n, density, rng)
        if find_class_violation(g, "p5-kpe", p) is None:
            return GenResult(g, attempt)
    raise GenerationTimeout(
        f"no {{P5, K{p}-e}}-free graph on {n} vertices accepted after "
        f"{max_attempts} attempts at density {density}; adjust the density"
    )


def _repaired(
    n: int,
    density: float,
    rng: random.Random,
    find_witness: Callable[[Graph], Witness | None],
    max_flips: int = 400,
) -> Graph | None:
    """Witness-guided repair: toggle random pairs inside the current
    forbidden-structure witness until find_witness finds none."""
    edges = set(_gnp(n, density, rng).edges)
    for _ in range(max_flips):
        g = Graph(n, edges)
        witness = find_witness(g)
        if witness is None:
            return g
        u, v = sorted(rng.sample(sorted(witness.vertices), 2))
        edges ^= {(u, v)}
    return None


# -- structural-lemma verifiers -----------------------------------------------------


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


def verify_lemma5(
    n_max: int = 9,
    samples_per_n: int = 150,
    seed: int = 0,
    exhaustive_up_to: int = 6,
) -> VerificationReport:
    """Check that connected prime {P5, co-P5}-free graphs are Berge or
    the 5-cycle.

    Sizes up to exhaustive_up_to are enumerated completely; larger sizes
    are sampled by witness-guided repair. Any counterexample lands in
    failures.
    """
    if n_max > DEFAULT_BERGE_MAX_N:
        raise CutoffExceeded(
            f"this check needs the Berge cutoff ({DEFAULT_BERGE_MAX_N}) >= n_max ({n_max})"
        )
    report = VerificationReport(
        "lemma5", {"n_max": n_max, "samples_per_n": samples_per_n, "seed": seed}
    )
    rng = random.Random(seed)

    def examine(g: Graph, n: int) -> None:
        report.total += 1
        if is_c5(g):
            report.bump(f"n={n}:c5")
        elif is_berge_small(g):
            report.bump(f"n={n}:berge")
        else:
            report.failures.append(
                {"n": n, "edges": sorted(map(list, g.edges))}
            )

    for n in range(2, min(n_max, exhaustive_up_to) + 1):
        for g in _all_graphs(n):
            if is_connected(g) and modular.is_prime(g) and (
                find_class_violation(g, "p5-cop5") is None
            ):
                examine(g, n)
    for n in range(exhaustive_up_to + 1, n_max + 1):
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


def verify_lemma4(
    p: int = 4,
    samples: int = 200,
    n_max: int = 12,
    seed: int = 0,
    density: float = 0.15,
) -> VerificationReport:
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
    blocks_seen = 0
    while blocks_seen < samples:
        n = rng.randint(2, n_max)
        g = gen_p5_kpe(n, p, rng.randrange(2**32), density=density).graph
        for atom in cliquesep.build_tree(g):
            sub, _ = g.induced(iter_bits(atom.block))
            if sub.n < 2:
                continue
            blocks_seen += 1
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


def verify_gyarfas(
    samples: int = 500,
    n_max: int = 12,
    seed: int = 0,
    density: float = 0.4,
) -> VerificationReport:
    """Check chi <= 4^(omega-1) over sampled P5-free graphs."""
    report = VerificationReport(
        "gyarfas", {"samples": samples, "n_max": n_max, "seed": seed}
    )
    rng = random.Random(seed)
    while report.total < samples:
        n = rng.randint(1, n_max)
        g = _repaired(n, density, rng, find_induced_p5)
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
