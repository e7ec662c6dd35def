import hashlib
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p5color import detect
from p5color.detect import (
    Witness,
    _BudgetSpent,
    _co_p5_in,
    _find_hole,
    _first_p5,
    _p5_in,
    _quotient_violation,
    _settled,
    find_class_violation,
    find_independent_triple,
    find_induced_c5,
    find_induced_co_p5,
    find_induced_kp_minus_e,
    find_induced_p5,
    find_odd_hole_or_antihole,
    is_berge_small,
    is_o3_free,
    p5_cop5_violation,
    witness_ok,
)
from p5color.errors import CutoffExceeded, NotInClass, PreconditionError
from p5color.graph import Graph, component_masks, first_clique, reach, substitute
from p5color.modular import MDPrime, md_tree, twin_core, validate_md_tree
from p5color.oracle import chi_w_exact, clique_number_exact, max_independent_set_exact
from p5color.pipeline import _BULL, gen_p5_cop5, solve_p5_cop5, solve_p5_kpe
from p5color.prime import is_c5

from helpers import (
    all_graphs,
    alternating_threshold,
    benchmark_instances,
    co_andrasfai,
    contains_induced,
    first_hole_reference,
    first_p5_reference,
    kp_minus_e_reference,
    kp_minus_e_search_reference,
    random_graph,
    with_universal_and_isolated,
)

P5 = Graph.path(5)
C5 = Graph.cycle(5)
K4_MINUS_E = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def kp_minus_e(p: int) -> Graph:
    return Graph(p, [e for e in Graph.complete(p).edges if e != (0, 1)])


def test_p5_detector_known_cases():
    assert find_induced_p5(C5) is None
    w = find_induced_p5(Graph.path(6))
    assert w is not None and witness_ok(Graph.path(6), w)
    assert w.vertices == (0, 1, 2, 3, 4)


def test_c5_detector_identity():
    w = find_induced_c5(C5)
    assert w.vertices == (0, 1, 2, 3, 4)
    assert find_induced_c5(Graph.cycle(6)) is None
    assert find_induced_c5(Graph.cycle(7)) is None


def test_co_p5_detector():
    co = P5.complement()
    w = find_induced_co_p5(co)
    assert w is not None and witness_ok(co, w)
    assert find_induced_co_p5(C5) is None  # C5 is self-complementary and P5-free


def test_kp_minus_e_known_cases():
    assert find_induced_kp_minus_e(Graph.complete(4), 4) is None
    w = find_induced_kp_minus_e(K4_MINUS_E, 4)
    assert w is not None and sorted(w.vertices) == [0, 1, 2, 3]
    assert not K4_MINUS_E.adjacent(w.vertices[0], w.vertices[1])
    # derived by the exhaustive oracle: C5 has no K4-e
    assert not contains_induced(C5, kp_minus_e(4))
    assert find_induced_kp_minus_e(C5, 4) is None
    with pytest.raises(PreconditionError):
        find_induced_kp_minus_e(C5, 2)


def test_kp_minus_e_witnesses_match_the_reference():
    rng = random.Random(41)
    graphs = [g for n in range(7) for g in all_graphs(n)]
    graphs += [random_graph(rng.randint(0, 24), rng.random(), rng) for _ in range(2000)]
    for g in graphs:
        for p in range(3, 7):
            assert _vertices(find_induced_kp_minus_e(g, p)) == kp_minus_e_reference(g, p)


def test_kp_minus_e_search_is_not_bounded_by_the_recursion_limit():
    """The clique search runs on an explicit stack, so a clique of
    p - 2 = 1,098 vertices is found well past Python's recursion limit."""
    g = Graph(1100, [(0, 1)]).complement()  # K_1100 minus the edge 01
    w = find_induced_kp_minus_e(g, 1100)
    assert w == Witness("K1100-e", tuple(range(1100)))
    assert witness_ok(g, w)
    with pytest.raises(NotInClass) as err:
        solve_p5_kpe(g, 1100)
    assert err.value.witness == w


def test_kp_minus_e_witnesses_match_the_search_without_the_per_x_cache():
    """Skipping a common neighbourhood already searched for the same x
    leaves the witness as it was, on small random graphs and on the
    benchmark's {P5, Kp-e} rejects."""
    rng = random.Random(43)
    cases = [(random_graph(rng.randint(0, 16), rng.random(), rng), p) for _ in range(3000) for p in (3, 4, 5)]
    rejects = [i for i in benchmark_instances("rejects") if i.cls == "p5-kpe"]
    assert len(rejects) == 72
    cases += [(Graph(i.n, i.edges), p) for i in rejects for p in (3, 4, 5, i.p)]
    found = 0
    for g, p in cases:
        w = find_induced_kp_minus_e(g, p)
        assert w == kp_minus_e_search_reference(g, p)
        found += w is not None
    assert found >= 3000


def test_kp_minus_e_searches_one_clique_per_x_on_a_complete_bipartite_graph(monkeypatch):
    """K30,30 has no triangle, so the one K3 search settles p = 4. With a
    disjoint triangle added that search finds one; then every
    non-adjacent pair of K30,30 has the other side as its common
    neighbourhood, which holds no edge: one search per x, not per pair."""
    calls = []

    def counted(adj, mask, size):
        calls.append(mask)
        return first_clique(adj, mask, size)

    monkeypatch.setattr(detect, "first_clique", counted)
    edges = [(u, v) for u in range(30) for v in range(30, 60)]
    assert find_induced_kp_minus_e(Graph(60, edges), 4) is None
    assert len(calls) == 1
    calls.clear()
    g = Graph(63, edges + [(60, 61), (60, 62), (61, 62)])
    assert find_induced_kp_minus_e(g, 4) is None
    # the K3 search, then every x but the last of each side has a y after it
    assert len(calls) == 1 + 58


def test_kp_minus_e_membership_of_a_large_member_takes_few_clique_pushes(monkeypatch):
    """gen_p5_cop5(80, 1) has chi = 27 and omega = 26, so it is {P5,
    K29-e}-free. Each common neighbourhood holds no clique of 27; the
    colouring bound shows it at once, where a search without it would
    try every smaller clique there. Its searches share 20,000 pushes
    and reads here, and the omega oracle answers on it."""
    budget = [20_000]
    monkeypatch.setattr(detect, "first_clique", lambda adj, mask, size: first_clique(adj, mask, size, budget))
    g = gen_p5_cop5(80, 1)
    assert find_class_violation(g, "p5-kpe", 29) is None
    assert budget[0] >= 0
    assert clique_number_exact(g) == 26


def _cone(blocks: list[Graph]) -> Graph:
    """Apex 0 joined to the disjoint union of blocks."""
    edges, offset = [], 1
    for b in blocks:
        edges += [(offset + u, offset + v) for u, v in b.edges]
        edges += [(0, offset + v) for v in range(b.n)]
        offset += b.n
    return Graph(offset, edges)


def test_flipped_cone_kp_minus_e_witnesses_match_the_reference():
    """Cones over O3-free blocks and K3,3, p the largest block clique
    plus 3 as for members: every single-pair flip, and rejects-style
    flips (the first of a seeded pair order that leaves the class)
    under seeded vertex orders."""
    co_c11, co_c13 = Graph.cycle(11).complement(), Graph.cycle(13).complement()
    co_and3 = Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8) if (v - u) % 3 != 1])
    k33 = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    cones = [(_cone([co_c11, co_c13]), 9), (_cone([co_and3] * 3), 6), (_cone([k33] * 4), 5)]
    found = 0
    for i, (cone, p) in enumerate(cones):
        assert find_class_violation(cone, "p5-kpe", p) is None
        pairs = list(itertools.combinations(range(cone.n), 2))
        for pair in pairs:
            h = Graph(cone.n, cone.edges ^ {pair})
            w = find_induced_kp_minus_e(h, p)
            assert _vertices(w) == kp_minus_e_reference(h, p)
            found += w is not None
        rng = random.Random(i)
        for _ in range(4):
            rng.shuffle(pairs)
            flipped = next(
                h
                for h in (Graph(cone.n, cone.edges ^ {pair}) for pair in pairs)
                if find_class_violation(h, "p5-kpe", p) is not None
            )
            order = list(range(cone.n))
            for _ in range(4):
                rng.shuffle(order)
                h = Graph(cone.n, [(order[u], order[v]) for u, v in flipped.edges])
                assert _vertices(find_induced_kp_minus_e(h, p)) == kp_minus_e_reference(h, p)
    assert found >= 20


def test_o3_known_cases():
    assert is_o3_free(C5)
    w = find_independent_triple(P5)
    assert w is not None and w.vertices == (0, 2, 4)
    assert is_o3_free(Graph.complete(7))


def test_o3_free_iff_independence_number_at_most_two():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        assert is_o3_free(g) == (len(max_independent_set_exact(g)) <= 2)


def test_independent_triple_is_the_first_one_of_the_brute_force():
    rng = random.Random(18)
    for _ in range(300):
        g = random_graph(rng.randint(0, 12), rng.random(), rng)
        for h in (g, g.complement()):
            first = next(
                (t for t in itertools.combinations(range(h.n), 3)
                 if not any(h.adjacent(u, v) for u, v in itertools.combinations(t, 2))),
                None,
            )
            witness = find_independent_triple(h)
            assert (witness and witness.vertices) == first


def test_berge_known_cases():
    w = find_odd_hole_or_antihole(C5)
    assert w is not None and w.pattern == "C5" and witness_ok(C5, w)
    assert not is_berge_small(C5)
    assert not is_berge_small(Graph.cycle(7))
    assert find_odd_hole_or_antihole(Graph.cycle(7)).pattern == "C7"
    anti7 = Graph.cycle(7).complement()
    assert find_odd_hole_or_antihole(anti7).pattern == "co-C7"
    assert witness_ok(anti7, find_odd_hole_or_antihole(anti7))


def test_bipartite_graphs_are_berge():
    rng = random.Random(4)
    for _ in range(25):
        a = rng.randint(1, 5)
        b = rng.randint(1, 5)
        edges = [
            (i, a + j) for i in range(a) for j in range(b) if rng.random() < 0.5
        ]
        assert is_berge_small(Graph(a + b, edges))


def test_berge_cutoff_refuses_loudly(monkeypatch):
    with pytest.raises(CutoffExceeded):
        is_berge_small(Graph.empty(17))
    monkeypatch.setattr(detect, "DEFAULT_BERGE_MAX_N", 20)
    assert is_berge_small(Graph.empty(17))


def test_detectors_agree_with_exhaustive_oracle():
    rng = random.Random(5)
    co_p5 = P5.complement()
    k5e = kp_minus_e(5)
    for _ in range(150):
        g = random_graph(rng.randint(4, 8), rng.random(), rng)
        for finder, pattern in [
            (find_induced_p5, P5),
            (find_induced_co_p5, co_p5),
            (find_induced_c5, C5),
            (lambda h: find_induced_kp_minus_e(h, 4), kp_minus_e(4)),
            (lambda h: find_induced_kp_minus_e(h, 5), k5e),
        ]:
            w = finder(g)
            assert (w is not None) == contains_induced(g, pattern)
            if w is not None:
                assert witness_ok(g, w)


def test_class_membership_known_cases():
    assert find_class_violation(C5, "p5-cop5") is None
    v = find_class_violation(P5, "p5-cop5")
    assert v.pattern == "P5" and v.vertices == (0, 1, 2, 3, 4)
    v2 = find_class_violation(K4_MINUS_E, "p5-kpe", 4)
    assert v2.pattern == "K4-e" and sorted(v2.vertices) == [0, 1, 2, 3]
    with pytest.raises(PreconditionError):
        find_class_violation(C5, "p5-kpe")
    for name in ("nonsense", "P5_COP5", "P5-KPE"):
        with pytest.raises(ValueError):
            find_class_violation(C5, name, 4)


def test_class_membership_is_hereditary():
    rng = random.Random(6)
    checked = 0
    while checked < 25:
        g = random_graph(rng.randint(3, 9), 0.3, rng)
        if find_class_violation(g, "p5-kpe", 4) is not None:
            continue
        checked += 1
        keep = [v for v in range(g.n) if rng.random() < 0.6]
        sub, _ = g.induced(keep)
        assert find_class_violation(sub, "p5-kpe", 4) is None


def test_berge_longer_odd_holes_at_the_size_boundary():
    assert not is_berge_small(Graph.cycle(9))
    w = find_odd_hole_or_antihole(Graph.cycle(9))
    assert w.pattern == "C9" and witness_ok(Graph.cycle(9), w)
    assert is_berge_small(Graph.cycle(8))


def planted_hole(n: int, length: int, p: float, rng: random.Random) -> Graph:
    """A random graph on n vertices, edge probability p, in which length
    random vertices induce a cycle."""
    vs = rng.sample(range(n), length)
    cycle = {frozenset((vs[i - 1], vs[i])) for i in range(length)}
    on = set(vs)
    return Graph(n, [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if frozenset((u, v)) in cycle or not {u, v} <= on and rng.random() < p
    ])


def test_hole_search_finds_the_first_cycle_of_the_brute_force():
    rng = random.Random(2017)
    cases = [random_graph(rng.randint(5, 10), rng.random(), rng) for _ in range(150)]
    cases += [
        planted_hole(rng.randint(length, 10), length, 0.6 * rng.random(), rng)
        for length in (7, 9)
        for _ in range(30)
    ]
    found = Counter()
    for g in cases:
        for h in (g, g.complement()):
            for length in (5, 7, 9):
                hole = _find_hole(h, length)
                assert hole == first_hole_reference(h, length)
                found[length] += hole is not None
    assert min(found.values()) >= 30, found


def test_berge_check_finds_a_witness_exactly_when_the_brute_force_does():
    rng = random.Random(2018)
    cases = [random_graph(rng.randint(5, 7), rng.uniform(0.25, 0.6), rng) for _ in range(40)]
    cases += [planted_hole(rng.randint(5, 8), 5, 0.5 * rng.random(), rng) for _ in range(10)]
    cases += [planted_hole(rng.randint(7, 8), 7, 0.5 * rng.random(), rng) for _ in range(10)]
    cases += [g.complement() for g in cases[-10:]]
    patterns = Counter()
    for g in cases:
        odd = [Graph.cycle(length) for length in range(5, g.n + 1, 2)]
        brute = any(contains_induced(g, c) or contains_induced(g, c.complement()) for c in odd)
        w = find_odd_hole_or_antihole(g)
        assert (w is not None) == brute
        assert w is None or witness_ok(g, w)
        patterns[w and w.pattern] += 1
    assert patterns[None] >= 10 and patterns["C5"] >= 10, patterns
    assert patterns["C7"] and patterns["co-C7"], patterns


# -- P5 / co-P5 witnesses: lexicographically first, twin-free -----------------

PAIRS5 = list(itertools.combinations(range(5), 2))


@pytest.fixture(scope="module")
def first_on_five():
    """pattern -> 10-bit edge code of a graph on 0..4 -> its
    lexicographically first ordering inducing the pattern, by trying
    every permutation with witness_ok (P5 has four edges, co-P5 six)."""
    table = {}
    for pattern, size in (("P5", 4), ("co-P5", 6)):
        table[pattern] = dict.fromkeys(range(1 << len(PAIRS5)))
        for code in table[pattern]:
            if code.bit_count() != size:
                continue
            g5 = Graph(5, [e for i, e in enumerate(PAIRS5) if code >> i & 1])
            table[pattern][code] = next(
                (
                    t
                    for t in itertools.permutations(range(5))
                    if witness_ok(g5, Witness(pattern, t))
                ),
                None,
            )
    return table


def lex_first_bruteforce(g: Graph, pattern: str, first_on_five) -> tuple[int, ...] | None:
    """The smallest over all 5-subsets of the subset's first ordering; a
    subset is sorted, so its local order agrees with host order."""
    best = None
    for sub in itertools.combinations(range(g.n), 5):
        code = sum(1 << i for i, (a, b) in enumerate(PAIRS5) if g.adjacent(sub[a], sub[b]))
        local = first_on_five[pattern][code]
        if local is not None:
            found = tuple(sub[i] for i in local)
            best = found if best is None else min(best, found)
    return best


def _vertices(w: Witness | None):
    return None if w is None else w.vertices


def test_p5_and_co_p5_witnesses_are_lexicographically_first(first_on_five):
    rng = random.Random(8)
    graphs = [g for n in range(7) for g in all_graphs(n)]
    graphs += [random_graph(rng.randint(7, 10), rng.random(), rng) for _ in range(300)]
    for g in graphs:
        assert _vertices(find_induced_p5(g)) == lex_first_bruteforce(g, "P5", first_on_five)
        assert _vertices(find_induced_co_p5(g)) == lex_first_bruteforce(
            g, "co-P5", first_on_five
        )


def test_witnesses_skip_universal_and_isolated_vertices(first_on_five):
    rng = random.Random(42)
    found = 0
    for _ in range(250):
        g = with_universal_and_isolated(random_graph(rng.randint(4, 8), rng.random(), rng), rng)
        for find, pattern in ((find_induced_p5, "P5"), (find_induced_co_p5, "co-P5")):
            w = _vertices(find(g))
            assert w == lex_first_bruteforce(g, pattern, first_on_five)
            found += w is not None
    assert found >= 60


def flipped_members(sizes=(20, 40), seeds=range(10)):
    """gen_p5_cop5 members with one seeded vertex pair flipped."""
    for n in sizes:
        for seed in seeds:
            g = gen_p5_cop5(n, seed)
            rng = random.Random(seed)
            for _ in range(4):
                u, v = sorted(rng.sample(range(n), 2))
                yield Graph(n, g.edges ^ {(u, v)})


def twin_heavy_graphs():
    rng = random.Random(9)
    yield from flipped_members()
    for skeleton in (Graph.path(5), Graph.path(5).complement(), Graph.path(6)):
        for _ in range(15):
            parts = [gen_p5_cop5(rng.randint(1, 4), rng.randrange(1000)) for _ in range(skeleton.n)]
            yield substitute(skeleton, parts)


def smaller_twin(g: Graph, v: int) -> int | None:
    for u in range(v):
        if g.adj_masks[u] & ~(1 << v) == g.adj_masks[v] & ~(1 << u):
            return u
    return None


def test_witnesses_avoid_vertices_with_a_smaller_twin():
    found = 0
    for g in twin_heavy_graphs():
        for w in (find_induced_p5(g), find_induced_co_p5(g)):
            if w is None:
                continue
            found += 1
            assert witness_ok(g, w)
            assert [smaller_twin(g, v) for v in w.vertices] == [None] * 5
    assert found >= 100


# sha256 of the find_class_violation witnesses of flipped_members() for
# both classes (p = 4), recorded with the detectors that searched the
# whole graph and built the complement for the co-P5 half
FLIPPED_WITNESSES = "c2b40c025cf3bc19daa0e639e760e33af2b6671100af07ad3bb97eccbdf397b0"


def test_flipped_member_witnesses_are_pinned():
    def listed(w):
        return None if w is None else [w.pattern, list(w.vertices)]

    rows = [
        [listed(find_class_violation(g, "p5-cop5")), listed(find_class_violation(g, "p5-kpe", 4))]
        for g in flipped_members()
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == FLIPPED_WITNESSES


# -- membership through prime quotients ----------------------------------------


def kept(g: Graph) -> int:
    """The core of g's twin pass: the vertices the searches run on."""
    return twin_core(g.adj_masks, (1 << g.n) - 1)[0]


def kernel_violation(g: Graph) -> Witness | None:
    """The P5, then the co-P5 search after one twin pass, with no budget."""
    keep = kept(g)
    return _p5_in(g, keep) or _co_p5_in(g, keep)


def test_quotient_stage_matches_the_kernel_search_on_every_small_graph():
    for n in range(1, 7):
        for g in all_graphs(n):
            assert _quotient_violation(md_tree(g)) == kernel_violation(g)


def test_quotient_stage_matches_the_kernel_search_on_random_graphs():
    rng = random.Random(14)
    found = 0
    for _ in range(3000):
        g = random_graph(rng.randint(1, 14), rng.random(), rng)
        w = kernel_violation(g)
        assert _quotient_violation(md_tree(g)) == w
        found += w is not None
    assert found >= 1000


def test_quotient_stage_matches_the_kernel_search_on_every_single_flip():
    checked = 0
    for n in (20, 40):
        for seed in range(3):
            g = gen_p5_cop5(n, seed)
            for pair in itertools.combinations(range(n), 2):
                h = Graph(n, g.edges ^ {pair})
                w = kernel_violation(h)
                if w is not None:
                    assert _quotient_violation(md_tree(h)) == w
                    checked += 1
    assert checked >= 1000


def test_membership_hands_over_the_tree_once_the_budget_runs_out():
    assert p5_cop5_violation(Graph.path(6)) == (Witness("P5", (0, 1, 2, 3, 4)), None)
    assert p5_cop5_violation(Graph.complete(30)) == (None, None)  # empty kernel
    for n in (40, 80, 160):
        g = gen_p5_cop5(n, 0)
        w, tree = p5_cop5_violation(g)
        assert w is None and tree is not None
        validate_md_tree(g, tree)


def test_both_outcomes_of_the_race_on_flipped_members():
    """A near-member whose P5 search after one twin pass ends within
    max(8n, 128) nodes returns no tree; one whose P5 search runs out
    returns its co-P5 witness with the tree. Each graph is picked among
    the n = 40 members by the outcome it stands for."""
    won = lost = None
    for g in flipped_members((40,)):
        try:
            w = _p5_in(g, kept(g), max(8 * g.n, 128))
        except _BudgetSpent:
            w = kernel_violation(g)
            if lost is None and w is not None and w.pattern == "co-P5":
                lost = g
        else:
            if won is None and w is not None:
                won = g, w
    assert won is not None and lost is not None
    g, w = won
    assert p5_cop5_violation(g) == (w, None)
    w, tree = p5_cop5_violation(lost)
    assert w == kernel_violation(lost) and w.pattern == "co-P5"
    validate_md_tree(lost, tree)


def counted_passes_and_trees(monkeypatch) -> tuple[list[int], list[Graph]]:
    """The core each twin pass keeps and each graph md_tree is built
    for, in call order, from here on."""
    passes, trees = [], []

    def counted_pass(adj, keep):
        twins = twin_core(adj, keep)
        passes.append(twins[0])
        return twins

    def counted_tree(g, twins=None):
        trees.append(g)
        return md_tree(g, twins)

    monkeypatch.setattr(detect.modular, "twin_core", counted_pass)
    monkeypatch.setattr(detect.modular, "md_tree", counted_tree)
    return passes, trees


def test_each_membership_entry_takes_one_twin_pass(monkeypatch):
    """The alternating threshold graph is a cograph whose twin pass keeps
    all but two vertices: each entry point takes one pass, runs out of
    budget and finds no witness on the tree, which has no prime node."""
    g = alternating_threshold(200)
    passes, trees = counted_passes_and_trees(monkeypatch)
    for entry in (lambda g: p5_cop5_violation(g)[0], find_induced_p5, find_induced_co_p5):
        passes.clear()
        trees.clear()
        assert entry(g) is None
        assert len(passes) == 1 and trees == [g]


def test_budgeted_membership_matches_the_unbudgeted_kernel_search(monkeypatch):
    rng = random.Random(15)
    graphs = list(flipped_members((20, 40, 80), range(20)))
    graphs += [random_graph(rng.randint(1, 40), rng.random(), rng) for _ in range(500)]
    _, trees = counted_passes_and_trees(monkeypatch)
    handed_over = Counter()
    for g in graphs:
        w, tree = p5_cop5_violation(g)
        assert w == kernel_violation(g)
        handed_over["p5-cop5"] += tree is not None
        keep = kept(g)
        for find, search in ((find_induced_p5, _p5_in), (find_induced_co_p5, _co_p5_in)):
            trees.clear()
            assert find(g) == search(g, keep)
            handed_over[find.__name__] += len(trees)
    assert handed_over["p5-cop5"] >= 40
    assert handed_over["find_induced_p5"] >= 20 and handed_over["find_induced_co_p5"] >= 20


def prime_quotients(tree) -> list[Graph]:
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, MDPrime):
            found.append(node.quotient)
        stack.extend(getattr(node, "children", ()))
    return found


def is_bull(q: Graph) -> bool:
    return q.n == 5 and len(q.edges) == 5 and not is_c5(q)


def spied_searches(searched: list) -> tuple:
    """_p5_in and _co_p5_in, each call's graph appended to searched."""

    def spied(search):
        def run(g, keep, *budget):
            searched.append(g)
            return search(g, keep, *budget)

        return run

    return spied(_p5_in), spied(_co_p5_in)


def test_quotient_stage_searches_no_5_cycle():
    """No quotient the count settles is searched: the P4s, and the
    5-cycles and bulls, which have neither the four edges of P5 nor the
    six of co-P5. The witness is still the kernel search's."""
    searched = []
    searches = spied_searches(searched)
    near = {
        kind: next(
            h
            for h in flipped_members((20, 40))
            if kernel_violation(h) and any(map(has, prime_quotients(md_tree(h))))
        )
        for kind, has in (("C5", is_c5), ("bull", is_bull))
    }
    for g in (
        substitute(C5, [Graph.complete(2)] * 5),
        substitute(C5, [Graph.complete(3)] * 5),
        substitute(_BULL, [Graph.complete(2)] * 5),
        substitute(_BULL, [Graph.complete(3)] * 5),
        *near.values(),
    ):
        tree = md_tree(g)
        assert any(is_c5(q) or is_bull(q) for q in prime_quotients(tree))
        searched.clear()
        assert _quotient_violation(tree, searches) == kernel_violation(g)
        assert all(q.n > 5 or len(q.edges) in (4, 6) for q in searched)
    assert searched  # the last near-member's other prime quotients were searched


def test_a_witness_on_at_most_five_vertices_needs_four_or_six_edges():
    """The count _settled reads: over all 1,099 labelled graphs on one to
    five vertices, P5 is found only on five vertices with four edges and
    co-P5 only on five with six."""
    seen = Counter()
    for n in range(1, 6):
        for g in all_graphs(n):
            full = (1 << n) - 1
            shape = (n, len(g.edges))
            p5, co_p5 = _p5_in(g, full), _co_p5_in(g, full)
            assert p5 is None or shape == (5, 4)
            assert co_p5 is None or shape == (5, 6)
            assert _settled(g, full) == (shape not in ((5, 4), (5, 6)))
            seen["graphs"] += 1
            seen["P5"] += p5 is not None
            seen["co-P5"] += co_p5 is not None
    assert seen == {"graphs": 1099, "P5": 60, "co-P5": 60}


def test_membership_searches_no_core_the_count_settles(monkeypatch):
    """Blow-ups of the 5-cycle, the bull and P4 have a core of at most
    five vertices that the count settles, so membership runs no search;
    blow-ups of P5 and the house are still searched, to the same witness
    as the lone detectors'."""
    searched = []
    monkeypatch.setattr(detect, "_P5_COP5", spied_searches(searched))
    house = P5.complement()
    for k in range(1, 5):
        for skeleton in (C5, _BULL, Graph.path(4)):
            searched.clear()
            g = substitute(skeleton, [Graph.complete(k)] * skeleton.n)
            assert p5_cop5_violation(g) == (None, None)
            assert searched == []
        for skeleton, find in ((P5, find_induced_p5), (house, find_induced_co_p5)):
            g = substitute(skeleton, [Graph.complete(k)] * 5)
            searched.clear()
            w, tree = p5_cop5_violation(g)
            assert w is not None and w == find(g) and tree is None
            assert searched
    for skeleton in (C5, _BULL):
        searched.clear()
        weights = {v: 3 + v for v in range(5)}
        assert solve_p5_cop5(skeleton, weights).chi == chi_w_exact(skeleton, weights)[0]
        assert searched == []


# -- the far-set prune ------------------------------------------------------------


def rows_and_complement_rows(g: Graph, keep: int) -> tuple[list[int], list[int]]:
    """The rows the P5 and the co-P5 search run on, inside keep."""
    return (
        [m & keep for m in g.adj_masks],
        [keep & ~(m | 1 << v) for v, m in enumerate(g.adj_masks)],
    )


def assert_pruned_search_matches_the_reference(g: Graph, keep: int) -> int:
    """Both searches of g without a budget; returns the witnesses found."""
    found = 0
    for rows in rows_and_complement_rows(g, keep):
        path = _first_p5(rows, keep)
        assert path == first_p5_reference(rows, keep)
        found += path is not None
    return found


def graphs_on_seven(stride: int):
    """Every stride-th labelled graph on seven vertices, by edge code."""
    pairs = list(itertools.combinations(range(7), 2))
    for code in range(0, 1 << len(pairs), stride):
        yield Graph(7, [pair for i, pair in enumerate(pairs) if code >> i & 1])


def test_pruned_search_matches_the_reference_on_small_graphs():
    # every graph on seven vertices takes about 40 s, so that size is
    # sampled; a graph's complement rows are the rows of its complement
    graphs = [g for n in range(7) for g in all_graphs(n)]
    graphs += graphs_on_seven(17)
    found = sum(assert_pruned_search_matches_the_reference(g, (1 << g.n) - 1) for g in graphs)
    assert found >= 100_000


def test_pruned_search_matches_the_reference_on_random_graphs():
    rng = random.Random(16)
    found = 0
    for _ in range(3000):
        g = random_graph(rng.randint(1, 16), rng.random(), rng)
        found += assert_pruned_search_matches_the_reference(g, (1 << g.n) - 1)
    assert found >= 2000


def test_pruned_search_matches_the_reference_on_every_single_flip():
    found = 0
    for n in (20, 40):
        for seed in range(3):
            g = gen_p5_cop5(n, seed)
            for pair in itertools.combinations(range(n), 2):
                h = Graph(n, g.edges ^ {pair})
                found += assert_pruned_search_matches_the_reference(h, kept(h))
    assert found >= 1000


@st.composite
def searches(draw):
    """Rows of a graph on at most 12 vertices or of its complement,
    inside the whole vertex set or what one twin pass keeps, a budget,
    and whether the far set is taken inside a's component."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    code = draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph(n, [pair for i, pair in enumerate(pairs) if code >> i & 1])
    keep = draw(st.sampled_from([(1 << n) - 1, kept(g)]))
    rows = draw(st.sampled_from(rows_and_complement_rows(g, keep)))
    return rows, keep, draw(st.integers(0, 600)), draw(st.booleans())


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(searches())
def test_budgeted_search_returns_the_first_witness_or_runs_out(case):
    rows, keep, budget, by_component = case
    try:
        path = _first_p5(rows, keep, budget, by_component)
    except _BudgetSpent:
        return
    assert path == first_p5_reference(rows, keep)


def test_first_vertex_prune_skips_every_vertex_of_an_o3_free_block():
    """In a co-odd-cycle or a co-Andrasfai block the non-neighbours of a
    vertex are pairwise adjacent, so no P5 starts there: on cones over
    such blocks the search inside components visits no prefix, and a
    budget of the pairs alone suffices (the far-set prune alone spends
    it on the co-Andrasfai cones)."""
    co_cycles = [Graph.cycle(11).complement(), Graph.cycle(13).complement()]
    co_andrasfai_blocks = [Graph(*co_andrasfai(k)[:2]) for k in (3, 3, 4, 5)]
    for g in (_cone(co_cycles), _cone(co_andrasfai_blocks)):
        keep = kept(g)
        rows = rows_and_complement_rows(g, keep)[0]
        pairs = sum(rows[v].bit_count() for v in range(g.n) if keep >> v & 1)
        assert _first_p5(rows, keep, pairs, by_component=True) is None


def test_prefix_prune_charges_a_prefix_without_an_end_one_node():
    """The fork 4-3-2 with leaves 0 and 1 on 2: the one prefix (4, 3, 2)
    passes the far-set prune, but both far vertices see 2, so no e is
    left and the prefix costs one node, not one per d. The search ends
    on its 8 pairs and that node."""
    fork = Graph(5, [(3, 4), (2, 3), (0, 2), (1, 2)])
    assert _first_p5(fork.adj_masks, 31, 9) is None
    with pytest.raises(_BudgetSpent):
        _first_p5(fork.adj_masks, 31, 8)


# -- the kernel's rounds and the search inside one component ---------------------


def kernel_splits(rng: random.Random) -> Graph:
    """The disjoint union of two seeded random graphs, its complement (a
    join), or the cone over it, the cone at random with isolated or
    universal vertices added: graphs whose kernel tends to fall apart in
    the graph or in its complement."""
    g, other = (random_graph(rng.randint(6, 10), rng.uniform(0.25, 0.75), rng) for _ in range(2))
    union = Graph._from_masks([*g.adj_masks, *(m << g.n for m in other.adj_masks)])
    shape = rng.randrange(4)
    h = union if shape == 0 else union.complement() if shape == 1 else _cone([g, other])
    return with_universal_and_isolated(h, rng) if shape == 3 else h


def test_search_inside_a_component_matches_the_reference_on_split_kernels():
    rng = random.Random(23)
    split = found = 0
    for _ in range(4000):
        g = kernel_splits(rng)
        keep = kept(g)
        parts = 1
        for rows in rows_and_complement_rows(g, keep):
            path = _first_p5(rows, keep, by_component=True)
            assert path == first_p5_reference(rows, keep)
            parts = max(parts, len(component_masks(rows, keep)))
            found += path is not None
        split += parts > 1
        assert _vertices(find_induced_p5(g)) == first_p5_reference(g.adj_masks, (1 << g.n) - 1)
    assert split >= 3000 and found >= 1000


def test_kpe_reject_witnesses_are_pinned():
    """The {P5, Kp-e} witnesses of the 72 {P5, Kp-e} instances of the
    benchmark's rejects workload, recorded with the P5 search on the
    global far set and the kernel that ran full passes to the end."""
    rows = []
    for inst in benchmark_instances("rejects"):
        if inst.cls == "p5-kpe":
            w = find_class_violation(Graph(inst.n, inst.edges), "p5-kpe", inst.p)
            rows.append([w.pattern, list(w.vertices)])
    assert len(rows) == 72
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "5eca5c9b80efa7f346bf4bd7d58d1555179fa232a89dfca996dc7a90eaa0b9bf"


def test_budgeted_membership_builds_no_component_map(monkeypatch):
    """The budgeted searches and the quotient stage keep the global far
    set. At most 56 of these 120 near-members fall back to the tree: a
    change to the search may lower that count, never raise it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return reach(*args)

    monkeypatch.setattr(detect, "reach", counted)
    handed_over = sum(p5_cop5_violation(g)[1] is not None for g in flipped_members((20, 40, 80)))
    assert calls == [] and 0 < handed_over <= 56
    assert find_induced_p5(_cone([Graph.cycle(11).complement()] * 2)) is None
    assert len(calls) == 2  # one per block of the cone's kernel


def test_a_cone_over_co_odd_cycles_takes_one_twin_pass(monkeypatch):
    """The pass takes only the apex, so the blocks fall apart, and the P5
    search inside each block ends within its budget, also with a vertex
    hanging off the apex alone, which the pass keeps."""
    passes, trees = counted_passes_and_trees(monkeypatch)
    blocks = [Graph.cycle(11).complement(), Graph.cycle(13).complement()]
    for g in (_cone(blocks), _cone([*blocks, Graph(1)])):
        passes.clear()
        assert find_induced_p5(g) is None
        assert passes == [(1 << g.n) - 2] and trees == []
