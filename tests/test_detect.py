import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p5color.detect import (
    Witness,
    _BudgetSpent,
    _co_p5_in,
    _first_p5,
    _p5_in,
    _quotient_violation,
    _twin_kernel,
    class_membership,
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
from p5color.graph import Graph
from p5color.modular import md_tree, validate_md_tree
from p5color.oracle import max_independent_set_exact
from p5color.pipeline import _substitute, gen_p5_cop5, solve_p5_kpe

from helpers import (
    all_graphs,
    contains_induced,
    first_p5_reference,
    kp_minus_e_reference,
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


def test_berge_cutoff_refuses_loudly():
    with pytest.raises(CutoffExceeded):
        is_berge_small(Graph.empty(17))
    assert is_berge_small(Graph.empty(17), max_n=20)


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
    assert class_membership(C5, "p5-cop5")
    v = find_class_violation(P5, "p5-cop5")
    assert v.pattern == "P5" and v.vertices == (0, 1, 2, 3, 4)
    v2 = find_class_violation(K4_MINUS_E, "p5-kpe", 4)
    assert v2.pattern == "K4-e" and sorted(v2.vertices) == [0, 1, 2, 3]
    with pytest.raises(PreconditionError):
        find_class_violation(C5, "p5-kpe")
    with pytest.raises(ValueError):
        find_class_violation(C5, "nonsense")


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
        assert class_membership(sub, "p5-kpe", 4)


def test_berge_longer_odd_holes_at_the_size_boundary():
    assert not is_berge_small(Graph.cycle(9))
    w = find_odd_hole_or_antihole(Graph.cycle(9))
    assert w.pattern == "C9" and witness_ok(Graph.cycle(9), w)
    assert is_berge_small(Graph.cycle(8))


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


def flipped_members(sizes=(20, 40)):
    """gen_p5_cop5 members with one seeded vertex pair flipped."""
    for n in sizes:
        for seed in range(10):
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
            yield _substitute(skeleton, parts)


def smaller_twin(g: Graph, v: int) -> int | None:
    for u in range(v):
        if g.adj_bits(u) & ~(1 << v) == g.adj_bits(v) & ~(1 << u):
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


def kernel_violation(g: Graph) -> Witness | None:
    """The twin-kernel search with no budget."""
    keep = _twin_kernel(g)
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
    """A near-member whose kernel P5 search ends within max(8n, 128)
    nodes returns no tree; one whose P5 search runs out returns its
    co-P5 witness with the tree."""
    graphs = list(flipped_members())
    g = graphs[41]
    assert g.n == 40
    w = _p5_in(g, _twin_kernel(g), max(8 * g.n, 128))
    assert w is not None and p5_cop5_violation(g) == (w, None)
    g = graphs[42]
    w, tree = p5_cop5_violation(g)
    assert w == kernel_violation(g) and w.pattern == "co-P5"
    validate_md_tree(g, tree)


def test_budgeted_membership_matches_the_unbudgeted_kernel_search():
    rng = random.Random(15)
    graphs = list(flipped_members((20, 40, 80)))
    graphs += [random_graph(rng.randint(1, 40), rng.random(), rng) for _ in range(500)]
    handed_over = 0
    for g in graphs:
        w, tree = p5_cop5_violation(g)
        assert w == kernel_violation(g)
        handed_over += tree is not None
    assert handed_over >= 40


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
                found += assert_pruned_search_matches_the_reference(h, _twin_kernel(h))
    assert found >= 1000


@st.composite
def searches(draw):
    """Rows of a graph on at most 12 vertices or of its complement,
    inside the whole vertex set or the twin kernel, and a budget."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    code = draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph(n, [pair for i, pair in enumerate(pairs) if code >> i & 1])
    keep = draw(st.sampled_from([(1 << n) - 1, _twin_kernel(g)]))
    rows = draw(st.sampled_from(rows_and_complement_rows(g, keep)))
    return rows, keep, draw(st.integers(0, 600))


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(searches())
def test_budgeted_search_returns_the_first_witness_or_runs_out(case):
    rows, keep, budget = case
    try:
        path = _first_p5(rows, keep, budget)
    except _BudgetSpent:
        return
    assert path == first_p5_reference(rows, keep)
