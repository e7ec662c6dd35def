import itertools
import random
import time
import tracemalloc

import pytest

from p5color import oracle
from p5color.coloring import validate_coloring
from p5color.errors import CutoffExceeded
from p5color.graph import Graph, is_clique
from p5color.matching import max_matching
from p5color.oracle import (
    _chi_branch_and_bound,
    chi_exact,
    chi_w_exact,
    clique_number_exact,
    max_clique_exact,
    max_independent_set_exact,
    max_matching_bruteforce,
)

from helpers import chi_bruteforce, chi_w_bruteforce, petersen, random_graph

K4_MINUS_E = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_chi_exact_fixed_cases():
    assert chi_exact(Graph.complete(4))[0] == 4
    assert chi_exact(Graph.path(7))[0] == 2
    assert chi_exact(Graph.cycle(6))[0] == 2
    assert chi_exact(Graph.cycle(5))[0] == 3
    assert chi_exact(Graph.empty(5))[0] == 1
    assert chi_exact(Graph.empty(0))[0] == 0
    assert chi_exact(petersen())[0] == 3


def test_chi_exact_matches_plain_backtracking():
    rng = random.Random(40)
    for _ in range(80):
        g = random_graph(rng.randint(0, 9), rng.random(), rng)
        k, mc = chi_exact(g)
        assert k == chi_bruteforce(g)
        validate_coloring(g, mc)


def test_chi_exact_cutoff():
    assert chi_exact(Graph.empty(25))[0] == 1


@pytest.mark.parametrize("n,p,budget", [(80, 0.5, 5 * 10**6), (200, 0.3, 5 * 10**6), (200, 0.3, 10**6)])
def test_chi_exact_refuses_within_its_work_budget(monkeypatch, n, p, budget):
    # each saturation scan reads n + 2m; n of them are set aside for the
    # greedy pass and each search node makes one, and a greedy pass past
    # the budget is not begun
    g = random_graph(n, p, random.Random(1))
    scans = budget // (n + 2 * g.m)
    counted = 0

    def most_saturated(*args):
        nonlocal counted
        counted += 1
        return search(*args)

    search = oracle._most_saturated
    monkeypatch.setattr(oracle, "_most_saturated", most_saturated)
    monkeypatch.setattr(oracle, "WORK_BUDGET", budget)
    with pytest.raises(CutoffExceeded, match="greedy pass alone" if scans < n else "search nodes"):
        chi_exact(g)
    assert counted <= scans


def test_chi_branch_and_bound_node_budget_is_loud(monkeypatch):
    # Petersen: n + 2m = 40 reads a node, so 440 reads leave 440 // 40 - 10 = 1
    monkeypatch.setattr(oracle, "WORK_BUDGET", 440)
    with pytest.raises(CutoffExceeded, match="budget of 1 search nodes"):
        _chi_branch_and_bound(petersen())
    monkeypatch.undo()
    assert _chi_branch_and_bound(petersen())[0] == 3


def test_chi_w_exact_fixed_cases():
    assert chi_w_exact(Graph.empty(1), {0: 5})[0] == 5
    assert chi_w_exact(Graph.complete(2), {0: 2, 1: 3})[0] == 5
    assert chi_w_exact(Graph.cycle(5), None)[0] == chi_exact(Graph.cycle(5))[0]
    # odd cycle with uniform weight 3: ceil(5*3/2) = 8
    assert chi_w_exact(Graph.cycle(5), {v: 3 for v in range(5)})[0] == 8
    # the copies of 0 and 9 make a K6 of the 20-vertex blow-up, which a
    # greedy clique bound of 4 missed
    g = Graph(10, [(0, 9), (1, 3), (1, 4), (1, 6), (2, 3), (2, 4), (2, 8), (3, 6), (4, 5), (4, 7)])
    w = {v: 3 if v in (0, 3, 4, 8, 9) else 1 for v in range(10)}
    assert chi_w_exact(g, w)[0] == 6


def test_chi_w_exact_matches_direct_enumeration():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 5)
        g = random_graph(n, rng.random(), rng)
        w = {v: rng.randint(1, 3) for v in range(n)}
        while sum(w.values()) > 9:  # keep the naive enumeration tractable
            w[rng.randrange(n)] = 1
        k, mc = chi_w_exact(g, w)
        assert k == chi_w_bruteforce(g, w)
        validate_coloring(g, mc, w)


def test_chi_w_exact_refuses_only_past_the_work_budget():
    # total weight 90, past the old cutoff of 64: the blow-up K90 has
    # 4,005 edges and its bounds meet at once
    assert chi_w_exact(Graph.complete(3), {0: 30, 1: 30, 2: 30})[0] == 90
    assert chi_w_exact(Graph.empty(3), {0: 30, 1: 30, 2: 30})[0] == 30
    # a blow-up of 5 * 10**9 vertices is refused before it is built
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CutoffExceeded, match="greedy pass alone"):
            chi_w_exact(Graph.cycle(5), {v: 10**9 for v in range(5)})
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.05 and peak < 20 * 2**20


def test_chi_w_exact_refuses_by_the_blowups_size(monkeypatch):
    # K2 with weights 2 and 3 blows up to K5: 5 vertices, 10 edges, so
    # 5 * 25 reads leave the branch and bound no search node and one less
    # leaves its greedy pass short
    g, w = Graph.complete(2), {0: 2, 1: 3}
    monkeypatch.setattr(oracle, "WORK_BUDGET", 125)
    assert chi_w_exact(g, w)[0] == 5
    monkeypatch.setattr(oracle, "WORK_BUDGET", 124)
    with pytest.raises(CutoffExceeded, match="on 5 vertices and 10 edges"):
        chi_w_exact(g, w)


def test_clique_searches_share_one_work_budget(monkeypatch):
    # on K6 the search for a clique as large as the greedy one, 6, pushes
    # 5 nodes, and its colouring bound reads 5 + 4 + 3 + 2 rows on the
    # levels needing 6..3 vertices; the one for size 7 reads nothing. The
    # budget is WORK_BUDGET // n
    k6 = Graph.complete(6)
    monkeypatch.setattr(oracle, "WORK_BUDGET", 6 * 19)
    assert clique_number_exact(k6) == 6
    assert len(max_independent_set_exact(k6.complement())) == 6
    monkeypatch.setattr(oracle, "WORK_BUDGET", 6 * 19 - 1)
    with pytest.raises(CutoffExceeded, match="clique of 6 vertices ran out of nodes"):
        clique_number_exact(k6)


def test_clique_number_fixed_cases():
    assert clique_number_exact(K4_MINUS_E) == 3
    assert clique_number_exact(Graph.cycle(5)) == 2
    for p in (1, 3, 6):
        assert clique_number_exact(Graph.complete(p)) == p


def test_max_clique_is_a_clique_and_maximum():
    rng = random.Random(42)
    for _ in range(60):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        clique = max_clique_exact(g)
        assert is_clique(g, clique)
        best = max(
            (
                len(s)
                for r in range(g.n + 1)
                for s in itertools.combinations(range(g.n), r)
                if is_clique(g, s)
            ),
            default=0,
        )
        assert len(clique) == best


def test_max_clique_and_independent_set_are_the_lexicographically_first_maximum_ones():
    rng = random.Random(2019)
    for _ in range(500):
        g = random_graph(rng.randint(0, 10), rng.random(), rng)
        for h, found in ((g, max_clique_exact(g)), (g.complement(), max_independent_set_exact(g))):
            first = next(
                s
                for r in range(h.n, -1, -1)
                for s in itertools.combinations(range(h.n), r)
                if is_clique(h, s)
            )
            assert tuple(sorted(found)) == first


def test_independence_ops_are_complement_cliques():
    g = Graph.cycle(5)
    s = max_independent_set_exact(g)
    assert len(s) == 2 and not any(
        g.adjacent(u, v) for u in s for v in s if u < v
    )


def test_chi_at_least_omega():
    rng = random.Random(43)
    for _ in range(50):
        g = random_graph(rng.randint(1, 10), rng.random(), rng)
        assert chi_exact(g)[0] >= clique_number_exact(g)


def test_chi_w_unit_equals_chi():
    rng = random.Random(44)
    for _ in range(40):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        assert chi_w_exact(g, None)[0] == chi_exact(g)[0]


def test_matching_bruteforce_fixed_cases():
    assert max_matching_bruteforce(Graph.path(4)) == 2
    assert max_matching_bruteforce(Graph.cycle(5)) == 2
    assert max_matching_bruteforce(petersen()) == 5
    assert max_matching_bruteforce(Graph.empty(15)) == 0
    assert max_matching_bruteforce(Graph.complete(15)) == 7
    assert max_matching_bruteforce(Graph.empty(0)) == 0


def test_matching_bruteforce_bounds_a_branch_by_a_vertex_cover(monkeypatch):
    """K5,15 has nu = 5 well short of n / 2; the 5-vertex side covers
    every edge, which settles it within 81 branches."""
    rng = random.Random(52)
    for a in range(1, 7):
        for b in range(a, 13):
            g = Graph(a + b, [(u, a + v) for u in range(a) for v in range(b) if rng.random() < 0.7])
            assert max_matching_bruteforce(g) == len(max_matching(g))
    k5_15 = Graph(20, [(u, v) for u in range(5) for v in range(5, 20)])
    monkeypatch.setattr(oracle, "WORK_BUDGET", 20 * 81)
    assert max_matching_bruteforce(k5_15) == 5


def test_matching_bruteforce_refuses_past_its_work_budget(monkeypatch):
    # the search on K8 visits 21 branches: 5 on its way down to a perfect
    # matching and the 16 it left on the stack, each skipped once popped
    monkeypatch.setattr(oracle, "WORK_BUDGET", 8 * 21)
    assert max_matching_bruteforce(Graph.complete(8)) == 4
    monkeypatch.setattr(oracle, "WORK_BUDGET", 8 * 21 - 1)
    with pytest.raises(CutoffExceeded, match="matching on 8 vertices ran out of nodes"):
        max_matching_bruteforce(Graph.complete(8))
