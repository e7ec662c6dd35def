import itertools
import random

import pytest

from p5color.coloring import validate_coloring
from p5color.errors import CutoffExceeded
from p5color.graph import Graph, is_clique
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
    with pytest.raises(CutoffExceeded):
        chi_exact(Graph.empty(25))
    assert chi_exact(Graph.empty(25), max_n=30)[0] == 1


def test_chi_branch_and_bound_node_budget_is_loud():
    with pytest.raises(CutoffExceeded, match="budget of 1 search nodes"):
        _chi_branch_and_bound(petersen(), node_budget=1)
    assert _chi_branch_and_bound(petersen())[0] == 3


def test_chi_w_exact_fixed_cases():
    assert chi_w_exact(Graph.empty(1), {0: 5})[0] == 5
    assert chi_w_exact(Graph.complete(2), {0: 2, 1: 3})[0] == 5
    assert chi_w_exact(Graph.cycle(5), None)[0] == chi_exact(Graph.cycle(5))[0]
    # odd cycle with uniform weight 3: ceil(5*3/2) = 8
    assert chi_w_exact(Graph.cycle(5), {v: 3 for v in range(5)})[0] == 8


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


def test_chi_w_exact_cutoff_is_total_weight():
    g = Graph.empty(3)
    with pytest.raises(CutoffExceeded):
        chi_w_exact(g, {0: 30, 1: 30, 2: 30})
    assert chi_w_exact(g, {0: 30, 1: 30, 2: 30}, max_total_weight=100)[0] == 30


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
    with pytest.raises(CutoffExceeded):
        max_matching_bruteforce(Graph.empty(15))
