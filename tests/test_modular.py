import itertools
import random
import sys

import pytest

from p5color.coloring import validate_coloring
from p5color.graph import Graph
from p5color.modular import (
    MDLeaf,
    MDParallel,
    MDPrime,
    MDSeries,
    chi_w,
    is_module,
    is_prime,
    md_tree,
    md_tree_to_json,
    validate_md_tree,
)
from p5color.oracle import chi_exact, chi_w_exact
from p5color.pipeline import _BULL, _C5, _P4, _substitute, solve_p5_cop5

from helpers import (
    all_graphs,
    alternating_threshold,
    chi_w_bruteforce,
    md_tree_reference,
    random_graph,
)

C4 = Graph.cycle(4)
P4 = Graph.path(4)


def exact_prime_solver(q, w, reps):
    return chi_w_exact(q, w)


def test_is_module_known_cases():
    assert is_module(C4, [0, 2])  # opposite vertices of C4
    for size in (2, 3):
        for sub in itertools.combinations(range(4), size):
            assert not is_module(P4, sub)  # P4 is prime
    assert is_module(P4, [1])
    assert is_module(P4, range(4))


def test_is_prime():
    assert is_prime(P4)
    assert not is_prime(C4)
    assert not is_prime(Graph.complete(3))
    assert is_prime(Graph.cycle(5))


def test_md_tree_c4_series_of_parallels():
    t = md_tree(C4)
    assert isinstance(t, MDSeries)
    assert sorted(sorted(c.span) for c in t.children) == [[0, 2], [1, 3]]
    assert all(isinstance(c, MDParallel) for c in t.children)
    validate_md_tree(C4, t)


def test_md_tree_p4_prime():
    t = md_tree(P4)
    assert isinstance(t, MDPrime)
    assert t.quotient == P4
    assert all(isinstance(c, MDLeaf) for c in t.children)
    assert t.reps == (0, 1, 2, 3)
    validate_md_tree(P4, t)


def test_md_tree_o3_parallel():
    t = md_tree(Graph.empty(3))
    assert isinstance(t, MDParallel) and len(t.children) == 3
    validate_md_tree(Graph.empty(3), t)


def test_md_tree_single_vertex():
    assert isinstance(md_tree(Graph.empty(1)), MDLeaf)
    with pytest.raises(ValueError):
        md_tree(Graph.empty(0))


def test_md_tree_validates_on_random_graphs():
    rng = random.Random(20)
    for _ in range(60):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        validate_md_tree(g, md_tree(g))


def _canonical(t, relabel):
    span = tuple(sorted(relabel[v] for v in t.span))
    if isinstance(t, MDLeaf):
        return ("leaf", span)
    kind = type(t).__name__
    kids = tuple(sorted(_canonical(c, relabel) for c in t.children))
    return (kind, span, kids)


def test_md_tree_invariant_under_relabeling():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(2, 8)
        g = random_graph(n, rng.random(), rng)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        back = {perm[v]: v for v in range(n)}
        ident = {v: v for v in range(n)}
        assert _canonical(md_tree(g), ident) == _canonical(md_tree(relabeled), back)


def test_chi_w_known_examples():
    single = Graph.empty(1)
    assert chi_w(single, {0: 7}, exact_prime_solver)[0] == 7
    assert chi_w(Graph.complete(3), None, exact_prime_solver)[0] == 3
    assert chi_w(Graph.cycle(5), None, exact_prime_solver)[0] == 3
    assert chi_w(C4, {v: 2 for v in range(4)}, exact_prime_solver)[0] == 4


def test_chi_w_small_cases_match_direct_enumeration():
    rng = random.Random(22)
    for _ in range(25):
        n = rng.randint(1, 5)
        g = random_graph(n, rng.random(), rng)
        w = {v: rng.randint(1, 3) for v in range(n)}
        assert chi_w(g, w, exact_prime_solver)[0] == chi_w_bruteforce(g, w)


def test_chi_w_matches_blowup_oracle_random():
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(1, 8)
        g = random_graph(n, rng.random(), rng)
        w = {v: rng.randint(1, 3) for v in range(n)}
        k, mc = chi_w(g, w, exact_prime_solver)
        validate_coloring(g, mc, w)
        assert k == chi_w_exact(g, w)[0]


def test_chi_w_unit_weights_equal_chi():
    rng = random.Random(24)
    for _ in range(40):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        assert chi_w(g, None, exact_prime_solver)[0] == chi_exact(g)[0]


def test_chi_w_detects_bad_prime_solver():
    from p5color.coloring import MultiColoring

    def lying(q, w, reps):
        # claims one color for everything
        return 1, MultiColoring(tuple(frozenset([1]) for _ in range(q.n)), 1)

    with pytest.raises(RuntimeError):
        chi_w(Graph.path(4), None, lying)


def test_md_tree_json_shape():
    payload = md_tree_to_json(md_tree(P4))
    assert payload["kind"] == "prime"
    assert payload["representatives"] == [0, 1, 2, 3]
    assert payload["quotient_edges"] == [[0, 1], [1, 2], [2, 3]]
    assert [c["kind"] for c in payload["children"]] == ["vertex"] * 4


def test_md_tree_of_c5_with_doubled_vertices():
    # substitute a K2 into every vertex of a 5-cycle: the root must be
    # prime with quotient C5 and five Series children
    edges = [(2 * i, 2 * i + 1) for i in range(5)]
    for i in range(5):
        j = (i + 1) % 5
        edges += [(a, b) for a in (2 * i, 2 * i + 1) for b in (2 * j, 2 * j + 1)]
    g = Graph(10, edges)
    t = md_tree(g)
    validate_md_tree(g, t)
    assert isinstance(t, MDPrime)
    assert t.quotient.n == 5 and all(t.quotient.degree(v) == 2 for v in range(5))
    assert all(isinstance(c, MDSeries) for c in t.children)
    # weighted 5-cycle with demand 2 everywhere needs 5 colors
    assert chi_w(g, None, exact_prime_solver)[0] == 5
    assert chi_exact(g)[0] == 5


def test_md_tree_matches_reference_on_every_small_graph():
    for n in range(1, 7):
        for g in all_graphs(n):
            assert md_tree_to_json(md_tree(g)) == md_tree_reference(g)


def test_md_tree_matches_reference_on_random_graphs():
    rng = random.Random(31)
    for _ in range(2000):
        g = random_graph(rng.randint(1, 24), rng.random(), rng)
        assert md_tree_to_json(md_tree(g)) == md_tree_reference(g)


def _nested_members():
    k = Graph.complete
    for skeleton in (_P4, _C5, _BULL):
        for size in (1, 2, 5):
            yield _substitute(skeleton, [k(size)] * skeleton.n)
    c5_of_k2 = _substitute(_C5, [k(2)] * 5)
    p4_of_mixed = _substitute(_P4, [Graph.empty(2), k(3), c5_of_k2, Graph.path(3)])
    yield _substitute(_BULL, [c5_of_k2, p4_of_mixed, Graph(1), _C5, Graph.empty(3)])
    yield _substitute(_C5, [p4_of_mixed, _BULL, k(1), c5_of_k2, _P4])


def test_md_tree_matches_reference_on_blowups_and_nested_primes():
    primes = []
    for g in _nested_members():
        tree = md_tree(g)
        validate_md_tree(g, tree)
        assert md_tree_to_json(tree) == md_tree_reference(g)
        primes.append(str(md_tree_to_json(tree)).count("'prime'"))
    assert primes[-2:] == [5, 6]


def test_deep_tree_walks_stay_within_the_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    g = alternating_threshold(1100)
    tree = md_tree(g)
    validate_md_tree(g, tree)
    # solve_p5_cop5 builds the tree again, composes chi_w over it and
    # writes it with md_tree_to_json
    report = solve_p5_cop5(g)
    node, kinds = report.decomposition, []
    while node["kind"] != "vertex":
        kinds.append(node["kind"])
        node = node["children"][0]
    assert kinds == ["series", "parallel"] * 549 + ["series"]
    assert report.chi == 551  # a threshold graph is perfect
