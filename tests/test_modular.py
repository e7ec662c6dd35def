import itertools
import json
import random
import sys
import tracemalloc
from dataclasses import replace

import pytest

from p5color import modular
from p5color.coloring import MultiColoring, validate_coloring
from p5color.graph import Graph, bits_of, iter_bits, parse_graph, substitute
from p5color.modular import (
    MDLeaf,
    MDParallel,
    MDPrime,
    MDSeries,
    chi_w,
    is_prime,
    md_tree,
    md_tree_to_json,
    min_module,
    twin_core,
    validate_md_tree,
)
from p5color.oracle import chi_exact, chi_w_exact
from p5color.pipeline import _BULL, _C5, _P4, gen_p5_cop5, solve_p5_cop5

from helpers import (
    all_graphs,
    alternating_threshold,
    chi_w_bruteforce,
    chi_w_reference,
    matching_clique,
    md_tree_reference,
    nested_tree,
    random_graph,
    spider,
    with_universal_and_isolated,
)

C4 = Graph.cycle(4)
P4 = Graph.path(4)


def exact_prime_solver(q, w, reps):
    return chi_w_exact(q, w)


def test_is_module_known_cases():
    full = 0b1111
    assert min_module(C4.adj_masks, 0b0101, full) == 0b0101  # opposite vertices of C4
    for size in (2, 3):
        for sub in itertools.combinations(range(4), size):
            mask = bits_of(sub)
            assert min_module(P4.adj_masks, mask, full) != mask  # P4 is prime
    assert min_module(P4.adj_masks, 0b0010, full) == 0b0010
    assert min_module(P4.adj_masks, full, full) == full


def test_is_prime():
    assert is_prime(P4)
    assert not is_prime(C4)
    assert not is_prime(Graph.complete(3))
    assert is_prime(Graph.cycle(5))
    # prime labelled graphs on n = 0..4 vertices, of 1, 1, 2, 8 and 64
    primes = [sum(map(is_prime, all_graphs(n))) for n in range(5)]
    assert primes == [1, 1, 2, 0, 12]


def test_md_tree_c4_series_of_parallels():
    t = md_tree(C4)
    assert isinstance(t, MDSeries)
    assert sorted(c.mask for c in t.children) == [0b0101, 0b1010]
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


def test_validate_md_tree_rejects_broken_masks_and_reps():
    g = substitute(_C5, [Graph.complete(2), Graph(1), _P4, Graph.empty(2), Graph(1)])
    t = md_tree(g)
    validate_md_tree(g, t)
    first = t.children[0]
    assert isinstance(t, MDPrime) and isinstance(first, MDSeries)
    shrunk = replace(first, mask=first.mask & (first.mask - 1))
    broken = {
        "root span": replace(t, mask=t.mask >> 1),
        "disjoint": replace(t, children=(first, first, *t.children[2:])),
        "partition": replace(t, children=(shrunk, *t.children[1:])),
        "smallest vertex": replace(t, reps=(t.reps[1], t.reps[0], *t.reps[2:])),
    }
    for message, bad in broken.items():
        with pytest.raises(ValueError, match=message):
            validate_md_tree(g, bad)


def test_md_tree_validates_on_random_graphs():
    rng = random.Random(20)
    for _ in range(60):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        validate_md_tree(g, md_tree(g))


def _canonical(t, relabel):
    span = tuple(sorted(relabel[v] for v in iter_bits(t.mask)))
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
    """One flat list of nodes in pre-order, the root first, each internal
    node naming its children by their positions in it."""
    leaves = [{"kind": "vertex", "vertex": v} for v in range(4)]
    assert md_tree_to_json(md_tree(P4)) == {"nodes": [
        {"kind": "prime", "children": [1, 2, 3, 4], "quotient_edges": [[0, 1], [1, 2], [2, 3]],
         "representatives": [0, 1, 2, 3]},
        *leaves,
    ]}
    # 0 joined to 1 and to the edge 2-3
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
    assert md_tree_to_json(md_tree(g)) == {"nodes": [
        {"kind": "series", "children": [1, 2]},
        leaves[0],
        {"kind": "parallel", "children": [3, 4]},
        leaves[1],
        {"kind": "series", "children": [5, 6]},
        *leaves[2:],
    ]}
    assert md_tree_to_json(None) == {"nodes": []}  # a graph without vertices


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
            assert nested_tree(md_tree_to_json(md_tree(g))) == md_tree_reference(g)


def test_md_tree_matches_reference_on_random_graphs():
    rng = random.Random(31)
    for _ in range(2000):
        g = random_graph(rng.randint(1, 24), rng.random(), rng)
        assert nested_tree(md_tree_to_json(md_tree(g))) == md_tree_reference(g)


def _nested_members():
    k = Graph.complete
    for skeleton in (_P4, _C5, _BULL):
        for size in (1, 2, 5):
            yield substitute(skeleton, [k(size)] * skeleton.n)
    c5_of_k2 = substitute(_C5, [k(2)] * 5)
    p4_of_mixed = substitute(_P4, [Graph.empty(2), k(3), c5_of_k2, Graph.path(3)])
    yield substitute(_BULL, [c5_of_k2, p4_of_mixed, Graph(1), _C5, Graph.empty(3)])
    yield substitute(_C5, [p4_of_mixed, _BULL, k(1), c5_of_k2, _P4])


def test_md_tree_matches_reference_on_blowups_and_nested_primes():
    primes = []
    for g in _nested_members():
        tree = md_tree(g)
        validate_md_tree(g, tree)
        assert nested_tree(md_tree_to_json(tree)) == md_tree_reference(g)
        primes.append(str(md_tree_to_json(tree)).count("'prime'"))
    assert primes[-2:] == [5, 6]


def _twin_heavy_graphs():
    """Graphs most of whose vertices twin_core sets aside."""
    k, e = Graph.complete, Graph.empty
    for n in range(2, 9):
        yield k(n)
        yield e(n)
        yield Graph(n, [(0, v) for v in range(1, n)])  # the star K1,n-1
        yield Graph(2 * n, [(u, n + v) for u in range(n) for v in range(n)])  # Kn,n
    for skeleton in (_C5, _BULL, _P4):
        for size in (2, 3, 4):
            yield substitute(skeleton, [k(size)] * skeleton.n)
            yield substitute(skeleton, [e(size)] * skeleton.n)
    rng = random.Random(26)
    for n in (5, 10, 20, 30):
        for seed in range(6):
            yield with_universal_and_isolated(gen_p5_cop5(n, seed), rng)
    for n in range(2, 30, 3):
        yield alternating_threshold(n)
    for legs in (2, 3, 4):
        for thick in (False, True):
            for head in (0, 1, 3):
                yield spider(legs, thick, head)


def test_md_tree_matches_reference_on_twin_heavy_families():
    """Trees built on the twin core with the twins hung on are the
    reference's, and compose like it, unweighted and weighted."""
    rng = random.Random(27)
    set_aside = 0
    for g in _twin_heavy_graphs():
        tree = md_tree(g)
        validate_md_tree(g, tree)
        assert nested_tree(md_tree_to_json(tree)) == md_tree_reference(g)
        set_aside += g.n - twin_core(g.adj_masks, (1 << g.n) - 1)[0].bit_count()
        for w in (None, {v: rng.randint(1, 3) for v in range(g.n)}):
            assert_composition_matches_the_reference(g, w, tree)
    assert set_aside >= 400


def test_md_tree_from_a_handed_in_twin_pass_is_the_same_tree():
    for g in _twin_heavy_graphs():
        assert md_tree(g, twin_core(g.adj_masks, (1 << g.n) - 1)) == md_tree(g)


def test_md_tree_refines_only_the_twin_core(monkeypatch):
    """No span md_tree hands to the component, co-component or prime
    refinement holds a vertex twin_core sets aside."""
    spans = []

    def spy(name):
        real = getattr(modular, name)

        def spied(adj, span):
            spans.append(span)
            return real(adj, span)

        monkeypatch.setattr(modular, name, spied)

    for name in ("component_masks", "co_component_masks", "_prime_children"):
        spy(name)
    graphs = [gen_p5_cop5(n, seed) for n in (20, 28, 40, 57, 80) for seed in range(3)]
    for g in [*graphs, alternating_threshold(200)]:
        core = twin_core(g.adj_masks, (1 << g.n) - 1)[0]
        assert core != (1 << g.n) - 1
        spans.clear()
        md_tree(g)
        assert spans and all(span & ~core == 0 for span in spans)


def test_md_tree_memory_follows_the_input_on_a_sparse_large_id():
    """On the edge list 0 39999 the core is one vertex: the tree holds
    39,998 isolated leaves and no singleton bitmask per vertex."""
    g = parse_graph("0 39999\n", "edges")
    tracemalloc.start()
    try:
        tree = md_tree(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 10**6
    assert isinstance(tree, MDParallel) and len(tree.children) == 39_999
    assert isinstance(tree.children[0], MDSeries) and tree.children[0].mask == 1 | 1 << 39_999


def test_deep_tree_walks_stay_within_the_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    g = alternating_threshold(1100)
    tree = md_tree(g)
    validate_md_tree(g, tree)
    # solve_p5_cop5 builds the tree again, composes chi_w over it and
    # writes it with md_tree_to_json
    report = solve_p5_cop5(g)
    nodes, i, kinds = report.decomposition["nodes"], 0, []
    while nodes[i]["kind"] != "vertex":
        kinds.append(nodes[i]["kind"])
        i = nodes[i]["children"][0]
    assert kinds == ["series", "parallel"] * 549 + ["series"]
    assert len(nodes) == 2 * g.n - 1
    assert report.chi == 551  # a threshold graph is perfect


def report_bytes(g: Graph) -> int:
    """The size of g's modular decomposition tree as the command line writes it."""
    return len(json.dumps(md_tree_to_json(md_tree(g)), indent=2, sort_keys=True))


def test_tree_reports_grow_linearly():
    """Each doubling of n at most about doubles the report on the
    alternating threshold graph, whose tree is n - 1 levels deep, and
    the report on M_m, one prime node, keeps its bytes per edge."""
    deep = [report_bytes(alternating_threshold(n)) for n in (100, 200, 400)]
    assert all(b <= 2.2 * a for a, b in zip(deep, deep[1:]))
    assert deep[-1] < 200_000
    per_edge = [report_bytes(g) / g.m for g in map(matching_clique, (25, 50, 100))]
    assert max(per_edge) <= 1.1 * min(per_edge)


def first_fit(calls):
    """A prime solver that gives each quotient vertex in turn the w
    smallest colors its earlier neighbours left free: proper, not
    always optimal, and with pools that are not blocks. It records
    every call it gets."""

    def solve(q, w, reps):
        calls.append((q, dict(w), reps))
        colors = []
        for v in range(q.n):
            taken = set().union(*(colors[u] for u in iter_bits(q.adj_masks[v]) if u < v))
            free = (c for c in itertools.count(1) if c not in taken)
            colors.append(frozenset(itertools.islice(free, w[v])))
        k = max(max(cs) for cs in colors)
        return k, MultiColoring(tuple(colors), k)

    return solve


def post_order(tree):
    """The nodes of a tree, children left to right before their parent."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(getattr(node, "children", ()))
    return out[::-1]


def assert_composition_matches_the_reference(g, w, tree):
    calls, reference_calls = [], []
    got = chi_w(g, w, first_fit(calls), tree)
    assert got == chi_w_reference(g, w, first_fit(reference_calls), tree)
    assert calls == reference_calls
    validate_coloring(g, got[1], w)
    for node in post_order(tree):
        if isinstance(node, MDPrime):
            assert node.quotient == g.induced(node.reps)[0]


def test_chi_w_matches_the_reference_on_every_small_graph():
    rng = random.Random(40)
    for n in range(1, 7):
        for g in all_graphs(n):
            w = {v: rng.randint(1, 4) for v in range(n)}
            assert_composition_matches_the_reference(g, w, md_tree(g))


def test_chi_w_matches_the_reference_on_random_graphs():
    rng = random.Random(41)
    for _ in range(2000):
        n = rng.randint(1, 24)
        g = random_graph(n, rng.random(), rng)
        w = {v: rng.randint(1, 4) for v in range(n)}
        assert_composition_matches_the_reference(g, w, md_tree(g))


def test_member_solves_match_the_reference_composition(monkeypatch):
    rng = random.Random(42)
    for n in (5, 9, 20, 40, 80):
        for seed in range(6):
            g = gen_p5_cop5(n, seed)
            for w in (None, {v: rng.randint(1, 4) for v in range(n)}):
                report = solve_p5_cop5(g, w).to_json()
                with monkeypatch.context() as patch:
                    patch.setattr(modular, "chi_w", chi_w_reference)
                    assert solve_p5_cop5(g, w).to_json() == report


def test_chi_w_matches_the_reference_on_the_deep_threshold_graph():
    assert sys.getrecursionlimit() <= 1000
    g = alternating_threshold(1100)
    w = {v: 1 + v % 3 for v in range(g.n)}
    assert_composition_matches_the_reference(g, w, md_tree(g))


def test_names_the_benchmark_tracer_swaps(monkeypatch):
    # perfbench/spans.py wraps md_tree, chi_w and validate_coloring by
    # their names in modular, and chi_w's prime_solver by its position;
    # it counts nodes through their children and quotients
    assert modular.validate_coloring is validate_coloring
    c5_of_k2 = substitute(_C5, [Graph.complete(2)] * 5)
    member = substitute(_C5, [c5_of_k2, Graph(1), _P4, Graph.complete(2), c5_of_k2])
    checked = []

    def counting_validate(q, mc, w=None):
        checked.append(q)
        validate_coloring(q, mc, w)

    monkeypatch.setattr(modular, "validate_coloring", counting_validate)
    for g, primes in ((c5_of_k2, 1), (member, 4)):
        tree = modular.md_tree(g)
        for node in post_order(tree):
            if not isinstance(node, MDLeaf):
                assert isinstance(node.children, tuple) and len(node.children) >= 2
            if isinstance(node, MDPrime):
                assert isinstance(node.quotient, Graph) and node.quotient.n == len(node.children)
            else:
                assert getattr(node, "quotient", None) is None
        expected = [(node.quotient, node.reps) for node in post_order(tree) if isinstance(node, MDPrime)]
        assert len(expected) == primes
        seen = []

        def wrapped(q, w, reps):
            seen.append((q, reps))
            return exact_prime_solver(q, w, reps)

        checked.clear()
        k, mc = modular.chi_w(g, None, wrapped)
        assert seen == expected
        assert checked == [q for q, _ in expected]
        assert k == chi_w_exact(g, None)[0]
