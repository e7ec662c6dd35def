import itertools
import json
import random
from collections import Counter

import pytest

from p5color import cliquesep, coloring, detect, matching, modular, pipeline
from p5color.cli import EXIT_OK, main
from p5color.coloring import MultiColoring, validate_coloring
from p5color.cliquesep import (
    Atom,
    _mcs_m,
    build_tree,
    chi_compose,
    tree_leaves,
    tree_to_json,
    validate_tree,
)
from p5color.detect import Witness, find_independent_triple, find_induced_kp_minus_e
from p5color.errors import NotInClass
from p5color.graph import Graph, first_clique, is_clique, is_connected, iter_bits, to_dimacs
from p5color.matching import chi_o3_free
from p5color.oracle import chi_exact
from p5color.pipeline import solve_p5_kpe

from helpers import (
    all_graphs,
    build_tree_reference,
    chi_compose_reference,
    co_andrasfai,
    co_cycle,
    cone,
    has_clique_separator_bruteforce,
    k33,
    kp_minus_e_reference,
    mcs_m_reference,
    random_graph,
    star,
)

K4_MINUS_E = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
BOWTIE = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def pairs(atoms):
    return [(list(iter_bits(a.block)), list(iter_bits(a.separator))) for a in atoms]


def maximal_blocks_bruteforce(g: Graph) -> set[frozenset[int]]:
    """Inclusion-maximal vertex sets inducing a connected subgraph with
    no clique separator, by scanning subsets from the largest down."""
    found: list[frozenset[int]] = []
    for r in range(g.n, 0, -1):
        for subset in itertools.combinations(range(g.n), r):
            s = frozenset(subset)
            if any(s <= b for b in found):
                continue
            if not has_clique_separator_bruteforce(g.induced(s)[0]):
                found.append(s)
    return set(found)


def test_atoms_match_bruteforce_maximal_blocks():
    rng = random.Random(15)
    graphs = [g for n in range(6) for g in all_graphs(n)]
    graphs += [random_graph(rng.randint(6, 8), rng.random(), rng) for _ in range(200)]
    for g in graphs:
        atoms = build_tree(g)
        assert len({a.block for a in atoms}) == len(atoms)
        assert {frozenset(iter_bits(a.block)) for a in atoms} == maximal_blocks_bruteforce(g)


def test_separator_k4_minus_e():
    # the universal pair, p-2 vertices, separates the two triangles
    assert pairs(build_tree(K4_MINUS_E)) == [([0, 2, 3], []), ([1, 2, 3], [2, 3])]


def test_separator_p3_cut_vertex():
    assert pairs(build_tree(Graph.path(3))) == [([0, 1], []), ([1, 2], [1])]


def test_separator_c5_absent_matches_exhaustive_check():
    assert not has_clique_separator_bruteforce(Graph.cycle(5))
    assert build_tree(Graph.cycle(5)) == (Atom(0b11111, 0),)


def test_separator_disconnected_returns_empty_clique():
    g = Graph(5, [(0, 1), (2, 3), (3, 4)])
    assert pairs(build_tree(g)) == [([0, 1], []), ([2, 3], []), ([3, 4], [3])]


def test_separator_small_and_complete_graphs_have_none():
    assert build_tree(Graph.empty(0)) == ()
    for g in (Graph.empty(1), Graph.complete(2), Graph.complete(6)):
        assert build_tree(g) == (Atom((1 << g.n) - 1, 0),)


def test_separator_agrees_with_bruteforce_exhaustively_small():
    for n in range(2, 6):
        for g in all_graphs(n):
            if not is_connected(g):
                continue
            assert (len(build_tree(g)) > 1) == has_clique_separator_bruteforce(g)


def test_separator_agrees_with_bruteforce_random():
    rng = random.Random(11)
    for _ in range(150):
        g = random_graph(rng.randint(6, 9), rng.choice([0.2, 0.35, 0.5, 0.65]), rng)
        if not is_connected(g):
            continue
        atoms = build_tree(g)
        assert (len(atoms) > 1) == has_clique_separator_bruteforce(g)
        for atom in atoms[1:]:
            assert is_clique(g, iter_bits(atom.separator))
            rest, _ = g.induced(iter_bits((1 << g.n) - 1 & ~atom.separator))
            assert not is_connected(rest)


def test_build_tree_c5_single_leaf():
    (atom,) = build_tree(Graph.cycle(5))
    assert atom.block == 0b11111 and atom.separator == 0


def test_build_tree_k4_minus_e():
    t = build_tree(K4_MINUS_E)
    assert t[1].separator == 0b1100
    blocks = sorted(list(iter_bits(leaf.block)) for leaf in tree_leaves(t))
    assert blocks == [[0, 2, 3], [1, 2, 3]]
    validate_tree(K4_MINUS_E, t)


def test_build_tree_bowtie():
    t = build_tree(BOWTIE)
    assert t[1].separator == 0b100
    blocks = sorted(list(iter_bits(leaf.block)) for leaf in tree_leaves(t))
    assert blocks == [[0, 1, 2], [2, 3, 4]]
    validate_tree(BOWTIE, t)


def test_build_tree_validates_on_random_graphs():
    rng = random.Random(12)
    for _ in range(60):
        g = random_graph(rng.randint(1, 10), rng.choice([0.15, 0.3, 0.5]), rng)
        t = build_tree(g)
        validate_tree(g, t)
        spans = 0
        for leaf in tree_leaves(t):
            spans |= leaf.block
        assert spans == (1 << g.n) - 1


def test_build_tree_deterministic():
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(8, 0.3, rng)
        assert tree_to_json(build_tree(g)) == tree_to_json(build_tree(g))


def test_chi_compose_k4_minus_e():
    t = build_tree(K4_MINUS_E)
    k, mc = chi_compose(K4_MINUS_E, t, lambda sub, ids: chi_exact(sub))
    assert k == 3 and mc.k == 3


def test_chi_compose_single_leaf_identity():
    g = Graph.cycle(5)
    k, mc = chi_compose(g, build_tree(g), lambda sub, ids: chi_exact(sub))
    assert k == 3


def test_chi_compose_bowtie_is_three():
    # brute-force chromatic number of the bowtie is 3
    from helpers import chi_bruteforce

    assert chi_bruteforce(BOWTIE) == 3
    k, _ = chi_compose(BOWTIE, build_tree(BOWTIE), lambda sub, ids: chi_exact(sub))
    assert k == 3


def test_chi_compose_rejects_bad_leaf_solver():
    def broken(sub, ids):
        return 1, MultiColoring(tuple(frozenset([1]) for _ in range(sub.n)), 1)

    with pytest.raises(RuntimeError):
        chi_compose(K4_MINUS_E, build_tree(K4_MINUS_E), broken)


def test_a_star_validates_its_one_distinct_block_once(monkeypatch):
    """K1,120 has 120 atoms, all inducing K2: the leaf solve runs once
    per atom and the one cached coloring is checked once; the solver's
    final check on the host is its own."""
    checked = []

    def counted(g, mc, w=None):
        checked.append(g)
        return validate_coloring(g, mc, w)

    monkeypatch.setattr(cliquesep, "validate_coloring", counted)
    n, edges, _ = star(120)
    report = solve_p5_kpe(Graph(n, edges), 4)
    assert checked == [Graph.complete(2)]
    assert len(report.routes) == 120 and report.chi == 2


def test_chi_compose_checks_a_fresh_coloring_of_a_repeated_block():
    solves = []

    def valid_then_broken(sub, ids):
        solves.append(ids)
        if len(solves) == 1:
            return chi_exact(sub)
        return 1, MultiColoring(tuple(frozenset([1]) for _ in range(sub.n)), 1)

    n, edges, _ = star(5)
    with pytest.raises(RuntimeError, match="invalid coloring"):
        chi_compose(Graph(n, edges), build_tree(Graph(n, edges)), valid_then_broken)
    assert len(solves) == 2


def test_chi_compose_matches_exact_chi_end_to_end():
    rng = random.Random(14)
    done = 0
    while done < 120:
        g = random_graph(rng.randint(2, 10), rng.choice([0.2, 0.35, 0.5]), rng)
        t = build_tree(g)
        if len(t) == 1:
            continue  # want graphs that actually decompose
        done += 1
        k, mc = chi_compose(g, t, lambda sub, ids: chi_exact(sub))
        assert k == chi_exact(g)[0]
        assert len(mc.colors_used()) == k


def test_build_tree_path_gluing_order():
    # each atom of P4 meets the atoms before it in one cut vertex
    assert pairs(build_tree(Graph.path(4))) == [([0, 1], []), ([1, 2], [1]), ([2, 3], [2])]


def test_build_tree_disconnected_uses_empty_separators():
    g = Graph(6, [(0, 1), (2, 3), (4, 5)])
    t = build_tree(g)
    assert [a.separator for a in t] == [0] * 3
    validate_tree(g, t)
    blocks = sorted(list(iter_bits(leaf.block)) for leaf in tree_leaves(t))
    assert blocks == [[0, 1], [2, 3], [4, 5]]


def test_validate_tree_rejects_broken_decompositions():
    t = build_tree(BOWTIE)
    for bad, message in (
        (t[:1], "cover"),
        (t[::-1], "exactly in its separator"),  # the first separator must be empty
        ((Atom(0b11111, 0),), "has a clique separator"),
        ((t[0], Atom(0b11100, 0b110)), "exactly in its separator"),
        ((t[0], Atom(0b11000, 0)), "edge across"),
    ):
        with pytest.raises(ValueError, match=message):
            validate_tree(BOWTIE, bad)
    c4 = Graph.cycle(4)
    with pytest.raises(ValueError, match="not a clique"):
        validate_tree(c4, build_tree(c4) + (Atom(0b101, 0b101),))


def test_star_k1_1200_solves_and_decomposes(tmp_path):
    star = Graph(1201, [(0, v) for v in range(1, 1201)])
    report = solve_p5_kpe(star, 4)
    assert report.chi == 2
    assert len(report.decomposition["atoms"]) == 1200
    path = tmp_path / "star.col"
    path.write_text(to_dimacs(star))
    out = tmp_path / "atoms.json"
    argv = ["decompose", "--kind", "cliquesep", "--input", str(path), "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert json.loads(out.read_text())["atoms"][1] == {"block": [0, 2], "separator": [0]}


def test_mcs_m_generators_match_the_heap_reference():
    rng = random.Random(40)
    for _ in range(2000):
        n = rng.randint(0, 40)
        g = random_graph(n, rng.random(), rng)
        full = (1 << n) - 1
        assert _mcs_m(g, full) == mcs_m_reference(g, full)
    g = random_graph(30, 0.3, rng)
    span = sum(1 << v for v in range(30) if rng.random() < 0.6)
    assert _mcs_m(g, span) == mcs_m_reference(g, span)


def test_star_k1_5000_solves_with_one_atom_per_edge():
    star = Graph(5001, [(0, v) for v in range(1, 5001)])
    assert find_induced_kp_minus_e(star, 4) is None
    report = solve_p5_kpe(star, 4)
    assert report.chi == 2
    assert len(report.decomposition["atoms"]) == 5000


def _members(rng: random.Random) -> list[tuple[str, Graph, int]]:
    """The benchmark's {P5, Kp-e} shapes at its smallest and largest
    sizes, each in its built order and in one seeded vertex order."""
    shapes = []
    for reps in (1, 5):
        n, edges, _ = star(24 * reps)
        shapes.append((f"star-K1,{n - 1}", n, edges, 4))
        for label, blocks in (
            ("co-odd-cycles", [co_cycle(11), co_cycle(13)] * reps),
            ("co-andrasfai3", [co_andrasfai(3)] * (3 * reps)),
            ("k33", [k33()] * (4 * reps)),
        ):
            n, edges, _, p = cone(blocks)
            shapes.append((f"cone-{label}-n{n}", n, edges, p))
    out = []
    for name, n, edges, p in shapes:
        order = list(range(n))
        rng.shuffle(order)
        out.append((name, Graph(n, edges), p))
        out.append((f"{name}#shuffled", Graph(n, [(order[u], order[v]) for u, v in edges]), p))
    return out


def _leaf_chi(sub: Graph, ids):
    return chi_o3_free(sub) if find_independent_triple(sub) is None else chi_exact(sub)


def _kpe_reference(g: Graph, p: int) -> Witness | None:
    found = kp_minus_e_reference(g, p)
    return None if found is None else Witness(f"K{p}-e", found)


def _use_references(monkeypatch) -> None:
    monkeypatch.setattr(cliquesep, "build_tree", build_tree_reference)
    monkeypatch.setattr(cliquesep, "chi_compose", chi_compose_reference)
    monkeypatch.setattr(detect, "find_induced_kp_minus_e", _kpe_reference)


def _outcome(g: Graph, p: int):
    try:
        return solve_p5_kpe(g, p).to_json()
    except NotInClass as exc:
        return exc.witness


def test_structured_members_match_the_references(monkeypatch):
    """Atoms, composed colourings, Kp-e witnesses for every p up to the
    member's own, and solve_p5_kpe reports all agree with the reference
    decomposition, composition and Kp-e search."""
    members = _members(random.Random(21))
    assert {p for _, _, p in members} == {4, 9, 6, 5}
    reports = []
    for name, g, p in members:
        atoms = build_tree(g)
        assert atoms == build_tree_reference(g), name
        assert chi_compose(g, atoms, _leaf_chi) == chi_compose_reference(g, atoms, _leaf_chi)
        for q in range(3, p + 1):
            assert find_induced_kp_minus_e(g, q) == _kpe_reference(g, q), (name, q)
        reports.append(_outcome(g, p))
    _use_references(monkeypatch)
    assert [_outcome(g, p) for _, g, p in members] == reports


def test_kp_minus_e_search_settles_each_member_with_one_clique_search(monkeypatch):
    """No member holds a K_(p-1) at its own p, so the search for one
    is the only clique search its Kp-e check makes."""
    sizes = []

    def counted(adj, mask, size):
        sizes.append(size)
        return first_clique(adj, mask, size)

    monkeypatch.setattr(detect, "first_clique", counted)
    for name, g, p in _members(random.Random(21)):
        sizes.clear()
        assert find_induced_kp_minus_e(g, p) is None, name
        assert sizes == [p - 1], name


def test_random_graphs_match_the_references(monkeypatch):
    rng = random.Random(22)
    cases = [(random_graph(rng.randint(0, 22), rng.random(), rng), rng.randint(3, 6)) for _ in range(400)]
    outcomes = []
    for g, p in cases:
        atoms = build_tree(g)
        assert atoms == build_tree_reference(g)
        assert chi_compose(g, atoms, _leaf_chi) == chi_compose_reference(g, atoms, _leaf_chi)
        outcomes.append(_outcome(g, p))
    assert any(isinstance(o, dict) for o in outcomes)
    assert any(isinstance(o, Witness) and o.pattern.startswith("K") for o in outcomes)
    _use_references(monkeypatch)
    assert [_outcome(g, p) for g, p in cases] == outcomes


def test_each_distinct_block_gets_one_o3_scan(monkeypatch):
    """chi_o3_free scans its block for a triangle of the complement rows
    it then matches on; the solve makes no other O3 scan."""
    scans = Counter()

    def counting(sub):
        scans[sub] += 1
        return find_independent_triple(sub)

    def counting_triangles(co, mask, size):
        assert size == 3
        scans[Graph._from_masks(co).complement()] += 1
        return first_clique(co, mask, size)

    monkeypatch.setattr(pipeline, "find_independent_triple", counting)
    monkeypatch.setattr(matching, "first_clique", counting_triangles)
    for name, g, p in _members(random.Random(21)):
        scans.clear()
        solve_p5_kpe(g, p)
        blocks = {g.induced(iter_bits(a.block))[0] for a in build_tree(g)}
        assert scans == dict.fromkeys(blocks, 1), name


def test_names_the_benchmark_tracer_swaps(monkeypatch):
    # perfbench/spans.py swaps these by name, wraps the leaf solver that
    # solve_p5_kpe hands chi_compose by its position, 2, and counts
    # blocks with tree_leaves and MCS-M passes through _mcs_m
    swapped = {
        pipeline: ("find_class_violation", "find_independent_triple", "is_berge_small",
                   "chi_w_exact", "chi_exact", "chi_o3_free", "validate_coloring"),
        modular: ("md_tree", "chi_w", "validate_coloring"),
        cliquesep: ("build_tree", "chi_compose", "_mcs_m", "tree_leaves", "validate_coloring"),
    }
    for module, names in swapped.items():
        for name in names:
            assert callable(getattr(module, name)), (module.__name__, name)
    assert cliquesep.validate_coloring is coloring.validate_coloring
    counts = Counter()

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return call

    def compose(*args, **kwargs):
        assert len(args) == 3 and not kwargs
        args = (*args[:2], counted("leaf", args[2]))
        return counted("compose", chi_compose)(*args)

    n, edges, _, p = cone([co_cycle(11), k33(), co_andrasfai(3)])
    g = Graph(n, edges)
    atoms = len(cliquesep.tree_leaves(build_tree(g)))
    monkeypatch.setattr(cliquesep, "chi_compose", compose)
    monkeypatch.setattr(cliquesep, "_mcs_m", counted("mcs", _mcs_m))
    report = solve_p5_kpe(g, p)
    assert counts == {"compose": 1, "leaf": atoms, "mcs": 1}
    assert len(report.routes) == atoms == 3
