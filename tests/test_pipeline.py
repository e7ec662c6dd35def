import itertools
import json
import random
import re

import pytest

from p5color import oracle, pipeline
from p5color.cli import main
from p5color.cliquesep import build_tree, validate_tree
from p5color.coloring import MultiColoring, validate_coloring
from p5color.detect import (
    find_class_violation,
    find_induced_c5,
    is_o3_free,
    p5_cop5_violation,
)
from p5color.errors import CutoffExceeded, NotInClass, PreconditionError
from p5color.graph import Graph, iter_bits, substitute, to_dimacs
from p5color import modular
from p5color.modular import md_tree, md_tree_to_json, twin_core, validate_md_tree
from p5color.oracle import chi_exact, chi_w_exact
from p5color.pipeline import (
    ROUTE_EXACT_FALLBACK,
    ROUTE_O3_MATCHING,
    gen_p5_cop5,
    gen_p5_kpe,
    solve_p5_cop5,
    solve_p5_kpe,
    verify_gyarfas,
    verify_lemma4,
    verify_lemma5,
)
from p5color.prime import ROUTE_PERFECT_EXACT, ROUTE_PRIME_C5, chi_w_perfect

from helpers import benchmark_workloads, contains_induced, fallback_block, random_graph

BOWTIE = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def test_solve_cop5_c5_routes_through_prime_c5():
    report = solve_p5_cop5(Graph.cycle(5))
    assert report.chi == 3
    assert [r.route for r in report.routes] == [ROUTE_PRIME_C5]
    validate_coloring(Graph.cycle(5), report.coloring)


def test_solve_cop5_p4_routes_through_perfect():
    report = solve_p5_cop5(Graph.path(4))
    assert report.chi == 2
    assert [r.route for r in report.routes] == [ROUTE_PERFECT_EXACT]


def test_solve_cop5_cograph_needs_no_prime_route():
    # K3 join O2: chromatic number 3 + 1
    g = Graph(5, [(0, 1), (0, 2), (1, 2)] + [(i, j) for i in range(3) for j in (3, 4)])
    report = solve_p5_cop5(g)
    assert report.chi == 4
    assert report.routes == []


def test_solve_cop5_rejects_nonmembers():
    with pytest.raises(NotInClass) as err:
        solve_p5_cop5(Graph.path(5))
    assert err.value.witness.pattern == "P5"


def test_solve_cop5_weighted():
    report = solve_p5_cop5(Graph.cycle(5), {v: 2 for v in range(5)})
    assert report.chi == 5  # brute force: weighted C5, all weights 2
    assert report.chi == chi_w_exact(Graph.cycle(5), {v: 2 for v in range(5)})[0]


def test_solve_kpe_complete_graph():
    for n in (1, 4, 9):
        report = solve_p5_kpe(Graph.complete(n), 4)
        assert report.chi == n
        assert [r.route for r in report.routes] == [ROUTE_O3_MATCHING]


def test_solve_kpe_c5():
    report = solve_p5_kpe(Graph.cycle(5), 4)
    assert report.chi == 3
    assert [r.route for r in report.routes] == [ROUTE_O3_MATCHING]


def test_solve_kpe_bowtie_two_blocks():
    report = solve_p5_kpe(BOWTIE, 4)
    assert report.chi == 3
    assert len(report.routes) == 2
    assert {r.route for r in report.routes} == {ROUTE_O3_MATCHING}


def test_solve_kpe_rejects_nonmembers():
    k4e = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    with pytest.raises(NotInClass) as err:
        solve_p5_kpe(k4e, 4)
    assert err.value.witness.pattern == "K4-e"


def test_solve_kpe_p3_degenerate_class():
    # {P5, P3}-free graphs are disjoint unions of cliques
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4)])
    report = solve_p5_kpe(g, 3)
    assert report.chi == 3


def _complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def test_solve_kpe_exact_fallback_route():
    # K_{2,3}: triangle-free (so K4-e-free), P5-free, independence number 3,
    # and no clique separator; the one C-block is not O3-free, and its
    # modular decomposition, two stable sets in series, has no prime node
    g = _complete_bipartite(2, 3)
    assert find_class_violation(g, "p5-kpe", 4) is None
    assert not is_o3_free(g)
    report = solve_p5_kpe(g, 4)
    assert report.chi == chi_exact(g)[0] == 2
    assert [r.route for r in report.routes] == [ROUTE_PERFECT_EXACT]
    # a prime block with an induced C5 and an independent triple, on which
    # two-pair contraction ends in no clique: the chain's last link
    g = fallback_block()
    assert find_class_violation(g, "p5-kpe", 4) is None and modular.is_prime(g)
    assert not is_o3_free(g) and find_induced_c5(g) is not None
    with pytest.raises(PreconditionError):
        chi_w_perfect(g, None)
    report = solve_p5_kpe(g, 4)
    assert report.chi == chi_exact(g)[0] == 3
    assert [r.to_json() for r in report.routes] == [
        {"route": ROUTE_EXACT_FALLBACK, "vertices": list(range(7)), "size": 7, "chi": 3}
    ]


def test_solve_kpe_cutoff_is_loud(monkeypatch):
    g = fallback_block()
    monkeypatch.setattr(oracle, "WORK_BUDGET", 100)
    message = f"C-block {list(range(7))} on the exact-fallback"
    with pytest.raises(CutoffExceeded, match=re.escape(message)):
        solve_p5_kpe(g, 4)


@pytest.mark.parametrize(
    "g,chi,route",
    [
        *((_complete_bipartite(m, m), 2, ROUTE_PERFECT_EXACT) for m in (13, 30, 60)),
        *((substitute(Graph.cycle(5), [Graph.empty(k)] * 5), 3, ROUTE_PRIME_C5) for k in (5, 12)),
    ],
    ids=["K13,13", "K30,30", "K60,60", "C5[5K1]", "C5[12K1]"],
)
def test_solve_kpe_large_block_needs_no_exact_solve(monkeypatch, tmp_path, capsys, g, chi, route):
    # one C-block of more than 24 vertices with an independent triple: a
    # cograph, or C5 with stable sets substituted, so its modular
    # decomposition leaves no quotient for an exact solver
    assert g.n > 24 and len(build_tree(g)) == 1
    monkeypatch.setattr(pipeline, "chi_w_exact", None)
    report = solve_p5_kpe(g, 4)
    validate_coloring(g, report.coloring)
    assert report.chi == chi
    assert [r.route for r in report.routes] == [route]
    path = tmp_path / "g.col"
    path.write_text(to_dimacs(g))
    assert main(["solve", "--class", "p5-kpe", "--p", "4", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["chi"] == chi


def test_intersection_members_agree_across_solvers():
    # every gen_p5_cop5 member is {P5, Kp-e}-free for p >= chi + 2, since
    # Kp-e holds a clique of p - 1; clique blow-ups stay {P5, co-P5}-free,
    # as both are prime, and their chi is the member's chi_w
    workloads = benchmark_workloads()
    for n in (20, 40, 80):
        for seed in range(6):
            wrng = random.Random(seed)
            weights = [wrng.randint(1, 3) for _ in range(n)]
            for w in (None, weights):
                nn, edges, chi = workloads.cop5_member(n, seed, w)
                member = Graph(nn, edges)
                g = substitute(member, [Graph.complete(x) for x in w]) if w else member
                wd = dict(enumerate(w)) if w else None
                reports = [solve_p5_cop5(member, wd), solve_p5_cop5(g), solve_p5_kpe(g, chi + 2)]
                assert [r.chi for r in reports] == [chi] * 3, (n, seed, w)
                validate_coloring(member, reports[0].coloring, wd)
                for r in reports[1:]:
                    validate_coloring(g, r.coloring)
                assert all(r.route != ROUTE_EXACT_FALLBACK for rep in reports for r in rep.routes)


def test_solve_kpe_matches_exact_on_every_drawn_block():
    # each distinct C-block that is not O3-free, from seeded random
    # {P5, K4-e}- and {P5, K5-e}-free graphs, solved as a graph of its own
    rng = random.Random(7)
    seen: set[Graph] = set()
    fallback = []
    while len(seen) < 200:
        n, p = rng.randint(6, 10), rng.choice((4, 5))
        g = random_graph(n, 0.3, rng)
        if find_class_violation(g, "p5-kpe", p) is not None:
            continue
        for atom in build_tree(g):
            sub, _ = g.induced(iter_bits(atom.block))
            if sub in seen or is_o3_free(sub):
                continue
            seen.add(sub)
            report = solve_p5_kpe(sub, p)
            assert report.chi == chi_exact(sub)[0], sorted(sub.edges)
            if any(r.route == ROUTE_EXACT_FALLBACK for r in report.routes):
                fallback.append(sub)
    smallest = min(fallback, key=lambda b: b.n)
    assert smallest.n == 7 and contains_induced(smallest, fallback_block())


def test_route_soundness_on_generated_members():
    rng = random.Random(50)
    for _ in range(25):
        n = rng.randint(2, 10)
        g = gen_p5_cop5(n, rng.randrange(2**32))
        report = solve_p5_cop5(g)
        for rec in report.routes:
            if rec.route == ROUTE_PRIME_C5:
                sub, _ = g.induced(rec.vertices)
                assert find_induced_c5(sub) is not None and sub.n == 5
        gr = gen_p5_kpe(n, 4, rng.randrange(2**32)).graph
        report2 = solve_p5_kpe(gr, 4)
        for rec in report2.routes:
            sub, _ = gr.induced(rec.vertices)
            if rec.route == ROUTE_O3_MATCHING:
                assert is_o3_free(sub)


def test_end_to_end_cop5_matches_exact():
    rng = random.Random(51)
    for _ in range(60):
        g = gen_p5_cop5(rng.randint(1, 10), rng.randrange(2**32))
        report = solve_p5_cop5(g)
        assert report.chi == chi_exact(g)[0]
        validate_coloring(g, report.coloring)


def test_end_to_end_kpe_matches_exact():
    rng = random.Random(52)
    for p in (4, 5):
        for _ in range(30):
            g = gen_p5_kpe(rng.randint(1, 10), p, rng.randrange(2**32)).graph
            report = solve_p5_kpe(g, p)
            assert report.chi == chi_exact(g)[0]
            validate_coloring(g, report.coloring)


def test_end_to_end_weighted_cop5_matches_exact():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = gen_p5_cop5(n, rng.randrange(2**32))
        w = {v: rng.randint(1, 3) for v in range(n)}
        report = solve_p5_cop5(g, w)
        assert report.chi == chi_w_exact(g, w)[0]
        validate_coloring(g, report.coloring, w)


def test_decomposition_trees_validate():
    rng = random.Random(54)
    for _ in range(20):
        g = gen_p5_cop5(rng.randint(1, 9), rng.randrange(2**32))
        validate_md_tree(g, md_tree(g))
        gr = gen_p5_kpe(rng.randint(1, 9), 4, rng.randrange(2**32)).graph
        validate_tree(gr, build_tree(gr))


def test_generators_always_return_members():
    rng = random.Random(55)
    for _ in range(30):
        n = rng.randint(1, 12)
        assert find_class_violation(gen_p5_cop5(n, rng.randrange(2**32)), "p5-cop5") is None
        res = gen_p5_kpe(n, 5, rng.randrange(2**32))
        assert find_class_violation(res.graph, "p5-kpe", 5) is None
        assert res.attempts >= 1


def test_generators_are_seed_deterministic():
    assert gen_p5_cop5(9, 123) == gen_p5_cop5(9, 123)
    assert gen_p5_kpe(9, 4, 123) == gen_p5_kpe(9, 4, 123)


def test_generator_timeout_suggests_density(monkeypatch):
    monkeypatch.setattr(pipeline, "MAX_ATTEMPTS", 40)
    with pytest.raises(CutoffExceeded, match="after 40 attempts at density 0.95"):
        gen_p5_kpe(12, 4, 0, density=0.95)


def test_report_json_is_stable_and_timing_optional():
    g = gen_p5_cop5(8, 9)
    a = solve_p5_cop5(g).to_json()
    b = solve_p5_cop5(g).to_json()
    assert a == b and "ms" not in a
    assert "ms" in solve_p5_cop5(g).to_json(include_timings=True)


def test_verify_lemma5_small():
    report = verify_lemma5(n_max=6, samples_per_n=0, seed=0)
    assert report.ok and report.total > 0
    # C5 is the unique non-Berge prime member at n=5: 5!/10 labelings
    assert report.counts.get("n=5:c5") == 12
    # the only prime graph on 4 vertices is P4: 4!/2 labelings, all Berge
    assert report.counts.get("n=4:berge") == 12


def test_verify_lemma4_small():
    report = verify_lemma4(p=4, samples=40, n_max=10, seed=1)
    assert report.ok and report.total >= 40
    assert report.counts.get("o3-free", 0) > 0


def test_verify_gyarfas_small():
    report = verify_gyarfas(samples=60, n_max=10, seed=2)
    assert report.ok and report.total == 60


def test_empty_graph_reports():
    """Each class reports a graph without vertices in its own
    decomposition form, with no nodes or atoms and no routes."""
    cases = [(solve_p5_cop5(Graph.empty(0)), {"nodes": []}), (solve_p5_kpe(Graph.empty(0), 4), {"atoms": []})]
    for r, tree in cases:
        assert (r.n, r.chi, r.coloring, r.routes) == (0, 0, MultiColoring((), 0), [])
        assert r.decomposition == tree


@pytest.mark.parametrize("n", [320, 640])
def test_large_cop5_members_generate_and_solve(n):
    g = gen_p5_cop5(n, 0)
    report = solve_p5_cop5(g)
    validate_coloring(g, report.coloring)
    assert report.coloring.k == report.chi


def test_cop5_solve_builds_one_tree(monkeypatch):
    built = []

    def counted(g, twins=None):
        built.append(g.n)
        return md_tree(g, twins)

    monkeypatch.setattr(modular, "md_tree", counted)
    for g in (Graph.cycle(5), gen_p5_cop5(40, 1), gen_p5_cop5(200, 2)):
        built.clear()
        report = solve_p5_cop5(g)
        assert built == [g.n]
        assert report.decomposition == md_tree_to_json(md_tree(g))


def rejected_with_a_tree() -> Graph:
    """The first gen_p5_cop5(40, 0) with one pair flipped that is no
    member and whose membership search spends its budget, so it is
    decided on the tree."""
    g = gen_p5_cop5(40, 0)
    for pair in itertools.combinations(range(g.n), 2):
        h = Graph(g.n, g.edges ^ {pair})
        w, tree = p5_cop5_violation(h)
        if w is not None and tree is not None:
            return h
    raise AssertionError("no flipped pair is decided on the tree")


def test_cop5_solve_and_membership_take_one_twin_pass(monkeypatch):
    """One twin pass per solve and per membership check, whether the
    search spends its budget (n = 80), ends within it (C5[K3]) or
    rejects on the tree (the flipped near-member)."""
    passes = []

    def counted(adj, keep):
        passes.append(keep)
        return twin_core(adj, keep)

    monkeypatch.setattr(modular, "twin_core", counted)
    c5_k3 = substitute(Graph.cycle(5), [Graph.complete(3)] * 5)
    near = rejected_with_a_tree()
    for g in (gen_p5_cop5(80, 0), c5_k3, near):
        passes.clear()
        try:
            solve_p5_cop5(g)
        except NotInClass:
            assert g is near
        assert len(passes) == 1
        passes.clear()
        find_class_violation(g, "p5-cop5")
        assert len(passes) == 1
    assert p5_cop5_violation(gen_p5_cop5(80, 0))[1] is not None
    assert p5_cop5_violation(c5_k3) == (None, None)
