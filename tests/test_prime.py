import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from p5color import oracle, pipeline
from p5color.coloring import validate_coloring
from p5color.detect import find_class_violation, find_induced_c5
from p5color.errors import CutoffExceeded, PreconditionError
from p5color.graph import Graph, is_connected, iter_bits, substitute
from p5color.modular import is_prime
from p5color.oracle import chi_w_exact
from p5color.pipeline import (
    _BULL,
    _C5,
    _P4,
    gen_p5_cop5,
    solve_p5_cop5,
)
from p5color.prime import ROUTE_PERFECT_EXACT, ROUTE_PRIME_C5, chi_w_perfect, chi_w_prime, is_c5

from helpers import (
    all_graphs,
    benchmark_instances,
    chi_w_perfect_reference,
    matching_clique,
    spider,
)

# the 5-cycle under two labellings, so the walk around its complement
# does not just follow vertex ids
C5_RELABELLED = Graph(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])


def c5_bound(g: Graph, w: dict[int, int]) -> int:
    """The heaviest edge and ceil(W / 2): lower bounds on chi_w of a
    5-cycle, since an edge is a clique and a color covers at most two
    of its vertices."""
    return max(max(w[u] + w[v] for u, v in g.edges), -(-sum(w.values()) // 2))


@pytest.mark.parametrize("g", [_C5, C5_RELABELLED])
def test_c5_route_matches_oracle_on_small_weights(g):
    for ws in itertools.product(range(1, 4), repeat=5):
        w = dict(enumerate(ws))
        route, k, mc = chi_w_prime(g, w)
        assert route == ROUTE_PRIME_C5
        validate_coloring(g, mc, w)
        assert k == mc.k == chi_w_exact(g, w)[0]


def test_c5_route_certificate_meets_the_bound_on_a_weight_grid():
    rng = random.Random(60)
    grid = [rng.randint(1, 60) for _ in range(20)] + [1, 60]
    for _ in range(3000):
        w = {v: rng.choice(grid) for v in range(5)}
        for g in (_C5, C5_RELABELLED):
            route, k, mc = chi_w_prime(g, w)
            assert route == ROUTE_PRIME_C5
            validate_coloring(g, mc, w)
            assert k == c5_bound(g, w)


def assert_dispatch_matches_the_solver(g: Graph, w: dict[int, int]) -> str:
    """chi_w_prime takes the route the graph calls for; on the perfect
    route it answers as chi_w_perfect does, which refuses a 5-cycle."""
    route, k, mc = chi_w_prime(g, w)
    assert route == (ROUTE_PRIME_C5 if is_c5(g) else ROUTE_PERFECT_EXACT)
    if route == ROUTE_PERFECT_EXACT:
        assert (k, mc) == chi_w_perfect(g, w)
    else:
        with pytest.raises(PreconditionError):
            chi_w_perfect(g, w)
    return route


def test_prime_dispatch_matches_the_route_solvers_on_the_benchmark_quotients(monkeypatch):
    quotients = []

    def recorded(g, w):
        quotients.append((g, dict(w)))
        return chi_w_prime(g, w)

    monkeypatch.setattr(pipeline, "chi_w_prime", recorded)
    for workload in ("cop5-ladder", "cop5-blowup"):
        for inst in benchmark_instances(workload):
            weights = None if inst.weights is None else dict(enumerate(inst.weights))
            solve_p5_cop5(Graph(inst.n, inst.edges), weights)
    routes = Counter(assert_dispatch_matches_the_solver(g, w) for g, w in quotients)
    assert routes[ROUTE_PRIME_C5] >= 50 and routes[ROUTE_PERFECT_EXACT] >= 100


@pytest.mark.parametrize("g", [_C5, C5_RELABELLED, _P4, _BULL], ids=["C5", "C5'", "P4", "bull"])
def test_prime_dispatch_matches_the_route_solvers_on_seeded_weights(g):
    rng = random.Random(63)
    for _ in range(20):
        assert_dispatch_matches_the_solver(g, {v: rng.randint(1, 4) for v in range(g.n)})


def test_prime_dispatch_refuses_a_quotient_that_is_not_weakly_chordal():
    with pytest.raises(PreconditionError):
        chi_w_prime(Graph.cycle(7), None)


def test_is_c5_is_five_edges_and_a_hole_on_every_graph_on_five():
    """is_c5 reads degrees alone; on all 1,024 labelled graphs on five
    vertices that agrees with five edges and an induced 5-cycle."""
    checked = holes = 0
    for g in all_graphs(5):
        hole = len(g.edges) == 5 and find_induced_c5(g) is not None
        assert is_c5(g) == hole
        checked += 1
        holes += hole
    assert (checked, holes) == (1024, 12)
    assert not any(is_c5(Graph.cycle(n)) for n in (3, 4, 6, 7))


def prime_perfect_members(n_max: int):
    """Connected prime {P5, co-P5}-free graphs other than the 5-cycle,
    every labelling, as verify_lemma5 enumerates them."""
    for n in range(2, n_max + 1):
        for g in all_graphs(n):
            if (
                is_connected(g)
                and is_prime(g)
                and not is_c5(g)
                and find_class_violation(g, "p5-cop5") is None
            ):
                yield g


def test_perfect_route_matches_oracle_on_prime_members():
    rng = random.Random(61)
    count = 0
    for g in prime_perfect_members(6):
        w = {v: rng.randint(1, 3) for v in range(g.n)}
        k, mc = chi_w_perfect(g, w)
        validate_coloring(g, mc, w)
        assert k == mc.k == chi_w_exact(g, w)[0]
        count += 1
    assert count > 2000


def test_perfect_route_refuses_a_graph_that_is_not_perfect():
    # the heaviest cliques of C7 are its seven edges, and a stable set
    # meeting all of them would leave a stable complement: a 2-coloring
    with pytest.raises(PreconditionError):
        chi_w_perfect(Graph.cycle(7), None)


def test_perfect_route_matches_the_reference_on_matching_cliques():
    # M_m and its complement have 2^m + m maximal stable sets or cliques,
    # which the reference lists and the contraction does not
    rng = random.Random(62)
    for m in range(2, 9):
        for g in (matching_clique(m), matching_clique(m).complement()):
            w = {v: rng.randint(1, 5) for v in range(g.n)}
            k, mc = chi_w_perfect(g, w)
            validate_coloring(g, mc, w)
            assert k == mc.k == chi_w_perfect_reference(g, w)[0]


@pytest.mark.parametrize(("complement", "chi"), [(False, 51), (True, 50)])
def test_matching_clique_m50_solves(complement, chi):
    g = matching_clique(50)
    if complement:
        g = g.complement()
    report = solve_p5_cop5(g)
    assert report.chi == chi
    assert [(r.route, len(r.vertices)) for r in report.routes] == [(ROUTE_PERFECT_EXACT, 150)]
    validate_coloring(g, report.coloring)
    rng = random.Random(63)
    w = {v: rng.randint(1, 1000) for v in range(g.n)}
    started = time.perf_counter()
    report = solve_p5_cop5(g, w)
    assert time.perf_counter() - started < 1.0
    validate_coloring(g, report.coloring, w)


@st.composite
def prime_split_graphs(draw):
    """A connected prime split graph on at most 9 vertices, relabelled,
    with weights 1..4: a clique K and stable vertices with distinct
    non-empty neighbourhoods in K."""
    k = draw(st.integers(2, 7))
    masks = draw(
        st.lists(st.integers(1, (1 << k) - 1), min_size=2, max_size=9 - k, unique=True)
    )
    n = k + len(masks)
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(u, k + i) for i, mask in enumerate(masks) for u in iter_bits(mask)]
    order = draw(st.permutations(range(n)))
    g = Graph(n, [(order[u], order[v]) for u, v in edges])
    assume(is_connected(g) and is_prime(g))
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return g, dict(enumerate(weights))


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
)
@given(prime_split_graphs())
def test_perfect_route_matches_oracle_on_prime_split_graphs(case):
    # split graphs are {2K2, C4, C5}-free, hence {P5, co-P5}-free
    g, w = case
    k, mc = chi_w_perfect(g, w)
    validate_coloring(g, mc, w)
    assert k == mc.k == chi_w_exact(g, w)[0]


def blowup(skeleton: Graph, k: int) -> Graph:
    return substitute(skeleton, [Graph.complete(k)] * skeleton.n)


BLOWUPS = {
    # instances the branch-and-bound oracle could not finish
    "C5[K5]": (blowup(_C5, 5), None, 13, ROUTE_PRIME_C5),
    "C5 weight 5": (_C5, {v: 5 for v in range(5)}, 13, ROUTE_PRIME_C5),
    "bull[K13]": (blowup(_BULL, 13), None, 39, ROUTE_PERFECT_EXACT),
    "bull weight 13": (_BULL, {v: 13 for v in range(5)}, 39, ROUTE_PERFECT_EXACT),
    "P4[K17]": (blowup(_P4, 17), None, 34, ROUTE_PERFECT_EXACT),
    # and far past them: chi is ceil(5k / 2), 3k and 2k
    "C5[K50]": (blowup(_C5, 50), None, 125, ROUTE_PRIME_C5),
    "bull[K100]": (blowup(_BULL, 100), None, 300, ROUTE_PERFECT_EXACT),
    "C5 weight 1000": (_C5, {v: 1000 for v in range(5)}, 2500, ROUTE_PRIME_C5),
}


@pytest.mark.parametrize("name", BLOWUPS)
def test_blowups_solve_with_the_closed_form(name):
    g, w, chi, route = BLOWUPS[name]
    report = solve_p5_cop5(g, w)
    assert report.chi == chi
    assert [r.route for r in report.routes] == [route]
    validate_coloring(g, report.coloring, w)


def test_weighted_member_past_the_oracle_solves():
    g = gen_p5_cop5(40, 0)
    wrng = random.Random(0)
    w = {v: wrng.randint(1, 3) for v in range(40)}
    report = solve_p5_cop5(g, w)
    # 21 by the closed forms of the substitution that built g (the
    # benchmark's workloads.cop5_member follows it draw for draw)
    assert report.chi == 21
    validate_coloring(g, report.coloring, w)


def test_cop5_solve_never_calls_the_weighted_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_p5_cop5 called chi_w_exact")

    monkeypatch.setattr(pipeline, "chi_w_exact", refuse)
    rng = random.Random(1004)  # the pool of acceptance criterion 2
    for _ in range(200):
        n = rng.randint(1, 8)
        g = gen_p5_cop5(n, rng.randrange(2**32))
        w = {v: rng.randint(1, 3) for v in range(n)}
        res = solve_p5_cop5(g, w)
        assert res.chi == chi_w_exact(g, w)[0]
        validate_coloring(g, res.coloring, w)


# On some of these weighted blow-ups the oracle's greedy clique bound
# sits below chi_w and its branch and bound runs to its full work budget
# (up to about 8 s each); past this smaller budget an example checks
# the certificate only.
ORACLE_NODES = 5_000


def spread(draw, n: int) -> dict[int, int]:
    """Weights on n vertices, at least 1 each and of total at most 64,
    spread at random."""
    total = draw(st.integers(n, 64))
    w = dict.fromkeys(range(n), 1)
    for v in draw(st.lists(st.integers(0, n - 1), min_size=total - n, max_size=total - n)):
        w[v] += 1
    return w


@st.composite
def weighted_members(draw):
    """A gen_p5_cop5 member on at most 12 vertices, with weights of total
    at most 64 spread at random; spiders come as False."""
    n = draw(st.integers(1, 12))
    g = gen_p5_cop5(n, draw(st.integers(0, 2**32 - 1)))
    return g, spread(draw, n), False


@st.composite
def weighted_spiders(draw):
    """A thin or thick spider with two to five legs and a clique head,
    on at most 10 vertices, relabelled, with weights as above; True
    marks it a spider."""
    legs = draw(st.integers(2, 5))
    g = spider(legs, draw(st.booleans()), draw(st.integers(0, 10 - 2 * legs)))
    order = draw(st.permutations(range(g.n)))
    g = Graph(g.n, [(order[u], order[v]) for u, v in g.edges])
    return g, spread(draw, g.n), True


@settings(
    max_examples=400,
    derandomize=True,
    database=None,
    deadline=None,
)
@given(weighted_members() | weighted_spiders())
def test_weighted_substitution_members_match_the_oracle(case):
    g, w, is_spider = case
    report = solve_p5_cop5(g, w)
    validate_coloring(g, report.coloring, w)
    assert report.chi == report.coloring.k
    if is_spider:
        # a split graph is perfect, so its prime quotients are too
        event("spider")
        assert {r.route for r in report.routes} == {ROUTE_PERFECT_EXACT}
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_search_nodes", lambda n, m: ORACLE_NODES)
            k = chi_w_exact(g, w)[0]
    except CutoffExceeded:
        event("oracle past its node budget")
        return
    assert report.chi == k
