import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p5color.coloring import parse_weights
from p5color.errors import ParseError
from p5color.graph import (
    Graph,
    co_component_masks,
    component_masks,
    first_clique,
    is_clique,
    is_connected,
    iter_bits,
    parse_edge_list,
    parse_graph,
    substitute,
    to_dimacs,
    to_edge_list,
)

from helpers import (
    all_graphs,
    benchmark_instances,
    blowup_reference,
    parse_dimacs_reference,
    random_graph,
)

K4_MINUS_E = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_parse_dimacs_p3():
    g = parse_graph("p edge 3 2\ne 1 2\ne 2 3\n", "dimacs")
    assert g == Graph(3, [(0, 1), (1, 2)])


def test_parse_dimacs_single_vertex():
    g = parse_graph("p edge 1 0\n", "dimacs")
    assert g.n == 1 and g.m == 0


def test_parse_dimacs_comments_and_duplicates():
    g = parse_graph("c hi\np edge 3 2\ne 1 2\ne 2 1\ne 2 3\n", "dimacs")
    assert g.m == 2


@pytest.mark.parametrize(
    "text",
    [
        "p edge 3 1\ne 1 2\ne 2 3\n",  # too many edges
        "p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n",  # too few once duplicates merge
    ],
)
def test_parse_dimacs_header_edge_count_must_match(text):
    with pytest.raises(ParseError, match="header declares") as err:
        parse_graph(text, "dimacs")
    assert err.value.line == 1


def test_parse_edge_list_k3():
    g = parse_graph("0 1\n1 2\n2 0\n", "edges")
    assert g == Graph.complete(3)


def test_parse_edge_list_comments():
    g = parse_graph("# triangle\n0 1\n\n1 2\n", "edges")
    assert g.n == 3 and g.m == 2


@pytest.mark.parametrize(
    "text,line",
    [
        ("p edge x y\n", 1),
        ("p edge 2 1\ne 1 5\n", 2),
        ("p edge 2 1\ne 1 1\n", 2),
        ("e 1 2\n", 1),
        ("p edge 2 0\nq 1 2\n", 2),
    ],
)
def test_parse_dimacs_errors_name_line(text, line):
    with pytest.raises(ParseError) as err:
        parse_graph(text, "dimacs")
    assert err.value.line == line


def test_parse_edge_list_errors():
    with pytest.raises(ParseError):
        parse_graph("0 0\n", "edges")
    with pytest.raises(ParseError):
        parse_graph("0 -2\n", "edges")
    with pytest.raises(ParseError):
        parse_graph("0 1 2\n", "edges")


# Both line readers, weights for a graph on 4 vertices: each faulty line
# comes after a comment, a blank line and a good line, so its number
# counts the skipped lines too, and the message quotes it stripped.
READERS = {
    "edge": (parse_edge_list, Graph(2, [(0, 1)])),
    "weight": (lambda text: parse_weights(text, 4), {0: 1}),
}


@pytest.mark.parametrize(
    "kind,bad,message",
    [
        ("edge", "0 1 2", "malformed edge line '0 1 2'"),
        ("edge", "a b", "malformed edge line 'a b'"),
        ("edge", "0 -2", "vertex id out of range in '0 -2'"),
        ("edge", "0 0", "self-loop in '0 0'"),
        ("weight", "0 1 2", "malformed weight line '0 1 2'"),
        ("weight", "x 1", "malformed weight line 'x 1'"),
        ("weight", "-1 2", "bad vertex or weight in '-1 2'"),
        ("weight", "0 0", "bad vertex or weight in '0 0'"),
        ("weight", "9 1", "weight for unknown vertex 9"),
    ],
)
def test_line_readers_name_the_faulty_line(kind, bad, message):
    read, good = READERS[kind]
    head = "# a comment\n  \n0 1\n"
    assert read(head) == good
    with pytest.raises(ParseError) as err:
        read(f"{head}\t{bad} \n1 2\n")
    assert (str(err.value), err.value.line) == (f"line 4: {message}", 4)


# Only counts and ids past sys.maxsize: a smaller huge count would really
# be allocated, one list slot per vertex.
@pytest.mark.parametrize(
    "text,fmt",
    [
        (f"p edge {sys.maxsize + 1} 0\n", "dimacs"),
        ("p edge 99999999999999999999 0\n", "dimacs"),
        (f"0 {sys.maxsize + 1}\n", "edges"),
        ("99999999999999999999 1\n", "edges"),
    ],
)
def test_parse_rejects_vertex_counts_past_sys_maxsize(text, fmt):
    with pytest.raises(ParseError, match="out of range") as err:
        parse_graph(text, fmt)
    assert err.value.line == 1


# 2^61 vertices: within sys.maxsize, but CPython refuses a list of more than
# sys.maxsize / 8 slots before it allocates any.
@pytest.mark.parametrize(
    "text,fmt,line",
    [
        (f"p edge {2**61} 0\n", "dimacs", 1),
        (f"c a comment\np edge {2**61} 0\ne 1 2\n", "dimacs", 2),
        (f"0 {2**61 - 1}\n", "edges", 1),
        (f"0 1\n{2**61 - 1} 5\n1 2\n", "edges", 2),
    ],
)
def test_parse_refuses_vertex_counts_that_cannot_be_allocated(text, fmt, line):
    with pytest.raises(ParseError, match=f"vertex count {2**61} cannot be allocated") as err:
        parse_graph(text, fmt)
    assert err.value.line == line


# Lines built from tokens: integers from a small range or past sys.maxsize,
# never in between, so no parse allocates a huge vertex list, and digit-free
# junk. Half the lines start with a line kind of one of the formats and go on
# with integers alone, so whole graphs get through to the Graph constructor.
_INTEGERS = st.integers(-10**4, 10**4) | st.integers(sys.maxsize + 1, 10**40)
_JUNK = st.sampled_from(["p", "e", "c", "edge", "col", "#", "-", "+"]) | st.text(
    st.characters(blacklist_categories=("Nd", "Cs")), min_size=1, max_size=4
)
_SHAPED = st.tuples(
    st.sampled_from(["p edge", "p col", "e", ""]), st.lists(_INTEGERS.map(str), max_size=3)
).map(lambda line: " ".join([line[0], *line[1]]))
_LINES = st.lists(_SHAPED | st.lists(_INTEGERS.map(str) | _JUNK, max_size=5).map(" ".join), max_size=8)


def _outcome(parse, text):
    """The parsed graph, or the ParseError's text and line."""
    try:
        return parse(text)
    except ParseError as err:
        return str(err), err.line


_DIGITS = st.sampled_from(["0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９"])


@st.composite
def spelled(draw, i):
    """The id i as int() reads it, half the time spelled another way:
    leading zeros, a "+" sign, an "_" between two digits, and decimal
    digits of another script."""
    if draw(st.booleans()):
        return str(i)
    text = "0" * draw(st.integers(0, 2)) + str(i)
    if len(text) > 1 and draw(st.booleans()):
        cut = draw(st.integers(1, len(text) - 1))
        text = text[:cut] + "_" + text[cut:]
    text = text.translate(str.maketrans("0123456789", draw(_DIGITS)))
    return draw(st.sampled_from(["", "+"])) + text


@st.composite
def dimacs_texts(draw):
    """A header with a small vertex count, edge lines within it that may
    repeat an edge in either order and spell its ids in other ways, and
    a declared edge count that is right half the time. Comments, blank
    lines, stray whitespace, self-loops, lines out of range or malformed,
    and a few lines of _LINES go between."""
    n = draw(st.integers(0, 6))
    ids = st.integers(1, max(n, 1))
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda p: p[0] != p[1]), max_size=12)) if n > 1 else []
    m = len({frozenset(p) for p in pairs}) if draw(st.booleans()) else draw(st.integers(0, 12))
    lines = [f"p edge {n} {m}", *(f"e {draw(spelled(u))} {draw(spelled(v))}" for u, v in pairs)]
    loop = ids.flatmap(lambda i: st.tuples(spelled(i), spelled(i))).map("e {0[0]} {0[1]}".format)
    extra = (
        st.sampled_from(
            ["", "c a comment", "  ", "e", "e 1", "e 1 2 3", "e 1 x", "e 1 1", "p edge 1 0", "e 0 1", f"e 1 {n + 1}"]
        )
        | st.sampled_from(["e 1 01", "e +1 1", "e 1_0 10", "e 3 03", "e 00 1", "e 1 1_", "e 1 +-1", "e 1 ١"])
        | loop
    )
    for line in draw(st.lists(extra | _LINES.map(" ".join), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    pad = st.sampled_from(["", " ", "\t"])
    return "\n".join(draw(pad) + line + draw(pad) for line in lines)


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(text=_LINES.map("\n".join) | dimacs_texts(), fmt=st.sampled_from(["dimacs", "edges"]))
def test_parse_graph_returns_a_graph_or_raises_parse_error(text, fmt):
    # a DIMACS text parses to the graph, or fails with the error, that the
    # line-by-line reference parser gives
    got = _outcome(lambda t: parse_graph(t, fmt), text)
    assert isinstance(got, (Graph, tuple))
    if fmt == "dimacs":
        assert got == _outcome(parse_dimacs_reference, text)


def test_parse_gives_the_reference_graph_on_the_benchmark_texts():
    """The DIMACS text of every rejects and kpe-separators instance, up to
    121 vertices with rows of two machine words."""
    instances = benchmark_instances("rejects") + benchmark_instances("kpe-separators")
    assert max(i.n for i in instances) == 121
    for inst in instances:
        g = Graph(inst.n, inst.edges)
        text = to_dimacs(g)
        assert parse_graph(text) == parse_dimacs_reference(text) == g


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_complement_k3_is_o3():
    assert Graph.complete(3).complement() == Graph.empty(3)


def test_complement_c5_is_a_5_cycle():
    co = Graph.cycle(5).complement()
    assert co.m == 5 and all(co.degree(v) == 2 for v in range(5)) and is_connected(co)


def test_complement_involution_and_edge_count():
    rng = random.Random(0)
    for _ in range(50):
        g = random_graph(rng.randint(0, 9), rng.random(), rng)
        assert g.complement().complement() == g
        assert g.m + g.complement().m == g.n * (g.n - 1) // 2


def test_induced_c5_three_consecutive_is_p3():
    sub, ids = Graph.cycle(5).induced([0, 1, 2])
    assert sub == Graph.path(3)
    assert ids == (0, 1, 2)


def test_induced_identity():
    g = Graph.cycle(6)
    sub, ids = g.induced(range(6))
    assert sub == g and ids == tuple(range(6))


def test_induced_k4e_universal_pair_is_k2():
    sub, _ = K4_MINUS_E.induced([2, 3])
    assert sub == Graph.complete(2)


def test_induced_out_of_range():
    with pytest.raises(ValueError):
        Graph.path(3).induced([0, 7])


def _components(g):
    return component_masks(g.adj_masks, (1 << g.n) - 1)


def test_components_o3():
    assert _components(Graph.empty(3)) == [0b001, 0b010, 0b100]


def test_components_k3_plus_k2():
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    assert _components(g) == [0b00111, 0b11000]


def test_components_connected():
    assert _components(Graph.path(6)) == [0b111111]


def test_components_is_partition_without_crossing_edges():
    rng = random.Random(1)
    for _ in range(40):
        g = random_graph(rng.randint(1, 10), 0.25, rng)
        comps = _components(g)
        seen = 0
        for c in comps:
            assert not (c & seen)
            seen |= c
        assert seen == (1 << g.n) - 1
        lookup = {v: i for i, c in enumerate(comps) for v in iter_bits(c)}
        assert all(lookup[u] == lookup[v] for u, v in g.edges)


def test_is_clique():
    assert is_clique(K4_MINUS_E, [2, 3])
    assert not is_clique(K4_MINUS_E, [0, 1])
    assert is_clique(K4_MINUS_E, [])
    assert is_clique(K4_MINUS_E, [1])
    assert is_clique(Graph.complete(4), range(4))


def test_roundtrip_both_formats():
    rng = random.Random(2)
    for _ in range(60):
        g = random_graph(rng.randint(1, 12), rng.random(), rng)
        assert parse_graph(to_dimacs(g), "dimacs") == g
        if g.m and max(max(e) for e in g.edges) == g.n - 1:
            # edge lists cannot express trailing isolated vertices
            assert parse_graph(to_edge_list(g), "edges") == g


def test_neighbors_sorted_and_adjacent_consistent():
    g = Graph(5, [(3, 1), (1, 0), (4, 1)])
    assert list(iter_bits(g.adj_masks[1])) == [0, 3, 4]
    assert g.adjacent(1, 3) and g.adjacent(3, 1) and not g.adjacent(0, 4)
    assert g.degree(1) == 3


def test_edge_order_and_repeats_leave_the_graph_unchanged():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(0, 12)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        shuffled = edges[:]
        rng.shuffle(shuffled)
        dimacs = f"p edge {n} {len(edges)}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in edges)
        g = Graph(n, edges)
        for listed in (shuffled, [(v, u) for u, v in reversed(edges)], edges + shuffled[::2]):
            h = Graph(n, listed)
            assert h == g and hash(h) == hash(g)
            assert h.m == len(edges) and h.edges == frozenset(edges)
            assert to_dimacs(h) == dimacs and parse_graph(dimacs, "dimacs") == h


def test_graphs_differing_in_n_or_one_edge_are_unequal():
    assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])
    assert Graph.empty(0) != Graph.empty(1)
    assert Graph.path(4) != 4
    rng = random.Random(4)
    for _ in range(100):
        g = random_graph(rng.randint(2, 12), rng.random(), rng)
        u, v = sorted(rng.sample(range(g.n), 2))
        flipped = Graph(g.n, g.edges ^ {(u, v)})
        assert flipped != g and flipped.m == g.m + (-1 if g.adjacent(u, v) else 1)


def _complement_from_edges(g):
    return Graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.adjacent(u, v)])


def _induced_from_edges(g, ids):
    k = len(ids)
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k) if g.adjacent(ids[i], ids[j])])


def _check_derived(g, subsets):
    co = g.complement()
    assert co == _complement_from_edges(g) and co.edges == _complement_from_edges(g).edges
    for subset in subsets:
        sub, ids = g.induced(subset)
        assert ids == tuple(sorted(set(subset)))
        assert sub == _induced_from_edges(g, ids) and hash(sub) == hash(_induced_from_edges(g, ids))


def test_complement_and_induced_match_edge_list_construction_on_small_graphs():
    for n in range(6):
        subsets = [[v for v in range(n) if bits >> v & 1] for bits in range(1 << n)]
        for g in all_graphs(n):
            _check_derived(g, subsets)


def test_complement_and_induced_match_edge_list_construction_on_random_graphs():
    rng = random.Random(5)
    for _ in range(500):
        g = random_graph(rng.randint(0, 24), rng.random(), rng)
        picks = [rng.randrange(g.n) for _ in range(g.n)] if g.n else []
        _check_derived(g, [range(g.n), range(0, g.n, 2), picks, picks[::-1] * 2])


def test_co_components_are_the_components_of_the_complement_rows():
    rng = random.Random(6)
    for _ in range(1000):
        g = random_graph(rng.randint(0, 16), rng.random(), rng)
        span = rng.getrandbits(g.n)
        assert co_component_masks(g.adj_masks, span) == component_masks(g.complement().adj_masks, span)


def test_substitution_of_cliques_is_the_edge_list_blow_up():
    rng = random.Random(7)
    for _ in range(300):
        g = random_graph(rng.randint(0, 9), rng.random(), rng)
        weights = [rng.randint(1, 5) for _ in range(g.n)]
        assert substitute(g, [Graph.complete(w) for w in weights]) == blowup_reference(g, weights)


def test_first_clique_is_the_first_clique_in_lexicographic_order():
    """The colouring bound cuts only levels that hold no clique, so the
    search returns what trying every vertex subset in order returns."""
    rng = random.Random(20)
    found = 0
    for _ in range(300):
        g = random_graph(rng.randint(0, 14), rng.random(), rng)
        mask = rng.getrandbits(g.n) | rng.getrandbits(g.n)
        for size in range(7):
            expected = next(
                (c for c in itertools.combinations(iter_bits(mask), size) if is_clique(g, c)), None
            )
            assert first_clique(g.adj_masks, mask, size) == expected
            found += expected is not None and size >= 3
    assert found >= 200


def test_first_clique_leaves_a_level_that_splits_into_too_few_independent_sets():
    """K10,10 splits into two independent sets, so the search for a
    triangle reads 20 rows and pushes nothing; on C5 the greedy sets are
    three, as many as a triangle needs, so the search goes on."""
    k = Graph(20, [(u, 10 + v) for u in range(10) for v in range(10)])
    budget = [20]
    assert first_clique(k.adj_masks, (1 << 20) - 1, 3, budget) is None
    assert budget == [0]
    budget = [100]
    assert first_clique(Graph.cycle(5).adj_masks, 31, 3, budget) is None
    assert 0 < budget[0] < 100
