import random

import pytest

from p5color.coloring import MultiColoring, validate_coloring
from p5color.graph import Graph
from p5color.oracle import chi_w_exact
from p5color.pipeline import solve_p5_cop5

from helpers import random_graph

C5 = Graph.cycle(5)  # edges 01 12 23 34 40
C5_W = {0: 2, 1: 1, 2: 3, 3: 2, 4: 1}


def _mc(sets, k):
    return MultiColoring(tuple(frozenset(s) for s in sets), k)


def test_weighted_clash_names_smallest_vertex_and_its_smallest_neighbor():
    # 0 and 2 share color 1 but are not adjacent; 2-3 share 4 and 5, 3-4 share 5
    mc = _mc([{1, 2}, {3}, {1, 4, 5}, {4, 5}, {5}], 5)
    with pytest.raises(ValueError, match=r"^adjacent vertices 2,3 share colors \[4, 5\]$"):
        validate_coloring(C5, mc, C5_W)
    validate_coloring(C5, _mc([{1, 2}, {3}, {1, 4, 5}, {2, 3}, {4}], 5), C5_W)


@pytest.mark.parametrize(
    "sets,k,message",
    [
        ([{1, 2}, {1}, {1, 4, 5}, {4}, {5}], 5, "vertex 3 has 1 colors, weight demands 2"),
        ([{1, 2}, {1}, {1, 4, 5}, {4, 5}, {6}], 5, "vertex 4 uses color 6 outside 1..5"),
        ([{1, 2}, {1}, {0, 4, 5}, {4, 5}, {5}], 5, "vertex 2 uses color 0 outside 1..5"),
        ([{1, 2}, {1}, {1, 4, 5}, {4, 5}], 5, "coloring covers 4 vertices, graph has 5"),
    ],
)
def test_count_and_range_are_reported_before_any_clash(sets, k, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        validate_coloring(C5, _mc(sets, k), C5_W)


def test_clash_is_the_lexicographically_first_clashing_edge():
    rng = random.Random(6)
    for _ in range(300):
        g = random_graph(rng.randint(1, 14), rng.random(), rng)
        w = {v: rng.randint(1, 3) for v in range(g.n)}
        k = rng.randint(3, 9)
        mc = _mc([rng.sample(range(1, k + 1), w[v]) for v in range(g.n)], k)
        clashes = sorted((u, v) for u, v in g.edges if mc.of(u) & mc.of(v))
        if not clashes:
            validate_coloring(g, mc, w)
            continue
        u, v = clashes[0]
        shared = sorted(mc.of(u) & mc.of(v))
        with pytest.raises(ValueError, match=rf"^adjacent vertices {u},{v} share colors \[{', '.join(map(str, shared))}\]$"):
            validate_coloring(g, mc, w)


@pytest.mark.parametrize("solve", [solve_p5_cop5, chi_w_exact])
@pytest.mark.parametrize("wt", [2.9, 2.0, True, "2"])
def test_a_weight_that_is_not_an_int_is_refused(solve, wt):
    # 2.9 was once truncated to 2 and True taken for 1
    with pytest.raises(ValueError, match="weight of vertex 0 must be an integer"):
        solve(C5, {0: wt})
