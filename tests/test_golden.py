"""Report digests pinned across commits.

Criterion 10 checks that two runs of the same code agree; these digests
check that a change keeps the reports and decomposition trees of the
code before it byte for byte. Each digest is the sha256 of the
sorted-key JSON. A change that alters a report on purpose must say so
and record the new digest.
"""

import hashlib
import json
import random

import pytest

from p5color.cliquesep import build_tree, tree_to_json
from p5color.graph import Graph
from p5color.modular import md_tree, md_tree_to_json
from p5color.pipeline import _C5, _substitute, gen_p5_cop5, solve_p5_cop5, solve_p5_kpe

from helpers import co_andrasfai, co_cycle, cone, k33, random_graph

COP5_MEMBERS = {
    (20, 0): "cd83dec8428f9ff2c86e77221da22b931ccc829ad4a21c55532d810c79e4d076",
    (20, 1): "f63b3a5dd50bd9004d83e7b2b0f2c2943137caef77a74857e9856f42e51c6255",
    (20, 2): "70c440c276b54de72b2f47dcf03249d1af0d898857b27ee476352bd03ce3d48b",
    (40, 0): "d6e4382a90b5bc66c99fff0a16d3edf19d07c97987a1c0531df54a86ce6809a5",
    (40, 1): "f21861550a3b51391c048e34975192c5aa3c01c517fef7b8c279c7a5b9a82480",
    (40, 2): "5d977de52531883e7d99f8831d85bd1793830366cf87ebe636648c3df6e7af1e",
}
C5_K3 = "251ee8e4cba87a57b115ddca593fc2ce1ec18dafb9762a1cd8584826e2a9c4d9"
STAR_K1_30_P4 = "34487166b8859db0cde46c6dfc8f56c1a29cba0a33d7c02b194c469e1f6cdf77"
RANDOM_TREES = "2bf7158a45c5afb6b3c36aae38fb9def88434e29f7ebf2585cc8d510cfb9d7d9"
KPE_CONE = "20e1147809a0c5116cead28aae2fbae4d9e5afdc2f49b671de049a326a23ec09"


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(("n", "seed"), sorted(COP5_MEMBERS))
def test_cop5_member_report(n, seed):
    report = solve_p5_cop5(gen_p5_cop5(n, seed))
    assert digest(report.to_json()) == COP5_MEMBERS[n, seed]


def test_c5_clique_blowup_report():
    g = _substitute(_C5, [Graph.complete(3)] * 5)
    assert digest(solve_p5_cop5(g).to_json()) == C5_K3


def test_star_kpe_report():
    star = Graph(31, [(0, v) for v in range(1, 31)])
    assert digest(solve_p5_kpe(star, 4).to_json()) == STAR_K1_30_P4


def test_kpe_cone_report_with_both_routes():
    n, edges, _, p = cone([co_cycle(11), k33(), co_andrasfai(3), k33(), co_cycle(13)])
    order = random.Random(16).sample(range(n), n)
    report = solve_p5_kpe(Graph(n, [(order[u], order[v]) for u, v in edges]), p).to_json()
    assert (n, p, report["chi"], len(report["tree"]["atoms"])) == (45, 9, 8, 5)
    assert {r["route"] for r in report["routes"]} == {"o3-matching", "exact-fallback"}
    assert digest(report) == KPE_CONE


def test_random_decomposition_trees():
    rng = random.Random(2015)
    trees = []
    for _ in range(100):
        g = random_graph(rng.randint(1, 12), rng.random(), rng)
        trees.append([md_tree_to_json(md_tree(g)), tree_to_json(build_tree(g))])
    assert digest(trees) == RANDOM_TREES


# The same reports without their "coloring" key: chi, routes and the
# decomposition, which a change to how certificates are built must keep.
REPORTS = {
    **{
        f"cop5-n{n}-s{seed}": (lambda n=n, seed=seed: solve_p5_cop5(gen_p5_cop5(n, seed)))
        for n, seed in COP5_MEMBERS
    },
    "C5[K3]": lambda: solve_p5_cop5(_substitute(_C5, [Graph.complete(3)] * 5)),
    "K1,30 p=4": lambda: solve_p5_kpe(Graph(31, [(0, v) for v in range(1, 31)]), 4),
}
REPORTS_WITHOUT_COLORING = {
    "cop5-n20-s0": "38625a689a34078ed2d707529a9a2f2dfdb47a22c1576918d50561a98b845719",
    "cop5-n20-s1": "6cf6550dd6a3724ce9e60cb0c971c50dec55ea1a7d9b9352af6f5881346e5901",
    "cop5-n20-s2": "ee53da042ba5cf4c86b14817e61b4c70d227138a927256d5465d3d75264fba56",
    "cop5-n40-s0": "bab75c978fd5d80e3d4d6130fdd1cc81fa1484688a32b8c7457388b06c8d8eb6",
    "cop5-n40-s1": "555751fc75b5a4beb019133ac4e1f8dbce0205cb7d76df4df669b68a129b71b5",
    "cop5-n40-s2": "8c143ff074a77c019d295559ec0b6afff1d762e2b5c4faa1fe074785a48b297f",
    "C5[K3]": "91a9376b768452cd45859667e39d3e81d3e97678e29d0aaee8cae5336be8fccd",
    "K1,30 p=4": "2f8d73932b878798a93db542e33190bf1558ba4d91190f85cc36e4749546b3f2",
}


@pytest.mark.parametrize("name", sorted(REPORTS_WITHOUT_COLORING))
def test_report_without_coloring(name):
    payload = REPORTS[name]().to_json()
    del payload["coloring"]
    assert digest(payload) == REPORTS_WITHOUT_COLORING[name]
