"""Report digests pinned across commits.

Criterion 10 checks that two runs of the same code agree; these digests
check that a change keeps the reports and decomposition trees of the
code before it byte for byte. Each digest is the sha256 of the
sorted-key JSON. A change that alters a report on purpose must say so
and record the new digest. A modular decomposition tree is hashed in
the nested form reports had when its digest was pinned, rebuilt from
the flat node list by helpers.nested_tree, so the flat format changed
no digest. To print every case's current digest, run

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import random

import pytest

from p5color.cliquesep import build_tree, tree_to_json
from p5color.errors import NotInClass
from p5color.graph import Graph, substitute
from p5color.modular import md_tree, md_tree_to_json
from p5color.pipeline import (
    _BULL,
    _C5,
    gen_p5_cop5,
    solve_p5_cop5,
    solve_p5_kpe,
    verify_gyarfas,
    verify_lemma4,
    verify_lemma5,
)

from helpers import (
    benchmark_instances,
    co_andrasfai,
    co_cycle,
    cone,
    fallback_block,
    k33,
    md_tree_from_json,
    nested_tree,
    random_graph,
)

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
KPE_CONE = "931f81109b41a8ef612c10433106ee5abdef11570acb834cdb34036443ab6b2e"
FALLBACK_BLOCK = "88020223d0e78dde92b4785aa519e9708962d5791caad214c2bc3b22f5ef677a"


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def nested(payload: dict) -> dict:
    """A {P5, co-P5} report's JSON with its tree in the nested form."""
    return {**payload, "tree": nested_tree(payload["tree"])}


def cop5_member_report(n: int, seed: int) -> dict:
    return nested(solve_p5_cop5(gen_p5_cop5(n, seed)).to_json())


def c5_clique_blowup_report() -> dict:
    return nested(solve_p5_cop5(substitute(_C5, [Graph.complete(3)] * 5)).to_json())


def star_kpe_report() -> dict:
    return solve_p5_kpe(Graph(31, [(0, v) for v in range(1, 31)]), 4).to_json()


def kpe_cone_report() -> dict:
    n, edges, _, p = cone([co_cycle(11), k33(), co_andrasfai(3), k33(), co_cycle(13)])
    order = random.Random(16).sample(range(n), n)
    return solve_p5_kpe(Graph(n, [(order[u], order[v]) for u, v in edges]), p).to_json()


def fallback_block_report() -> dict:
    return solve_p5_kpe(fallback_block(), 4).to_json()


def random_tree_graphs() -> list[Graph]:
    rng = random.Random(2015)
    return [random_graph(rng.randint(1, 12), rng.random(), rng) for _ in range(100)]


def random_decomposition_trees() -> list:
    return [
        [nested_tree(md_tree_to_json(md_tree(g))), tree_to_json(build_tree(g))]
        for g in random_tree_graphs()
    ]


@pytest.mark.parametrize(("n", "seed"), sorted(COP5_MEMBERS))
def test_cop5_member_report(n, seed):
    assert digest(cop5_member_report(n, seed)) == COP5_MEMBERS[n, seed]


def test_c5_clique_blowup_report():
    assert digest(c5_clique_blowup_report()) == C5_K3


def test_star_kpe_report():
    assert digest(star_kpe_report()) == STAR_K1_30_P4


def test_kpe_cone_report_with_both_routes():
    report = kpe_cone_report()
    assert (report["n"], report["p"], report["chi"], len(report["tree"]["atoms"])) == (45, 9, 8, 5)
    assert {r["route"] for r in report["routes"]} == {"o3-matching", "perfect-exact"}
    assert digest(report) == KPE_CONE


def test_fallback_block_report():
    report = fallback_block_report()
    assert [r["route"] for r in report["routes"]] == ["exact-fallback"]
    assert digest(report) == FALLBACK_BLOCK


def test_random_decomposition_trees():
    assert digest(random_decomposition_trees()) == RANDOM_TREES


# The same reports without their "coloring" key: chi, routes and the
# decomposition, which a change to how certificates are built must keep.
REPORTS = {
    **{
        f"cop5-n{n}-s{seed}": (lambda n=n, seed=seed: solve_p5_cop5(gen_p5_cop5(n, seed)))
        for n, seed in COP5_MEMBERS
    },
    "C5[K3]": lambda: solve_p5_cop5(substitute(_C5, [Graph.complete(3)] * 5)),
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


def report_without_coloring(name: str) -> dict:
    payload = REPORTS[name]().to_json()
    del payload["coloring"]
    return nested(payload) if payload["class"] == "p5-cop5" else payload


@pytest.mark.parametrize("name", sorted(REPORTS_WITHOUT_COLORING))
def test_report_without_coloring(name):
    assert digest(report_without_coloring(name)) == REPORTS_WITHOUT_COLORING[name]


# Full weighted reports: the closed form of the 5-cycle, the two-pair
# contraction and the palettes the composition hands down all show in
# them. The members' weights are drawn as the benchmark's cop5-blowup
# workload draws them.
def weighted_member(n: int, seed: int):
    rng = random.Random(seed)
    return solve_p5_cop5(gen_p5_cop5(n, seed), {v: rng.randint(1, 3) for v in range(n)})


WEIGHTED = {
    **{f"cop5-n20-s{seed}*w": (lambda seed=seed: weighted_member(20, seed)) for seed in range(3)},
    "C5 w=(3,1,4,1,5)": lambda: solve_p5_cop5(_C5, dict(enumerate((3, 1, 4, 1, 5)))),
    "bull w=4": lambda: solve_p5_cop5(_BULL, dict.fromkeys(range(5), 4)),
}
WEIGHTED_REPORTS = {
    "cop5-n20-s0*w": "ff224b4e8584cd260d4ce0c5fed3e875dd6a63989663d7c4c5e3b1a8d0ed2d90",
    "cop5-n20-s1*w": "7621da621905763399e2c194720f0088f970061965bc4cb9f48c2e1f6d261560",
    "cop5-n20-s2*w": "a630d5ba8ca45b1dbdf36a6ec69c086edf32bf4d7d9dcc276d886025ec75dcad",
    "C5 w=(3,1,4,1,5)": "5d4737241c80ff0ae35feff81556196455f3a6ef1b5fb0fbe9528d6a8193f37c",
    "bull w=4": "b2795910edf0ab941c38acd49fa9f0385fb0be1d9123f463bd84654cf4cfad39",
}


@pytest.mark.parametrize("name", sorted(WEIGHTED_REPORTS))
def test_weighted_report(name):
    assert digest(nested(WEIGHTED[name]().to_json())) == WEIGHTED_REPORTS[name]


# The verifiers' reports count what the Berge check and the clique oracle
# decide, so a change to either search must keep these.
VERIFIERS = {
    "lemma5": (
        lambda: verify_lemma5(n_max=9, samples_per_n=150, seed=1007),
        "4873785ea6407262e20b15906e7ab204f70a6d6f429652003f81465e248a6b44",
    ),
    "lemma4": (
        lambda: verify_lemma4(p=4, samples=200, n_max=12, seed=1008),
        "0439d0177a77526e33650f1c46d71b7694a9907145052218e1826fc77cb62892",
    ),
    "gyarfas": (
        lambda: verify_gyarfas(samples=500, n_max=12, seed=0),
        "f3f8ce1c2da61a6dbac635ee2aea7bde3e3663d6a61754a4c4c552499c18be45",
    ),
}


@pytest.mark.parametrize("name", sorted(VERIFIERS))
def test_verifier_report(name):
    run, expected = VERIFIERS[name]
    assert digest(run().to_json()) == expected


# Every instance of each benchmark workload, in its fixed vertex order:
# the full report of a member, the witness pattern and vertices of a
# near-member the solver rejects.
WORKLOADS = {
    "cop5-ladder": "269e47e2c42af7b209d2727d7a10b4b2a547776c3e221ab8d5f6ea0a311350f6",
    "cop5-blowup": "4fb360515a8ca39316a9c3dbc39dd0bfe17406848f07c1f3cea601c1ff6d7ddd",
    "kpe-separators": "fc1d427b1dd1e05bb641de2e495990652b260a4da72d6518cdfada45e0113d94",
    "rejects": "c0049b28a1c7bf92f41907a2efe3156f78ecab845fa4e37f623793d66af39969",
}


def workload_outcomes(workload: str) -> list:
    rows = []
    for inst in benchmark_instances(workload):
        g = Graph(inst.n, inst.edges)
        try:
            if inst.cls == "p5-cop5":
                w = None if inst.weights is None else dict(enumerate(inst.weights))
                rows.append(nested(solve_p5_cop5(g, w).to_json()))
            else:
                rows.append(solve_p5_kpe(g, inst.p).to_json())
        except NotInClass as exc:
            rows.append([exc.witness.pattern, list(exc.witness.vertices)])
    return rows


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_outcomes(workload):
    assert digest(workload_outcomes(workload)) == WORKLOADS[workload]


def golden_cop5_members():
    """Every {P5, co-P5} member whose report a digest above pins."""
    for n, seed in COP5_MEMBERS:
        yield gen_p5_cop5(n, seed)
    yield from (substitute(_C5, [Graph.complete(3)] * 5), _C5, _BULL)
    for workload in ("cop5-ladder", "cop5-blowup"):
        yield from (Graph(inst.n, inst.edges) for inst in benchmark_instances(workload))


def test_flat_trees_rebuild_the_tree():
    """The flat node list of each {P5, co-P5} report pinned above, and of
    each random tree, rebuilds md_tree's tree, which validate_md_tree
    accepts."""
    for g in golden_cop5_members():
        assert md_tree_from_json(g, solve_p5_cop5(g).decomposition) == md_tree(g)
    for g in random_tree_graphs():
        assert md_tree_from_json(g, md_tree_to_json(md_tree(g))) == md_tree(g)


def current_digests():
    """(case, pinned digest, current digest) for every case above."""
    for (n, seed), pinned in COP5_MEMBERS.items():
        yield f"cop5 member n={n} seed={seed}", pinned, digest(cop5_member_report(n, seed))
    yield "C5[K3]", C5_K3, digest(c5_clique_blowup_report())
    yield "K1,30 p=4", STAR_K1_30_P4, digest(star_kpe_report())
    yield "kpe cone", KPE_CONE, digest(kpe_cone_report())
    yield "fallback block", FALLBACK_BLOCK, digest(fallback_block_report())
    yield "random trees", RANDOM_TREES, digest(random_decomposition_trees())
    for name, pinned in REPORTS_WITHOUT_COLORING.items():
        yield f"{name} without coloring", pinned, digest(report_without_coloring(name))
    for name, run in WEIGHTED.items():
        yield name, WEIGHTED_REPORTS[name], digest(nested(run().to_json()))
    for name, (run, pinned) in VERIFIERS.items():
        yield f"verify {name}", pinned, digest(run().to_json())
    for workload, pinned in WORKLOADS.items():
        yield f"workload {workload}", pinned, digest(workload_outcomes(workload))


if __name__ == "__main__":
    for case, pinned, now in current_digests():
        print(f"{now}  {'same' if now == pinned else 'CHANGED'}  {case}")
