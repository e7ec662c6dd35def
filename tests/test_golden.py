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

from helpers import random_graph

COP5_MEMBERS = {
    (20, 0): "b048e88d5c9d6e2366a5ffe2db7ad0cb77f1e5e73b8deb8733c723bd5c1d8a1b",
    (20, 1): "afabf3304eb18c9aea5565296d8d02d40cd58e9ddd89759f2a37f072ce7ae1a2",
    (20, 2): "f91df36b9d5f6b02f85cd0bc7b6c372f4755c6b702651f8b19c98171deb970d6",
    (40, 0): "00e69bc767b65fd788c44890e306d6854f8720d698ce24ad13993f7964145fc5",
    (40, 1): "a72efe72c1dc66e69316dd932a4d46a77189d8f1966672e73aeff60b826681fd",
    (40, 2): "bb974172d64cc3ed0e25c04d30f4bbdf893dd6b2dc57fc598b5a8fb00404fa81",
}
C5_K3 = "75e1f85b05e71c8223b580d19f0c80781c88e379bf378162845afa2a25d7ece0"
STAR_K1_30_P4 = "34487166b8859db0cde46c6dfc8f56c1a29cba0a33d7c02b194c469e1f6cdf77"
RANDOM_TREES = "2bf7158a45c5afb6b3c36aae38fb9def88434e29f7ebf2585cc8d510cfb9d7d9"


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


def test_random_decomposition_trees():
    rng = random.Random(2015)
    trees = []
    for _ in range(100):
        g = random_graph(rng.randint(1, 12), rng.random(), rng)
        trees.append([md_tree_to_json(md_tree(g)), tree_to_json(build_tree(g))])
    assert digest(trees) == RANDOM_TREES
