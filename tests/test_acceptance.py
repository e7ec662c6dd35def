"""Acceptance battery: oracle-equivalence and structural checks at desk
scale. One [acceptance] PASS/FAIL line prints per criterion (run with
pytest -s to watch them live).

Every expected value is an exact match against an independent solver;
tolerances are zero throughout.
"""

import json
import random

import pytest

from p5color.cli import main
from p5color.cliquesep import build_tree, chi_compose, validate_tree
from p5color.coloring import validate_coloring
from p5color.detect import find_independent_triple, is_o3_free
from p5color.graph import Graph, to_dimacs
from p5color.matching import chi_o3_free, max_matching
from p5color.modular import md_tree, validate_md_tree
from p5color.oracle import (
    chi_exact,
    chi_w_exact,
    clique_number_exact,
    max_matching_bruteforce,
)
from p5color.pipeline import (
    gen_p5_cop5,
    gen_p5_kpe,
    solve_p5_cop5,
    solve_p5_kpe,
    verify_gyarfas,
    verify_lemma4,
    verify_lemma5,
)

from helpers import petersen, random_graph


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def cop5_pool():
    rng = random.Random(1001)
    return [gen_p5_cop5(rng.randint(1, 10), rng.randrange(2**32)) for _ in range(500)]


@pytest.fixture(scope="module")
def kpe_pool():
    rng = random.Random(1002)
    pool = []
    for p in (4, 5):
        for _ in range(250):
            n = rng.randint(1, 10)
            pool.append((p, gen_p5_kpe(n, p, rng.randrange(2**32)).graph))
    return pool


@pytest.fixture(scope="module")
def separator_pool():
    rng = random.Random(1003)
    pool = []
    while len(pool) < 200:
        g = random_graph(rng.randint(2, 10), rng.choice([0.2, 0.35, 0.5]), rng)
        if len(build_tree(g)) > 1:
            pool.append(g)
    return pool


def test_criterion_1_unweighted_oracle_equivalence(cop5_pool, kpe_pool):
    mismatches = 0
    for g in cop5_pool:
        res = solve_p5_cop5(g)
        if res.chi != chi_exact(g)[0]:
            mismatches += 1
        validate_coloring(g, res.coloring)
    for p, g in kpe_pool:
        res = solve_p5_kpe(g, p)
        if res.chi != chi_exact(g)[0]:
            mismatches += 1
        validate_coloring(g, res.coloring)
    report(
        "criterion 1 (pipeline chi == exact chi, unweighted)",
        mismatches == 0,
        f"{len(cop5_pool)} {{P5,co-P5}}-free + {len(kpe_pool)} {{P5,Kp-e}}-free "
        f"instances, {mismatches} mismatches",
    )


def test_criterion_2_weighted_oracle_equivalence():
    rng = random.Random(1004)
    mismatches = 0
    total = 200
    for _ in range(total):
        n = rng.randint(1, 8)
        g = gen_p5_cop5(n, rng.randrange(2**32))
        w = {v: rng.randint(1, 3) for v in range(n)}
        res = solve_p5_cop5(g, w)
        if res.chi != chi_w_exact(g, w)[0]:
            mismatches += 1
        validate_coloring(g, res.coloring, w)
    report(
        "criterion 2 (weighted pipeline == weighted oracle)",
        mismatches == 0,
        f"{total} weighted instances, {mismatches} mismatches",
    )


def test_criterion_3_lemma1_composition(separator_pool):
    mismatches = 0
    for g in separator_pool:
        k, mc = chi_compose(g, build_tree(g), lambda sub: chi_exact(sub))
        validate_coloring(g, mc)
        if k != chi_exact(g)[0]:
            mismatches += 1
    report(
        "criterion 3 (clique-separator composition == exact chi)",
        mismatches == 0,
        f"{len(separator_pool)} decomposable graphs, {mismatches} mismatches",
    )


def test_criterion_4_o3_free_reduction():
    rng = random.Random(1005)
    total = 200
    mismatches = 0
    oversized_class = 0
    done = 0
    while done < total:
        n = rng.randint(1, 14)
        g = random_graph(n, 0.85, rng)
        if not is_o3_free(g):
            continue
        done += 1
        k, mc = chi_o3_free(g)
        if k != chi_exact(g)[0]:
            mismatches += 1
        validate_coloring(g, mc)
        sizes: dict[int, int] = {}
        for v in range(g.n):
            (c,) = mc.of(v)
            sizes[c] = sizes.get(c, 0) + 1
        if any(s > 2 for s in sizes.values()):
            oversized_class += 1
    report(
        "criterion 4 (O3-free matching reduction == exact chi)",
        mismatches == 0 and oversized_class == 0,
        f"{total} O3-free graphs up to n=14, {mismatches} chi mismatches, "
        f"{oversized_class} color classes over size 2",
    )


def test_criterion_5_blossom_against_bruteforce():
    rng = random.Random(1006)
    total = 500
    mismatches = 0
    for _ in range(total):
        g = random_graph(rng.randint(0, 12), rng.choice([0.15, 0.3, 0.5, 0.75]), rng)
        if len(max_matching(g)) != max_matching_bruteforce(g):
            mismatches += 1
    petersen_ok = len(max_matching(petersen())) == 5
    report(
        "criterion 5 (blossom == exhaustive matching)",
        mismatches == 0 and petersen_ok,
        f"{total} random graphs up to n=12, {mismatches} mismatches; "
        f"Petersen perfect matching: {petersen_ok}",
    )


def test_criterion_6_lemma5_prime_members_berge_or_c5():
    result = verify_lemma5(n_max=9, samples_per_n=150, seed=1007)
    sampled = {k: v for k, v in result.counts.items()}
    report(
        "criterion 6 (prime {P5,co-P5}-free members are Berge or C5)",
        result.ok and result.total > 500,
        f"{result.total} prime members examined, "
        f"{len(result.failures)} counterexamples; counts {sampled}",
    )


def test_criterion_7_lemma4_dichotomy():
    result = verify_lemma4(p=4, samples=200, n_max=12, seed=1008)
    report(
        "criterion 7 (C-block dichotomy at p=4)",
        result.ok and result.total >= 200,
        f"{result.total} C-blocks, routing {result.counts}, "
        f"{len(result.failures)} dichotomy violations",
    )


def test_criterion_8_gyarfas_bound():
    result = verify_gyarfas(samples=500, n_max=12, seed=1009)
    report(
        "criterion 8 (chi <= 4^(omega-1) on P5-free samples)",
        result.ok and result.total >= 500,
        f"{result.total} P5-free graphs, {len(result.failures)} violations",
    )


def test_criterion_9_structural_validators(cop5_pool, kpe_pool, separator_pool):
    checked = 0
    for g in cop5_pool:
        if g.n >= 1:
            validate_md_tree(g, md_tree(g))
            checked += 1
    for _, g in kpe_pool:
        validate_tree(g, build_tree(g))
        checked += 1
    for g in separator_pool:
        validate_tree(g, build_tree(g))
        checked += 1
    report(
        "criterion 9 (all decomposition trees pass their validators)",
        True,
        f"{checked} trees validated",
    )


def test_criterion_10_deterministic_reports(tmp_path):
    seeds = [3, 17]
    identical = True
    for seed in seeds:
        g = gen_p5_cop5(9, seed)
        src = tmp_path / f"in{seed}.col"
        src.write_text(to_dimacs(g))
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{seed}{tag}.json"
            main(["solve", "--class", "p5-cop5", "--input", str(src), "--out", str(out)])
            outs.append(out.read_bytes())
        identical &= outs[0] == outs[1]
        gen_twice = [
            json.dumps(solve_p5_kpe(gen_p5_kpe(8, 4, seed).graph, 4).to_json())
            for _ in range(2)
        ]
        identical &= gen_twice[0] == gen_twice[1]
    report(
        "criterion 10 (fixed seed gives byte-identical reports)",
        identical,
        f"{len(seeds)} seeds, solve and generate paths",
    )
