"""Tests for the benchmark's own helpers: instance builders, aggregates,
the deadline and the command's answer checking.

    python -m pytest perfbench/tests
"""

import json
import math
import random
import time

import measure
import pytest
import run
import workloads as wl
from p5color import (
    Graph,
    chi_exact,
    chi_w_exact,
    clique_number_exact,
    find_class_violation,
    gen_p5_cop5,
    is_o3_free,
)


# -- builders ----------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 5, 9, 14, 20])
@pytest.mark.parametrize("seed", range(4))
def test_cop5_member_is_the_generators_graph_with_its_chi(n, seed):
    nn, edges, chi = wl.cop5_member(n, seed)
    g = Graph(nn, edges)
    assert g == gen_p5_cop5(n, seed)
    assert chi_exact(g)[0] == chi


@pytest.mark.parametrize("seed", range(6))
def test_weighted_cop5_member_chi_matches_the_weighted_oracle(seed):
    rng = random.Random(seed)
    weights = [rng.randint(1, 3) for _ in range(7)]
    nn, edges, chi = wl.cop5_member(7, seed, weights)
    assert chi_w_exact(Graph(nn, edges), dict(enumerate(weights)))[0] == chi


@pytest.mark.parametrize("kind,k", [("c5", 1), ("c5", 2), ("c5", 3), ("bull", 2), ("bull", 3), ("p4", 4)])
def test_blowup_closed_forms(kind, k):
    n, edges = wl.blowup(kind, k)
    g = Graph(n, edges)
    assert find_class_violation(g, "p5-cop5") is None
    assert chi_exact(g)[0] == wl.BLOWUP_CHI[kind](k)
    sn, sedges = wl.SKELETONS[kind]
    assert chi_w_exact(Graph(sn, sedges), {v: k for v in range(sn)})[0] == wl.BLOWUP_CHI[kind](k)


@pytest.mark.parametrize("block", [wl.co_cycle(5), wl.co_cycle(7), wl.co_cycle(9), wl.co_andrasfai(3), wl.co_andrasfai(4), wl.k33()])
def test_kpe_blocks_have_their_stated_chi_and_omega(block):
    n, edges, chi, omega = block
    g = Graph(n, edges)
    assert chi_exact(g)[0] == chi
    assert clique_number_exact(g) == omega
    assert find_class_violation(g, "p5-kpe", omega + 3) is None


def test_o3_free_blocks_and_k33():
    assert is_o3_free(Graph(*wl.co_cycle(11)[:2]))
    assert is_o3_free(Graph(*wl.co_andrasfai(3)[:2]))
    assert not is_o3_free(Graph(*wl.k33()[:2]))


@pytest.mark.parametrize(
    "blocks",
    [
        [wl.co_cycle(7), wl.co_cycle(5)],
        [wl.co_andrasfai(3)] * 2,
        [wl.k33()] * 3,
        [wl.co_cycle(5), wl.k33()],
    ],
)
def test_cones_are_members_with_their_stated_chi(blocks):
    n, edges, chi, p = wl.cone(blocks)
    g = Graph(n, edges)
    assert find_class_violation(g, "p5-kpe", p) is None
    assert chi_exact(g)[0] == chi


def test_kpe_separators_instances_are_members():
    for inst in wl.kpe_separators():
        if inst.n <= 49:
            assert find_class_violation(Graph(inst.n, inst.edges), "p5-kpe", inst.p) is None, inst.name
    n, edges, chi = wl.star(7)
    assert chi_exact(Graph(n, edges))[0] == chi == 2


def test_flip_to_reject_flips_one_pair_into_a_non_member():
    nn, edges, chi = wl.cop5_member(14, 3)
    member = wl.Instance("m", 14, wl.COP5, None, nn, edges, None, chi)
    reject = wl.flip_to_reject(member, 0, find_class_violation, Graph)
    assert len(member.edges ^ reject.edges) == 1
    assert reject.chi is None
    assert find_class_violation(Graph(reject.n, reject.edges), wl.COP5) is not None


def test_relabellings_keep_the_graph_up_to_isomorphism():
    nn, edges, chi = wl.cop5_member(12, 1, [1, 2, 3] * 4)
    inst = wl.Instance("w", 12, wl.COP5, None, nn, edges, (1, 2, 3) * 4, chi)
    moved = wl.relabellings(inst, random.Random(5), 3)
    assert [m.name for m in moved] == ["w#0", "w#1", "w#2"]
    assert len({m.edges for m in moved}) == 3
    for m in moved:
        assert len(m.edges) == len(inst.edges)
        assert sorted(m.weights) == sorted(inst.weights)
        assert chi_w_exact(Graph(m.n, m.edges), dict(enumerate(m.weights)))[0] == chi


def test_relabellings_spread_each_vertex_evenly():
    n, edges, _ = wl.star(11)
    inst = wl.Instance("s", 12, wl.KPE, 4, n, edges, None, 2)
    centres = [next(iter(set.intersection(*(set(e) for e in m.edges)))) for m in wl.relabellings(inst, random.Random(1), 4)]
    assert sorted((c - centres[0]) % 12 for c in centres) == [0, 3, 6, 9]
    assert wl.relabellings(inst, random.Random(1), 1)[0].name == "s"


# -- aggregates and the deadline ------------------------------------------------------


def test_geomean():
    assert measure.geomean([1, 4, 16]) == pytest.approx(4)
    assert measure.geomean([2.5]) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        measure.geomean([1, 0])


def test_loglog_slope():
    xs = [10, 20, 40, 80]
    assert measure.loglog_slope(xs, [3 * x**2.5 for x in xs]) == pytest.approx(2.5)
    assert measure.loglog_slope([1, 2], [5, 5]) == pytest.approx(0)
    with pytest.raises(ValueError):
        measure.loglog_slope([3, 3], [1, 2])


def test_failures_are_charged_the_deadline():
    assert measure.charged([5.0, 1.0, 3.0], 1500) == 3.0
    assert measure.charged(None, 1500) == 1500
    assert measure.geomean([measure.charged(None, 1000), measure.charged([10.0, 9.0, 11.0], 1000)]) == pytest.approx(100)


def test_deadline_interrupts_and_disarms():
    start = time.perf_counter()
    with pytest.raises(measure.DeadlineExceeded):
        with measure.deadline(0.05):
            while True:
                pass
    assert time.perf_counter() - start < 1.0
    with measure.deadline(0.05):
        pass
    time.sleep(0.1)  # a disarmed deadline must not fire later


def test_reference_loop_is_frozen():
    assert measure.reference_loop() == measure.reference_loop()
    assert measure.time_reference() > 0


# -- the command -------------------------------------------------------------------


def tiny_workload(chi_shift=0):
    out = []
    for n in (6, 9):
        nn, edges, chi = wl.cop5_member(n, 0)
        out.append(wl.Instance(f"t{n}", n, wl.COP5, None, nn, edges, None, chi + chi_shift))
    return out


def test_command_prints_every_metric_with_its_unit(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "cop5-ladder", (lambda lib: tiny_workload(), 2))
    assert run.main(["--workload", "cop5-ladder", "--seed", "3", "--seconds", "0.05"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {
        "solve_rel_gm": "ref",
        "top_rung_rel": "ref",
        "growth_exponent": "exponent",
        "ok_share": "share",
        "setup_s": "s",
        "peak_rss_mb": "MB",
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_traced_command_self_times_add_up(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "cop5-ladder", (lambda lib: tiny_workload(), 1))
    assert run.main(["--workload", "cop5-ladder", "--seed", "3", "--seconds", "0.05", "--trace", "1"]) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    layers = sum(metrics[name]["value"] for name in run.spans.TIME_METRICS)
    assert layers == pytest.approx(metrics["pipeline.solve_ms"]["value"], rel=1e-6)
    assert metrics["modular.nodes"]["value"] > 0


def test_wrong_expected_chi_exits_non_zero(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "cop5-ladder", (lambda lib: tiny_workload(chi_shift=1), 1))
    assert run.main(["--workload", "cop5-ladder", "--seed", "3", "--seconds", "0.05"]) == 1
    out = capsys.readouterr()
    assert "wrong answer" in out.err
    assert '"correct"' not in out.out
