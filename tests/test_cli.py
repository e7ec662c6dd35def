import json
import random
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from p5color.cli import (
    EXIT_CUTOFF,
    EXIT_INVALID_CERTIFICATE,
    EXIT_NOT_IN_CLASS,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_USAGE,
    main,
)
from p5color.errors import CutoffExceeded
from p5color.graph import Graph, parse_graph, to_dimacs
from p5color import oracle, pipeline
from p5color.pipeline import gen_p5_cop5, gen_p5_kpe

from helpers import alternating_threshold, random_graph

C5_DIMACS = "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"
P5_DIMACS = "p edge 5 4\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n"


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.col"
    path.write_text(C5_DIMACS)
    return str(path)


def test_solve_cop5_c5(c5_file, capsys):
    assert main(["solve", "--class", "p5-cop5", "--input", c5_file]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["chi"] == 3
    assert payload["class"] == "p5-cop5"
    assert "ms" not in payload


def test_solve_kpe_rejects_p5_with_witness(tmp_path, capsys):
    path = tmp_path / "p5.col"
    path.write_text(P5_DIMACS)
    code = main(["solve", "--class", "p5-kpe", "--p", "4", "--input", str(path)])
    assert code == EXIT_NOT_IN_CLASS
    err = json.loads(capsys.readouterr().err)
    assert err["witness"]["pattern"] == "P5"


def test_solve_requires_p_for_kpe(c5_file, capsys):
    assert main(["solve", "--class", "p5-kpe", "--input", c5_file]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.col"
    path.write_text("p edge nope\n")
    assert main(["oracle", "chi", "--input", str(path)]) == EXIT_PARSE_ERROR
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,text",
    [("huge.col", "p edge 99999999999999999999 0\n"), ("huge.txt", "0 99999999999999999999\n")],
)
def test_vertex_count_past_sys_maxsize_exits_with_parse_error(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["solve", "--class", "p5-cop5", "--input", str(path)]) == EXIT_PARSE_ERROR
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,text",
    [("huge.col", f"p edge {2**61} 0\n"), ("huge.txt", f"0 {2**61 - 1}\n")],
)
def test_vertex_count_that_cannot_be_allocated_exits_with_parse_error(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main(["solve", "--class", "p5-cop5", "--input", str(path)]) == EXIT_PARSE_ERROR
    assert f"vertex count {2**61} cannot be allocated" in capsys.readouterr().err


def test_dimacs_edge_count_mismatch_exits_with_parse_error(tmp_path, capsys):
    path = tmp_path / "short.col"
    path.write_text("p edge 5 6\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
    assert main(["solve", "--class", "p5-cop5", "--input", str(path)]) == EXIT_PARSE_ERROR
    assert "header declares 6 edges" in capsys.readouterr().err


def test_cutoff_exit_code(c5_file, tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("".join(f"{v} {10**9}\n" for v in range(5)))
    code = main(["oracle", "chiw", "--input", c5_file, "--weights", str(weights)])
    assert code == EXIT_CUTOFF
    assert "cutoff exceeded" in capsys.readouterr().err


def test_clique_oracles_are_bounded_by_work_not_size(tmp_path, capsys):
    # 40 vertices were past the old 24-vertex cutoff; G(80, 0.9) is
    # refused after WORK_BUDGET // 80 = 1.25 million clique nodes
    small, big = tmp_path / "g40.col", tmp_path / "g80.col"
    small.write_text(to_dimacs(random_graph(40, 0.5, random.Random(3))))
    big.write_text(to_dimacs(random_graph(80, 0.9, random.Random(3))))
    assert main(["oracle", "omega", "--input", str(small)]) == EXIT_OK
    clique = json.loads(capsys.readouterr().out)["clique"]
    assert main(["oracle", "alpha", "--input", str(small)]) == EXIT_OK
    assert len(clique) == 7 and json.loads(capsys.readouterr().out)["alpha"] == 7
    start = time.perf_counter()
    assert main(["oracle", "omega", "--input", str(big)]) == EXIT_CUTOFF
    assert time.perf_counter() - start < 3
    assert "ran out of nodes" in capsys.readouterr().err


def test_oracle_ops(c5_file, capsys):
    assert main(["oracle", "chi", "--input", c5_file]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["chi"] == 3
    assert main(["oracle", "omega", "--input", c5_file]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["omega"] == 2
    assert main(["oracle", "alpha", "--input", c5_file]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["alpha"] == 2
    assert main(["oracle", "matching", "--input", c5_file]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["nu"] == 2


def test_oracle_chiw_with_weights_file(c5_file, tmp_path, capsys):
    wpath = tmp_path / "w.txt"
    wpath.write_text("# weights\n0 2\n1 2\n2 2\n3 2\n4 2\n")
    code = main(["oracle", "chiw", "--input", c5_file, "--weights", str(wpath)])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["chi_w"] == 5


def test_solve_weighted_cop5(c5_file, tmp_path, capsys):
    wpath = tmp_path / "w.txt"
    wpath.write_text("0 2\n")  # others default to 1
    code = main(
        ["solve", "--class", "p5-cop5", "--input", c5_file, "--weights", str(wpath)]
    )
    assert code == EXIT_OK
    # weighted C5: max(edge weight sum, ceil(total/2)) = max(3, 3)
    assert json.loads(capsys.readouterr().out)["chi"] == 3


def test_solve_output_revalidates(c5_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["solve", "--class", "p5-cop5", "--input", c5_file, "--out", str(out)])
    code = main(
        ["oracle", "validate", "--input", c5_file, "--report-file", str(out)]
    )
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["valid"] is True


def test_validate_keeps_reported_chi_zero(tmp_path, capsys):
    empty = tmp_path / "empty.col"
    empty.write_text("p edge 0 0\n")
    out = tmp_path / "report.json"
    main(["solve", "--class", "p5-cop5", "--input", str(empty), "--out", str(out)])
    code = main(
        ["oracle", "validate", "--input", str(empty), "--report-file", str(out)]
    )
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["chi_reported"] == 0


@pytest.mark.parametrize(
    ("coloring", "reason"),
    [
        ({"0": [1], "1": [2], "2": [1], "3": [2]}, "vertex 4 has 0 colors"),
        ({"0": [1], "1": [2], "2": [1], "3": [2], "4": [1]}, "adjacent vertices 0,4"),
        ({"0": [1], "1": [2], "2": [1], "3": [2], "4": [4]}, "outside 1..3"),
        ({"0": [1], "1": [2], "2": [1], "3": [2], "4": [3], "7": [1]}, 'names "7", which is not a vertex'),
        ({"0": [1], "1": [2], "2": [1], "3": [2], "4": [3], "x": [5]}, 'names "x", which is not a vertex'),
        ({"0": [1], "1": [2], "2": [1], "3": [2], "04": [3]}, 'names "04", which is not a vertex'),
    ],
)
def test_validate_rejects_invalid_certificates(c5_file, tmp_path, capsys, coloring, reason):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"chi": 3, "coloring": coloring}))
    code = main(["oracle", "validate", "--input", c5_file, "--report-file", str(report)])
    assert code == EXIT_INVALID_CERTIFICATE
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False and reason in payload["reason"]


@pytest.mark.parametrize(
    "text",
    ["{not json", "[1, 2]", '{"coloring": {"0": [1]}}', '{"chi": 1, "coloring": {"0": 1}}'],
)
def test_validate_malformed_report_is_a_parse_error(c5_file, tmp_path, capsys, text):
    report = tmp_path / "report.json"
    report.write_text(text)
    code = main(["oracle", "validate", "--input", c5_file, "--report-file", str(report)])
    assert code == EXIT_PARSE_ERROR
    assert "parse error" in capsys.readouterr().err


def test_argument_errors_exit_usage(c5_file, capsys):
    for argv in (
        ["solve", "--class", "p5-cop5", "--input", c5_file, "--no-such-option"],
        ["solve", "--input", c5_file],
        ["solve", "--class", "p5-nope", "--input", c5_file],
        ["oracle", "chi", "--input", c5_file, "--oracle-n", "ten"],
        [],
    ):
        assert main(argv) == EXIT_USAGE
        assert "usage error: p5color" in capsys.readouterr().err


def test_solve_reports_are_byte_identical(c5_file, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["solve", "--class", "p5-cop5", "--input", c5_file]
    main(argv + ["--out", str(out1)])
    main(argv + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_text_report(c5_file, capsys):
    main(["solve", "--class", "p5-cop5", "--input", c5_file, "--report", "text"])
    out = capsys.readouterr().out
    assert "chi: 3" in out and "prime-C5" in out


def test_decompose_both_kinds(tmp_path, capsys):
    path = tmp_path / "k4e.col"
    path.write_text("p edge 4 5\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
    assert main(["decompose", "--kind", "cliquesep", "--input", str(path)]) == EXIT_OK
    atoms = json.loads(capsys.readouterr().out)["atoms"]
    assert atoms == [
        {"block": [0, 2, 3], "separator": []},
        {"block": [1, 2, 3], "separator": [2, 3]},
    ]
    assert main(["decompose", "--kind", "modular", "--input", str(path)]) == EXIT_OK
    leaves = [{"kind": "vertex", "vertex": v} for v in range(4)]
    assert json.loads(capsys.readouterr().out) == {"nodes": [
        {"kind": "series", "children": [1, 4, 5]},
        {"kind": "parallel", "children": [2, 3]},
        *leaves,
    ]}


def test_generate_writes_parseable_members(tmp_path):
    out_dir = tmp_path / "instances"
    code = main(
        [
            "generate", "--class", "p5-kpe", "--p", "4", "--n", "7",
            "--count", "3", "--seed", "9", "--out-dir", str(out_dir),
        ]
    )
    assert code == EXIT_OK
    files = sorted(out_dir.glob("*.col"))
    assert len(files) == 3
    from p5color.detect import find_class_violation

    for f in files:
        g = parse_graph(f.read_text(), "dimacs")
        assert g.n == 7 and find_class_violation(g, "p5-kpe", 4) is None


def test_generate_stdout_deterministic(capsys):
    argv = ["generate", "--class", "p5-cop5", "--n", "6", "--count", "2", "--seed", "3"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_verify_lemma5_cli(capsys):
    code = main(["verify", "lemma5", "--n-max", "5", "--samples", "0"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True


def test_every_verify_report_has_one_shape(capsys):
    keys = []
    for what in ("lemma4", "lemma5", "gyarfas", "oracle"):
        assert main(["verify", what, "--n-max", "4", "--samples", "3"]) == EXIT_OK
        keys.append(sorted(json.loads(capsys.readouterr().out)))
    assert keys == [["counts", "failures", "name", "ok", "params", "total"]] * 4


@pytest.mark.parametrize("what", ["lemma4", "lemma5", "gyarfas", "oracle"])
def test_verify_exits_1_on_a_failing_report(capsys, monkeypatch, what):
    def failing(*args, **kwargs):
        report = pipeline.VerificationReport(what, {}, total=1)
        report.failures.append({"kind": "planted"})
        return report

    monkeypatch.setattr(pipeline, f"verify_{what}", failing)
    assert main(["verify", what, "--n-max", "5", "--samples", "0"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False and payload["failures"] == [{"kind": "planted"}]


def test_verify_lemma4_refuses_a_bound_the_report_cannot_print(capsys):
    # (p+1)^(p+2)*(p-2) has 4,297 digits at p = 1367 and 4,301 at p = 1368
    assert main(["verify", "lemma4", "--p", "1367", "--samples", "0"]) == EXIT_OK
    assert len(str(json.loads(capsys.readouterr().out)["params"]["omega_bound"])) == 4297
    assert main(["verify", "lemma4", "--p", "1368", "--samples", "0"]) == EXIT_USAGE
    assert "bound (p+1)^(p+2)*(p-2) has 4301 digits" in capsys.readouterr().err


def test_verify_lemma5_has_no_size_cutoff(capsys):
    code = main(["verify", "lemma5", "--n-max", "17", "--samples", "0"])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_verify_oracle_is_bounded_by_work_not_size(capsys, monkeypatch):
    # --n-max 16 was past the old 10-vertex cap; under a lowered work
    # budget the exact chi of a larger member is refused as any oracle's is
    assert main(["verify", "oracle", "--n-max", "16", "--samples", "200", "--seed", "0"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"] is True
    monkeypatch.setattr(oracle, "WORK_BUDGET", 10**4)
    assert main(["verify", "oracle", "--n-max", "20", "--samples", "200", "--seed", "0"]) == EXIT_CUTOFF
    assert capsys.readouterr().err.startswith("cutoff exceeded: chromatic branch and bound")


def test_edge_list_format_sniffing(tmp_path, capsys):
    path = tmp_path / "tri.edges"
    path.write_text("0 1\n1 2\n2 0\n")
    assert main(["oracle", "chi", "--input", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["chi"] == 3


def test_solve_option_checks_exit_usage(c5_file):
    solve = ["solve", "--input", c5_file]
    assert main(solve + ["--class", "p5-kpe"]) == EXIT_USAGE
    assert main(solve + ["--class", "p5-cop5", "--p", "4"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "command",
    [
        ["solve", "--class", "p5-cop5"],
        ["oracle", "chiw"],
        ["oracle", "validate", "--report-file", "REPORT"],
    ],
    ids=["solve", "oracle-chiw", "oracle-validate"],
)
def test_weight_for_unknown_vertex_is_a_parse_error(c5_file, tmp_path, capsys, command):
    wpath = tmp_path / "w.txt"
    wpath.write_text("0 2\n9 2\n")
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"chi": 3, "coloring": {}}))
    command = [str(report) if arg == "REPORT" else arg for arg in command]
    code = main(command + ["--input", c5_file, "--weights", str(wpath)])
    assert code == EXIT_PARSE_ERROR
    assert "parse error: line 2: weight for unknown vertex 9" in capsys.readouterr().err


def test_usage_errors_exit_usage(c5_file, tmp_path):
    wpath = tmp_path / "w.txt"
    wpath.write_text("0 2\n")
    kpe = ["solve", "--class", "p5-kpe", "--p", "4"]
    assert main(kpe + ["--input", c5_file, "--weights", str(wpath)]) == EXIT_USAGE
    assert main(kpe + ["--input", str(tmp_path / "missing.col")]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--class", "p5-cop5", "--input", "C5", "--out", "MISSING/x.json"],
        ["solve", "--class", "p5-cop5", "--input", "C5", "--report", "text", "--out", "MISSING/x.json"],
        ["decompose", "--kind", "modular", "--input", "C5", "--out", "MISSING/x.json"],
        ["oracle", "chi", "--input", "C5", "--out", "MISSING/x.json"],
        ["verify", "lemma5", "--n-max", "5", "--samples", "0", "--out", "MISSING/x.json"],
        ["generate", "--class", "p5-cop5", "--n", "5", "--out-dir", "C5/sub"],
        *(["oracle", op, "--input", "C5", "--weights", "WEIGHTS"] for op in ("chi", "omega", "alpha", "matching")),
    ],
    ids=[
        "solve-json-out", "solve-text-out", "decompose-out", "oracle-out", "verify-out",
        "generate-out-dir", "oracle-chi-weights", "oracle-omega-weights",
        "oracle-alpha-weights", "oracle-matching-weights",
    ],
)
def test_unwritable_output_and_unused_weights_exit_usage(c5_file, tmp_path, capsys, argv):
    weights = tmp_path / "w.txt"
    weights.write_text("0 3\n")
    where = {"C5": c5_file, "MISSING": str(tmp_path / "missing"), "WEIGHTS": str(weights)}
    argv = [re.sub("C5|MISSING|WEIGHTS", lambda m: where[m.group()], arg) for arg in argv]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize(
    "command,extra,code",
    [
        # --oracle-n and --max-total-weight are gone: refused as unknown options
        ("solve --class p5-cop5 --input C5", "--oracle-n 6", EXIT_USAGE),
        ("oracle chi --input C5", "--max-total-weight 10", EXIT_USAGE),
        ("solve --class p5-cop5 --report text --input C5", "--timings", EXIT_USAGE),
        *((f"verify {what} --n-max 5 --samples 1", "--p 4", EXIT_USAGE) for what in ("lemma5", "gyarfas", "oracle")),
        ("generate --class p5-cop5 --n 5", "--density 0.5", EXIT_USAGE),
        ("generate --class p5-cop5 --n 5", "--p 4", EXIT_USAGE),
        ("oracle chi --input C5", "--report-file REPORT", EXIT_USAGE),
    ],
)
def test_an_option_the_command_ignores_exits_usage(c5_file, tmp_path, capsys, command, extra, code):
    """The command exits 0 alone, and with the extra option it exits
    with the given code. That no environment variable is read, the
    former cutoff variables included, tests/test_environment.py shows."""
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"chi": 3, "coloring": {"0": [1], "1": [2], "2": [1], "3": [2], "4": [3]}}))
    where = {"C5": c5_file, "REPORT": str(report)}
    args = [where.get(arg, arg) for arg in command.split()]
    assert main(args) == EXIT_OK
    capsys.readouterr()
    assert main(args + extra.split()) == code
    if code == EXIT_USAGE:
        assert capsys.readouterr().err.startswith("usage error: ")


def _timeout(n, p, seed, density=0.2):
    raise CutoffExceeded(f"no {{P5, K{p}-e}}-free graph on {n} vertices accepted")


@pytest.mark.parametrize(
    "argv,code",
    [
        ("solve --class p5-kpe --p 2 --input C5", EXIT_USAGE),
        ("generate --class p5-cop5 --n 0", EXIT_USAGE),
        ("generate --class p5-kpe --p 2 --n 5", EXIT_USAGE),
        ("generate --class p5-kpe --p 4 --n 30 --seed 1", EXIT_CUTOFF),
        ("verify lemma4 --p 2", EXIT_USAGE),
        ("verify lemma4 --n-max 1", EXIT_USAGE),
        ("verify lemma4 --p 2000", EXIT_USAGE),
        ("verify lemma4 --p 1000000000000", EXIT_USAGE),
        ("verify gyarfas --n-max 0", EXIT_USAGE),
        ("verify oracle --n-max 0", EXIT_USAGE),
        ("generate --class p5-cop5 --n 5 --count 0", EXIT_USAGE),
        ("generate --class p5-cop5 --n 5 --count -2", EXIT_USAGE),
        ("verify gyarfas --samples -3", EXIT_USAGE),
        ("verify lemma5 --samples -1", EXIT_USAGE),
        *((f"generate --class p5-kpe --p 4 --n 5 --density {d}", EXIT_USAGE)
          for d in ("-0.5", "1.5", "nan", "inf")),
        ("decompose --kind modular --input EMPTY", EXIT_OK),
    ],
)
def test_out_of_range_input_exits_with_its_documented_code(
    c5_file, tmp_path, capsys, monkeypatch, argv, code
):
    """Out-of-range values, a graph without vertices and a generator out
    of attempts each end in their documented exit code, not a traceback."""
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    # stands in for the 11 s of rejection sampling that runs out of attempts
    monkeypatch.setattr(pipeline, "gen_p5_kpe", _timeout)
    args = [{"C5": c5_file, "EMPTY": str(empty)}.get(arg, arg) for arg in argv.split()]
    assert main(args) == code
    captured = capsys.readouterr()
    if code == EXIT_OK:
        assert json.loads(captured.out) == {"nodes": []}  # as `solve` reports the tree
    else:
        prefix = "usage error: " if code == EXIT_USAGE else "cutoff exceeded: "
        assert captured.err.startswith(prefix)


@pytest.fixture(scope="module")
def deep_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("deep") / "threshold1100.col"
    path.write_text(to_dimacs(alternating_threshold(1100)))
    return str(path)


@pytest.mark.parametrize(
    "command",
    [["solve", "--class", "p5-cop5"], ["decompose", "--kind", "modular"]],
    ids=["solve", "decompose"],
)
def test_deep_tree_is_reported_in_full(deep_file, tmp_path, capsys, command):
    """A tree 1,099 levels deep is written whole, and the solve report
    passes `oracle validate`."""
    report = tmp_path / "report.json"
    assert main(command + ["--input", deep_file, "--out", str(report)]) == EXIT_OK
    payload = json.loads(report.read_text())
    assert len(payload.get("tree", payload)["nodes"]) == 2 * 1100 - 1
    if command[0] == "solve":
        validate = ["oracle", "validate", "--input", deep_file, "--report-file", str(report)]
        assert main(validate) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == {"valid": True, "chi_reported": 551, "colors_used": 551}


def test_too_deep_report_is_a_parse_error(c5_file, tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["oracle", "validate", "--input", c5_file, "--report-file", str(report)])
    assert code == EXIT_PARSE_ERROR
    assert "nests too deeply" in capsys.readouterr().err


# Every token ends in a separator, so digits never run together into a
# vertex count large enough to allocate rows for tens of thousands of
# vertices (a legal input this test does not mean to build).
_TOKENS = [b"p ", b"edge ", b"col ", b"e ", b"c ", b"# ", b"-1 ", b"\n", b"\r\n", b"\t", b"\xff", b"\xc3", b"\x00"]
_TOKENS += [b"%d%s" % (i, sep) for i in range(10) for sep in (b" ", b"\n")]
_EXIT_CODES = {EXIT_OK, EXIT_NOT_IN_CLASS, EXIT_PARSE_ERROR, EXIT_CUTOFF, EXIT_USAGE, EXIT_INVALID_CERTIFICATE}


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(
    data=st.binary(max_size=64)
    | st.lists(st.sampled_from(_TOKENS), max_size=40).map(b"".join)
    | st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20).map(
        lambda pairs: b"".join(b"%d %d\n" % pair for pair in pairs)
    ),
    suffix=st.sampled_from([".col", ".txt"]),
    cls=st.sampled_from([["p5-cop5"], ["p5-kpe", "--p", "4"]]),
)
def test_solve_on_raw_bytes_ends_in_a_documented_exit_code(data, suffix, cls):
    assume(not re.search(rb"\d{5}", data))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"graph{suffix}"
        path.write_bytes(data)
        out = str(Path(tmp) / "report.json")
        code = main(["solve", "--class", *cls, "--input", str(path), "--out", out])
    event(f"exit code {code}")
    assert code in _EXIT_CODES


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(
    cls=st.sampled_from([["p5-cop5"], ["p5-kpe", "--p", "4"]]),
    n=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_generated_members_round_trip_through_solve_and_validate(cls, n, seed):
    g = gen_p5_cop5(n, seed) if cls[0] == "p5-cop5" else gen_p5_kpe(n, 4, seed).graph
    with tempfile.TemporaryDirectory() as tmp:
        path, report, verdict = (Path(tmp) / name for name in ("g.col", "report.json", "v.json"))
        path.write_text(to_dimacs(g))
        solve = ["solve", "--class", *cls, "--input", str(path), "--out", str(report)]
        assert main(solve) == EXIT_OK
        validate = ["oracle", "validate", "--input", str(path), "--report-file", str(report)]
        assert main(validate + ["--out", str(verdict)]) == EXIT_OK
        chi = json.loads(report.read_text())["chi"]
        result = json.loads(verdict.read_text())
    assert result == {"valid": True, "chi_reported": chi, "colors_used": chi}


def test_undecodable_input_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.col"
    path.write_bytes(b"p edge 2 1\ne 1 2\n\xff\n")
    assert main(["solve", "--class", "p5-cop5", "--input", str(path)]) == EXIT_PARSE_ERROR
    assert "line 3" in capsys.readouterr().err
