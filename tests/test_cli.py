import json
import re
import tempfile
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
from p5color.graph import Graph, parse_graph, to_dimacs
from p5color import pipeline
from p5color.pipeline import GenerationTimeout, gen_p5_cop5, gen_p5_kpe

from helpers import alternating_threshold

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


def test_dimacs_edge_count_mismatch_exits_with_parse_error(tmp_path, capsys):
    path = tmp_path / "short.col"
    path.write_text("p edge 5 6\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n")
    assert main(["solve", "--class", "p5-cop5", "--input", str(path)]) == EXIT_PARSE_ERROR
    assert "header declares 6 edges" in capsys.readouterr().err


def test_cutoff_exit_code(tmp_path, capsys):
    path = tmp_path / "big.col"
    path.write_text(to_dimacs(Graph.empty(12)))
    code = main(["oracle", "chi", "--input", str(path), "--oracle-n", "6"])
    assert code == EXIT_CUTOFF
    assert "cutoff exceeded" in capsys.readouterr().err


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
    md = json.loads(capsys.readouterr().out)
    assert md["kind"] in ("series", "parallel", "prime")


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
    from p5color.detect import class_membership

    for f in files:
        g = parse_graph(f.read_text(), "dimacs")
        assert g.n == 7 and class_membership(g, "p5-kpe", 4)


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


def test_verify_lemma5_past_the_berge_cutoff_exits_cutoff(capsys):
    code = main(["verify", "lemma5", "--n-max", "17", "--samples", "0"])
    assert code == EXIT_CUTOFF
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Berge cutoff (16) >= n_max (17)" in captured.err


def test_edge_list_format_sniffing(tmp_path, capsys):
    path = tmp_path / "tri.edges"
    path.write_text("0 1\n1 2\n2 0\n")
    assert main(["oracle", "chi", "--input", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["chi"] == 3


def test_solve_option_checks_exit_usage(c5_file):
    solve = ["solve", "--input", c5_file]
    assert main(solve + ["--class", "p5-kpe"]) == EXIT_USAGE
    assert main(solve + ["--class", "p5-cop5", "--p", "4"]) == EXIT_USAGE
    assert main(solve + ["--class", "p5-cop5", "--oracle-n", "0"]) == EXIT_USAGE


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


def test_usage_errors_exit_usage(c5_file, tmp_path, monkeypatch):
    wpath = tmp_path / "w.txt"
    wpath.write_text("0 2\n")
    kpe = ["solve", "--class", "p5-kpe", "--p", "4"]
    assert main(kpe + ["--input", c5_file, "--weights", str(wpath)]) == EXIT_USAGE
    assert main(kpe + ["--input", str(tmp_path / "missing.col")]) == EXIT_USAGE
    monkeypatch.setenv("P5COLOR_ORACLE_N", "many")
    assert main(["solve", "--class", "p5-cop5", "--input", c5_file]) == EXIT_USAGE


def test_env_cutoff_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.col"
    path.write_text(to_dimacs(Graph.empty(12)))
    monkeypatch.setenv("P5COLOR_ORACLE_N", "6")
    assert main(["oracle", "chi", "--input", str(path)]) == EXIT_CUTOFF


def _timeout(n, p, seed, density=0.2):
    raise GenerationTimeout(f"no {{P5, K{p}-e}}-free graph on {n} vertices accepted")


@pytest.mark.parametrize(
    "argv,code",
    [
        ("solve --class p5-kpe --p 2 --input C5", EXIT_USAGE),
        ("P5COLOR_ORACLE_N=0 oracle chi --input C5", EXIT_USAGE),
        ("generate --class p5-cop5 --n 0", EXIT_USAGE),
        ("generate --class p5-kpe --p 2 --n 5", EXIT_USAGE),
        ("generate --class p5-kpe --p 4 --n 30 --seed 1", EXIT_CUTOFF),
        ("verify lemma4 --p 2", EXIT_USAGE),
        ("verify lemma4 --n-max 1", EXIT_USAGE),
        ("verify gyarfas --n-max 0", EXIT_USAGE),
        ("verify oracle --n-max 0", EXIT_USAGE),
        ("decompose --kind modular --input EMPTY", EXIT_OK),
        *((f"oracle {op} --oracle-n {n} --input C5", EXIT_USAGE)
          for op in ("chi", "omega", "alpha") for n in (0, -3)),
        ("oracle chiw --max-total-weight 0 --input C5", EXIT_USAGE),
        ("P5COLOR_MAX_TOTAL_WEIGHT=0 oracle chiw --input C5", EXIT_USAGE),
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
    args = []
    for arg in argv.split():
        if "=" in arg:
            monkeypatch.setenv(*arg.split("="))
        else:
            args.append({"C5": c5_file, "EMPTY": str(empty)}.get(arg, arg))
    assert main(args) == code
    captured = capsys.readouterr()
    if code == EXIT_OK:
        assert json.loads(captured.out) == {}  # as `solve` reports the tree
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
def test_too_deep_tree_for_a_json_report_is_a_cutoff(deep_file, capsys, command):
    assert main(command + ["--input", deep_file]) == EXIT_CUTOFF
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "modular decomposition tree is 1099 levels deep" in captured.err


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
