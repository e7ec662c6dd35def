import json

import pytest

from p5color.cli import (
    EXIT_CUTOFF,
    EXIT_NOT_IN_CLASS,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    RunConfig,
    main,
)
from p5color.graph import Graph, parse_graph, to_dimacs

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


def test_solve_requires_p_for_kpe(c5_file):
    with pytest.raises(ValueError):
        main(["solve", "--class", "p5-kpe", "--input", c5_file])


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.col"
    path.write_text("p edge nope\n")
    assert main(["oracle", "chi", "--input", str(path)]) == EXIT_PARSE_ERROR
    assert "parse error" in capsys.readouterr().err


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
    tree = json.loads(capsys.readouterr().out)
    assert tree["separator"] == [2, 3]
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


def test_edge_list_format_sniffing(tmp_path, capsys):
    path = tmp_path / "tri.edges"
    path.write_text("0 1\n1 2\n2 0\n")
    assert main(["oracle", "chi", "--input", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["chi"] == 3


def test_runconfig_invariants():
    with pytest.raises(ValueError):
        RunConfig(subcommand="solve", class_name="p5-kpe", p=None)
    with pytest.raises(ValueError):
        RunConfig(subcommand="solve", class_name="p5-cop5", p=4)
    with pytest.raises(ValueError):
        RunConfig(subcommand="solve", oracle_n=0)


def test_env_cutoff_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "g.col"
    path.write_text(to_dimacs(Graph.empty(12)))
    monkeypatch.setenv("P5COLOR_ORACLE_N", "6")
    assert main(["oracle", "chi", "--input", str(path)]) == EXIT_CUTOFF