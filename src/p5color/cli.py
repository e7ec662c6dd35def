"""Command-line surface: solve, decompose, generate, verify, oracle.

Exit codes: 0 success, 1 a `verify` run whose report reads
`"ok": false` (the failures are listed in the report), 2 input not in
the declared class (witness printed), 3 parse error (a malformed graph
or solve report, a graph of more than sys.maxsize vertices by its
DIMACS header or its largest edge-list id, a report nested too deeply
to read, or a weights file that is malformed or names a vertex the
graph does not have, or any input file that does not decode as text),
4 desk-scale cutoff exceeded
(by the work budget of an exact oracle: the branch and bound behind
`oracle chi`, `oracle chiw`, `verify oracle` and the exact-fallback
prime quotients of `solve --class p5-kpe`, or the clique and matching
searches; or by `generate --class p5-kpe` running out of
rejection-sampling attempts; `verify oracle` and `verify lemma5` have
no size cutoff),
5 usage error (an argument the parser refuses, options that do not go
together, a value out of its range: --n, --n-max or --count below 1,
--samples below 0, --p below 3, --density outside [0, 1] or NaN,
`verify lemma4` with --n-max below 2 or with a --p whose omega bound
(p+1)^(p+2)(p-2) has more digits than a JSON report prints, estimated
before the bound is computed; an option the command ignores, such as
--timings with --report text, or --weights with an `oracle` op other
than chiw or validate; an unreadable input file or an output path that
cannot be written), 6 a certificate that `oracle validate`
finds invalid, including one whose coloring names a key that is not a
vertex of the graph (the reason is printed). Reports are JSON and
byte-stable for a fixed (input, seed, config); timings are included
only on request.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import cliquesep, modular, oracle, pipeline
from .coloring import MultiColoring, parse_weights, validate_coloring
from .errors import CutoffExceeded, NotInClass, ParseError, UsageError
from .graph import Graph, parse_graph, to_dimacs
from .matching import max_matching

EXIT_OK = 0
EXIT_NOT_IN_CLASS = 2
EXIT_PARSE_ERROR = 3
EXIT_CUTOFF = 4
EXIT_USAGE = 5
EXIT_INVALID_CERTIFICATE = 6


class _Parser(argparse.ArgumentParser):
    """Argument errors raise UsageError instead of exiting with argparse's
    own code 2, which means not-in-class here."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


def _at_least(low: int):
    """An argparse type: an integer of at least low."""

    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)

    return integer


def _fraction(text: str) -> float:
    """An argparse type: a number in [0, 1], so neither NaN nor infinite."""
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


_POSITIVE, _P = _at_least(1), _at_least(3)


def _unused(option: str, value, where: str) -> None:
    """Refuse an option the command would ignore: one given a value
    (anything but None or an unset flag) outside where it applies."""
    if value is not None and value is not False:
        raise UsageError(f"{option} only applies to {where}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="graph file")
    parser.add_argument(
        "--format",
        choices=["dimacs", "edges"],
        help="input format (default: by extension, .col means dimacs)",
    )
    parser.add_argument("--out", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="p5color",
        description="chromatic numbers for {P5,co-P5}-free and {P5,Kp-e}-free graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the class pipeline on one graph")
    p_solve.add_argument("--class", dest="class_name", required=True,
                         choices=["p5-cop5", "p5-kpe"])
    p_solve.add_argument("--p", type=_P, help="the p of Kp-e")
    p_solve.add_argument("--weights", help="weights file: lines 'vertex weight'")
    p_solve.add_argument("--report", choices=["json", "text"], default="json")
    p_solve.add_argument("--timings", action="store_true",
                         help="include wall-clock ms in the report")
    _add_common(p_solve)

    p_dec = sub.add_parser("decompose", help="emit a decomposition as JSON")
    p_dec.add_argument("--kind", choices=["cliquesep", "modular"], required=True)
    _add_common(p_dec)

    p_gen = sub.add_parser("generate", help="emit random class members (DIMACS)")
    p_gen.add_argument("--class", dest="class_name", required=True,
                       choices=["p5-cop5", "p5-kpe"])
    p_gen.add_argument("--p", type=_P)
    p_gen.add_argument("--n", type=_POSITIVE, required=True)
    p_gen.add_argument("--count", type=_POSITIVE, default=1)
    p_gen.add_argument("--density", type=_fraction, help="edge density for class p5-kpe (default 0.2)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-dir", help="write one .col per instance here")

    p_ver = sub.add_parser("verify", help="run a structural verifier")
    p_ver.add_argument("what", choices=["lemma4", "lemma5", "gyarfas", "oracle"])
    p_ver.add_argument("--p", type=_P, help="the p of Kp-e for lemma4 (default 4)")
    p_ver.add_argument("--samples", type=_at_least(0), default=200)
    p_ver.add_argument("--n-max", type=_POSITIVE, default=9)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out")

    p_or = sub.add_parser("oracle", help="exact ground truth on one graph")
    p_or.add_argument("op", choices=["chi", "chiw", "omega", "alpha", "matching", "validate"])
    p_or.add_argument("--weights")
    p_or.add_argument("--report-file", help="solve report to re-validate")
    _add_common(p_or)

    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path} is not {exc.encoding} text: {exc.reason}", line) from None


def _load_graph(path: str, fmt: str | None) -> Graph:
    if fmt is None:
        fmt = "dimacs" if path.endswith(".col") else "edges"
    return parse_graph(_read(path), fmt)


def _load_weights(path: str | None, g: Graph) -> dict[int, int] | None:
    if path is None:
        return None
    return parse_weights(_read(path), g.n)


def _emit(payload: dict, out_path: str | None) -> None:
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


def _write(text: str, path: str | Path | None) -> None:
    """Write text to the file at path, or to stdout without one."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _solve_text(report: pipeline.SolveReport) -> str:
    lines = [
        f"class: {report.class_name}" + (f" (p={report.p})" if report.p else ""),
        f"n: {report.n}",
        f"chi: {report.chi}",
        "routes: " + ", ".join(f"{r.route}[{len(r.vertices)}]" for r in report.routes),
    ]
    return "\n".join(lines) + "\n"


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.class_name == "p5-kpe":
        if args.p is None:
            raise UsageError("class p5-kpe needs --p")
        if args.weights is not None:
            raise UsageError("weights are only supported for class p5-cop5")
    else:
        _unused("--p", args.p, "class p5-kpe")
    if args.report == "text":
        _unused("--timings", args.timings, "--report json")
    g = _load_graph(args.input, args.format)
    if args.class_name == "p5-cop5":
        report = pipeline.solve_p5_cop5(g, _load_weights(args.weights, g))
    else:
        report = pipeline.solve_p5_kpe(g, args.p)
    if args.report == "text":
        _write(_solve_text(report), args.out)
    else:
        _emit(report.to_json(include_timings=args.timings), args.out)
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.format)
    if args.kind == "cliquesep":
        payload = cliquesep.tree_to_json(cliquesep.build_tree(g))
    else:
        payload = modular.md_tree_to_json(modular.md_tree(g) if g.n else None)
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.class_name == "p5-kpe" and args.p is None:
        raise UsageError("class p5-kpe needs --p")
    if args.class_name == "p5-cop5":
        _unused("--p", args.p, "class p5-kpe")
        _unused("--density", args.density, "class p5-kpe")
    texts = []
    for i in range(args.count):
        seed = args.seed + i
        if args.class_name == "p5-cop5":
            g = pipeline.gen_p5_cop5(args.n, seed)
            attempts = 1
        else:
            density = 0.2 if args.density is None else args.density
            g, attempts = pipeline.gen_p5_kpe(args.n, args.p, seed, density=density)
        header = f"c class={args.class_name} seed={seed} attempts={attempts}\n"
        texts.append((seed, header + to_dimacs(g)))
    if not args.out_dir:
        _write("".join(text for _, text in texts), None)
        return EXIT_OK
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot write {out_dir}: {exc.strerror}") from None
    for seed, text in texts:
        _write(text, out_dir / f"{args.class_name}-n{args.n}-s{seed}.col")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    sizes = {"samples": args.samples, "n_max": args.n_max, "seed": args.seed}
    if args.what != "lemma4":
        _unused("--p", args.p, "verify lemma4")
    if args.what == "lemma4":
        if args.n_max < 2:
            raise UsageError("verify lemma4 needs --n-max >= 2")
        p = 4 if args.p is None else args.p
        # the digits of the omega bound (p+1)^(p+2)*(p-2), exact for p < 4000, against
        # the longest integer json.dumps prints (4,300 digits by default)
        digits = math.floor((p + 2) * math.log10(p + 1) + math.log10(p - 2)) + 1
        limit = sys.get_int_max_str_digits()  # 0 when there is none
        if limit and digits > limit:
            raise UsageError(
                f"verify lemma4 --p {p}: the omega bound (p+1)^(p+2)*(p-2) has {digits} "
                f"digits, more than the {limit} a JSON report prints"
            )
        payload = pipeline.verify_lemma4(p=p, **sizes).to_json()
    elif args.what == "lemma5":
        payload = pipeline.verify_lemma5(
            n_max=args.n_max, samples_per_n=args.samples, seed=args.seed
        ).to_json()
    elif args.what == "gyarfas":
        payload = pipeline.verify_gyarfas(**sizes).to_json()
    else:
        payload = pipeline.verify_oracle(**sizes).to_json()
    _emit(payload, args.out)
    return EXIT_OK if payload["ok"] else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.op not in ("chiw", "validate"):
        _unused("--weights", args.weights, "oracle chiw and validate")
    if args.op != "validate":
        _unused("--report-file", args.report_file, "oracle validate")
    g = _load_graph(args.input, args.format)
    weights = _load_weights(args.weights, g)
    if args.op == "chi":
        k, mc = oracle.chi_exact(g)
        _emit({"chi": k, "coloring": mc.to_json()}, args.out)
    elif args.op == "chiw":
        k, mc = oracle.chi_w_exact(g, weights)
        _emit({"chi_w": k, "coloring": mc.to_json()}, args.out)
    elif args.op == "omega":
        clique = sorted(oracle.max_clique_exact(g))
        _emit({"omega": len(clique), "clique": clique}, args.out)
    elif args.op == "alpha":
        indep = sorted(oracle.max_independent_set_exact(g))
        _emit({"alpha": len(indep), "independent_set": indep}, args.out)
    elif args.op == "matching":
        matched = sorted(map(list, max_matching(g)))
        _emit({"nu": len(matched), "matching": matched}, args.out)
    else:  # validate
        if not args.report_file:
            raise UsageError("oracle validate needs --report-file")
        k, coloring = _load_report(args.report_file)
        names = {str(v) for v in range(g.n)}
        stray = next((key for key in coloring if key not in names), None)
        # a vertex missing from the report gets no colors, which no weight allows
        mc = MultiColoring(tuple(coloring.get(str(v), frozenset()) for v in range(g.n)), k)
        try:
            if stray is not None:
                raise ValueError(f"the coloring names {json.dumps(stray)}, which is not a vertex of the graph")
            validate_coloring(g, mc, weights)
        except ValueError as exc:
            _emit({"valid": False, "chi_reported": k, "reason": str(exc)}, args.out)
            return EXIT_INVALID_CERTIFICATE
        used = len(mc.colors_used())
        _emit({"valid": True, "chi_reported": k, "colors_used": used}, args.out)
    return EXIT_OK


def _load_report(path: str) -> tuple[int, dict[str, frozenset[int]]]:
    """The reported chi (or chi_w) and color sets of a solve or oracle
    report; ParseError unless both are there with integer values."""
    try:
        payload = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"report is not JSON: {exc.msg}", exc.lineno) from None
    except RecursionError:
        raise ParseError("report nests too deeply to read", 0) from None
    if not isinstance(payload, dict):
        raise ParseError("report is not a JSON object", 0)
    k = payload["chi"] if "chi" in payload else payload.get("chi_w")
    coloring = payload.get("coloring")
    if not _is_int(k) or not isinstance(coloring, dict):
        raise ParseError("report needs an integer chi or chi_w and a coloring object", 0)
    for v, cs in coloring.items():
        if not isinstance(cs, list) or not all(_is_int(c) for c in cs):
            raise ParseError(f"colors of vertex {v} are not a list of integers", 0)
    return k, {v: frozenset(cs) for v, cs in coloring.items()}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "solve": _cmd_solve,
        "decompose": _cmd_decompose,
        "generate": _cmd_generate,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except NotInClass as exc:
        payload = {
            "error": "not-in-class",
            "class": exc.class_name,
            "witness": {
                "pattern": exc.witness.pattern,
                "vertices": list(exc.witness.vertices),
            },
        }
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return EXIT_NOT_IN_CLASS
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE_ERROR
    except CutoffExceeded as exc:
        sys.stderr.write(f"cutoff exceeded: {exc}\n")
        return EXIT_CUTOFF
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
