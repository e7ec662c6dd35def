"""Command-line surface: solve, decompose, generate, verify, oracle.

Exit codes: 0 success, 2 input not in the declared class (witness
printed), 3 parse error (a malformed graph or solve report, a graph
of more than sys.maxsize vertices by its DIMACS header or its largest
edge-list id, a report nested too deeply to read, or a weights file
that is malformed or names a vertex the graph does not have, or any
input file that does not decode as text), 4 desk-scale cutoff exceeded
(by an exact oracle, by `verify lemma5` with --n-max above the Berge
check's 16 vertices, by the exponential exact-fallback route of
`solve --class p5-kpe`, by `generate --class p5-kpe` running out of
rejection-sampling attempts, or by a modular decomposition tree too
deep for a JSON report: about 495 levels under the default recursion
limit, with the depth named in the message; the {P5, co-P5} solve has
no weight cutoff, and `--max-total-weight` bounds `oracle chiw` only),
5 usage error (an argument the parser refuses, options that do not go
together, a value out of its range: --n, --n-max or a cutoff below 1,
--p below 3, or `verify lemma4` with --n-max below 2; an unreadable
input file, or a P5COLOR_* variable that is not an integer of at least
1), 6 a certificate that `oracle validate` finds invalid (the reason
is printed). Reports are JSON and byte-stable for a fixed (input,
seed, config); timings are included only on request.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import cliquesep, modular, oracle, pipeline
from .coloring import MultiColoring, parse_weights, validate_coloring
from .errors import CutoffExceeded, NotInClass, ParseError, UsageError
from .graph import Graph, parse_graph, to_dimacs
from .matching import max_matching
from .oracle import DEFAULT_CHI_MAX_N, DEFAULT_MAX_TOTAL_WEIGHT

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


_POSITIVE, _P = _at_least(1), _at_least(3)


def _env_cutoff(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return _POSITIVE(raw)
    except (ValueError, argparse.ArgumentTypeError):
        raise UsageError(f"environment variable {name} must be an integer >= 1") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="graph file")
    parser.add_argument(
        "--format",
        choices=["dimacs", "edges"],
        help="input format (default: by extension, .col means dimacs)",
    )
    parser.add_argument("--out", help="write the JSON report here instead of stdout")


def _add_cutoffs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--oracle-n",
        type=_POSITIVE,
        default=_env_cutoff("P5COLOR_ORACLE_N", DEFAULT_CHI_MAX_N),
        help="exact solver vertex cutoff",
    )


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
    _add_cutoffs(p_solve)

    p_dec = sub.add_parser("decompose", help="emit a decomposition as JSON")
    p_dec.add_argument("--kind", choices=["cliquesep", "modular"], required=True)
    _add_common(p_dec)

    p_gen = sub.add_parser("generate", help="emit random class members (DIMACS)")
    p_gen.add_argument("--class", dest="class_name", required=True,
                       choices=["p5-cop5", "p5-kpe"])
    p_gen.add_argument("--p", type=_P)
    p_gen.add_argument("--n", type=_POSITIVE, required=True)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--density", type=float, default=0.2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-dir", help="write one .col per instance here")

    p_ver = sub.add_parser("verify", help="run a structural verifier")
    p_ver.add_argument("what", choices=["lemma4", "lemma5", "gyarfas", "oracle"])
    p_ver.add_argument("--p", type=_P, default=4)
    p_ver.add_argument("--samples", type=int, default=200)
    p_ver.add_argument("--n-max", type=_POSITIVE, default=9)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out")

    p_or = sub.add_parser("oracle", help="exact ground truth on one graph")
    p_or.add_argument("op", choices=["chi", "chiw", "omega", "alpha", "matching", "validate"])
    p_or.add_argument("--weights")
    p_or.add_argument("--report-file", help="solve report to re-validate")
    _add_common(p_or)
    _add_cutoffs(p_or)
    p_or.add_argument(
        "--max-total-weight",
        type=_POSITIVE,
        default=_env_cutoff("P5COLOR_MAX_TOTAL_WEIGHT", DEFAULT_MAX_TOTAL_WEIGHT),
        help="weighted oracle (chiw) total-weight cutoff",
    )

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
    try:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    except RecursionError:
        # only a modular decomposition tree nests this deep
        level, depth = [payload.get("tree", payload)], -1
        while level:
            level = [c for node in level for c in node.get("children", ())]
            depth += 1
        raise CutoffExceeded(
            f"the modular decomposition tree is {depth} levels deep, more than "
            "a JSON report can nest"
        ) from None
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _solve_text(report: pipeline.SolveReport) -> str:
    lines = [
        f"class: {report.class_name}" + (f" (p={report.p})" if report.p else ""),
        f"n: {report.n}",
        f"chi: {report.chi}",
        "routes: " + ", ".join(f"{r.route}[{r.size}]" for r in report.routes),
    ]
    return "\n".join(lines) + "\n"


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.class_name == "p5-kpe":
        if args.p is None:
            raise UsageError("class p5-kpe needs --p")
        if args.weights is not None:
            raise UsageError("weights are only supported for class p5-cop5")
    elif args.p is not None:
        raise UsageError("--p only applies to class p5-kpe")
    g = _load_graph(args.input, args.format)
    if args.class_name == "p5-cop5":
        report = pipeline.solve_p5_cop5(g, _load_weights(args.weights, g))
    else:
        report = pipeline.solve_p5_kpe(g, args.p, oracle_max_n=args.oracle_n)
    if args.report == "text":
        text = _solve_text(report)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    else:
        _emit(report.to_json(include_timings=args.timings), args.out)
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.format)
    if args.kind == "cliquesep":
        payload = cliquesep.tree_to_json(cliquesep.build_tree(g))
    else:
        payload = modular.md_tree_to_json(modular.md_tree(g)) if g.n else {}
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.class_name == "p5-kpe" and args.p is None:
        raise UsageError("class p5-kpe needs --p")
    instances = []
    for i in range(args.count):
        seed = args.seed + i
        if args.class_name == "p5-cop5":
            g = pipeline.gen_p5_cop5(args.n, seed)
            attempts = 1
        else:
            g, attempts = pipeline.gen_p5_kpe(args.n, args.p, seed, density=args.density)
        instances.append((seed, attempts, g))
    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for seed, attempts, g in instances:
            name = f"{args.class_name}-n{args.n}-s{seed}.col"
            header = f"c class={args.class_name} seed={seed} attempts={attempts}\n"
            (out_dir / name).write_text(header + to_dimacs(g))
        return EXIT_OK
    for seed, attempts, g in instances:
        sys.stdout.write(f"c class={args.class_name} seed={seed} attempts={attempts}\n")
        sys.stdout.write(to_dimacs(g))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    sizes = {"samples": args.samples, "n_max": args.n_max, "seed": args.seed}
    if args.what == "lemma4":
        if args.n_max < 2:
            raise UsageError("verify lemma4 needs --n-max >= 2")
        payload = pipeline.verify_lemma4(p=args.p, **sizes).to_json()
    elif args.what == "lemma5":
        payload = pipeline.verify_lemma5(
            n_max=args.n_max, samples_per_n=args.samples, seed=args.seed
        ).to_json()
    elif args.what == "gyarfas":
        payload = pipeline.verify_gyarfas(**sizes).to_json()
    else:
        payload = _oracle_crosscheck(**sizes)
    _emit(payload, args.out)
    return EXIT_OK if payload.get("ok", True) else 1


def _oracle_crosscheck(samples: int, n_max: int, seed: int) -> dict:
    """Blossom vs exhaustive matching and pipeline vs exact chi on small
    random class members."""
    import random

    rng = random.Random(seed)
    failures = []
    for _ in range(samples):
        n = rng.randint(1, min(n_max, 10))
        g = pipeline._gnp(n, rng.choice([0.2, 0.4, 0.6]), rng)
        if len(max_matching(g)) != oracle.max_matching_bruteforce(g):
            failures.append({"kind": "matching", "edges": sorted(map(list, g.edges))})
        member = pipeline.gen_p5_cop5(n, rng.randrange(2**32))
        if pipeline.solve_p5_cop5(member).chi != oracle.chi_exact(member)[0]:
            failures.append({"kind": "chi", "edges": sorted(map(list, member.edges))})
    return {
        "name": "oracle-crosscheck",
        "params": {"samples": samples, "n_max": n_max, "seed": seed},
        "total": samples,
        "failures": failures,
        "ok": not failures,
    }


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.format)
    weights = _load_weights(args.weights, g)
    if args.op == "chi":
        k, mc = oracle.chi_exact(g, max_n=args.oracle_n)
        _emit({"chi": k, "coloring": mc.to_json()}, args.out)
    elif args.op == "chiw":
        k, mc = oracle.chi_w_exact(g, weights, max_total_weight=args.max_total_weight)
        _emit({"chi_w": k, "coloring": mc.to_json()}, args.out)
    elif args.op == "omega":
        clique = sorted(oracle.max_clique_exact(g, max_n=args.oracle_n))
        _emit({"omega": len(clique), "clique": clique}, args.out)
    elif args.op == "alpha":
        indep = sorted(oracle.max_independent_set_exact(g, max_n=args.oracle_n))
        _emit({"alpha": len(indep), "independent_set": indep}, args.out)
    elif args.op == "matching":
        matched = sorted(map(list, max_matching(g)))
        _emit({"nu": len(matched), "matching": matched}, args.out)
    else:  # validate
        if not args.report_file:
            raise UsageError("oracle validate needs --report-file")
        k, coloring = _load_report(args.report_file)
        # a vertex missing from the report gets no colors, which no weight allows
        mc = MultiColoring(tuple(coloring.get(str(v), frozenset()) for v in range(g.n)), k)
        try:
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
