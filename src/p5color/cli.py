"""Command-line surface: solve, decompose, generate, verify, oracle.

Exit codes: 0 success, 2 input not in the declared class (witness
printed), 3 parse error, 4 desk-scale cutoff exceeded. Reports are JSON
and byte-stable for a fixed (input, seed, config); timings are included
only on request.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import cliquesep, modular, oracle, pipeline
from .coloring import MultiColoring, parse_weights, validate_coloring
from .detect import DEFAULT_BERGE_MAX_N
from .errors import CutoffExceeded, NotInClass, ParseError
from .graph import Graph, parse_graph, to_dimacs
from .matching import max_matching
from .oracle import DEFAULT_CHI_MAX_N, DEFAULT_MAX_TOTAL_WEIGHT

EXIT_OK = 0
EXIT_NOT_IN_CLASS = 2
EXIT_PARSE_ERROR = 3
EXIT_CUTOFF = 4


@dataclass
class RunConfig:
    subcommand: str
    input_path: str | None = None
    fmt: str | None = None
    class_name: str | None = None
    p: int | None = None
    weights_path: str | None = None
    seed: int = 0
    oracle_n: int = DEFAULT_CHI_MAX_N
    max_total_weight: int = DEFAULT_MAX_TOTAL_WEIGHT
    berge_n: int = DEFAULT_BERGE_MAX_N
    out_path: str | None = None
    report_format: str = "json"
    timings: bool = False

    def __post_init__(self) -> None:
        for name in ("oracle_n", "max_total_weight", "berge_n"):
            if getattr(self, name) <= 0:
                raise ValueError(f"cutoff {name} must be positive")
        if self.class_name == "p5-kpe" and self.p is None:
            raise ValueError("class p5-kpe needs --p")
        if self.class_name == "p5-cop5" and self.p is not None:
            raise ValueError("--p only applies to class p5-kpe")


def _env_cutoff(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"environment variable {name} must be an integer") from None


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
        type=int,
        default=_env_cutoff("P5COLOR_ORACLE_N", DEFAULT_CHI_MAX_N),
        help="exact solver vertex cutoff",
    )
    parser.add_argument(
        "--max-total-weight",
        type=int,
        default=_env_cutoff("P5COLOR_MAX_TOTAL_WEIGHT", DEFAULT_MAX_TOTAL_WEIGHT),
        help="weighted oracle total-weight cutoff",
    )
    parser.add_argument(
        "--berge-n",
        type=int,
        default=_env_cutoff("P5COLOR_BERGE_N", DEFAULT_BERGE_MAX_N),
        help="Berge enumeration vertex cutoff",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p5color",
        description="chromatic numbers for {P5,co-P5}-free and {P5,Kp-e}-free graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the class pipeline on one graph")
    p_solve.add_argument("--class", dest="class_name", required=True,
                         choices=["p5-cop5", "p5-kpe"])
    p_solve.add_argument("--p", type=int, help="the p of Kp-e")
    p_solve.add_argument("--weights", help="weights file: lines 'vertex weight'")
    p_solve.add_argument("--report", choices=["json", "text"], default="json")
    p_solve.add_argument("--timings", action="store_true",
                         help="include wall-clock ms in the report")
    _add_common(p_solve)
    _add_cutoffs(p_solve)

    p_dec = sub.add_parser("decompose", help="emit a decomposition tree as JSON")
    p_dec.add_argument("--kind", choices=["cliquesep", "modular"], required=True)
    _add_common(p_dec)

    p_gen = sub.add_parser("generate", help="emit random class members (DIMACS)")
    p_gen.add_argument("--class", dest="class_name", required=True,
                       choices=["p5-cop5", "p5-kpe"])
    p_gen.add_argument("--p", type=int)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--density", type=float, default=0.2)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-dir", help="write one .col per instance here")

    p_ver = sub.add_parser("verify", help="run a structural verifier")
    p_ver.add_argument("what", choices=["lemma4", "lemma5", "gyarfas", "oracle"])
    p_ver.add_argument("--p", type=int, default=4)
    p_ver.add_argument("--samples", type=int, default=200)
    p_ver.add_argument("--n-max", type=int, default=9)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out")

    p_or = sub.add_parser("oracle", help="exact ground truth on one graph")
    p_or.add_argument("op", choices=["chi", "chiw", "omega", "alpha", "matching", "validate"])
    p_or.add_argument("--weights")
    p_or.add_argument("--report-file", help="solve report to re-validate")
    _add_common(p_or)
    _add_cutoffs(p_or)

    return parser


def _load_graph(path: str, fmt: str | None) -> Graph:
    if fmt is None:
        fmt = "dimacs" if path.endswith(".col") else "edges"
    return parse_graph(Path(path).read_text(), fmt)


def _load_weights(path: str | None) -> dict[int, int] | None:
    if path is None:
        return None
    return parse_weights(Path(path).read_text())


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
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
    cfg = RunConfig(
        subcommand="solve",
        input_path=args.input,
        fmt=args.format,
        class_name=args.class_name,
        p=args.p,
        weights_path=args.weights,
        oracle_n=args.oracle_n,
        max_total_weight=args.max_total_weight,
        berge_n=args.berge_n,
        out_path=args.out,
        report_format=args.report,
        timings=args.timings,
    )
    g = _load_graph(cfg.input_path, cfg.fmt)
    weights = _load_weights(cfg.weights_path)
    if cfg.class_name == "p5-cop5":
        report = pipeline.solve_p5_cop5(
            g,
            weights,
            max_total_weight=cfg.max_total_weight,
            berge_max_n=cfg.berge_n,
        )
    else:
        if weights is not None:
            raise ValueError("weights are only supported for class p5-cop5")
        report = pipeline.solve_p5_kpe(g, cfg.p, oracle_max_n=cfg.oracle_n)
    if cfg.report_format == "text":
        text = _solve_text(report)
        if cfg.out_path:
            Path(cfg.out_path).write_text(text)
        else:
            sys.stdout.write(text)
    else:
        _emit(report.to_json(include_timings=cfg.timings), cfg.out_path)
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    g = _load_graph(args.input, args.format)
    if args.kind == "cliquesep":
        tree = cliquesep.build_tree(g)
        payload = cliquesep.tree_to_json(tree)
    else:
        tree = modular.md_tree(g)
        payload = modular.md_tree_to_json(tree)
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.class_name == "p5-kpe" and args.p is None:
        raise ValueError("class p5-kpe needs --p")
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
    if args.what == "lemma4":
        report = pipeline.verify_lemma4(
            p=args.p, samples=args.samples, n_max=args.n_max, seed=args.seed
        )
        payload = report.to_json()
    elif args.what == "lemma5":
        report = pipeline.verify_lemma5(
            n_max=args.n_max, samples_per_n=args.samples, seed=args.seed
        )
        payload = report.to_json()
    elif args.what == "gyarfas":
        report = pipeline.verify_gyarfas(
            samples=args.samples, n_max=args.n_max, seed=args.seed
        )
        payload = report.to_json()
    else:
        payload = _oracle_crosscheck(samples=args.samples, n_max=args.n_max, seed=args.seed)
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
    weights = _load_weights(args.weights)
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
            raise ValueError("oracle validate needs --report-file")
        payload = json.loads(Path(args.report_file).read_text())
        coloring = payload["coloring"]
        colors = tuple(
            frozenset(coloring[str(v)]) for v in range(g.n)
        )
        k = payload["chi"] if "chi" in payload else payload.get("chi_w")
        mc = MultiColoring(colors, k)
        validate_coloring(g, mc, weights)
        used = len(mc.colors_used())
        _emit({"valid": True, "chi_reported": k, "colors_used": used}, args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "decompose": _cmd_decompose,
        "generate": _cmd_generate,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
    }
    try:
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


if __name__ == "__main__":
    sys.exit(main())
