"""Seeded closed-loop benchmark of the p5color solvers.

    python3 perfbench/run.py --workload cop5-ladder --seed 1 --seconds 20 --trace 0

One process, one solve in flight, no threads. A run builds its
workload's instances and times the set-up (import plus parsing). An
untimed first round checks every answer in full; then the instances are
visited round-robin until --seconds have passed, with the frozen
reference loop timed on both sides of every solve. With --trace 1 each
timed round also makes a traced solve of every instance and the run
reports per-layer numbers instead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A wrong answer exits with code 1
and a missing p5color source tree with code 2, without that line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import sys
import time
from pathlib import Path
from statistics import median

import measure
import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Per-solve deadline in reference-loop times (about 3 s on a 2 ms loop),
# so that it stretches with the host's speed like every other timing.
# The slowest solve the seed code finishes takes about 650.
DEADLINE_REFS = 1500
SETUP_REPEATS = 5
# setup_s is reported in seconds on a host whose reference loop takes this
# long: raw set-up times moved by up to 27 % between two sets of ten runs
# as the host's speed drifted.
NOMINAL_REF_MS = 2.0
MIN_ROUNDS = 3
# A solve shorter than one reference loop is timed as a batch of repeats
# lasting about that long: a lone 20 us solve right after the loop times
# too noisily to be normalised by it.
BATCH_MS = 2.0
MAX_REPS = 100
ORACLE_MAX_SIZE = 20  # cross-check chi with the exact oracles up to this size

# workload -> (instance builder, vertex orders per instance drawn from the
# seed). Clique-separator search depends on the vertex order more than a
# full membership search does, so kpe-separators runs four orders of each
# instance. rejects (0) keeps the fixed orders its builder sets.
WORKLOADS = {
    "cop5-ladder": (lambda lib: wl.cop5_ladder(), 1),
    "cop5-blowup": (lambda lib: wl.cop5_blowup(), 1),
    "kpe-separators": (lambda lib: wl.kpe_separators(), 4),
    "rejects": (lambda lib: wl.rejects(lib.p5color.find_class_violation, lib.p5color.Graph), 0),
}


class AnswerMismatch(Exception):
    """The solver returned a wrong answer; the run must not report."""


class Library:
    """The p5color modules of one import."""

    def __init__(self):
        self.p5color = importlib.import_module("p5color")
        self.pipeline = sys.modules["p5color.pipeline"]
        self.modular = sys.modules["p5color.modular"]
        self.cliquesep = sys.modules["p5color.cliquesep"]
        self.graph = sys.modules["p5color.graph"]


def import_library() -> Library:
    """A fresh import of p5color from the checkout's source tree."""
    for name in [m for m in sys.modules if m == "p5color" or m.startswith("p5color.")]:
        del sys.modules[name]
    lib = Library()
    if Path(lib.p5color.__file__).resolve().parent != SRC / "p5color":
        raise ImportError(f"p5color imported from {lib.p5color.__file__}, not {SRC}")
    return lib


class Case:
    """An instance, its parsed graph and what its solves produced."""

    def __init__(self, inst: wl.Instance, text: str):
        self.inst = inst
        self.text = text
        self.graph = None
        self.weights = None if inst.weights is None else dict(enumerate(inst.weights))
        self.failure: str | None = None
        self.failed_ms = 0.0  # wall time charged to a failure
        self.reps = 1  # solves per timed sample
        self.solve_ms: list[float] = []
        self.ref_ms: list[float] = []  # reference loops on either side of each solve
        self.rel: list[float] = []  # each solve over the mean of its two references
        self.rounds: list[dict] = []  # traced pass only


def solve(lib: Library, case: Case):
    if case.inst.cls == wl.COP5:
        return lib.pipeline.solve_p5_cop5(case.graph, case.weights)
    return lib.pipeline.solve_p5_kpe(case.graph, case.inst.p)


def attempt(lib: Library, case: Case, ref_ms: float, reps: int = 1, call=None):
    """Solve reps times under a deadline of DEADLINE_REFS times ref_ms
    per solve.

    Returns the report (None for a rejection), the NotInClass exception
    (None for a report) and the mean solve time in ms, or lets
    CutoffExceeded, DeadlineExceeded or RecursionError through. A wrong
    chi or a wrong verdict on membership raises AnswerMismatch.
    """
    inst = case.inst
    report = rejected = None
    with measure.deadline(reps * DEADLINE_REFS * ref_ms / 1000.0):
        start = time.perf_counter()
        for _ in range(reps):
            try:
                report = (call or solve)(lib, case)
            except lib.p5color.NotInClass as exc:
                rejected = exc
        elapsed = (time.perf_counter() - start) * 1000.0 / reps
    if inst.chi is None and rejected is None:
        raise AnswerMismatch(f"{inst.name}: not in class, but solved with chi={report.chi}")
    if inst.chi is not None and rejected is not None:
        raise AnswerMismatch(f"{inst.name}: class member rejected: {rejected}")
    if report is not None and report.chi != inst.chi:
        raise AnswerMismatch(f"{inst.name}: chi={report.chi}, expected {inst.chi}")
    return report, rejected, elapsed


def attempt_or_fail(lib: Library, case: Case, ref_ms: float, call=None):
    """attempt() with the case's batch size, recording a failure on the
    case instead of raising."""
    try:
        return attempt(lib, case, ref_ms, 1 if call else case.reps, call)
    except lib.p5color.CutoffExceeded:
        case.failure = "CutoffExceeded"
    except measure.DeadlineExceeded:
        case.failure = f"DeadlineExceeded ({DEADLINE_REFS} x {ref_ms:.3f} ms)"
    except RecursionError:
        case.failure = "RecursionError"
    case.failed_ms = DEADLINE_REFS * ref_ms
    return None


def full_check(lib: Library, case: Case, report, rejected) -> None:
    """The certificate, the witness, and chi against the exact oracles
    on small instances; a mismatch raises AnswerMismatch."""
    inst = case.inst
    if rejected is not None:
        allowed = ("P5", "co-P5") if inst.cls == wl.COP5 else ("P5", f"K{inst.p}-e")
        witness = rejected.witness
        if witness.pattern not in allowed or not lib.p5color.witness_ok(case.graph, witness):
            raise AnswerMismatch(f"{inst.name}: invalid witness {witness}")
        return
    try:
        lib.p5color.validate_coloring(case.graph, report.coloring, case.weights)
    except ValueError as exc:
        raise AnswerMismatch(f"{inst.name}: invalid certificate: {exc}") from exc
    if inst.size <= ORACLE_MAX_SIZE:
        if case.weights is None:
            oracle = lib.p5color.chi_exact(case.graph)[0]
        else:
            oracle = lib.p5color.chi_w_exact(case.graph, case.weights)[0]
        if oracle != inst.chi:
            raise AnswerMismatch(f"{inst.name}: exact oracle says {oracle}, expected {inst.chi}")


def setup(cases: list[Case]) -> tuple[Library, list[float], list[float]]:
    """Import p5color and parse every instance, SETUP_REPEATS times.

    Returns the library, the wall times in s, and the same times scaled
    to a host whose reference loop takes NOMINAL_REF_MS, each by the
    mean of the reference loops timed right before and after it.
    """
    wall, scaled = [], []
    before = measure.time_reference()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = import_library()
        graphs = [lib.graph.parse_graph(c.text) for c in cases]
        elapsed = time.perf_counter() - start
        after = measure.time_reference()
        wall.append(elapsed)
        scaled.append(elapsed * NOMINAL_REF_MS / ((before + after) / 2))
        before = after
    for case, g in zip(cases, graphs):
        case.graph = g
    return lib, wall, scaled


def timed_rounds(lib: Library, cases: list[Case], seconds: float, traced: bool) -> int:
    """Visit the cases round-robin until seconds have passed, with at
    least MIN_ROUNDS timed rounds. Returns the number of timed rounds.

    An untimed first round checks every answer in full, records the
    failures and sets each case's batch size. Every timed solve sits
    between two runs of the reference loop: the host's speed swings by
    tens of percent within seconds, and the mean of the runs on both
    sides tracks it over the solve better than one run before it does.
    """
    tracer = spans.Tracer()
    rounds = -1
    start = time.perf_counter()
    before = measure.time_reference()
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds += 1
        for case in cases:
            if case.failure is not None:
                continue
            outcome = attempt_or_fail(lib, case, before)
            after = measure.time_reference()
            if outcome is not None:
                report, rejected, ms = outcome
                if rounds == 0:
                    full_check(lib, case, report, rejected)
                    case.reps = max(1, min(MAX_REPS, round(BATCH_MS / max(ms, 1e-3))))
                else:
                    case.solve_ms.append(ms)
                    case.ref_ms += [before, after]
                    case.rel.append(ms / ((before + after) / 2))
                    if traced:
                        record = traced_solve(lib, case, tracer, after)
                        if record is not None:
                            case.rounds.append(record)
                if rounds == 0 or traced:
                    after = measure.time_reference()
            before = after
    return rounds


def traced_solve(lib: Library, case: Case, tracer: spans.Tracer, ref_ms: float) -> dict | None:
    """One traced solve, plus the report and parse timings around it;
    None when the traced solve failed (the case then records why)."""
    tracer.begin(case.inst.name)
    root = tracer.wrap(spans.PIPELINE, solve)
    with spans.traced_modules(lib, tracer):
        outcome = attempt_or_fail(lib, case, ref_ms, call=root)
    if outcome is None:
        return None
    report = outcome[0]
    start = time.perf_counter()
    if report is not None:
        json.dumps(report.to_json(), sort_keys=True)
    report_ms = (time.perf_counter() - start) * 1000.0
    start = time.perf_counter()
    lib.graph.parse_graph(case.text)
    parse_ms = (time.perf_counter() - start) * 1000.0
    routes = {}
    for record in report.routes if report is not None else ():
        routes[f"routes.{record.route}"] = routes.get(f"routes.{record.route}", 0) + 1
    self_ms = tracer.self_ms()
    solve_ms = tracer.root_ms()
    if abs(sum(self_ms.values()) - solve_ms) > 1e-6 * max(solve_ms, 1.0):
        raise AssertionError(f"{case.inst.name}: layer self times do not add up to the solve")
    return {
        "solve_ms": solve_ms,
        "self_ms": self_ms,
        "counts": dict(tracer.counts),
        "routes": routes,
        "report_ms": report_ms,
        "parse_ms": parse_ms,
    }


def relative_times(cases: list[Case]) -> dict[str, float]:
    """Each instance's median of solve time over adjacent reference time;
    failures are charged the deadline."""
    return {
        c.inst.name: measure.charged(None if c.failure else c.rel, DEADLINE_REFS) for c in cases
    }


def end_to_end(cases: list[Case], setup_s: list[float]) -> tuple[dict, dict]:
    rel = relative_times(cases)
    top = max(c.inst.rung for c in cases)
    rungs = sorted({c.inst.rung for c in cases})
    per_rung = [measure.geomean(rel[c.inst.name] for c in cases if c.inst.rung == r) for r in rungs]
    solves = sum(len(c.solve_ms) for c in cases) + sum(c.failure is not None for c in cases)
    top_solves = sum(len(c.solve_ms) + (c.failure is not None) for c in cases if c.inst.rung == top)
    ok = [c for c in cases if c.failure is None]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "solve_rel_gm": (measure.geomean(rel.values()), "ref", solves),
        "top_rung_rel": (
            measure.geomean(rel[c.inst.name] for c in cases if c.inst.rung == top),
            "ref",
            top_solves,
        ),
        "growth_exponent": (measure.loglog_slope(rungs, per_rung), "exponent", len(rungs)),
        "ok_share": (len(ok) / len(cases), "share", len(cases)),
        "setup_s": (median(setup_s), "s", len(setup_s)),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", 1),
    }
    all_refs = [r for c in cases for r in c.ref_ms]
    host = {
        "host.solve_ms_gm": measure.geomean(
            measure.charged(None if c.failure else c.solve_ms, c.failed_ms) for c in cases
        ),
        "host.ref_ms": median(all_refs),
        "host.ref_samples": len(all_refs),
    }
    return metrics, host


def per_layer(cases: list[Case]) -> dict:
    """Sum over instances of the layer numbers of each instance's
    median traced round."""
    ok = [c for c in cases if c.failure is None]
    units = {}
    totals: dict[str, float] = {}

    def add(name, value, unit, combine=sum):
        units[name] = unit
        totals[name] = combine((totals.get(name, 0), value))

    traced_total = untraced_total = 0.0
    for c in ok:
        chosen = sorted(c.rounds, key=lambda r: r["solve_ms"])[len(c.rounds) // 2]
        traced_total += median(r["solve_ms"] for r in c.rounds)
        untraced_total += median(c.solve_ms)
        for name in spans.TIME_METRICS:
            add(name, chosen["self_ms"][name], "ms")
        add("pipeline.solve_ms", chosen["solve_ms"], "ms")
        add("pipeline.report_ms", median(r["report_ms"] for r in c.rounds), "ms")
        add("graph.parse_ms", median(r["parse_ms"] for r in c.rounds), "ms")
        for name in spans.SUM_COUNTS:
            add(name, chosen["counts"].get(name, 0), "count")
        for name in spans.MAX_COUNTS:
            add(name, chosen["counts"].get(name, 0), "count", max)
        for route in ("o3-matching", "prime-C5", "perfect-exact", "exact-fallback"):
            add(f"routes.{route}", chosen["routes"].get(f"routes.{route}", 0), "count")
    solve_ms = totals["pipeline.solve_ms"]
    add("detect.share", totals["detect.ms"] / solve_ms, "share")
    add("trace.overhead_share", traced_total / untraced_total - 1.0, "share")
    return {name: (totals[name], units[name]) for name in sorted(totals)}


def run(args) -> dict:
    phase_s = {}
    clock = time.perf_counter()
    lib = import_library()
    rng = random.Random(args.seed)
    build, orders = WORKLOADS[args.workload]
    insts = build(lib)
    if orders:
        insts = [moved for inst in insts for moved in wl.relabellings(inst, rng, orders)]
    rng.shuffle(insts)
    cases = [Case(inst, lib.p5color.to_dimacs(lib.p5color.Graph(inst.n, inst.edges))) for inst in insts]
    phase_s["build"] = time.perf_counter() - clock
    lib, setup_wall, setup_s = setup(cases)

    clock = time.perf_counter()
    rounds = timed_rounds(lib, cases, args.seconds, traced=bool(args.trace))
    phase_s["rounds"] = time.perf_counter() - clock

    metrics, host = end_to_end(cases, setup_s)
    attempted = sum(1 + c.reps * len(c.solve_ms) for c in cases)
    failures = [{"instance": c.inst.name, "reason": c.failure} for c in cases if c.failure]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": len(cases),
        "rounds": rounds,
        "deadline_refs": DEADLINE_REFS,
        "phase_s": phase_s,
        "failures": failures,
        "samples": {name: m[2] for name, m in metrics.items()},
        "host.setup_s": median(setup_wall),
        **host,
    }
    if args.trace:
        layers = per_layer(cases)
        layers["host.ref_ms"] = (host["host.ref_ms"], "ms")
        layers["host.solve_ms_gm"] = (host["host.solve_ms_gm"], "ms")
        shown = layers
    else:
        shown = {name: (m[0], m[1]) for name, m in metrics.items()}
    for name, (value, unit) in shown.items():
        samples = record["samples"].get(name)
        print(f"{name:28} {value:14.6f} {unit:9}" + (f" n={samples}" if samples else ""))
    print(json.dumps({"record": record}, sort_keys=True))
    return {
        "correct": True,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "p5color" / "__init__.py").is_file():
        print(f"p5color source tree not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = run(args)
    except AnswerMismatch as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
