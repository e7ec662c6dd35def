"""Chromatic numbers with certificate colorings for {P5, co-P5}-free and
{P5, Kp-e}-free graphs, via clique-separator and modular decomposition,
with exact desk-scale oracles and structural verifiers."""

from .coloring import MultiColoring, parse_weights, validate_coloring
from .detect import (
    Witness,
    find_class_violation,
    find_induced_c5,
    find_induced_co_p5,
    find_induced_kp_minus_e,
    find_induced_p5,
    find_independent_triple,
    is_berge_small,
    is_o3_free,
    witness_ok,
)
from .errors import CutoffExceeded, NotInClass, NotO3Free, ParseError, PreconditionError
from .graph import (
    Graph,
    is_clique,
    is_connected,
    parse_graph,
    to_dimacs,
    to_edge_list,
)
from .matching import chi_o3_free, max_matching
from .oracle import (
    chi_exact,
    chi_w_exact,
    clique_number_exact,
    max_clique_exact,
    max_matching_bruteforce,
)
from .pipeline import (
    SolveReport,
    gen_p5_cop5,
    gen_p5_kpe,
    solve_p5_cop5,
    solve_p5_kpe,
    verify_gyarfas,
    verify_lemma4,
    verify_lemma5,
    verify_oracle,
)

__all__ = [
    "CutoffExceeded",
    "Graph",
    "MultiColoring",
    "NotInClass",
    "NotO3Free",
    "ParseError",
    "PreconditionError",
    "SolveReport",
    "Witness",
    "chi_exact",
    "chi_o3_free",
    "chi_w_exact",
    "clique_number_exact",
    "find_class_violation",
    "find_independent_triple",
    "find_induced_c5",
    "find_induced_co_p5",
    "find_induced_kp_minus_e",
    "find_induced_p5",
    "gen_p5_cop5",
    "gen_p5_kpe",
    "is_berge_small",
    "is_clique",
    "is_connected",
    "is_o3_free",
    "max_clique_exact",
    "max_matching",
    "max_matching_bruteforce",
    "parse_graph",
    "parse_weights",
    "solve_p5_cop5",
    "solve_p5_kpe",
    "to_dimacs",
    "to_edge_list",
    "validate_coloring",
    "verify_gyarfas",
    "verify_lemma4",
    "verify_lemma5",
    "verify_oracle",
    "witness_ok",
]
