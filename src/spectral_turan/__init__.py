"""Desk-scale verifiers for the spectral-radius -> clique-count ->
complete-multipartite-subgraph chain, plus the finite-n spectral extremal
sandwich, over exactly generated graph corpora."""

from .cliques import CliqueCountOverflowError, count_cliques
from .graphs import (
    Graph,
    Graph6Error,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    gnp,
    parse_edge_list,
    parse_graph6,
    part_sizes,
    to_edge_list,
    to_graph6,
    turan_graph,
    turan_part_sizes,
)
from .multipartite import (
    BicliqueResult,
    MultipartiteWitness,
    SearchBudgetExceeded,
    find_complete_multipartite,
    max_balanced_biclique,
    verify_witness,
)
from .spectral import SpectralEstimate, spectral_radius
from .theorems import (
    SpexResult,
    TheoremReport,
    Verdict,
    chromatic_number,
    fact1_check,
    fact1_rhs,
    fact2_check,
    fact3_check,
    proof_chain_check,
    spex_scan,
    theorem1_check,
    theorem2_gap,
)

__version__ = "0.1.0"

__all__ = [
    "BicliqueResult",
    "CliqueCountOverflowError",
    "Graph",
    "Graph6Error",
    "MultipartiteWitness",
    "SearchBudgetExceeded",
    "SpectralEstimate",
    "SpexResult",
    "TheoremReport",
    "Verdict",
    "chromatic_number",
    "complete_graph",
    "complete_multipartite",
    "count_cliques",
    "cycle_graph",
    "fact1_check",
    "fact1_rhs",
    "fact2_check",
    "fact3_check",
    "find_complete_multipartite",
    "gnp",
    "max_balanced_biclique",
    "parse_edge_list",
    "parse_graph6",
    "part_sizes",
    "proof_chain_check",
    "spectral_radius",
    "spex_scan",
    "theorem1_check",
    "theorem2_gap",
    "to_edge_list",
    "to_graph6",
    "turan_graph",
    "turan_part_sizes",
    "verify_witness",
]
