"""Exact homological invariants of edge rings with 2-linear resolutions.

For a graph G on vertices 0..n-1 the edge ring is k[x_0..x_(n-1)] modulo the
ideal generated by x_i x_j over the edges of G.  It has a 2-linear minimal
free resolution exactly when the complement of G is chordal, in which case
the flag complex of the complement is a quasi-forest and closed formulas
give the Hilbert series, graded Betti numbers, projective dimension, depth,
Krull dimension, and Cohen-Macaulayness from the facet/attachment dimensions
of any quasi-forest ordering.

The package classifies graphs for the question "does the projective
dimension of the edge ring equal the maximum vertex degree of G?", produces
the structural free-vertex witness when the answer is yes, and validates
every closed formula against an independent brute-force Betti oracle built
on induced-subcomplex homology over the rationals.
"""

from .chordal import (
    Chordal,
    ChordalityResult,
    NotChordal,
    QuasiForestDecomposition,
    decompose,
    is_chordal,
)
from .complexes import (
    FVector,
    SimplicialComplex,
    f_vector,
    flag_complex,
    one_skeleton,
    parse_complex,
    reduced_homology_ranks,
    restrict,
)
from .conjecture import (
    ConjectureReport,
    FormulaRecord,
    build_family,
    classify,
    family_report,
    formulas,
    gap_series,
)
from .errors import (
    ContractViolationError,
    EdgeRingError,
    InternalInvariantError,
    MalformedInputError,
    UndefinedInputError,
    UnsupportedSizeError,
)
from .graphs import (
    Graph,
    complement,
    enumerate_labeled,
    max_degree,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .invariants import BettiTable
from .oracle import OracleBettiTable, hochster_betti, oracle_is_2linear, oracle_pd

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "Chordal",
    "ChordalityResult",
    "ConjectureReport",
    "ContractViolationError",
    "EdgeRingError",
    "FVector",
    "FormulaRecord",
    "Graph",
    "InternalInvariantError",
    "MalformedInputError",
    "NotChordal",
    "OracleBettiTable",
    "QuasiForestDecomposition",
    "SimplicialComplex",
    "UndefinedInputError",
    "UnsupportedSizeError",
    "build_family",
    "classify",
    "complement",
    "decompose",
    "enumerate_labeled",
    "f_vector",
    "family_report",
    "flag_complex",
    "formulas",
    "gap_series",
    "hochster_betti",
    "is_chordal",
    "max_degree",
    "one_skeleton",
    "oracle_is_2linear",
    "oracle_pd",
    "parse_complex",
    "parse_edge_list",
    "parse_graph6",
    "reduced_homology_ranks",
    "restrict",
    "to_graph6",
]
