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
    QuasiForestResult,
    SimplicialComplex,
    as_quasi_forest,
    f_vector,
    flag_complex,
    format_complex,
    free_vertices,
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
    free_vertex_witness,
    gap_series,
)
from .errors import (
    ContractViolationError,
    EdgeRingError,
    InternalInvariantError,
    MalformedInputError,
    NotTwoLinearError,
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
from .invariants import (
    BettiTable,
    HilbertSeries,
    betti_from_numerator,
    d_tree_signature,
    depth,
    hilbert_from_decomposition,
    hilbert_from_fvector,
    is_cm,
    krull_dim,
    projective_dimension,
)
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
    "HilbertSeries",
    "InternalInvariantError",
    "MalformedInputError",
    "NotChordal",
    "NotTwoLinearError",
    "OracleBettiTable",
    "QuasiForestDecomposition",
    "QuasiForestResult",
    "SimplicialComplex",
    "UndefinedInputError",
    "UnsupportedSizeError",
    "as_quasi_forest",
    "betti_from_numerator",
    "build_family",
    "classify",
    "complement",
    "d_tree_signature",
    "decompose",
    "depth",
    "enumerate_labeled",
    "f_vector",
    "family_report",
    "flag_complex",
    "format_complex",
    "formulas",
    "free_vertex_witness",
    "free_vertices",
    "gap_series",
    "hilbert_from_decomposition",
    "hilbert_from_fvector",
    "hochster_betti",
    "is_chordal",
    "is_cm",
    "krull_dim",
    "max_degree",
    "one_skeleton",
    "oracle_is_2linear",
    "oracle_pd",
    "parse_complex",
    "parse_edge_list",
    "parse_graph6",
    "projective_dimension",
    "reduced_homology_ranks",
    "restrict",
    "to_graph6",
]
