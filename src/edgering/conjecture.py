"""Classify a graph G against "pd(k[G]) equals the maximum vertex degree".

The hypothesis of the statement is that the edge ring k[G] has a 2-linear
resolution, which holds exactly when the complement of G is chordal; the
edge ring is then the Stanley-Reisner ring of the quasi-forest built from
the complement's maximal cliques, and pd comes from the closed formula.

`formulas` computes every closed formula for one graph on facet masks and
returns one `FormulaRecord`, and `checked_strand` checks it.  `_answer` is
the one composition of a graph's answer: the facets of
`chordal._facet_masks` on the complement, `formulas` on them and
`checked_strand` on the record, as one `_Answer` tuple.  It reads only
chordal-or-not and the PEO, so a complement that is not chordal costs an
MCS that stops at its first non-clique neighbourhood, and no chordless
cycle.  Thin views read it: `analyze_record` formats it as the `edgering
analyze` document, asking `chordal.is_chordal` for the cycle of a
complement that is not chordal, `classify` as a `ConjectureReport`,
`cli.survey_record` as a survey line, and the `match` flag of `edgering
oracle` reads its Betti strand.  The sweeps call
`formulas` alone and check the record against their own references.  The
verdict is always the direct comparison pd == max_deg.  The structural
witness (a free vertex in a facet of size r_min + 2 attached to the rest
along all of its other vertices) is computed independently; witness implies
holds is checked, and the converse exercised by the sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import chordal, invariants
from .chordal import _attach_dims
from .errors import InternalInvariantError, UndefinedInputError
from .graphs import Graph, bits, complement, max_degree, to_graph6

KRR_GAP_NOTE = (
    "complete-bipartite family: the gap for K_(r,r) is sometimes quoted as r, but the "
    "computed value is r - 1 (pd = 2r - 1 while the maximum degree is r); this library "
    "asserts r - 1, which the brute-force oracle confirms at small r"
)


@dataclass(frozen=True)
class ConjectureReport:
    """Per-graph verdict; formula fields are None when there is no 2-linear resolution."""

    graph6: str
    has_2linear: bool
    single_facet: bool | None = None
    r_min: int | None = None
    pd: int | None = None
    max_deg: int | None = None
    holds: bool | None = None
    gap: int | None = None
    witness: tuple[frozenset[int], int] | None = None

    def __post_init__(self) -> None:
        if self.has_2linear:
            if self.gap != self.pd - self.max_deg:
                raise InternalInvariantError("gap != pd - max_deg")
            if self.holds != (self.pd == self.max_deg):
                raise InternalInvariantError("holds flag inconsistent with pd and max_deg")


def _free_vertex_witness_masks(facets, r_min: int) -> tuple[int, int] | None:
    """The free-vertex witness on the facet masks of a quasi-forest with at
    least two facets: (facet mask, vertex) for the first witness facet in
    canonical order (sorted vertex lists), or None.

    A witness is a facet F of r_min + 2 vertices and a vertex v in no other
    facet such that F meets the union of the other facets in exactly
    F - {v}; equivalently, exactly one vertex of F, the free vertex, lies in
    no other facet.
    """
    seen = twice = 0
    for f in facets:
        twice |= seen & f
        seen |= f
    once = seen & ~twice
    target = r_min + 2
    found = [f for f in facets if f.bit_count() == target and (f & once).bit_count() == 1]
    if not found:
        return None
    f = min(found, key=lambda m: list(bits(m)))
    return f, (f & once).bit_length() - 1


class FormulaRecord(NamedTuple):
    """The closed-form quasi-forest invariants of one graph, on facet masks.

    numerator is untrimmed (n + 1 coefficients over (1-t)^n); d_tree is the
    existence of a d-tree ordering; witness is (facet mask, free vertex) or
    None, and always None for a single facet.  `checked_strand` checks it.
    """

    dims: tuple[int, ...]
    attach_dims: tuple[int, ...]
    r_min: int | None
    numerator: tuple[int, ...]
    pd: int
    depth: int
    dim: int
    cm: bool
    d_tree: bool
    witness: tuple[int, int] | None
    holds: bool


def formulas(n: int, facets: list[int], max_deg: int) -> FormulaRecord:
    """The record of a graph G of maximum degree max_deg on n vertices, from
    the facet masks of its complement's quasi-forest in a quasi-forest
    ordering, such as the MCS order of `chordal._facet_masks`.

    The one place that composes the `invariants` formulas and the witness.
    """
    dims = tuple([f.bit_count() - 1 for f in facets])
    attach_dims = tuple(_attach_dims(facets))
    r_min = min(attach_dims) if attach_dims else None
    pd, depth = invariants._pd_depth(n, len(facets), r_min)
    dim = invariants._krull_dim(dims)
    return FormulaRecord(
        dims, attach_dims, r_min, tuple(invariants._numerator(n, dims, attach_dims)), pd, depth, dim,
        invariants._cm_structural(dims, attach_dims), invariants._d_tree_exists(n, len(facets), dim),
        None if r_min is None else _free_vertex_witness_masks(facets, r_min), pd == max_deg,
    )


def checked_strand(
    rec: FormulaRecord, n: int, max_deg: int, graph6: str
) -> tuple[tuple[int, ...], dict[tuple[int, int], int]]:
    """The trimmed Hilbert numerator and the Betti strand of the record of a
    graph on n vertices, checked in O(n): the numerator starts 1 + 0t and has
    degree n - r_min - 1, no Betti number is negative, CM holds exactly when
    depth = dim, and a witness implies holds; else InternalInvariantError."""
    num = invariants._checked_numerator(rec.numerator, n, rec.r_min)
    betti = invariants._linear_strand(num)
    if any(v < 0 for v in betti.values()):
        raise InternalInvariantError("negative Betti number; the numerator is not 2-linear")
    if rec.cm != (rec.depth == rec.dim):
        raise InternalInvariantError("CM structural test disagrees with depth = dim")
    if rec.witness is not None and not rec.holds:
        raise InternalInvariantError(f"witness exists but pd {rec.pd} != max degree {max_deg} for {graph6}")
    return num, betti


ANALYZE_KEYS = (
    "input", "n", "complement_chordal", "chordless_cycle", "facets", "d", "r",
    "r_min", "hilbert_numerator", "betti", "pd", "depth", "dim", "cm", "d_tree",
    "max_deg", "conjecture_holds", "gap", "witness", "notes",
)


class _Answer(NamedTuple):
    """A graph's answer: its graph6 and maximum degree and, when its
    complement is chordal, the facet masks of the complement's quasi-forest
    with their checked record, numerator and Betti strand, else None."""

    graph6: str
    max_deg: int
    facets: list[int] | None
    record: FormulaRecord | None
    numerator: tuple[int, ...] | None
    strand: dict[tuple[int, int], int] | None


def _answer(g: Graph) -> _Answer:
    """The one composition of a graph's answer: the facets of
    `chordal._facet_masks` on the complement, `formulas` on them and
    `checked_strand` on the record.  A complement that is not chordal
    costs the search up to its first non-clique neighbourhood and no
    chordless cycle."""
    if g.n < 1:
        raise UndefinedInputError("analysis needs at least one vertex")
    max_deg = max_degree(g)
    graph6 = to_graph6(g)
    facets = chordal._facet_masks(complement(g))
    if facets is None:
        return _Answer(graph6, max_deg, None, None, None, None)
    f = formulas(g.n, facets, max_deg)
    num, strand = checked_strand(f, g.n, max_deg, graph6)
    return _Answer(graph6, max_deg, facets, f, num, strand)


def _witness(f: FormulaRecord) -> dict | None:
    """The free-vertex witness of a record as a document field."""
    if f.witness is None:
        return None
    facet, vertex = f.witness
    return {"facet": list(bits(facet)), "vertex": vertex}


def analyze_record(g: Graph) -> dict:
    """The full analyze document of `_answer(g)`; formula fields are null
    when the complement is not chordal, and the certificate path,
    `chordal.is_chordal`, gives its chordless cycle."""
    a = _answer(g)
    rec: dict = {key: None for key in ANALYZE_KEYS}
    rec.update(input=a.graph6, n=g.n, max_deg=a.max_deg, notes=[])
    f = a.record
    if f is None:
        rec.update(complement_chordal=False, chordless_cycle=list(chordal.is_chordal(complement(g)).cycle))
        return rec
    rec.update(
        complement_chordal=True, facets=[list(bits(m)) for m in a.facets], d=list(f.dims),
        r=list(f.attach_dims), r_min=f.r_min, hilbert_numerator=list(a.numerator),
        betti=[[i, j, v] for (i, j), v in a.strand.items()], pd=f.pd, depth=f.depth, dim=f.dim, cm=f.cm,
        d_tree=sorted(f.dims, reverse=True) if f.d_tree else None, conjecture_holds=f.holds,
        gap=f.pd - a.max_deg, witness=_witness(f),
    )
    return rec


def classify(g: Graph) -> ConjectureReport:
    """The verdict of `_answer(g)`: pd, maximum degree, gap and witness
    when the complement of g is chordal."""
    a = _answer(g)
    f = a.record
    if f is None:
        return ConjectureReport(graph6=a.graph6, has_2linear=False)
    return ConjectureReport(
        graph6=a.graph6, has_2linear=True, single_facet=len(a.facets) == 1, r_min=f.r_min, pd=f.pd,
        max_deg=a.max_deg, holds=f.holds, gap=f.pd - a.max_deg,
        witness=f.witness and (frozenset(bits(f.witness[0])), f.witness[1]),
    )


FAMILIES = ("complete-bipartite", "barbell")


def build_family(family: str, r: int) -> Graph:
    """Construct K_{r,r}, or the complement of two K_r joined by a bridge."""
    if r < 2:
        raise UndefinedInputError(f"family parameter r must be >= 2, got {r}")
    if family == "complete-bipartite":
        return Graph.from_edges(2 * r, [(u, v) for u in range(r) for v in range(r, 2 * r)])
    if family == "barbell":
        edges = [(u, v) for u in range(r) for v in range(u + 1, r)]
        edges += [(u, v) for u in range(r, 2 * r) for v in range(u + 1, 2 * r)]
        edges.append((r - 1, r))
        return complement(Graph.from_edges(2 * r, edges))
    raise UndefinedInputError(f"unknown family {family!r}; expected one of {FAMILIES}")


def gap_series(family: str, r: int) -> int:
    """pd - max_deg for the family member; r - 1 for K_{r,r}, r - 2 for the barbell complement."""
    report = classify(build_family(family, r))
    if not report.has_2linear:
        raise InternalInvariantError(f"family {family} member r={r} lost 2-linearity")
    return report.gap


def family_report(family: str, r: int) -> dict:
    """Classification of a family member plus any applicable discrepancy notes."""
    report = classify(build_family(family, r))
    notes = [KRR_GAP_NOTE] if family == "complete-bipartite" else []
    return {
        "family": family,
        "r": r,
        "graph6": report.graph6,
        "pd": report.pd,
        "max_deg": report.max_deg,
        "gap": report.gap,
        "holds": report.holds,
        "notes": notes,
    }
