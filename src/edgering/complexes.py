"""Simplicial complexes as facet lists, flag complexes, and exact homology.

Ground sets are explicit sorted label tuples (usually 0..n-1; restrictions
keep original labels).  Every ground-set vertex must lie in some facet: an
isolated vertex is represented by a 0-dimensional facet.  The complex with
empty ground set is the complex whose only face is the empty face.

Face enumeration (capped at FACE_GUARD_VERTICES) and reduced homology run
once, on facet bitmasks over positions 0..n-1: `f_vector`, which returns
the tuple of face counts by size, and `reduced_homology_ranks` are views,
and the Hochster oracle calls the mask level directly.  Reduced homology is
computed over the rationals from exact integer boundary ranks: each
boundary map goes to `intlinalg.rank` as sparse rows built straight from
the face masks, one row {face ^ v: ±1} per face, with no dense matrix.  No
floating point is used anywhere in this module.  Ranks in positive
characteristic may differ in general and are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Sequence

from . import chordal, intlinalg
from .errors import (
    ContractViolationError,
    InternalInvariantError,
    MalformedInputError,
    UnsupportedSizeError,
)
from .graphs import Graph, _decimal, bits

FACE_GUARD_VERTICES = 25


def _canonical_facets(facets: Iterable[Iterable[int]]) -> tuple[frozenset[int], ...]:
    """Dedupe, drop non-maximal sets, and sort by sorted vertex tuple."""
    sets = {frozenset(f) for f in facets}
    if frozenset() in sets:
        raise MalformedInputError("empty facet; the empty complex has no facet lines")
    pos = {v: i for i, v in enumerate(sorted(set().union(*sets)))}
    by_mask = {sum(1 << pos[v] for v in f): f for f in sets}
    return tuple(sorted((by_mask[m] for m in _maximal_masks(by_mask)), key=sorted))


def _maximal_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal masks among distinct nonzero `masks`, largest
    first; each is compared only against the kept masks of larger size."""
    kept: list[int] = []
    larger: list[int] = []
    size = -1
    for m in sorted(masks, key=int.bit_count, reverse=True):
        if m.bit_count() != size:
            size = m.bit_count()
            larger = kept[:]
        for k in larger:
            if m & k == m:
                break
        else:
            kept.append(m)
    return kept


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet-list complex; facets are canonically ordered and inclusion-free."""

    vertices: tuple[int, ...]
    facets: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        verts = tuple(sorted(set(self.vertices)))
        facets = _canonical_facets(self.facets)
        covered: set[int] = set()
        for f in facets:
            covered |= f
        if not covered <= set(verts):
            raise MalformedInputError(f"facet vertices {sorted(covered - set(verts))} outside ground set")
        if covered != set(verts):
            raise MalformedInputError(
                f"vertices {sorted(set(verts) - covered)} lie in no facet; "
                "list isolated vertices as singleton facets"
            )
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "facets", facets)

    @classmethod
    def of(cls, vertices: int | Iterable[int], facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        verts = range(vertices) if isinstance(vertices, int) else vertices
        return cls(tuple(verts), tuple(frozenset(f) for f in facets))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def dim(self) -> int:
        """Dimension; -1 for the empty complex."""
        return max((len(f) for f in self.facets), default=0) - 1

    def facet_lists(self) -> list[list[int]]:
        return [sorted(f) for f in self.facets]


def flag_complex(g: Graph) -> SimplicialComplex:
    """Largest complex with 1-skeleton g: facets are the maximal cliques of g."""
    facets = [frozenset(bits(m)) for m in _maximal_clique_masks(g.n, g.rows)]
    return SimplicialComplex(tuple(range(g.n)), tuple(facets))


def _maximal_clique_masks(n: int, rows: Sequence[int]) -> list[int]:
    """Bron-Kerbosch with pivoting on bitmask rows, in the order the search
    finds them; deterministic, but callers that need an order impose it."""
    out: list[int] = []

    def bk(r: int, p: int, x: int) -> None:
        if not p and not x:
            out.append(r)
            return
        pux = p | x
        best_u = -1
        best = -1
        m = pux
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            c = (p & rows[u]).bit_count()
            if c > best:
                best = c
                best_u = u
        cand = p & ~rows[best_u]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            bk(r | low, p & rows[v], x & rows[v])
            p ^= low
            x |= low

    if n:
        bk(0, (1 << n) - 1, 0)
    return out


def _clique_counts(n: int, rows: Sequence[int]) -> list[int]:
    """Cliques of the graph on 0..n-1 with these rows by vertex count, the
    empty clique at index 0 and n + 1 entries: the f-vector of its flag
    complex.  A depth-first search grows each clique by the common
    neighbours above its highest vertex, so it counts every clique once and
    lists none."""
    counts = [0] * (n + 1)
    counts[0] = 1
    # (the vertices p that extend some clique to s vertices, s)
    stack = [((1 << n) - 1, 1)] if n else []
    while stack:
        p, s = stack.pop()
        counts[s] += p.bit_count()
        while p:
            low = p & -p
            p ^= low
            q = p & rows[low.bit_length() - 1]
            if q:
                stack.append((q, s + 1))
    return counts


def one_skeleton(c: SimplicialComplex) -> Graph:
    """Graph with an edge wherever two vertices share a facet.

    Vertex i of the graph corresponds to c.vertices[i]; for complexes on
    0..n-1 this is the identity.
    """
    rows = [0] * c.n
    for m in _position_masks(c):
        for i in bits(m):
            rows[i] |= m & ~(1 << i)
    return Graph(c.n, tuple(rows))


def _position_masks(c: SimplicialComplex) -> list[int]:
    """Facets as bitmasks over positions in c.vertices, in facet order."""
    pos = {v: i for i, v in enumerate(c.vertices)}
    return [sum(1 << pos[v] for v in f) for f in c.facets]


def restrict(c: SimplicialComplex, w: Iterable[int]) -> SimplicialComplex:
    """Induced subcomplex on w: the faces of c contained in w (labels kept)."""
    wset = frozenset(w)
    if not wset <= set(c.vertices):
        raise ContractViolationError(f"restriction set {sorted(wset - set(c.vertices))} outside ground set")
    pieces = [f & wset for f in c.facets if f & wset]
    return SimplicialComplex(tuple(sorted(wset)), tuple(pieces))


def _faces_by_size(facets: Sequence[int]) -> list[list[int]]:
    """All faces of the complex with these facet masks, grouped by vertex count;
    index 0 is the empty face."""
    support = 0
    for fm in facets:
        support |= fm
    n = support.bit_count()  # every vertex lies in a facet
    if n > FACE_GUARD_VERTICES:
        raise UnsupportedSizeError(f"face enumeration capped at {FACE_GUARD_VERTICES} vertices, got {n}")
    seen = {0}
    for fm in facets:
        sub = fm
        while sub:
            seen.add(sub)
            sub = (sub - 1) & fm
    top = max((fm.bit_count() for fm in facets), default=0)
    grouped: list[list[int]] = [[] for _ in range(top + 1)]
    for m in seen:
        grouped[m.bit_count()].append(m)
    for g in grouped:
        g.sort()
    return grouped


def f_vector(c: SimplicialComplex) -> tuple[int, ...]:
    """Exact face counts by size: counts[k] is the number of faces with k
    vertices (dimension k - 1), and counts[0] = 1 for the empty face."""
    grouped = _faces_by_size(_position_masks(c))
    counts = tuple(len(g) for g in grouped)
    for k, ct in enumerate(counts):
        if ct > comb(c.n, k):
            raise InternalInvariantError("face count exceeds binomial bound")
    return counts


def _boundary(face: int) -> dict[int, int]:
    """The boundary of a face as a sparse row over the faces one smaller,
    each column keyed by its own mask: +1, -1, ... from the lowest vertex."""
    row = {}
    sign = 1
    m = face
    while m:
        low = m & -m
        m ^= low
        row[face ^ low] = sign
        sign = -sign
    return row


def reduced_homology_ranks(c: SimplicialComplex) -> dict[int, int]:
    """Ranks of reduced homology over Q, keyed by dimension -1..dim."""
    return _homology_ranks(_position_masks(c))


def _homology_ranks(facets: Sequence[int]) -> dict[int, int]:
    """Reduced homology ranks of the complex with these facet masks.

    rank H~_d = (#d-faces) - rank del_d - rank del_(d+1), with the empty face
    as the single (-1)-dimensional chain generator.
    """
    grouped = _faces_by_size(facets)
    top = len(grouped) - 1
    # boundary_rank[s] = rank of the map from size-s faces to size-(s-1) faces
    boundary_rank = [0] * (top + 2)
    for s in range(1, top + 1):
        boundary_rank[s] = intlinalg.rank([_boundary(face) for face in grouped[s]])
    ranks: dict[int, int] = {}
    for s in range(top + 1):
        h = len(grouped[s]) - boundary_rank[s] - boundary_rank[s + 1]
        if h < 0:
            raise InternalInvariantError("negative homology rank")
        ranks[s - 1] = h
    return ranks


SKELETON_NOT_CHORDAL = "skeleton-not-chordal"
NOT_FLAG = "not-flag"


def _quasi_forest_masks(
    c: SimplicialComplex,
) -> tuple[list[int] | None, str | None, tuple[int, ...] | None]:
    """Recognize c as a quasi-forest: (facet masks over positions in
    c.vertices, in MCS order, None, None), or (None, reason, chordless cycle
    or None).

    Criterion: the 1-skeleton is chordal and c is the flag complex of it.
    The complex on the empty ground set raises UndefinedInputError.
    """
    res, facets = chordal._decompose_masks(one_skeleton(c))
    if facets is None:
        return None, SKELETON_NOT_CHORDAL, tuple(c.vertices[i] for i in res.cycle)
    if set(facets) != set(_position_masks(c)):
        return None, NOT_FLAG, None
    return facets, None, None


def parse_complex(text: str) -> SimplicialComplex:
    """Fixture format: first line n, then one facet per line as vertex indices."""
    return SimplicialComplex.of(*parse_fixture(text))


def parse_fixture(text: str) -> tuple[int, list[list[int]]]:
    """The vertex count and facet lines of a fixture, checked but not canonicalized,
    so a size cap can be applied before the complex is built."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise MalformedInputError("empty complex fixture")
    try:
        n = _decimal(lines[0])
    except ValueError:
        raise MalformedInputError(f"first line must be the vertex count, got {lines[0]!r}") from None
    if n < 0:
        raise MalformedInputError(f"negative vertex count {n}")
    facets = []
    for ln in lines[1:]:
        try:
            facet = [_decimal(t) for t in ln.split()]
        except ValueError:
            raise MalformedInputError(f"non-integer vertex in facet line {ln!r}") from None
        for v in facet:
            if not 0 <= v < n:
                raise MalformedInputError(f"vertex {v} outside 0..{n - 1}")
        facets.append(facet)
    entries = sum(len(f) for f in facets)
    if n > entries:
        # checked before the ground set range(n) is built
        raise MalformedInputError(
            f"vertex count {n} exceeds the {entries} vertex entries of the facet lines; "
            "every vertex must lie in a facet"
        )
    return n, facets
