"""Brute-force graded Betti numbers from induced-subcomplex homology.

beta_(i,j) = sum over vertex subsets W of size j of rank H~_(j-i-1) of the
restriction to W, over the rationals.  The empty restriction contributes
rank 1 in dimension -1, which is what makes beta_(0,0) = 1 come out of the
sum instead of being special-cased.

Ground truth for everything the closed formulas claim; no quasi-forest
assumptions are made here.  Every subset is reduced to its strong-collapse
core first: a vertex v is dominated when the faces containing v all extend by
one more vertex u, and deleting v keeps the homotopy type, so every reduced
homology rank (Barmak & Minian, DCG 47, 2012).  Vertices are deleted one at
a time: two vertices in the same facets dominate each other, and deleting
both would empty an edge.  A cone collapses to a point.

There are two kernels.  A flag complex, which is every complex the sweeps
and `edgering oracle GRAPH6` build, runs on the graph H whose cliques are its
faces: the restriction to W is the flag complex of H[W], and v is dominated
when its closed neighbourhood in W lies inside that of another vertex u
(Boulet, Fieux & Jouve, Europ. J. Combin. 31, 2010).  Subsets are visited in
increasing order, so a W with a dominated vertex v takes the result already
found for W - v, and a W that collapses to a point is skipped before any key
is built: at n = 12 that is most subsets.  Only a W with no dominated vertex,
other than a single vertex, is keyed, by its closed neighbourhood rows
relabelled onto 0..|W|-1, and exact homology of its maximal cliques runs
only on a memo miss.  Any other complex runs on facet bitmasks: the facets
of the restriction to W are the maximal nonempty f & W, keyed the same way,
and only a key that misses is reduced to its core, which is looked up too.
The two kernels keep separate memos, because a graph key and a facet key can
be the same tuple of different complexes.  `hochster_betti` takes the graph
kernel when the complex's facets are the maximal cliques of its 1-skeleton.
The ground set is capped at n <= 14; a larger one raises UnsupportedSizeError
(CLI exit 3).
"""

from __future__ import annotations

from typing import Sequence

from .complexes import (
    SimplicialComplex,
    _homology_ranks,
    _maximal_clique_masks,
    _maximal_masks,
    _position_masks,
    one_skeleton,
)
from .errors import InternalInvariantError, UnsupportedSizeError
from .graphs import bits
from .invariants import BettiTable

ORACLE_VERTEX_CAP = 14

# graph kernel: compressed closed rows of a core -> reduced homology ranks
_HOMOLOGY_MEMO: dict[tuple[int, ...], dict[int, int]] = {}
# facet kernel: compressed facets of a restriction or of its core -> ranks
_FACET_MEMO: dict[tuple[int, ...], dict[int, int]] = {}


class OracleBettiTable(BettiTable):
    """Betti table plus the ground-set size and the number of subsets examined."""

    def __init__(self, entries: dict[tuple[int, int], int], n: int, subsets_examined: int):
        super().__init__(entries)
        self.n = n
        self.subsets_examined = subsets_examined
        for (i, j), v in self.entries.items():
            if j < i or j > n:
                raise InternalInvariantError(f"impossible Betti position {(i, j)}")


def check_vertex_cap(n: int) -> None:
    """Raise UnsupportedSizeError for a ground set above the oracle's cap."""
    if n > ORACLE_VERTEX_CAP:
        raise UnsupportedSizeError(f"oracle capped at {ORACLE_VERTEX_CAP} vertices, got {n}")


def hochster_betti(c: SimplicialComplex) -> OracleBettiTable:
    """Exact Betti table of the Stanley-Reisner ring of c, by subset summation.

    A flag complex, one whose facets are the maximal cliques of its
    1-skeleton, takes the graph kernel; any other takes the facet kernel.
    """
    check_vertex_cap(c.n)
    facets = _position_masks(c)
    rows = one_skeleton(c).rows
    if set(facets) == set(_maximal_clique_masks(c.n, rows)):
        return _hochster_graph(c.n, rows)
    return _hochster_masks(c.n, facets)


def _hochster_graph(n: int, rows: Sequence[int]) -> OracleBettiTable:
    """Betti table of the flag complex of the graph on 0..n-1 with these
    adjacency rows."""
    closed = {1 << v: r | 1 << v for v, r in enumerate(rows)}  # by vertex bit
    # at_subset[w]: the ranks of the restriction to w, None if it collapses to a point
    at_subset: list[dict[int, int] | None] = [None] * (1 << n)
    entries: dict[tuple[int, int], int] = {}
    for w in range(1 << n):
        v = _dominated_vertex(closed, w)
        if v:
            # deleting v keeps every rank, and w ^ v came earlier
            ranks = at_subset[w] = at_subset[w ^ v]
            if ranks is None:
                continue  # collapses to a point
        elif w.bit_count() == 1:
            continue  # a point
        else:
            # w is its own core, of zero or at least two vertices
            key = tuple(_compress(closed[1 << u] & w, w) for u in bits(w))
            ranks = _HOMOLOGY_MEMO.get(key)
            if ranks is None:
                cliques = _maximal_clique_masks(len(key), [r ^ 1 << i for i, r in enumerate(key)])
                ranks = _HOMOLOGY_MEMO[key] = _homology_ranks(cliques)
            at_subset[w] = ranks
        j = w.bit_count()
        for dim, h in ranks.items():
            if h:
                i = j - 1 - dim
                entries[(i, j)] = entries.get((i, j), 0) + h
    if entries.get((0, 0)) != 1:
        raise InternalInvariantError("Hochster sum did not produce beta_(0,0) = 1")
    return OracleBettiTable(entries, n, 1 << n)


def _dominated_vertex(closed: dict[int, int], w: int) -> int:
    """A vertex bit v of w whose closed neighbourhood in w lies in that of
    another vertex u, or 0 if none.  Such a u holds v, so only neighbours of
    v are tried."""
    m = w
    while m:
        low = m & -m
        m ^= low
        row = closed[low] & w
        nbrs = row ^ low
        while nbrs:
            u = nbrs & -nbrs
            if row & ~closed[u] == 0:
                return low
            nbrs ^= u
    return 0


def _hochster_masks(n: int, facets: list[int]) -> OracleBettiTable:
    """Betti table of the complex on positions 0..n-1 with these facet masks."""
    entries: dict[tuple[int, int], int] = {}
    for w in range(1 << n):
        key = tuple(sorted(_compress(piece, w) for piece in _maximal_masks({f & w for f in facets} - {0})))
        ranks = _FACET_MEMO.get(key)
        if ranks is None:
            core = _core_key(key)
            ranks = _FACET_MEMO.get(core)
            if ranks is None:
                ranks = _FACET_MEMO[core] = _homology_ranks(core)
            _FACET_MEMO[key] = ranks
        j = w.bit_count()
        for dim, h in ranks.items():
            if h:
                i = j - 1 - dim
                entries[(i, j)] = entries.get((i, j), 0) + h
    if entries.get((0, 0)) != 1:
        raise InternalInvariantError("Hochster sum did not produce beta_(0,0) = 1")
    return OracleBettiTable(entries, n, 1 << n)


def _compress(piece: int, w: int) -> int:
    """`piece`, a subset of the mask `w`, relabelled onto 0..|w|-1 in order."""
    out = 0
    while piece:
        low = piece & -piece
        out |= 1 << (w & (low - 1)).bit_count()
        piece ^= low
    return out


def _core_key(key: tuple[int, ...]) -> tuple[int, ...]:
    """Strong-collapse core of the complex with facet masks `key`, as a key.

    Deletes one dominated vertex at a time until none is left; the result has
    the same reduced homology ranks and is relabelled onto 0..|core|-1.
    """
    if not key:
        return key
    apex = -1
    for f in key:
        apex &= f
    if apex:
        return (1,)
    facets = list(key)
    deleted = True
    while deleted:
        deleted = False
        support = 0
        for f in facets:
            support |= f
        m = support
        while m:
            v = m & -m
            m ^= v
            common = -1
            for f in facets:
                if f & v:
                    common &= f
            if common != v:
                facets = _maximal_masks({f & ~v for f in facets})
                deleted = True
    return tuple(sorted(_compress(f, support) for f in facets))


def oracle_pd(table: OracleBettiTable) -> int:
    """Largest homological index with a nonzero entry; 0 for the polynomial ring."""
    return max((i for i, _ in table.entries), default=0)


def oracle_is_2linear(table: OracleBettiTable) -> bool:
    """True iff every nonzero beta_(i,j) with i >= 1 sits at j = i + 1."""
    return all(j == i + 1 for i, j in table.entries if i >= 1)


def clear_memo() -> None:
    _HOMOLOGY_MEMO.clear()
    _FACET_MEMO.clear()
