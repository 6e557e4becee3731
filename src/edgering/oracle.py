"""Brute-force graded Betti numbers from induced-subcomplex homology.

beta_(i,j) = sum over vertex subsets W of size j of rank H~_(j-i-1) of the
restriction to W, over the rationals.  The empty restriction contributes
rank 1 in dimension -1, which is what makes beta_(0,0) = 1 come out of the
sum instead of being special-cased.

Ground truth for everything the closed formulas claim; no quasi-forest
assumptions are made here.  Subsets W are visited in increasing order, and a
vertex v is dominated in the restriction to W when the faces containing v
all extend by one more vertex u.  Deleting v keeps the homotopy type, so
every reduced homology rank (Barmak & Minian, DCG 47, 2012): a W with a
dominated vertex takes the result already found for W - v, and a W that
collapses to a point is skipped.  Only a W with no dominated vertex, other
than a single vertex, is keyed, relabelled onto 0..|W|-1, and exact
homology runs only on a memo miss.  At n = 12 most subsets collapse.

One loop serves two kernels, and each passes it one step that does both
for a W: the domination test and, failing it, the key and the memo lookup.
A flag complex, which is every complex the sweeps and `edgering oracle
GRAPH6` build, runs on the graph H whose cliques are its faces: the
restriction to W is the flag complex of H[W], v is dominated when its
closed neighbourhood in W lies inside that of another vertex (Boulet,
Fieux & Jouve, Europ. J. Combin. 31, 2010), and the key is the closed
neighbourhood rows.  Any other complex runs on facet bitmasks: the facets
of the restriction, the maximal nonempty f & W, are built once per W; v is
dominated when those holding v share another vertex, and the key is those
facets, sorted.
The two kernels keep separate memos, because a graph key and a facet key
can be the same tuple of different complexes.  `hochster_betti` takes the
graph kernel when the complex's facets are the maximal cliques of its
1-skeleton.  The ground set is capped at n <= 14; a larger one raises
UnsupportedSizeError (CLI exit 3).
"""

from __future__ import annotations

from typing import Callable, Sequence

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
# facet kernel: sorted compressed facets of a core -> reduced homology ranks
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
    return _hochster(n, closed, _graph_step)


def _hochster_masks(n: int, facets: Sequence[int]) -> OracleBettiTable:
    """Betti table of the complex on positions 0..n-1 with these facet masks,
    every position in some facet."""
    return _hochster(n, facets, _facet_step)


def _hochster(n: int, data, step: Callable[..., dict[int, int] | None]) -> OracleBettiTable:
    """Hochster's sum over the subsets w of 0..n-1, in increasing order.

    `step(data, w, at_subset)` is the reduced homology ranks of the
    restriction to w, or None if it collapses to a point; `at_subset` holds
    what it returned for every earlier subset.
    """
    at_subset: list[dict[int, int] | None] = [None] * (1 << n)
    entries: dict[tuple[int, int], int] = {}
    for w in range(1 << n):
        ranks = at_subset[w] = step(data, w, at_subset)
        if ranks is None:
            continue
        j = w.bit_count()
        for dim, h in ranks.items():
            if h:
                i = j - 1 - dim
                entries[(i, j)] = entries.get((i, j), 0) + h
    if entries.get((0, 0)) != 1:
        raise InternalInvariantError("Hochster sum did not produce beta_(0,0) = 1")
    return OracleBettiTable(entries, n, 1 << n)


def _graph_step(closed: dict[int, int], w: int, at_subset) -> dict[int, int] | None:
    """Ranks of the flag complex of H[w].  A vertex v whose closed
    neighbourhood in w lies in that of another vertex u is dominated, and
    w takes the result for w - v; such a u holds v, so only neighbours of v
    are tried.  Otherwise the key is the closed neighbourhood rows
    relabelled onto 0..|w|-1."""
    m = w
    while m:
        v = m & -m
        m ^= v
        row = closed[v] & w
        nbrs = row ^ v
        while nbrs:
            u = nbrs & -nbrs
            if row & ~closed[u] == 0:
                return at_subset[w ^ v]
            nbrs ^= u
    if w.bit_count() == 1:
        return None  # a point
    # no generator here: it would make `closed` and `w` cells, slowing every call
    key = ()
    for u in bits(w):
        key += (_compress(closed[1 << u] & w, w),)
    ranks = _HOMOLOGY_MEMO.get(key)
    if ranks is None:
        cliques = _maximal_clique_masks(len(key), [r ^ 1 << i for i, r in enumerate(key)])
        ranks = _HOMOLOGY_MEMO[key] = _homology_ranks(cliques)
    return ranks


def _facet_step(facets: Sequence[int], w: int, at_subset) -> dict[int, int] | None:
    """Ranks of the restriction to w, whose facets are the maximal nonempty
    f & w.  A vertex v is dominated when the facets that hold it share
    another vertex, and w takes the result for w - v.  Otherwise the key is
    those facets, sorted and relabelled onto 0..|w|-1."""
    pieces = _maximal_masks({f & w for f in facets} - {0})
    m = w
    while m:
        v = m & -m
        m ^= v
        common = -1
        for p in pieces:
            if p & v:
                common &= p
        if common != v:
            return at_subset[w ^ v]
    if w.bit_count() == 1:
        return None  # a point
    key = tuple(sorted(_compress(p, w) for p in pieces))
    ranks = _FACET_MEMO.get(key)
    if ranks is None:
        ranks = _FACET_MEMO[key] = _homology_ranks(key)
    return ranks


def _compress(piece: int, w: int) -> int:
    """`piece`, a subset of the mask `w`, relabelled onto 0..|w|-1 in order."""
    out = 0
    while piece:
        low = piece & -piece
        out |= 1 << (w & (low - 1)).bit_count()
        piece ^= low
    return out


def oracle_pd(table: OracleBettiTable) -> int:
    """Largest homological index with a nonzero entry; 0 for the polynomial ring."""
    return table.projective_dimension


def oracle_is_2linear(table: OracleBettiTable) -> bool:
    """True iff every nonzero beta_(i,j) with i >= 1 sits at j = i + 1."""
    return all(j == i + 1 for i, j in table.entries if i >= 1)


def clear_memo() -> None:
    _HOMOLOGY_MEMO.clear()
    _FACET_MEMO.clear()
