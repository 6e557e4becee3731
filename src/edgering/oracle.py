"""Brute-force graded Betti numbers from induced-subcomplex homology.

beta_(i,j) = sum over vertex subsets W of size j of rank H~_(j-i-1) of the
restriction to W, over the rationals.  The empty restriction contributes
rank 1 in dimension -1, which is what makes beta_(0,0) = 1 come out of the
sum instead of being special-cased.

Ground truth for everything the closed formulas claim; no quasi-forest
assumptions are made here.  The kernel runs on facet bitmasks: the facets of
the restriction to a subset mask W are the maximal nonempty f & W.  These
repeat heavily, so homology is memoized on them relabelled onto 0..|W|-1
in order.  `hochster_betti` is the view for a complex; the sweeps call the
kernel on clique masks.

On a memo miss the restriction is first reduced to its strong-collapse core:
a vertex v is dominated when the facets containing v all contain one more
vertex u, and deleting v then keeps the homotopy type, so every reduced
homology rank (Barmak & Minian, DCG 47, 2012; for flag complexes this is
folding dominated vertices of the graph, Boulet, Fieux & Jouve, Europ. J.
Combin. 31, 2010).  Vertices are deleted one at a time: two vertices in the
same facets dominate each other, and deleting both would empty an edge.  A
cone collapses to a point.  The core, relabelled the same way, is looked up
in the same memo, and exact homology runs only when it misses too, so the
memo holds raw and core keys side by side.  Most restrictions shrink to a
point or a small core, which is what makes n <= 14 affordable; a larger
ground set raises UnsupportedSizeError (CLI exit 3).
"""

from __future__ import annotations

from .complexes import SimplicialComplex, _homology_ranks, _maximal_masks, _position_masks
from .errors import InternalInvariantError, UnsupportedSizeError
from .invariants import BettiTable

ORACLE_VERTEX_CAP = 14

_HOMOLOGY_MEMO: dict[tuple[int, ...], dict[int, int]] = {}


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
    """Exact Betti table of the Stanley-Reisner ring of c, by subset summation."""
    check_vertex_cap(c.n)
    return _hochster_masks(c.n, _position_masks(c))


def _hochster_masks(n: int, facets: list[int]) -> OracleBettiTable:
    """Betti table of the complex on positions 0..n-1 with these facet masks."""
    entries: dict[tuple[int, int], int] = {}
    for w in range(1 << n):
        key = tuple(sorted(_compress(piece, w) for piece in _maximal_masks({f & w for f in facets} - {0})))
        ranks = _HOMOLOGY_MEMO.get(key)
        if ranks is None:
            core = _core_key(key)
            ranks = _HOMOLOGY_MEMO.get(core)
            if ranks is None:
                ranks = _HOMOLOGY_MEMO[core] = _homology_ranks(core)
            _HOMOLOGY_MEMO[key] = ranks
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
