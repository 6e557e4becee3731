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
"""

from __future__ import annotations

from .complexes import SimplicialComplex, _homology_ranks, _position_masks
from .errors import InternalInvariantError, UnsupportedSizeError
from .invariants import BettiTable

ORACLE_VERTEX_CAP = 12

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
        places = [1 << i for i in range(n) if w >> i & 1]
        maximal: list[int] = []
        for piece in sorted({f & w for f in facets} - {0}, key=int.bit_count, reverse=True):
            if all(piece & kept != piece for kept in maximal):
                maximal.append(piece)
        key = tuple(sorted(sum(1 << k for k, b in enumerate(places) if piece & b) for piece in maximal))
        ranks = _HOMOLOGY_MEMO.get(key)
        if ranks is None:
            ranks = _HOMOLOGY_MEMO[key] = _homology_ranks(key)
        j = len(places)
        for dim, h in ranks.items():
            if h:
                i = j - 1 - dim
                entries[(i, j)] = entries.get((i, j), 0) + h
    if entries.get((0, 0)) != 1:
        raise InternalInvariantError("Hochster sum did not produce beta_(0,0) = 1")
    return OracleBettiTable(entries, n, 1 << n)


def oracle_pd(table: OracleBettiTable) -> int:
    """Largest homological index with a nonzero entry; 0 for the polynomial ring."""
    return max((i for i, _ in table.entries), default=0)


def oracle_is_2linear(table: OracleBettiTable) -> bool:
    """True iff every nonzero beta_(i,j) with i >= 1 sits at j = i + 1."""
    return all(j == i + 1 for i, j in table.entries if i >= 1)


def clear_memo() -> None:
    _HOMOLOGY_MEMO.clear()
