"""Chordality recognition with certificates and quasi-forest decompositions.

Recognition runs maximum cardinality search (ties broken toward the lowest
vertex index) in its bucket form, O(n·Δ) word operations for maximum degree
Δ, and verifies the reversed visit order as a perfect elimination ordering.
When it is not one, a single search finds a chordless cycle: it walks the
PEO violations (v, x, y) in the order the test meets them and returns v
with the first shortest x-y path through later vertices not adjacent to v.
Some violation always has such a path, for any elimination order: the
first-eliminated vertex v of any chordless cycle C has two later,
non-adjacent neighbours on C, and the rest of C joins them through later
vertices not adjacent to v.  The cycle is re-checked in O(k) mask
operations before it is returned.

Facets come in the order the search completes them as maximal cliques:
that order satisfies running intersection (Blair & Peyton, "An introduction
to chordal graphs and clique trees", 1993), so it is a quasi-forest ordering,
with attachment dimension -1 whenever a new connected component starts.
Components come in order of their smallest vertex, and the first facet is
the lexicographically smallest maximal clique containing vertex 0.

`_decompose_masks` (one MCS, maximal cliques read off its verified PEO in
that order) is the one route from a graph to facet masks, which every
per-graph caller reads as they are; only the public `decompose` builds a
frozenset `QuasiForestDecomposition`.  Both forms pass one checker,
`_check_facet_masks`, in O(sum |F_i|).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ContractViolationError, InternalInvariantError, UndefinedInputError
from .graphs import Graph, bits


@dataclass(frozen=True)
class Chordal:
    """Positive certificate: a verified perfect elimination ordering."""

    peo: tuple[int, ...]


@dataclass(frozen=True)
class NotChordal:
    """Negative certificate: an induced cycle of length >= 4 without a chord."""

    cycle: tuple[int, ...]


ChordalityResult = Chordal | NotChordal


def _mcs_order(n: int, rows: Sequence[int]) -> list[int]:
    """Maximum cardinality search, ties broken toward the lowest vertex index.

    Bucket form (Tarjan & Yannakakis, SIAM J. Comput. 13, 1984): buckets[w]
    is the mask of unvisited vertices of weight w.  Each step visits the
    lowest bit of the highest nonempty bucket and moves its unvisited
    neighbours up one bucket, one AND/XOR/OR per bucket from the top down
    until none is left: at most Δ + 1 bucket operations per visit, so a
    search costs O(n·Δ) word operations.
    """
    order = []
    buckets = [0] * (n + 1)
    buckets[0] = unvisited = (1 << n) - 1
    top = 0
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        v = low.bit_length() - 1
        order.append(v)
        unvisited ^= low
        m = rows[v] & unvisited
        if m:
            w = top
            top += 1
            while m:
                moved = buckets[w] & m
                if moved:
                    buckets[w] ^= moved
                    buckets[w + 1] |= moved
                    m ^= moved
                w -= 1
    return order


def _is_peo(n: int, rows: Sequence[int], elim: Sequence[int]) -> bool:
    """Is `elim` a perfect elimination ordering: are the later neighbours of
    every vertex a clique?"""
    remaining = (1 << n) - 1
    for v in elim:
        remaining ^= 1 << v
        lm = rows[v] & remaining
        m = lm
        while m:
            low = m & -m
            m ^= low
            if lm & ~rows[low.bit_length() - 1] & ~low:
                return False
    return True


def _bfs_path(rows: Sequence[int], allowed: int, s: int, t: int) -> list[int] | None:
    """Shortest s-t path inside the induced subgraph on `allowed`, which
    holds both s and t, or None."""
    prev = {s: -1}
    frontier = [s]
    seen = 1 << s
    while frontier:
        nxt = []
        for a in frontier:
            m = rows[a] & allowed & ~seen
            while m:
                low = m & -m
                b = low.bit_length() - 1
                m ^= low
                seen |= low
                prev[b] = a
                if b == t:
                    path = [t]
                    while path[-1] != s:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return path
                nxt.append(b)
        frontier = nxt
    return None


def _chordless_cycle(n: int, rows: Sequence[int], elim: Sequence[int]) -> list[int]:
    """A chordless cycle of a graph on which `elim` fails the PEO test.

    Tries the violations in the order the test meets them: v in elimination
    order, then its later neighbours x < y that are not adjacent.  The first
    shortest x-y path through later vertices not adjacent to v closes the
    cycle [v, x, ..., y]; being shortest, it has no chord.  The earliest
    vertex of any chordless cycle gives a violation with such a path, so the
    search fails only when `elim` is a PEO of a chordal graph.
    """
    remaining = (1 << n) - 1
    for v in elim:
        remaining ^= 1 << v
        lm = rows[v] & remaining
        far = remaining & ~rows[v]
        m = lm
        while m:
            low = m & -m
            x = low.bit_length() - 1
            m ^= low
            ys = m & ~rows[x]
            while ys:
                ylow = ys & -ys
                ys ^= ylow
                path = _bfs_path(rows, far | low | ylow, x, ylow.bit_length() - 1)
                if path is not None:
                    return [v] + path
    raise InternalInvariantError("no chordless cycle found in a non-chordal graph")


def _is_chordless_cycle(rows: Sequence[int], cycle: Sequence[int]) -> bool:
    """k >= 4 distinct vertices, each adjacent, among them, to exactly its
    two cycle neighbours: O(k) mask operations."""
    k = len(cycle)
    on = 0
    for c in cycle:
        on |= 1 << c
    if k < 4 or on.bit_count() != k:
        return False
    return all(
        rows[c] & on == 1 << cycle[i - 1] | 1 << cycle[(i + 1) % k]
        for i, c in enumerate(cycle)
    )


def _normalize_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    """Rotate to start at the smallest vertex, then pick the smaller direction."""
    k = len(cycle)
    start = min(range(k), key=lambda i: cycle[i])
    rotated = [cycle[(start + i) % k] for i in range(k)]
    if rotated[1] > rotated[-1]:
        rotated = [rotated[0]] + rotated[:0:-1]
    return tuple(rotated)


def is_chordal(g: Graph) -> ChordalityResult:
    """Chordality with a verified certificate either way: the reversed MCS
    order if it passes the PEO test, else the chordless cycle that
    `_chordless_cycle` finds from that order's violations."""
    n, rows = g.n, g.rows
    elim = _mcs_order(n, rows)[::-1]
    if _is_peo(n, rows, elim):
        return Chordal(tuple(elim))
    cycle = _chordless_cycle(n, rows, elim)
    if not _is_chordless_cycle(rows, cycle):
        raise InternalInvariantError("chordless-cycle search produced an invalid certificate")
    return NotChordal(_normalize_cycle(cycle))


def _clique_masks_from_peo(n: int, rows: Sequence[int], elim: Sequence[int]) -> list[int]:
    """Maximal cliques of a chordal graph in MCS completion order, by the
    size-drop rule of MCS.

    `elim` must be the reverse of a maximum cardinality search order that is
    a perfect elimination ordering, as `is_chordal` returns it.  Each vertex
    v gives the candidate {v} + later neighbors, whose size is one more than
    v's MCS weight.  A candidate is maximal exactly when v was visited last
    or the vertex visited right after it, the previous one in `elim`, got no
    larger a weight (Blair & Peyton 1993).  Listed in visit order of their
    v, the cliques are a quasi-forest ordering of the facets.
    """
    remaining = (1 << n) - 1
    out = []
    prev_size = 0
    for v in elim:
        remaining ^= 1 << v
        c = 1 << v | (rows[v] & remaining)
        size = c.bit_count()
        if prev_size <= size:
            out.append(c)
        prev_size = size
    return out[::-1]


def _attach_dims(facets: Sequence[int]) -> list[int]:
    """|F_i intersect (F_1 u ... u F_(i-1))| - 1 for i >= 2."""
    dims = []
    union = 0
    for f in facets:
        dims.append((f & union).bit_count() - 1)
        union |= f
    return dims[1:]


def _check_facet_masks(facets: Sequence[int], n: int) -> None:
    """Check a quasi-forest ordering of facet masks over positions 0..n-1:
    at least one facet, none empty, inclusion-free, each attachment inside a
    single earlier facet, each facet adding a vertex, the union all n vertices.
    One pass in O(sum |F_i|) on inc[v], the mask of the facets that hold v,
    and the union of the earlier facets: F_i is inclusion-free iff its inc
    masks AND to 1 << i, and its attachment F_i & union lies in one earlier
    facet iff theirs share a bit below i."""
    if not facets:
        raise ContractViolationError("a quasi-forest has at least one facet")
    inc = [0] * max(map(int.bit_length, facets))
    for i, f in enumerate(facets):
        while f:
            low = f & -f
            inc[low.bit_length() - 1] |= 1 << i
            f ^= low
    union = 0
    for i, f in enumerate(facets):
        if not f:
            raise ContractViolationError("empty facet")
        common = -1
        m = f
        while m:
            low = m & -m
            common &= inc[low.bit_length() - 1]
            m ^= low
        if common != 1 << i:
            raise ContractViolationError("facets must be inclusion-free")
        if i:
            att = f & union
            if att == f:
                raise InternalInvariantError("facet adds no new vertex")
            common = (1 << i) - 1
            while att:
                low = att & -att
                common &= inc[low.bit_length() - 1]
                att ^= low
            if not common:
                raise ContractViolationError("attachment is not a face of a single earlier facet")
        union |= f
    if union != (1 << n) - 1:
        raise InternalInvariantError("vertex count does not match facet union")


@dataclass(frozen=True)
class QuasiForestDecomposition:
    """Ordered facets F_1..F_k with facet and attachment dimensions.

    dims[i] = |F_i| - 1; attach_dims[i-1] = |F_i intersect (F_1 u ... u F_(i-1))| - 1
    for i >= 2, where each such intersection is a face of a single earlier
    facet (-1 when a new component starts).  Construction maps the labels to
    positions, runs `_check_facet_masks` on them, then checks both lists.
    """

    facets: tuple[frozenset[int], ...]
    dims: tuple[int, ...]
    attach_dims: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        pos = {v: i for i, v in enumerate(sorted(set().union(*self.facets)))}
        masks = [sum(1 << pos[v] for v in f) for f in self.facets]
        _check_facet_masks(masks, self.n)
        if len(self.dims) != len(masks) or len(self.attach_dims) != len(masks) - 1:
            raise InternalInvariantError("dimension lists inconsistent with facet count")
        if list(self.dims) != [f.bit_count() - 1 for f in masks]:
            raise InternalInvariantError("facet dimension mismatch")
        if list(self.attach_dims) != _attach_dims(masks):
            raise InternalInvariantError("attachment dimension mismatch")

    @property
    def k(self) -> int:
        return len(self.facets)

    @property
    def r_min(self) -> int | None:
        """Smallest attachment dimension; None for a single facet."""
        return min(self.attach_dims) if self.attach_dims else None


def _decompose_masks(g: Graph) -> tuple[ChordalityResult, list[int] | None]:
    """`decompose` on masks: the chordality certificate of g and, when g is
    chordal, its facet masks in MCS order, checked by `_check_facet_masks`."""
    if g.n < 1:
        raise UndefinedInputError("a quasi-forest decomposition needs at least one vertex")
    res = is_chordal(g)
    if isinstance(res, NotChordal):
        return res, None
    facets = _clique_masks_from_peo(g.n, g.rows, res.peo)
    _check_facet_masks(facets, g.n)
    return res, facets


def decompose(g: Graph) -> tuple[ChordalityResult, QuasiForestDecomposition | None]:
    """Chordality certificate of g and, when g is chordal, the quasi-forest
    decomposition of its flag complex (facets = maximal cliques of g).

    One maximum cardinality search; the facets are the cliques read off the
    perfect elimination ordering it just verified, in their MCS order.
    """
    res, facets = _decompose_masks(g)
    if facets is None:
        return res, None
    return res, QuasiForestDecomposition(
        facets=tuple(frozenset(bits(f)) for f in facets),
        dims=tuple(f.bit_count() - 1 for f in facets),
        attach_dims=tuple(_attach_dims(facets)),
        n=g.n,
    )
