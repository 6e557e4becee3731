"""Chordality recognition with certificates and quasi-forest decompositions.

Recognition is one loop, `_mcs`: maximum cardinality search (ties broken
toward the lowest vertex index) in its bucket form, O(n·Δ) word operations
for maximum degree Δ, which tests as it visits each vertex that its
earlier-visited neighbours form a clique, the perfect elimination test of
the reversed visit order (zero fill-in, Tarjan & Yannakakis 1984).  A
caller that needs only chordal-or-not and the PEO stops at the first
failure.  The certificate path, `is_chordal`, runs the search to the end
and, when the order is no PEO, finds a chordless cycle in one search: it
walks the PEO violations (v, x, y) in the order the test meets them and
returns v with the first shortest x-y path through later vertices not
adjacent to v.  Some violation always has such a path, for any elimination
order: the first-eliminated vertex v of any chordless cycle C has two
later, non-adjacent neighbours on C, and the rest of C joins them through
later vertices not adjacent to v.  The cycle is re-checked in O(k) mask
operations before it is returned.

Facets come in the order the search completes them as maximal cliques:
that order satisfies running intersection (Blair & Peyton, "An introduction
to chordal graphs and clique trees", 1993), so it is a quasi-forest ordering,
with attachment dimension -1 whenever a new connected component starts.
Components come in order of their smallest vertex, and the first facet is
the lexicographically smallest maximal clique containing vertex 0.

Two routes lead from a graph to those facet masks, both through one MCS
and the maximal cliques read off its verified PEO: `_facet_masks`, which
builds no certificate and which every per-graph answer reads, and
`_decompose_masks`, which also returns the certificate and serves
`decompose`, `edgering decompose` and the complex recognizer; only the
public `decompose` builds a frozenset `QuasiForestDecomposition`.  Every
facet list passes one checker, `_check_facet_masks`, in O(k log k) word
operations on its prefix unions and attachments.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from operator import and_, or_
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


def _mcs(n: int, rows: Sequence[int], whole: bool = False) -> tuple[list[int], bool]:
    """Maximum cardinality search, ties broken toward the lowest vertex
    index, fused with the perfect elimination test of its reversed order:
    (visit order, is a PEO).

    Bucket form (Tarjan & Yannakakis, SIAM J. Comput. 13, 1984): buckets[w]
    is the mask of unvisited vertices of weight w.  Each step visits the
    lowest bit of the highest nonempty bucket and moves its unvisited
    neighbours up one bucket, one AND/XOR/OR per bucket from the top down
    until none is left: at most Δ + 1 bucket operations per visit, so a
    search costs O(n·Δ) word operations.

    A vertex's weight is its number of earlier-visited neighbours, which
    are its later neighbours in the reversed order; the order is a PEO
    exactly when each such set is a clique, tested as the vertex is visited
    in one mask operation per member.  The search stops at the first vertex
    that fails and returns the order so far, unless `whole` is set: the
    certificate path of `is_chordal` then runs it to the end, untested.
    """
    order = []
    buckets = [0] * (n + 1)
    buckets[0] = unvisited = (1 << n) - 1
    top = 0
    peo = True
    for _ in range(n):
        while not buckets[top]:
            top -= 1
        low = buckets[top] & -buckets[top]
        buckets[top] ^= low
        v = low.bit_length() - 1
        order.append(v)
        unvisited ^= low
        if peo and top > 1:
            # each earlier neighbour x must be adjacent to the ones above it
            m = rows[v] & ~unvisited
            while m & m - 1:
                x = m & -m
                m ^= x
                if m & ~rows[x.bit_length() - 1]:
                    if not whole:
                        return order, False
                    peo = False
                    break
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
    return order, peo


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
    `_chordless_cycle` finds from the violations of the whole order."""
    n, rows = g.n, g.rows
    order, peo = _mcs(n, rows, whole=True)
    elim = order[::-1]
    if peo:
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
    single earlier facet, each facet adding a vertex, the union all n
    vertices; else raise the first fault in facet order.

    Decided in O(k log k) word operations on the prefix unions U_t = F_0 |
    ... | F_t and the attachments A_i = F_i & U_(i-1), i >= 1.  A list of
    nonempty facets with union 0..n-1 passes all the checks iff
      (a) each A_i lies in F_q, q = min{t : A_i <= U_t} (a bisection, since
          A_i & U_t grows with t), and
      (b) no A_i equals a facet.
    Proof.  For a valid list, (b) holds: A_i = F_j puts F_j inside F_i, or
    for j = i says F_i adds no vertex.  (a) holds: A_i lies in some earlier
    F_p, and p >= q since A_i <= F_p <= U_p.  If p > q, then A_i <= F_p & U_q
    <= A_p, which lies in an earlier facet again; this descends to p = q.
    Conversely, (a) puts each attachment in an earlier facet, and (b) with
    j = i makes each facet add a vertex.  A facet inside an earlier one is
    its own attachment.  A facet F_a inside a later F_b lies in A_b, so in
    F_q with q < b: either A_b = F_a, or F_a lies in F_q and the argument
    repeats on q.  Both end at an attachment equal to a facet, against (b).

    Only a rejected list pays for the ordered walk that names its first
    fault, in O(k^2) mask operations.
    """
    unions = list(accumulate(facets, or_))
    if facets and all(facets) and unions[-1] == (1 << n) - 1:
        atts = list(map(and_, facets[1:], unions))
        if set(facets).isdisjoint(atts) and not any(
            a & ~facets[bisect_left(unions, a, 0, i, key=a.__and__)] for i, a in enumerate(atts, 1)
        ):
            return
    if not facets:
        raise ContractViolationError("a quasi-forest has at least one facet")
    union = 0
    for i, f in enumerate(facets):
        if not f:
            raise ContractViolationError("empty facet")
        if any(not f & ~g for j, g in enumerate(facets) if j != i):
            raise ContractViolationError("facets must be inclusion-free")
        if i:
            att = f & union
            if att == f:
                raise InternalInvariantError("facet adds no new vertex")
            if all(att & ~g for g in facets[:i]):
                raise ContractViolationError("attachment is not a face of a single earlier facet")
        union |= f
    if union != (1 << n) - 1:
        raise InternalInvariantError("vertex count does not match facet union")
    raise InternalInvariantError("the facet check rejects a valid quasi-forest ordering")


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


def _checked_facets(n: int, rows: Sequence[int], elim: Sequence[int]) -> list[int]:
    """`_clique_masks_from_peo`, checked by `_check_facet_masks`."""
    facets = _clique_masks_from_peo(n, rows, elim)
    _check_facet_masks(facets, n)
    return facets


def _facet_masks(g: Graph) -> list[int] | None:
    """The facet masks of the flag complex of g in MCS order, checked, when
    g is chordal, else None: the search stops at its first non-clique
    neighbourhood and no certificate is built.  g has a vertex."""
    order, peo = _mcs(g.n, g.rows)
    return _checked_facets(g.n, g.rows, order[::-1]) if peo else None


def _decompose_masks(g: Graph) -> tuple[ChordalityResult, list[int] | None]:
    """`decompose` on masks: the chordality certificate of g and, when g is
    chordal, its facet masks in MCS order, checked by `_check_facet_masks`."""
    if g.n < 1:
        raise UndefinedInputError("a quasi-forest decomposition needs at least one vertex")
    res = is_chordal(g)
    if isinstance(res, NotChordal):
        return res, None
    return res, _checked_facets(g.n, g.rows, res.peo)


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
