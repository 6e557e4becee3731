"""Brute-force graded Betti numbers from induced-subcomplex homology.

beta_(i,j) = sum over vertex subsets W of size j of rank H~_(j-i-1) of the
restriction to W, over the rationals.  The empty restriction contributes
rank 1 in dimension -1, which is what makes beta_(0,0) = 1 come out of the
sum instead of being special-cased.

Ground truth for everything the closed formulas claim; no quasi-forest
assumptions are made here.  The loop visits the subsets W grouped by their
lowest vertex, from the highest group down, so every proper subset of W
comes before W.  It keeps what each W gave as one int that packs its
reduced homology ranks, 32 bits per dimension: field d + 1, bits
32(d + 1) to 32(d + 1) + 31, holds rank H~_d.  So 0 means that the
restriction to W is Q-acyclic, and the empty set, rank 1 in dimension -1,
is 1, set before the loop starts.  A W whose ranks follow from those of
its proper subsets takes them from there.  Only a W that no such rule
settles runs exact homology; the kernel keeps no state between calls.
After the loop, one sum of the packed ints per subset size j gives every
entry of degree j at once: field d + 1 of the sum is beta_(j-1-d, j).

The fields never carry into each other below the cap.  rank H~_d(W) is at
most the number of d-faces of W, so the field d + 1 of the sum over the
subsets of size j is at most C(n, j) C(j, d + 1), the number of pairs
F within W with |W| = j and |F| = d + 1; all such pairs together number
3^n, as each vertex is in F, in W - F or outside W.  3^18 < 2^31, so every
field, of one subset or of a sum, stays below 2^31, and its top bit is 0.
So the table is read off the sums once, in (i, j) order, with none of the
checks `OracleBettiTable` runs on entries it is given: each field is a
count below 2^31 at a position 0 <= f <= j <= n.

The kernel runs on flag complexes, which is every complex the paper's
rings have: k[G] is the Stanley-Reisner ring of the flag complex of the
complement of G.  A flag complex is given by the graph H whose cliques are
its faces.  The restriction to W is the flag complex of H[W], and the link
of v in it is the flag complex of H[N(v) & W], a proper subset.  The
restriction is that of W - v and the cone on the link, glued along the
link.  The cone is acyclic, so the long exact Mayer-Vietoris sequence
(Hatcher, Algebraic Topology, 2.2) gives H~_d(W) as the cokernel of
H~_d(link) -> H~_d(W - v) plus the kernel of the same map in degree d - 1.
That map is zero in every degree where either side is zero, which gives
one rule, one lookup per vertex: when no degree holds homology in both the
link and W - v, W has the ranks of W - v plus those of the link one
dimension up.  The complexes are augmented, so the empty link of an
isolated v has rank 1 in dimension -1 and adds one in dimension 0.
Packed, W gets the int of W - v plus the link's int shifted up one field.
The loop tries the rule's cheapest case, a nonempty Q-acyclic link (its
result is 0), where W has the ranks of W - v, at every vertex of W, lowest
first, without a call: it covers every dominated vertex, whose link is a
cone.  It settles two more cases itself: a point keeps the 0 it starts
with, and a W whose lowest vertex is isolated takes the int of W minus
that vertex plus one in dimension 0.

A dominated vertex also saves whole subsets (Barmak & Minian, Strong
homotopy types, nerves and collapses, DCG 47, 2012).  When N[u] lies
within N[v] in H and W holds both, v is in the link of u and adjacent to
every other vertex of it, so the link is a cone with apex v and W has the
ranks of W - u.  The domination holds in every H[W] that holds both, so
for vertex-disjoint pairs (v_i, u_i) every W has the ranks of the
pair-free R that W leaves when it drops u_i from each whole pair it holds.
A pair-free R stands for the R + T with T any set of the u_i whose v_i is
in R, so with h(R) its packed ranks and m(R) the number of v_i in it,
the sum is that of h(R) x^|R| (1 + x)^m(R) over the pair-free R alone.
From PAIRED_FROM = 11 vertices on, the kernel picks pairs greedily,
leaving UNPAIRED_MIN = 4 vertices out, and visits only the pair-free
subsets: 3^k 2^(n - 2k) of them with k pairs.  The tally packs one sum
per m and size and multiplies by (1 + x) in a Horner pass.  Every field
of those sums, and of each step of the pass, is at most the same field of
the final per-size sum, which is the sum over all 2^n subsets, so the
bound above holds as it stands.
On the twelve n = 12 benchmark graphs of seed 3 the kernel takes 0 to 4
pairs a graph, 31 in all, and the loop visits 25,172 subsets where it
visited 48,996 without them: 23,491 it settles by a Q-acyclic link and
830 by an isolated lowest vertex, and the step runs the rule in general
on the other 851 (3.4 %).  `subsets_examined` still counts all 2^n, as
each has its term in the sum.

Both constants come from in-process timings of the kernel with and
without the pairs, on one shared Xeon core with Python 3.11.7 (best of
15 rounds, twelve seeded G(n, p) complements per band of p = 0.1-0.2,
0.25-0.4 and 0.5-0.7).  The pairs cost a search and a relabelling, and
each pattern of the pair vertices a range, a slice and a compress, about
1 us; a subset costs about 0.15 us.  With the pairs, the kernel was
0.79-1.00 times as fast as without them at n = 9, 0.97-1.08 times at
n = 10 and 1.25-1.64 times at n = 11.  With no cap on the pairs, it was
0.86 times as fast on the densest complements at n = 11, and 1.19 times
with a cap of four free vertices, which keeps at least 15 subsets in
each range.

`hochster_betti` raises ContractViolationError on a complex that is not
flag.  The ground set is capped at n <= 18; a larger one raises
UnsupportedSizeError (CLI exit 3).

`OracleBettiTable(entries, n)` is the package's one Betti table type; the
formulas give their linear strand as a dict instead.  Its readers take pd
from `projective_dimension` and the shape of the resolution from
`two_linear`, and `subsets_examined` is 2^n, worked out from n.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import itemgetter
from typing import Iterable, Sequence

from .complexes import (
    SimplicialComplex,
    _homology_ranks,
    _maximal_clique_masks,
    _position_masks,
    one_skeleton,
)
from .errors import ContractViolationError, InternalInvariantError, UnsupportedSizeError
from .graphs import Graph, bits

VERTEX_CAP = 18
# From PAIRED_FROM vertices on, the graph kernel visits only the subsets
# that hold no dominated pair, and it leaves at least UNPAIRED_MIN vertices
# out of the pairs; the module docstring gives the measurements behind both
PAIRED_FROM = 11
UNPAIRED_MIN = 4
# 0x7FFFFFFF in each of the VERTEX_CAP + 1 fields of a packed int of ranks
_LOW = sum(0x7FFFFFFF << 32 * f for f in range(VERTEX_CAP + 1))


class OracleBettiTable:
    """Graded Betti numbers beta_(i,j) of a ring on n variables, as a map
    (i, j) -> positive value sorted by position; beta_(0,0) = 1 is implicit.
    `two_linear` is whether every nonzero beta_(i,j) with i >= 1 sits at
    j = i + 1, and `subsets_examined`, 2^n, the number of subsets in
    Hochster's sum."""

    def __init__(self, entries: dict[tuple[int, int], int], n: int):
        clean = {}
        for (i, j), v in entries.items():
            if v < 0:
                raise ContractViolationError(f"negative Betti number at {(i, j)}")
            if v:
                if (i, j) == (0, 0):
                    if v != 1:
                        raise ContractViolationError("beta_(0,0) must be 1")
                    continue
                clean[(i, j)] = v
        self.entries = dict(sorted(clean.items()))
        self.n = n
        for i, j in self.entries:
            if not 0 <= i <= j <= n:
                raise InternalInvariantError(f"impossible Betti position {(i, j)}")
        self.two_linear = all(j == i + 1 for i, j in self.entries if i >= 1)

    @property
    def subsets_examined(self) -> int:
        return 1 << self.n

    def beta(self, i: int, j: int) -> int:
        if (i, j) == (0, 0):
            return 1
        return self.entries.get((i, j), 0)

    @property
    def projective_dimension(self) -> int:
        return max((i for i, _ in self.entries), default=0)

    def items(self):
        return self.entries.items()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OracleBettiTable) and self.entries == other.entries


def check_vertex_cap(n: int) -> None:
    """Raise UnsupportedSizeError for a ground set above VERTEX_CAP."""
    if n > VERTEX_CAP:
        raise UnsupportedSizeError(f"oracle capped at {VERTEX_CAP} vertices, got {n}")


def _flag_skeleton(c: SimplicialComplex) -> Graph | None:
    """The 1-skeleton of c when c is its flag complex, that is when c's
    facets are the maximal cliques of the 1-skeleton; None otherwise."""
    h = one_skeleton(c)
    if set(_position_masks(c)) != set(_maximal_clique_masks(c.n, h.rows)):
        return None
    return h


def hochster_betti(c: SimplicialComplex) -> OracleBettiTable:
    """Exact Betti table of the Stanley-Reisner ring of the flag complex c,
    by subset summation."""
    check_vertex_cap(c.n)
    h = _flag_skeleton(c)
    if h is None:
        raise ContractViolationError("the oracle takes flag complexes only")
    return _hochster_graph(c.n, h.rows)


def _dominated_pairs(n: int, rows: Sequence[int]) -> list[tuple[int, int]]:
    """Vertex-disjoint pairs (v, u) of the graph H on 0..n-1 with these rows,
    each with N[u] within N[v], so that v dominates u, picked greedily for
    u = 0, 1, ... until UNPAIRED_MIN vertices would be left out: v is the
    lowest vertex in no pair yet of the AND of the closed rows of the
    vertices of N[u], less u itself.  That costs O(n + m)."""
    closed = [r | 1 << x for x, r in enumerate(rows)]
    free = (1 << n) - 1
    most = (n - UNPAIRED_MIN) // 2
    pairs = []
    for u in range(n):
        if len(pairs) >= most:
            break
        if free >> u & 1:
            dominators = closed[u] & free ^ 1 << u
            m = rows[u]
            while m and dominators:
                x = m & -m
                dominators &= closed[x.bit_length() - 1]
                m ^= x
            if dominators:
                v = dominators & -dominators
                free ^= v | 1 << u
                pairs.append((v.bit_length() - 1, u))
    return pairs


def _hochster_graph(n: int, rows: Sequence[int]) -> OracleBettiTable:
    """Betti table of the flag complex of the graph H on 0..n-1 with these
    adjacency rows: Hochster's sum over the subsets w of 0..n-1.

    The loop groups the w by their lowest vertex x, for x = n-1 down to 0,
    each group a range of step 2^(x+1), so that every proper subset of w
    comes before w.  From n = PAIRED_FROM on, `_paired_layout` relabels H
    so that the k pairs (v_i, u_i) of `_dominated_pairs` take the low 2k
    bits.  A w that holds a whole pair has the ranks of w - u_i, so the
    loop visits only the pair-free w, whose subsets are pair-free too: the
    group of a pair vertex x is the chain of ranges that `_paired_layout`
    gives, which still puts every proper subset of w first, and the
    subsets that hold a whole pair stay at 0, unread.  `_paired_tally`
    weights each pair-free w by (1 + x)^m, m the number of v_i in w.
    Below PAIRED_FROM, or with no pair, the loop visits every w.

    `at_subset[w]` packs the reduced homology ranks of H[w], rank H~_d in
    bits 32(d + 1) to 32(d + 1) + 31, and is 0 iff H[w] is Q-acyclic.  The
    empty restriction has rank 1 in dimension -1, so it is 1, never 0, and
    a point is Q-acyclic, so no group visits its lowest vertex alone.  For
    each w the group visits, the link of each vertex u of w is the flag
    complex of the subset rows[u] & w, tried from x up: at the first u
    whose result is 0 (nonempty and Q-acyclic), w takes the result for
    w - u.  When the link of x is empty instead, its result is 1, and w
    takes the result for w - x, nonempty, plus one in dimension 0.  Failing
    those at every u, `_graph_step` gives the packed ranks of H[w] from the
    result of every proper subset of w in `at_subset`.  The module docstring
    shows that no field of a subset, or of a sum over the subsets of one
    size, reaches 2^31.
    """
    top = 1 << n
    low = 0  # the pair vertices take bits 0..low-1
    groups: list[Iterable[int]] = []  # groups[x] for x < low: the w with lowest vertex x
    patterns: list[int] = []  # the pair-free patterns of the pair bits
    if n >= PAIRED_FROM and (pairs := _dominated_pairs(n, rows)):
        rows, groups, patterns = _paired_layout(n, rows, pairs)
        low = 2 * len(pairs)
    closed = {1 << v: r | 1 << v for v, r in enumerate(rows)}  # by vertex bit
    step = _graph_step
    at_subset = [0] * top
    at_subset[0] = 1
    for x in range(n - 1, -1, -1):
        v = 1 << x
        row = rows[x]
        for w in groups[x] if x < low else range(3 * v, top, v << 1):
            # the lowest vertex first and apart: its row needs no lookup
            link = at_subset[row & w]
            if not link:
                at_subset[w] = at_subset[w ^ v]
                continue
            if link == 1:  # only the empty set packs to 1: v is isolated
                at_subset[w] = at_subset[w ^ v] + (1 << 32)
                continue
            m = w ^ v
            while m:
                u = m & -m
                if not at_subset[closed[u] & w ^ u]:
                    at_subset[w] = at_subset[w ^ u]
                    break
                m ^= u
            else:
                at_subset[w] = step(closed, w, at_subset)
    # sums[j] packs the ranks summed over the subsets of size j; its field
    # f = d + 1 is beta_(j-1-d, j) = beta_(j-f, j), read up to the highest
    if low:
        sums = _paired_tally(n, low >> 1, patterns, at_subset)
    else:
        sums = [0] * (n + 1)
        for w in compress(range(top), at_subset):
            sums[w.bit_count()] += at_subset[w]
    # read once, with no check (module docstring): beta_(0,0), field 0 of
    # sums[0], is implicit and the only entry at i = 0 or f = 0; a field
    # above 1 is off the linear strand, and the largest sum has one iff
    # some sum does
    entries = {}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            if h := sums[j] >> 32 * (j - i) & 0xFFFFFFFF:
                entries[i, j] = h
    table = object.__new__(OracleBettiTable)
    table.entries, table.n, table.two_linear = entries, n, not max(sums) >> 64
    return table


def _paired_layout(
    n: int, rows: Sequence[int], pairs: list[tuple[int, int]]
) -> tuple[list[int], list[Iterable[int]], list[int]]:
    """The rows of H relabelled so that the k pairs (v_i, u_i) take the low
    bits, v_i bit 2i and u_i bit 2i + 1, and the other vertices follow in
    their order; for each pair vertex x, the pair-free w whose lowest
    vertex is x; and the pair-free patterns of all 2k pair bits.

    The w of x chain one range of step 4^k for each pair-free pattern p of
    the pair vertices above x, p = 0 first and the others increasing.  A
    proper subset of w with the same lowest vertex has a pattern q within
    p: q = 0, whose range comes first, a lower q, or p itself, and then an
    earlier place in the range of p."""
    k = len(pairs)
    top = 1 << n
    stride = 1 << 2 * k
    order = [x for pair in pairs for x in pair]
    paired = set(order)
    order += [x for x in range(n) if x not in paired]
    # label a stands for order[a]: a new row picks, highest label first,
    # the digits of the old row in binary, where digit n-1-x is bit x
    pick = itemgetter(*[n - 1 - x for x in reversed(order)])
    rows = [int("".join(pick(f"{rows[x]:0{n}b}")), 2) for x in order]
    patterns = [[0]]  # patterns[i]: the pair-free subsets of pairs i..k-1, increasing
    for i in range(k - 1, -1, -1):
        patterns.insert(0, [p | b for p in patterns[0] for b in (0, 1 << 2 * i, 2 << 2 * i)])
    groups = []
    for x in range(2 * k):
        v = 1 << x
        # the w of pattern 0 above x start at x + 4^k, as x alone is a point
        groups.append(chain(range(v + stride, top, stride),
                            *[range(v | p, top, stride) for p in patterns[x // 2 + 1][1:]]))
    return rows, groups, patterns[0]


def _paired_tally(n: int, k: int, patterns: list[int], at_subset: list[int]) -> list[int]:
    """sums[j], the packed ranks summed over all subsets of size j, from the
    results of the pair-free ones, with these patterns of the 2k pair bits.
    by_count[m][s] sums the pair-free w of size s with m of the v_i, and
    each stands for the C(m, t) sets of size s + t that add t of the u_i
    paired with them, so sums is the sum of by_count[m] times (1 + x)^m,
    which a Horner pass gives."""
    top = 1 << n
    stride = 1 << 2 * k
    v_bits = (stride - 1) // 3  # the even bits below 2k
    by_count = [[0] * (n + 1) for _ in range(k + 1)]
    for p in patterns:
        counted = by_count[(p & v_bits).bit_count()]
        for w in compress(range(p, top, stride), at_subset[p::stride]):
            counted[w.bit_count()] += at_subset[w]
    sums = by_count[k]
    for m in range(k - 1, -1, -1):
        sums = [c + s + lower for c, s, lower in zip(by_count[m], sums, [0] + sums)]
    return sums


def _graph_step(closed: dict[int, int], w: int, at_subset: list[int]) -> int:
    """Packed ranks of the flag complex of H[w], 0 for a point.  Otherwise the
    link of v in it is the flag complex of its neighbourhood in w, a proper
    subset: at the first v where no degree holds homology in both the link
    and w - v, w has the ranks of w - v plus those of the link one
    dimension up.  Failing that at every v, exact homology runs on the
    maximal cliques of H[w].

    The rule is exact: the restriction to w is that of w - v and the cone
    on the link, glued along the link, and the cone is acyclic, so the long
    exact Mayer-Vietoris sequence gives H~_d(w) as the cokernel of
    H~_d(link) -> H~_d(w - v) plus the kernel of that map in degree d - 1.
    The map is zero where either side is.  The complexes are augmented, so
    the empty link has rank 1 in dimension -1 and an isolated v adds one in
    dimension 0.  A Q-acyclic side (0) has no homology, so the rule fits at
    its v and w takes the other side's ranks.  The loop settles every point,
    every w with a nonempty Q-acyclic link and every w whose lowest vertex
    is isolated before it calls the step.

    Packed, the rule fits when no field is nonzero in both sides, and w
    gets rest + (link << 32).  Every field is below 2^31, so adding
    0x7FFFFFFF to it sets its top bit iff it is nonzero, without a carry
    into the next field: adding `_LOW`, that value in every field, tests
    all fields at once."""
    m = w
    while m:
        v = m & -m
        m ^= v
        rest = at_subset[w ^ v]
        link = at_subset[closed[v] & w ^ v]
        if not (rest + _LOW) & (link + _LOW) & ~_LOW:
            return rest + (link << 32)
    # vertices outside w keep empty rows, and `w.__and__` drops their
    # one-vertex cliques; a comprehension would make `closed` and `w` cells
    rows = [0] * len(closed)
    for u in bits(w):
        rows[u] = closed[1 << u] & w ^ 1 << u
    ranks = _homology_ranks(list(filter(w.__and__, _maximal_clique_masks(len(rows), rows))))
    return sum(h << 32 * (dim + 1) for dim, h in ranks.items())


def clear_memo() -> None:
    """A no-op: the oracle keeps no state between calls.  Kept for the
    benchmark harness, which calls it before each cold oracle call."""
