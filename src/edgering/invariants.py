"""Closed-form ring invariants of a quasi-forest decomposition, as helpers
on facet and attachment dimensions that `conjecture.formulas` composes.

For an ordered quasi-forest with facet dimensions d_1..d_k and attachment
dimensions r_2..r_k (r = min r_i):

    Hilbert series  = sum_i 1/(1-t)^(d_i+1) - sum_(i>=2) 1/(1-t)^(r_i+1)
    proj. dimension = n - r - 2          depth = r + 2
    Krull dimension = 1 + max d_i        CM  iff  all d_i = d and all r_i = d-1

The single-facet case is the polynomial ring by convention: pd = 0,
depth = n, Hilbert series 1/(1-t)^n.

Series are kept un-reduced over (1-t)^n (n = vertex count); this canonical
form is what Betti extraction (`_linear_strand`) reads: the numerator of a 2-linear resolution
is 1 - b_(1,2) t^2 + b_(2,3) t^3 - ... All arithmetic is exact (Python ints).
The numerator groups facets and attachments by exponent first, so it costs
one scaled add of a cached (1-t)^e per distinct exponent, and `_degree`
reads its degree in place.  The Betti strand is a dict of (i, i + 1) ->
value; the package's one Betti table type is the oracle's
`OracleBettiTable`.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import InternalInvariantError


@lru_cache(maxsize=None)
def one_minus_t_pow(k: int) -> tuple[int, ...]:
    """Coefficients of (1-t)^k."""
    return tuple((-1) ** i * comb(k, i) for i in range(k + 1))


def _degree(coeffs) -> int:
    """The index of the last nonzero coefficient; 0 if there is none."""
    d = len(coeffs) - 1
    while d > 0 and not coeffs[d]:
        d -= 1
    return d


def _numerator(n: int, dims, attach_dims) -> list[int]:
    """Numerator over (1-t)^n of sum_i 1/(1-t)^(d_i+1) - sum_i 1/(1-t)^(r_i+1),
    untrimmed: n + 1 coefficients.

    Equal exponents are grouped first: mult[e] is the number of facets minus
    the number of attachments whose term is (1-t)^e, and each nonzero
    multiplicity costs one scaled add.
    """
    mult = [0] * (n + 1)
    for d in dims:
        mult[n - d - 1] += 1
    for r in attach_dims:
        mult[n - r - 1] -= 1
    coeffs = [0] * (n + 1)
    for e, m in enumerate(mult):
        if m:
            for i, c in enumerate(one_minus_t_pow(e)):
                coeffs[i] += m * c
    return coeffs


def _fvector_numerator(counts, n: int) -> list[int]:
    """Numerator over (1-t)^n of sum_s f_(s-1) t^s/(1-t)^s, where counts[s] is
    the number of faces with s vertices; untrimmed: n + 1 coefficients."""
    coeffs = [0] * (n + 1)
    for s, count in enumerate(counts):
        if count:
            for i, c in enumerate(one_minus_t_pow(n - s)):
                coeffs[s + i] += count * c
    return coeffs


def _checked_numerator(coeffs, n: int, r_min: int | None) -> tuple[int, ...]:
    """The trimmed numerator of a quasi-forest's series, checked to start
    1 + 0t and to have degree n - r_min - 1, or 0 for a single facet."""
    d = _degree(coeffs)
    if coeffs[0] != 1 or coeffs[1]:
        raise InternalInvariantError("Hilbert numerator must start 1 + 0t")
    expected = 0 if r_min is None else n - r_min - 1
    if d != expected:
        raise InternalInvariantError(f"numerator degree {d} != n - r_min - 1 = {expected}")
    return tuple(coeffs[:d + 1])


def _linear_strand(p) -> dict[tuple[int, int], int]:
    """The nonzero values (-1)^i * p_(i+1) at (i, i+1), i >= 1, ascending in i."""
    entries = {}
    for i in range(1, len(p) - 1):
        value = (-1) ** i * p[i + 1]
        if value:
            entries[(i, i + 1)] = value
    return entries


def _pd_depth(n: int, k: int, r_min: int | None) -> tuple[int, int]:
    """(pd, depth) of a quasi-forest with k facets on n vertices."""
    if k == 1:
        return 0, n
    return n - r_min - 2, r_min + 2


def _krull_dim(dims) -> int:
    return 1 + max(dims)


def _cm_structural(dims, attach_dims) -> bool:
    """All facets of one dimension d and every attachment of dimension d - 1
    (vacuous for a single facet)."""
    d = dims[0]
    return all(di == d for di in dims) and all(r == d - 1 for r in attach_dims)


def _d_tree_exists(n: int, k: int, largest: int) -> bool:
    """Whether some quasi-forest ordering of k facets on n vertices, the
    largest of `largest` vertices, attaches every facet after the first
    along a face of codimension one (each step adds exactly one vertex).

    Closed form: such an ordering exists iff the largest facet has
    n - k + 1 vertices.  In any quasi-forest ordering F_1..F_k, each F_i with
    i >= 2 adds at least one new vertex, because its attachment lies in a
    single earlier facet and the facets are inclusion-free.  So every
    ordering has n >= |F_1| + k - 1, with equality iff each step adds exactly
    one vertex.  Rooting any clique-tree preorder at a largest facet (its
    component first) gives a quasi-forest ordering, so n >= omega + k - 1
    for the largest facet size omega.  A d-tree ordering has
    n = |F_1| + k - 1 <= omega + k - 1, hence omega = n - k + 1.  Conversely,
    when omega = n - k + 1, the preorder rooted at a largest facet adds
    n - omega = k - 1 new vertices in k - 1 steps, one per step.
    """
    return largest == n - k + 1
