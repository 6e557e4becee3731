"""Closed-form ring invariants of a quasi-forest decomposition.

For an ordered quasi-forest with facet dimensions d_1..d_k and attachment
dimensions r_2..r_k (r = min r_i):

    Hilbert series  = sum_i 1/(1-t)^(d_i+1) - sum_(i>=2) 1/(1-t)^(r_i+1)
    proj. dimension = n - r - 2          depth = r + 2
    Krull dimension = 1 + max d_i        CM  iff  all d_i = d and all r_i = d-1

The single-facet case is the polynomial ring by convention: pd = 0,
depth = n, Hilbert series 1/(1-t)^n.

Series are kept un-reduced over (1-t)^n (n = vertex count); this canonical
form is what Betti extraction reads: the numerator of a 2-linear resolution
is 1 - b_(1,2) t^2 + b_(2,3) t^3 - ... All arithmetic is exact (Python ints).
The numerator groups facets and attachments by exponent first, so it costs
one scaled add of a cached (1-t)^e per distinct exponent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import TYPE_CHECKING

from .chordal import QuasiForestDecomposition
from .errors import ContractViolationError, InternalInvariantError, NotTwoLinearError

if TYPE_CHECKING:
    from .complexes import FVector


@lru_cache(maxsize=None)
def one_minus_t_pow(k: int) -> tuple[int, ...]:
    """Coefficients of (1-t)^k."""
    return tuple((-1) ** i * comb(k, i) for i in range(k + 1))


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class HilbertSeries:
    """numerator(t) / (1-t)^denom_power with integer coefficients."""

    numerator: tuple[int, ...]
    denom_power: int

    def __post_init__(self) -> None:
        if self.denom_power < 0:
            raise ContractViolationError("negative denominator power")
        object.__setattr__(self, "numerator", _trim(list(self.numerator)))

    @property
    def degree(self) -> int:
        return len(self.numerator) - 1

    def reduced(self) -> tuple[tuple[int, ...], int]:
        """Cancel (1-t) factors for display; equality stays on the canonical form."""
        num = list(self.numerator)
        power = self.denom_power
        while power > 0 and sum(num) == 0 and any(num):
            quotient = []
            carry = 0
            for c in num[:-1]:
                carry += c
                quotient.append(carry)
            num = quotient or [0]
            power -= 1
        return _trim(num), power


class BettiTable:
    """Graded Betti numbers as a map (i, j) -> positive value; (0,0) is implicit 1."""

    def __init__(self, entries: dict[tuple[int, int], int]):
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
        return isinstance(other, BettiTable) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"BettiTable({self.entries})"


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
    num = _trim(list(coeffs))
    if num[0] != 1 or coeffs[1]:
        raise InternalInvariantError("Hilbert numerator must start 1 + 0t")
    expected = 0 if r_min is None else n - r_min - 1
    if len(num) - 1 != expected:
        raise InternalInvariantError(f"numerator degree {len(num) - 1} != n - r_min - 1 = {expected}")
    return num


def hilbert_from_decomposition(qfd: QuasiForestDecomposition) -> HilbertSeries:
    """Expand the facet/attachment series over (1-t)^n with exact binomials."""
    coeffs = _numerator(qfd.n, qfd.dims, qfd.attach_dims)
    return HilbertSeries(_checked_numerator(coeffs, qfd.n, qfd.r_min), qfd.n)


def hilbert_from_fvector(fv: "FVector", n: int) -> HilbertSeries:
    """Standard Stanley-Reisner Hilbert series sum_s f_(s-1) t^s/(1-t)^s over (1-t)^n."""
    if len(fv.counts) - 1 > n:
        raise ContractViolationError("f-vector has faces larger than the ground set")
    return HilbertSeries(tuple(_fvector_numerator(fv.counts, n)), n)


def _linear_strand(p) -> dict[tuple[int, int], int]:
    """The nonzero values (-1)^i * p_(i+1) at (i, i+1), i >= 1, ascending in i."""
    entries = {}
    for i in range(1, len(p) - 1):
        value = (-1) ** i * p[i + 1]
        if value:
            entries[(i, i + 1)] = value
    return entries


def betti_from_numerator(h: HilbertSeries) -> BettiTable:
    """Read b_(i,i+1) = (-1)^i * p_(i+1) off a 2-linear Hilbert numerator."""
    p = h.numerator
    if p[0] != 1:
        raise NotTwoLinearError(f"numerator constant term {p[0]} != 1")
    if len(p) > 1 and p[1] != 0:
        raise NotTwoLinearError("numerator has a t^1 term; input is not 2-linear")
    entries = _linear_strand(p)
    for (i, j), value in entries.items():
        if value < 0:
            raise NotTwoLinearError(f"sign violation at degree {j}; input is not 2-linear")
    return BettiTable(entries)


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


def projective_dimension(qfd: QuasiForestDecomposition) -> int:
    return _pd_depth(qfd.n, qfd.k, qfd.r_min)[0]


def depth(qfd: QuasiForestDecomposition) -> int:
    return _pd_depth(qfd.n, qfd.k, qfd.r_min)[1]


def krull_dim(qfd: QuasiForestDecomposition) -> int:
    return _krull_dim(qfd.dims)


def is_cm(qfd: QuasiForestDecomposition) -> bool:
    """Cohen-Macaulay test; cross-checked against depth = Krull dimension."""
    structural = _cm_structural(qfd.dims, qfd.attach_dims)
    if structural != (depth(qfd) == krull_dim(qfd)):
        raise InternalInvariantError("CM structural test disagrees with depth = dim")
    return structural


def d_tree_signature(qfd: QuasiForestDecomposition) -> tuple[int, ...] | None:
    """Nonincreasing facet dimensions iff some quasi-forest ordering attaches
    every facet after the first along a face of codimension one (each step
    adds exactly one vertex); None otherwise.

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
    if not _d_tree_exists(qfd.n, qfd.k, max(qfd.dims) + 1):
        return None
    return tuple(sorted(qfd.dims, reverse=True))


def _d_tree_exists(n: int, k: int, largest: int) -> bool:
    """The d-tree criterion of `d_tree_signature` on n vertices, k facets and
    a largest facet of `largest` vertices."""
    return largest == n - k + 1
