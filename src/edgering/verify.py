"""Exhaustive formula-vs-oracle sweeps over all labeled graphs of a given size.

For every graph G the sweep computes the complement, recognizes chordality,
re-derives it by brute-force induced-cycle search, and on the 2-linear side
runs the whole closed-formula pipeline, recording any graph that violates a
claimed identity.  The brute force looks the edges inside each vertex subset
of size >= 4 up in a table of the edge sets of all chordless cycles on
0..n-1, built once per n.  The oracle variant additionally computes the
Hochster Betti table of the flag complex of the complement and compares it
entry by entry.

A chunk decodes the rows of its first complement; each later mask differs
from the one before it in the bits of its carry, about two on average,
and the rows are updated in place by flipping those edges at both ends.
Per mask the sweep runs MCS and the PEO test on those rows and makes two
calls.  `_references` computes what the graph is held to, each apart from
its record and unchanged by relabelling: the brute-force induced-cycle
flag, the numerator of the f-vector series where a check reads it (on the
chordal masks, and on every mask with the oracle) and, in the oracle
variant, the Hochster Betti table, which the oracle's graph kernel computes
straight from the complement's adjacency rows.  The f-vector comes from
those rows too: `_clique_counts` counts the cliques of the complement by
size without listing them, so it shares no facet with the record.
`_check` works on the labeled complement: it takes the facets of `chordal`
(the maximal cliques in MCS order) and hands them to `conjecture.formulas`,
the one function that `conjecture.analyze_record` also calls, so it
computes no formula of its own; it compares the record's fields with the
references, with the Betti numbers read off the record's numerator held
to the oracle's table, and returns the violated kinds, adding a 2-linear
graph's counts in place.  Bron-Kerbosch runs only in the oracle variant,
on the chordal masks, to hold the PEO's facets to the maximal cliques.
Every failed comparison is recorded as a violation, not raised, under the
mask's graph6.  Chunks of the edge-mask range can be processed by a worker
pool; results merge deterministically in mask order, so the outcome is
identical for every worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, permutations

from . import conjecture
from .chordal import _clique_masks_from_peo, _is_peo, _mcs_order
from .complexes import _clique_counts, _maximal_clique_masks
from .errors import ContractViolationError
from .graphs import Graph, _pool_size, mask_count, rows_from_edge_mask, to_graph6
from .invariants import _fvector_numerator, _linear_strand, _trim
from .oracle import _hochster_graph, oracle_is_2linear, oracle_pd

VIOLATION_KINDS = (
    "chordal_vs_bruteforce",
    "hilbert_mismatch",
    "numerator_degree",
    "witness_equivalence",
    "dtree_not_holds",
    "isolated_not_holds",
    "cm_inconsistent",
    "cm_not_holds",
    "clique_paths_disagree",
    "twolinear_vs_chordal",
    "betti_mismatch",
    "ab_identity",
    "knum_mismatch",
)

COUNT_KINDS = (
    "total",
    "twolinear",
    "holds",
    "fails",
    "single_facet",
    "witness",
    "cm",
    "dtree",
    "isolated",
)


@dataclass
class SweepResult:
    n: int
    counts: dict[str, int] = field(default_factory=lambda: {k: 0 for k in COUNT_KINDS})
    violations: dict[str, list[str]] = field(
        default_factory=lambda: {k: [] for k in VIOLATION_KINDS}
    )

    def merge(self, other: "SweepResult") -> None:
        for k, v in other.counts.items():
            self.counts[k] += v
        for k, lst in other.violations.items():
            self.violations[k].extend(lst)

    def all_clean(self) -> bool:
        return all(not lst for lst in self.violations.values())


@cache
def _cycle_table(n: int) -> tuple[tuple[int, ...], frozenset[int]]:
    """Edge masks, in graph6 column order, of every pair inside each vertex
    subset of 0..n-1 with at least four vertices, and of every chordless
    cycle through at least four vertices; built on first use per n.

    A cycle on a k-subset starts at its lowest vertex and runs through a
    permutation of the rest, one direction of each: sum C(n, k)(k-1)!/2
    cycles, 1,137 at n = 7.
    """
    def edges(pairs) -> int:  # bit v(v-1)/2 + u for the pair u < v
        return sum(1 << (max(p) * (max(p) - 1) // 2 + min(p)) for p in pairs)

    pair_masks = []
    cycles = set()
    for size in range(4, n + 1):
        for combo in combinations(range(n), size):
            pair_masks.append(edges(combinations(combo, 2)))
            for perm in permutations(combo[1:]):
                if perm[0] < perm[-1]:
                    ring = (combo[0],) + perm
                    cycles.add(edges(zip(ring, ring[1:] + ring[:1])))
    return tuple(pair_masks), frozenset(cycles)


def has_long_induced_cycle(n: int, h_mask: int) -> bool:
    """Brute force: does some vertex subset of size >= 4 induce a chordless cycle?

    `h_mask` is the graph's edge mask in graph6 column order.  A subset
    induces a chordless cycle exactly when the edges inside it are the edge
    set of a cycle, so each subset is one table lookup.  Independent of the
    elimination-ordering recognizer.
    """
    pair_masks, cycles = _cycle_table(n)
    return not cycles.isdisjoint(map(h_mask.__and__, pair_masks))


@cache
def _edge_flips(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """(u, 1 << v, v, 1 << u) for the pair u < v at bit v(v-1)/2 + u of an
    edge mask, in bit order."""
    return tuple((u, 1 << v, v, 1 << u) for v in range(n) for u in range(v))


def sweep_chunk(n: int, start: int, stop: int, with_oracle: bool) -> SweepResult:
    """Process edge masks start..stop-1, where 0 <= start <= stop <=
    2^(n(n-1)/2); pure function of its arguments."""
    all_pairs = mask_count(n) - 1
    if not 0 <= start <= stop <= all_pairs + 1:
        raise ContractViolationError(f"mask range {start}..{stop} outside 0..{all_pairs + 1} for n={n}")
    res = SweepResult(n)
    counts = res.counts
    counts["total"] = stop - start
    crow = rows_from_edge_mask(n, all_pairs ^ start)
    flips = _edge_flips(n)
    references, check = _references, _check  # bound once per chunk: both run per mask
    for mask in range(start, stop):
        if mask > start:
            # the carry from mask - 1 flips edges 0..t, t the trailing zeros of mask
            for u, v_bit, v, u_bit in flips[:(mask ^ mask - 1).bit_length()]:
                crow[u] ^= v_bit
                crow[v] ^= u_bit
        elim = _mcs_order(n, crow)[::-1]
        chordal = _is_peo(n, crow, elim)
        refs = references(n, crow, all_pairs ^ mask, chordal, with_oracle)
        kinds = check(n, crow, elim, chordal, refs, counts)
        if kinds:
            g6 = to_graph6(Graph.from_edge_mask(n, mask))
            for kind in kinds:
                res.violations[kind].append(g6)
    return res


def _references(n: int, crow: list[int], h_mask: int, chordal: bool, with_oracle: bool) -> tuple:
    """What the graph whose complement has rows `crow` and edge mask `h_mask`
    is held to, each computed apart from its record and unchanged by
    relabelling: whether brute force finds an induced cycle of at least four
    vertices in the complement, the f-vector numerator where a check reads
    it (the complement is chordal, or the oracle is on), else None, and the
    oracle's table, or None without the oracle."""
    fnum = _fvector_numerator(_clique_counts(n, crow), n) if chordal or with_oracle else None
    return has_long_induced_cycle(n, h_mask), fnum, _hochster_graph(n, crow) if with_oracle else None


def _check(n, crow, elim, chordal, refs, counts) -> list[str]:
    """The violation kinds of the graph whose complement has rows `crow`, an
    elimination order `elim` and chordality `chordal`, against its
    references; a 2-linear graph's counts are added to `counts` in place."""
    cyclic, fnum, table = refs
    kinds = []
    if chordal == cyclic:
        kinds.append("chordal_vs_bruteforce")
    if table is not None:
        if oracle_is_2linear(table) != chordal:
            kinds.append("twolinear_vs_chordal")
        if not _knum_matches(n, table, fnum):
            kinds.append("knum_mismatch")
    if not chordal:
        return kinds
    counts["twolinear"] += 1
    facets = _clique_masks_from_peo(n, crow, elim)
    if table is not None and set(facets) != set(_maximal_clique_masks(n, crow)):
        kinds.append("clique_paths_disagree")
    f = conjecture.formulas(n, facets, n - 1 - min(map(int.bit_count, crow)))
    num = f.numerator
    if num != tuple(fnum):
        kinds.append("hilbert_mismatch")
    k = len(facets)
    if k >= 2 and len(_trim(list(num))) - 1 != n - f.r_min - 1:
        kinds.append("numerator_degree")
    holds = f.holds
    counts["holds"] += holds
    counts["fails"] += not holds
    counts["single_facet"] += k == 1
    if f.cm != (f.depth == f.dim):
        kinds.append("cm_inconsistent")
    if f.cm:
        counts["cm"] += 1
        if not holds:
            kinds.append("cm_not_holds")
    if k >= 2:
        witness = f.witness is not None
        counts["witness"] += witness
        if witness != holds:
            kinds.append("witness_equivalence")
    if 0 in f.dims:
        counts["isolated"] += 1
        if not holds:
            kinds.append("isolated_not_holds")
    if f.d_tree:
        counts["dtree"] += 1
        if not holds:
            kinds.append("dtree_not_holds")
    if table is not None:
        if _linear_strand(num) != table.entries:
            kinds.append("betti_mismatch")
        if f.depth + oracle_pd(table) != n:
            kinds.append("ab_identity")
    return kinds


def _knum_matches(n, table, fnum) -> bool:
    """Whether the f-vector numerator's coefficients equal the alternating
    Betti sums per degree."""
    sums = [1] + [0] * n
    for (i, j), v in table.entries.items():
        sums[j] += -v if i & 1 else v
    return sums == fnum


def _chunk_worker(args: tuple[int, int, int, bool]) -> SweepResult:
    return sweep_chunk(*args)


def run_sweep(n: int, *, jobs: int = 1, with_oracle: bool = False) -> SweepResult:
    """Sweep all 2^(n(n-1)/2) labeled graphs; deterministic for every job count.

    The pool has at most as many workers as the CPUs this process may run
    on.  With several, the mask range is cut into about four chunks per
    worker, so every worker gets work and a slow chunk holds up little."""
    total = mask_count(n)
    result = SweepResult(n)
    jobs = _pool_size(jobs)
    if jobs <= 1:
        result.merge(sweep_chunk(n, 0, total, with_oracle))
        return result
    chunk = -(-total // (4 * jobs))
    ranges = [(n, lo, min(lo + chunk, total), with_oracle) for lo in range(0, total, chunk)]
    import multiprocessing  # here, not at the top: it slows every start-up
    with multiprocessing.Pool(jobs) as pool:
        for part in pool.imap(_chunk_worker, ranges):
            result.merge(part)
    return result
