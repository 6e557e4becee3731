"""Exhaustive formula-vs-oracle sweeps over all labeled graphs of a given size.

For every graph G the sweep computes the complement, recognizes chordality,
re-derives it by brute-force induced-cycle search, and on the 2-linear side
runs the whole closed-formula pipeline, recording any graph that violates a
claimed identity.  The brute force looks the edges inside each vertex subset
of size >= 4 up in a table of the edge sets of all chordless cycles on
0..n-1, built once per n.  The oracle variant additionally computes the
Hochster Betti table of the flag complex of the complement and compares it
entry by entry.

The per-graph worker operates on edge masks and bitmask rows throughout
and computes no formula of its own: it takes the facets of `chordal` (the
maximal cliques in MCS order) and hands them to `conjecture.formulas`, the
one function that `analyze`, `survey` and `classify` also call, and
compares the fields of its record with references computed apart from it:
brute-force induced cycles, the numerator of the f-vector series and, in
the oracle variant, the Hochster Betti table, which the oracle's graph
kernel computes straight from the complement's adjacency rows and which is
compared with the Betti numbers read off the record's numerator.  The
f-vector comes from those rows too: `_clique_counts` counts the cliques of
the complement by size without listing them, so it shares no facet with
the record.  Bron-Kerbosch runs only in the oracle variant, on the chordal
masks, to hold the PEO's facets to the maximal cliques.  Every
failed comparison is recorded as a violation, not raised.  Chunks of the
edge-mask range can be processed by a worker pool; results merge
deterministically in mask order, so the outcome is identical for every
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, permutations

from . import conjecture
from .chordal import _clique_masks_from_peo, _is_peo, _mcs_order
from .complexes import _clique_counts, _maximal_clique_masks
from .errors import ContractViolationError
from .graphs import Graph, mask_count, rows_from_edge_mask, to_graph6
from .invariants import _fvector_numerator, _linear_strand
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


def _to_g6(n: int, mask: int) -> str:
    return to_graph6(Graph.from_edge_mask(n, mask))


def sweep_chunk(n: int, start: int, stop: int, with_oracle: bool) -> SweepResult:
    """Process edge masks start..stop-1, where 0 <= start <= stop <=
    2^(n(n-1)/2); pure function of its arguments."""
    formulas = conjecture.formulas  # the record analyze and classify build, bound once per chunk
    all_pairs = mask_count(n) - 1
    if not 0 <= start <= stop <= all_pairs + 1:
        raise ContractViolationError(f"mask range {start}..{stop} outside 0..{all_pairs + 1} for n={n}")
    res = SweepResult(n)
    counts = res.counts
    vio = res.violations
    counts["total"] = stop - start
    for mask in range(start, stop):
        h_mask = all_pairs ^ mask
        crow = rows_from_edge_mask(n, h_mask)
        elim = _mcs_order(n, crow)[::-1]
        chordal_flag = _is_peo(n, crow, elim)
        if chordal_flag == has_long_induced_cycle(n, h_mask):
            vio["chordal_vs_bruteforce"].append(_to_g6(n, mask))
        if with_oracle:
            table = _hochster_graph(n, crow)
            if oracle_is_2linear(table) != chordal_flag:
                vio["twolinear_vs_chordal"].append(_to_g6(n, mask))
        if not chordal_flag:
            if with_oracle:
                _check_knum(n, table, _fvector_numerator(_clique_counts(n, crow), n), vio, mask)
            continue
        counts["twolinear"] += 1
        facets = _clique_masks_from_peo(n, crow, elim)
        if with_oracle and set(facets) != set(_maximal_clique_masks(n, crow)):
            vio["clique_paths_disagree"].append(_to_g6(n, mask))
        f = formulas(n, facets, n - 1 - min(r.bit_count() for r in crow))
        num = f.numerator
        fnum = _fvector_numerator(_clique_counts(n, crow), n)
        if num != tuple(fnum):
            vio["hilbert_mismatch"].append(_to_g6(n, mask))
        deg = n
        while deg > 0 and num[deg] == 0:
            deg -= 1
        k = len(facets)
        if k >= 2 and deg != n - f.r_min - 1:
            vio["numerator_degree"].append(_to_g6(n, mask))
        holds = f.holds
        counts["holds"] += holds
        counts["fails"] += not holds
        if k == 1:
            counts["single_facet"] += 1
        if f.cm != (f.depth == f.dim):
            vio["cm_inconsistent"].append(_to_g6(n, mask))
        if f.cm:
            counts["cm"] += 1
            if not holds:
                vio["cm_not_holds"].append(_to_g6(n, mask))
        if k >= 2:
            witness = f.witness is not None
            counts["witness"] += witness
            if witness != holds:
                vio["witness_equivalence"].append(_to_g6(n, mask))
        if 0 in f.dims:
            counts["isolated"] += 1
            if not holds:
                vio["isolated_not_holds"].append(_to_g6(n, mask))
        if f.d_tree:
            counts["dtree"] += 1
            if not holds:
                vio["dtree_not_holds"].append(_to_g6(n, mask))
        if with_oracle:
            if _linear_strand(num) != table.entries:
                vio["betti_mismatch"].append(_to_g6(n, mask))
            if f.depth + oracle_pd(table) != n:
                vio["ab_identity"].append(_to_g6(n, mask))
            _check_knum(n, table, fnum, vio, mask)
    return res


def _check_knum(n, table, fnum, vio, mask) -> None:
    """The f-vector numerator's coefficients must equal the alternating Betti
    sums per degree."""
    sums = [0] * (n + 1)
    sums[0] = 1
    for (i, j), v in table.entries.items():
        sums[j] += (-1) ** i * v
    if sums != fnum:
        vio["knum_mismatch"].append(_to_g6(n, mask))


def _chunk_worker(args: tuple[int, int, int, bool]) -> SweepResult:
    return sweep_chunk(*args)


def run_sweep(n: int, *, jobs: int = 1, with_oracle: bool = False) -> SweepResult:
    """Sweep all 2^(n(n-1)/2) labeled graphs; deterministic for every job count.

    With several jobs the mask range is cut into about four chunks per job,
    so every worker gets work and a slow chunk holds up little."""
    total = mask_count(n)
    result = SweepResult(n)
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
