"""The sweep checks the functions that `analyze` ships: its counts must
agree with `cli.analyze_record` graph by graph."""

import multiprocessing
import os
from functools import cache
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from edgering import conjecture, verify
from edgering.cli import analyze_record
from edgering.errors import ContractViolationError, UndefinedInputError, UnsupportedSizeError
from edgering.graphs import Graph, rows_from_edge_mask, to_graph6
from edgering.oracle import OracleBettiTable
from conftest import brute_is_chordal, ref_has_long_induced_cycle


def counts_from_analyze(g: Graph) -> dict[str, int]:
    """The sweep's per-graph counts, read off the analyze document."""
    rec = analyze_record(g)
    facets = rec["facets"] or []
    return {
        "total": 1,
        "twolinear": int(rec["complement_chordal"]),
        "holds": int(rec["conjecture_holds"] is True),
        "fails": int(rec["conjecture_holds"] is False),
        "single_facet": int(len(facets) == 1),
        "witness": int(rec["witness"] is not None),
        "cm": int(rec["cm"] is True),
        "dtree": int(rec["d_tree"] is not None),
        "isolated": int(any(len(f) == 1 for f in facets)),
    }


def assert_sweep_matches_analyze(n: int, mask: int) -> None:
    res = verify.sweep_chunk(n, mask, mask + 1, False)
    assert res.all_clean()
    assert res.counts == counts_from_analyze(Graph.from_edge_mask(n, mask))


class TestSweepMatchesAnalyze:
    def test_exhaustive_small(self):
        for n in range(1, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                assert_sweep_matches_analyze(n, mask)

    def test_random_six_seven(self, rng):
        for n, trials in ((6, 400), (7, 250)):
            for _ in range(trials):
                assert_sweep_matches_analyze(n, rng.getrandbits(n * (n - 1) // 2))


class TestBruteCycleChecker:
    def test_exhaustive_against_subset_walk(self):
        for n in range(1, 7):
            for mask in range(1 << (n * (n - 1) // 2)):
                rows = rows_from_edge_mask(n, mask)
                assert verify.has_long_induced_cycle(n, mask) == ref_has_long_induced_cycle(n, rows)

    def test_matches_setwise_brute(self, rng):
        for _ in range(300):
            mask = rng.getrandbits(21)
            g = Graph.from_edge_mask(7, mask)
            assert verify.has_long_induced_cycle(7, mask) == (not brute_is_chordal(g))

    def test_table_sizes(self):
        # sum over k >= 4 of C(n, k)(k - 1)!/2 chordless cycles on 0..n-1
        for n, size in ((1, 0), (3, 0), (4, 3), (5, 27), (6, 177), (7, 1137)):
            pair_masks, cycles = verify._cycle_table(n)
            assert len(cycles) == size
            assert len(pair_masks) == sum(comb(n, k) for k in range(4, n + 1))


class TestSweepMachinery:
    def test_small_sweeps_clean(self):
        for n in (1, 2, 3, 4):
            res = verify.run_sweep(n, with_oracle=True)
            assert res.all_clean()
            assert res.counts["total"] == 1 << (n * (n - 1) // 2)

    def test_known_counts_n4(self):
        res = verify.run_sweep(4, with_oracle=True)
        assert res.counts["twolinear"] == 61  # all but the 3 labelings of 2K2
        assert res.counts["fails"] == 3       # exactly the 3 labelings of C4

    def test_parallel_matches_serial(self):
        serial = verify.run_sweep(5, with_oracle=False, jobs=1)
        parallel = verify.run_sweep(5, with_oracle=False, jobs=4)
        assert serial.counts == parallel.counts
        assert serial.violations == parallel.violations

    def test_fvector_reference_is_checked(self, monkeypatch):
        # one clique too many at size 2 shifts the f-vector numerator by
        # t^2 (1-t)^(n-2): every 2-linear record's numerator and every
        # oracle table's alternating sums then disagree with it; unpatched,
        # the same chunk is clean, so every mask is checked against it
        assert verify.sweep_chunk(5, 0, 1 << 10, True).all_clean()
        count = verify._clique_counts

        def one_off(n, rows):
            counts = count(n, rows)
            counts[2] += 1
            return counts

        monkeypatch.setattr(verify, "_clique_counts", one_off)
        res = verify.sweep_chunk(5, 0, 1 << 10, True)
        assert len(res.violations["hilbert_mismatch"]) == res.counts["twolinear"] > 0
        assert len(res.violations["knum_mismatch"]) == res.counts["total"] == 1 << 10

    def test_jobs_get_several_chunks(self, monkeypatch):
        # n = 6 with four jobs: the 2^15 masks are cut into chunks that tile
        # the range in order, at least one per job, not one chunk for one worker
        ranges = []

        class RecordingPool:
            def __init__(self, jobs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, args):
                ranges.extend(args)
                return iter(())

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        verify.run_sweep(6, with_oracle=True, jobs=4)
        assert len(ranges) >= 4
        assert [lo for _, lo, _, _ in ranges] == [0] + [hi for _, _, hi, _ in ranges[:-1]]
        assert ranges[-1][2] == 1 << 15
        assert all(n == 6 and with_oracle for n, _, _, with_oracle in ranges)

    @pytest.mark.parametrize("jobs, size", [(100000, 3), (2, 2), (1, None)])
    def test_pool_clamped_to_available_cpus(self, monkeypatch, jobs, size):
        sizes = []

        class RecordingPool:
            """Records the size it is asked for and runs the work in this process."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, args):
                return map(func, args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        res = verify.run_sweep(4, with_oracle=True, jobs=jobs)
        assert sizes == ([] if size is None else [size])
        assert vars(res) == vars(verify.run_sweep(4, with_oracle=True))


@cache
def n5_flags() -> tuple[dict[str, int], ...]:
    """The counts of each one-mask chunk of the clean n = 5 oracle sweep,
    indexed by mask: what a corruption of one reference can reach."""
    return tuple(verify.sweep_chunk(5, mask, mask + 1, True).counts for mask in range(1 << 10))


def corrupt_formulas(change):
    def patch(monkeypatch):
        formulas = conjecture.formulas
        monkeypatch.setattr(conjecture, "formulas", lambda *args: change(formulas(*args)))
    return patch


def corrupt_table(change):
    def patch(monkeypatch):
        hochster = verify._hochster_graph

        def changed(n, rows):
            table = hochster(n, rows)
            change(table)
            return table

        monkeypatch.setattr(verify, "_hochster_graph", changed)
    return patch


def negate_cycles(monkeypatch):
    cycles = verify.has_long_induced_cycle
    monkeypatch.setattr(verify, "has_long_induced_cycle", lambda n, h_mask: not cycles(n, h_mask))


def drop_a_clique(monkeypatch):
    cliques = verify._maximal_clique_masks
    monkeypatch.setattr(verify, "_maximal_clique_masks", lambda n, rows: cliques(n, rows)[1:])


def top_coefficient_zeroed(f):
    """The record with its numerator's highest nonzero coefficient set to 0,
    a numerator of lower degree."""
    num = list(f.numerator)
    num[max(i for i, c in enumerate(num) if c)] = 0
    return f._replace(numerator=tuple(num))


def flip_two_linear(table):
    table.two_linear = not table.two_linear


def raise_beta_12(table):
    table.entries[1, 2] = table.entries.get((1, 2), 0) + 1


NOT_HOLDS = corrupt_formulas(lambda f: f._replace(holds=False))

# kind: (a corruption of one input of the check, on the clean counts of a
# mask: whether the corruption reaches it)
FAULTS = {
    "chordal_vs_bruteforce": (negate_cycles, lambda c: True),
    "hilbert_mismatch": (corrupt_formulas(top_coefficient_zeroed), lambda c: c["twolinear"]),
    "numerator_degree": (corrupt_formulas(top_coefficient_zeroed), lambda c: c["twolinear"] and not c["single_facet"]),
    "witness_equivalence": (NOT_HOLDS, lambda c: c["witness"]),
    "dtree_not_holds": (NOT_HOLDS, lambda c: c["dtree"]),
    "isolated_not_holds": (NOT_HOLDS, lambda c: c["isolated"]),
    "cm_inconsistent": (corrupt_formulas(lambda f: f._replace(cm=not f.cm)), lambda c: c["twolinear"]),
    "cm_not_holds": (NOT_HOLDS, lambda c: c["cm"]),
    "clique_paths_disagree": (drop_a_clique, lambda c: c["twolinear"]),
    "twolinear_vs_chordal": (corrupt_table(flip_two_linear), lambda c: True),
    "betti_mismatch": (corrupt_table(raise_beta_12), lambda c: c["twolinear"]),
    "ab_identity": (corrupt_formulas(lambda f: f._replace(depth=f.depth + 1)), lambda c: c["twolinear"]),
    "knum_mismatch": (corrupt_table(raise_beta_12), lambda c: True),
}


@pytest.mark.parametrize("kind", verify.VIOLATION_KINDS)
def test_fault_is_recorded(monkeypatch, kind):
    # each check of the sweep, fed one corrupted input, records exactly the
    # masks that the corruption reaches, in mask order
    corrupt, reached = FAULTS[kind]
    expected = [to_graph6(Graph.from_edge_mask(5, mask)) for mask, c in enumerate(n5_flags()) if reached(c)]
    assert expected
    corrupt(monkeypatch)
    assert verify.sweep_chunk(5, 0, 1 << 10, True).violations[kind] == expected


def relabelled_edge_mask(n: int, mask: int, perm: list[int]) -> int:
    """The edge mask of the graph with edge mask `mask` after vertex v becomes
    perm[v]: the pair u < v sits at bit v(v-1)/2 + u."""
    pairs = [sorted((perm[u], perm[v])) for u, v in Graph.from_edge_mask(n, mask).edges()]
    return sum(1 << v * (v - 1) // 2 + u for u, v in pairs)


def comparable(refs) -> tuple:
    return tuple((r.entries, r.two_linear) if isinstance(r, OracleBettiTable) else r for r in refs)


@st.composite
def relabellings(draw):
    n = draw(st.integers(4, 7))
    return n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)), draw(st.permutations(range(n)))


@settings(max_examples=100, deadline=None)
@example((4, 0b100001, [1, 2, 3, 0]))  # 2K2, whose complement is C4
@given(relabellings())
def test_references_do_not_change_under_relabelling(case):
    # what a graph is held to is a function of its isomorphism class, so an
    # orbit's references can be computed once for all its labellings
    n, mask, perm = case
    all_pairs = (1 << n * (n - 1) // 2) - 1
    views = []
    for m in (mask, relabelled_edge_mask(n, mask, perm)):
        crow = rows_from_edge_mask(n, all_pairs ^ m)
        chordal = verify._mcs(n, crow)[1]
        views.append([comparable(verify._references(n, crow, all_pairs ^ m, chordal, with_oracle))
                      for with_oracle in (False, True)])
    assert views[0] == views[1]


@st.composite
def chunk_ranges(draw):
    """(n, start, stop, with_oracle) with n = 4..7, the oracle only at n <= 6,
    and a range of up to 80 masks about a carry boundary: 0, 2^k - 1, 2^k
    or the top of the mask range."""
    n = draw(st.integers(4, 7))
    pairs = n * (n - 1) // 2
    k = draw(st.integers(1, pairs - 1))
    near = draw(st.sampled_from([0, (1 << k) - 1, 1 << k, 1 << pairs]))
    start = draw(st.integers(max(0, near - 40), near))
    stop = draw(st.integers(near, min(1 << pairs, near + 40)))
    return n, start, stop, n <= 6 and draw(st.booleans())


@settings(max_examples=150, deadline=None)
@example((5, 0, 1 << 10, True))
@example((7, (1 << 21) - 33, 1 << 21, False))
@given(chunk_ranges())
def test_chunk_is_the_merge_of_one_mask_chunks(args):
    # a chunk decodes its first complement's rows and updates them in place
    # from mask to mask; a one-mask chunk only decodes, so the two paths
    # agree on every count and every violation, in the same order
    n, start, stop, with_oracle = args
    merged = verify.SweepResult(n)
    for mask in range(start, stop):
        merged.merge(verify.sweep_chunk(n, mask, mask + 1, with_oracle))
    assert vars(verify.sweep_chunk(n, start, stop, with_oracle)) == vars(merged)


class TestSweepInputs:
    @pytest.mark.parametrize("n", [0, -1])
    def test_no_vertices(self, n):
        with pytest.raises(UndefinedInputError, match="at least one vertex"):
            verify.run_sweep(n)
        with pytest.raises(UndefinedInputError, match="at least one vertex"):
            verify.sweep_chunk(n, 0, 1, False)

    def test_above_cap(self):
        with pytest.raises(UnsupportedSizeError):
            verify.run_sweep(8, jobs=2)
        with pytest.raises(UnsupportedSizeError):
            verify.sweep_chunk(8, 0, 1, False)

    @pytest.mark.parametrize("start,stop", [(5, 9), (-1, 2), (3, 2), (0, 9)])
    def test_range_outside_the_masks(self, start, stop):
        with pytest.raises(ContractViolationError):
            verify.sweep_chunk(3, start, stop, False)

    def test_full_and_empty_ranges(self):
        assert verify.sweep_chunk(3, 0, 8, False).counts["total"] == 8
        assert verify.sweep_chunk(3, 8, 8, False).counts["total"] == 0
