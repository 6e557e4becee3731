"""The sweep checks the functions that `analyze` ships: its counts must
agree with `cli.analyze_record` graph by graph."""

import multiprocessing
from math import comb

import pytest

from edgering import verify
from edgering.cli import analyze_record
from edgering.errors import ContractViolationError, UndefinedInputError, UnsupportedSizeError
from edgering.graphs import Graph, rows_from_edge_mask
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
        # oracle table's alternating sums then disagree with it
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

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        verify.run_sweep(6, with_oracle=True, jobs=4)
        assert len(ranges) >= 4
        assert [lo for _, lo, _, _ in ranges] == [0] + [hi for _, _, hi, _ in ranges[:-1]]
        assert ranges[-1][2] == 1 << 15
        assert all(n == 6 and with_oracle for n, _, _, with_oracle in ranges)


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
