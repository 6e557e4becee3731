import json
import random
from itertools import combinations, permutations
from pathlib import Path

import pytest

from edgering import chordal
from edgering.chordal import (
    Chordal,
    NotChordal,
    QuasiForestDecomposition,
    _check_facet_masks,
    _chordless_cycle,
    _is_chordless_cycle,
    _mcs_order,
    decompose,
    is_chordal,
)
from edgering.errors import ContractViolationError, InternalInvariantError, UndefinedInputError
from edgering.graphs import Graph, complement, enumerate_labeled, parse_graph6, to_graph6
from conftest import (
    brute_is_chordal,
    check_chordless_cycle,
    check_peo,
    naive_maximal_cliques,
    quasi_forest_attachments,
    random_graph,
    random_quasi_forest_facets,
    skeleton,
)

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "decompose_golden.jsonl"


C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])


def barbell3():
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]
    return Graph.from_edges(6, edges)


class TestIsChordal:
    def test_c4_certificate(self):
        res = is_chordal(C4)
        assert isinstance(res, NotChordal)
        assert res.cycle == (0, 1, 2, 3)
        assert check_chordless_cycle(C4, res.cycle)

    def test_two_disjoint_edges(self):
        res = is_chordal(complement(C4))
        assert isinstance(res, Chordal)
        assert check_peo(complement(C4), res.peo)

    @pytest.mark.parametrize(
        "g",
        [
            Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
            Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
            Graph(5, (0,) * 5),
            Graph(0, ()),
            Graph(1, (0,)),
        ],
    )
    def test_known_chordal(self, g):
        res = is_chordal(g)
        assert isinstance(res, Chordal)
        assert check_peo(g, res.peo)

    def test_long_cycles(self):
        for n in range(4, 12):
            g = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
            res = is_chordal(g)
            assert isinstance(res, NotChordal)
            assert check_chordless_cycle(g, res.cycle)
            assert len(res.cycle) == n

    def test_exhaustive_small(self):
        for n in range(0, 6):
            for g in enumerate_labeled(n):
                res = is_chordal(g)
                if isinstance(res, Chordal):
                    assert brute_is_chordal(g)
                    assert check_peo(g, res.peo)
                else:
                    assert not brute_is_chordal(g)
                    assert check_chordless_cycle(g, res.cycle)

    def test_random_medium(self, rng):
        for n in (8, 10, 13):
            for _ in range(300):
                g = random_graph(rng, n)
                res = is_chordal(g)
                if isinstance(res, Chordal):
                    assert brute_is_chordal(g)
                    assert check_peo(g, res.peo)
                else:
                    assert check_chordless_cycle(g, res.cycle)


def first_violation(g, elim):
    """(v, x, y): the first vertex in `elim` with later neighbours x < y that
    are not adjacent, and the first such pair, by sets."""
    pos = {v: i for i, v in enumerate(elim)}
    for v in elim:
        later = sorted(u for u in g.neighbors(v) if pos[u] > pos[v])
        for x, y in combinations(later, 2):
            if not g.has_edge(x, y):
                return v, x, y
    return None


class TestChordlessCycleSearch:
    def test_every_nonchordal_graph_up_to_six(self):
        # any elimination order works, not only the MCS one; under the
        # identity order the first violation of 3,013 graphs has no x-y path
        # avoiding v's neighbours, so the search must go on to later ones
        nonchordal = first_try_failed = 0
        for n in range(4, 7):
            for g in enumerate_labeled(n):
                if brute_is_chordal(g):
                    continue
                nonchordal += 1
                cycle = _chordless_cycle(n, g.rows, range(n))
                assert check_chordless_cycle(g, cycle)
                first_try_failed += (cycle[0], cycle[1], cycle[-1]) != first_violation(g, range(n))
                assert check_chordless_cycle(g, _chordless_cycle(n, g.rows, _mcs_order(n, g.rows)[::-1]))
        assert nonchordal == 14_819
        assert first_try_failed == 3_013

    def test_certificate_check(self):
        ring = [(i, (i + 1) % 6) for i in range(6)]
        c6 = Graph.from_edges(6, ring).rows
        assert _is_chordless_cycle(c6, [0, 1, 2, 3, 4, 5])
        assert _is_chordless_cycle(c6, (3, 2, 1, 0, 5, 4))
        assert not _is_chordless_cycle(Graph.from_edges(6, ring + [(0, 3)]).rows, [0, 1, 2, 3, 4, 5])
        assert not _is_chordless_cycle(c6, [0, 1, 2, 3, 4, 5, 0])
        assert not _is_chordless_cycle(c6, [0, 1, 2, 1])
        k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]).rows
        assert not _is_chordless_cycle(k3, [0, 1, 2])
        assert not _is_chordless_cycle(c6, [0, 1, 2, 3, 4])
        assert not _is_chordless_cycle(c6, [0, 1, 3, 4])

    def test_invalid_certificate_is_internal_error(self, monkeypatch):
        monkeypatch.setattr(chordal, "_chordless_cycle", lambda n, rows, elim: [0, 1, 2])
        with pytest.raises(InternalInvariantError, match="invalid certificate"):
            is_chordal(C4)


def qfd(facets, dims, attach_dims, n):
    return QuasiForestDecomposition(tuple(frozenset(f) for f in facets), dims, attach_dims, n)


def chordal_decompositions(graphs):
    for g in graphs:
        res, dec = decompose(g)
        if dec is not None:
            yield g, dec


class TestMaximalCliques:
    def test_two_disjoint_edges(self):
        assert decompose(complement(C4))[1].facets == (frozenset({0, 2}), frozenset({1, 3}))

    def test_complete(self):
        g = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert decompose(g)[1].facets == (frozenset({0, 1, 2, 3}),)

    def test_path(self):
        assert decompose(PATH3) == (Chordal((2, 1, 0)), qfd([{0, 1}, {1, 2}], (1, 1), (0,), 3))

    def test_count_at_most_n(self, rng):
        for g, dec in chordal_decompositions(random_graph(rng, 9) for _ in range(200)):
            assert dec.k <= g.n
            assert set().union(*dec.facets) == set(range(g.n))

    def test_matches_naive_enumeration(self, rng):
        graphs = [g for n in range(1, 7) for g in enumerate_labeled(n)]
        graphs += [skeleton(rng, random_quasi_forest_facets(rng, max_n=30)) for _ in range(300)]
        checked = 0
        for g, dec in chordal_decompositions(graphs):
            assert set(dec.facets) == naive_maximal_cliques(g)
            assert len(set(dec.facets)) == dec.k
            checked += 1
        assert checked > 18_000


class TestCliqueTree:
    def test_shared_edge(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert decompose(g) == (Chordal((3, 2, 1, 0)), qfd([{0, 1, 2}, {1, 2, 3}], (2, 2), (1,), 4))

    def test_disjoint_facets_forest(self):
        assert decompose(complement(C4)) == (
            Chordal((3, 1, 2, 0)),
            qfd([{0, 2}, {1, 3}], (1, 1), (-1,), 4),
        )

    def test_barbell_path(self):
        # hand enumeration: MCS visits 0..5 in order and completes {0,1,2} (3 gets
        # a smaller weight than 2), then {2,3} (4 gets no larger one), then {3,4,5}
        assert decompose(barbell3()) == (
            Chordal((5, 4, 3, 2, 1, 0)),
            qfd([{0, 1, 2}, {2, 3}, {3, 4, 5}], (2, 1, 2), (0, 0), 6),
        )

    def test_non_chordal_rejected(self):
        res, dec = decompose(C4)
        assert res == NotChordal((0, 1, 2, 3))
        assert dec is None

    def test_running_intersection_random(self, rng):
        graphs = [random_graph(rng, 8) for _ in range(200)]
        graphs += [skeleton(rng, random_quasi_forest_facets(rng, max_n=20)) for _ in range(200)]
        for g, dec in chordal_decompositions(graphs):
            # checked set-wise, independently of the library's own validation
            assert quasi_forest_attachments(dec.facets) == [r + 1 for r in dec.attach_dims]


class TestQuasiForestOrder:
    def test_two_disjoint_edges_order(self):
        dec = decompose(complement(C4))[1]
        assert dec.dims == (1, 1)
        assert dec.attach_dims == (-1,)
        assert dec.r_min == -1

    def test_two_triangles(self):
        dec = decompose(Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]))[1]
        assert dec.dims == (2, 2)
        assert dec.attach_dims == (1,)

    def test_single_clique(self):
        g = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert decompose(g) == (Chordal((3, 2, 1, 0)), qfd([{0, 1, 2, 3}], (3,), (), 4))
        assert decompose(g)[1].r_min is None

    def test_vertex_count_identity_random(self, rng):
        for g, dec in chordal_decompositions(random_graph(rng, 9) for _ in range(300)):
            assert sum(d + 1 for d in dec.dims) - sum(r + 1 for r in dec.attach_dims) == g.n

    def test_r_min_root_invariance(self, rng):
        # every facet order that passes the quasi-forest condition has the same r_min
        graphs = [random_graph(rng, 8) for _ in range(400)]
        checked = 0
        for g, dec in chordal_decompositions(graphs):
            if not 2 <= dec.k <= 6:
                continue
            for perm in permutations(dec.facets):
                attach = quasi_forest_attachments(perm)
                if attach is not None:
                    assert min(attach) - 1 == dec.r_min
                    checked += 1
        assert checked > 1000


def golden_record(g6: str) -> dict:
    """The decomposition of the complement of a graph6 input, in the
    `edgering decompose` field names."""
    h = complement(parse_graph6(g6))
    res, dec = decompose(h)
    assert res == is_chordal(h)
    if dec is None:
        return {"graph6": g6, "chordless_cycle": list(res.cycle)}
    return {
        "graph6": g6,
        "facets": [sorted(f) for f in dec.facets],
        "d": list(dec.dims),
        "r": list(dec.attach_dims),
        "r_min": dec.r_min,
    }


def golden_inputs() -> list[str]:
    """All labeled graphs on 1..5 vertices, then 150 complements of relabelled
    quasi-forest skeletons on up to 14 vertices."""
    graphs = [g for n in range(1, 6) for g in enumerate_labeled(n)]
    rng = random.Random(20240831)
    graphs += [complement(skeleton(rng, random_quasi_forest_facets(rng, max_n=14))) for _ in range(150)]
    return [to_graph6(g) for g in graphs]


class TestDecompose:
    def test_matches_golden_fixture(self):
        lines = GOLDEN.read_text().splitlines()
        assert len(lines) == 1099 + 150
        for line in lines:
            expected = json.loads(line)
            assert golden_record(expected["graph6"]) == expected

    def test_empty_graph_rejected(self):
        with pytest.raises(UndefinedInputError):
            decompose(Graph(0, ()))


class TestDecompositionValidation:
    """One rejected input per check of `QuasiForestDecomposition`."""

    @pytest.mark.parametrize(
        "facets,dims,attach_dims,n,error,message",
        [
            ([], (), (), 0, ContractViolationError, "at least one facet"),
            ([{0, 1}], (1, 1), (), 2, InternalInvariantError, "inconsistent with facet count"),
            ([{0, 1}, set()], (1, -1), (-1,), 2, ContractViolationError, "empty facet"),
            ([{0, 1}, {1, 2}], (1, 2), (0,), 3, InternalInvariantError, "facet dimension mismatch"),
            # an earlier facet inside a later one
            ([{0, 1}, {0, 1, 2}], (1, 2), (1,), 3, ContractViolationError, "inclusion-free"),
            ([{0, 1}, {0, 1}], (1, 1), (1,), 2, ContractViolationError, "inclusion-free"),
            ([{0, 1}, {1, 2}], (1, 1), (-1,), 3, InternalInvariantError, "attachment dimension"),
            # {0, 2} lies in the union of the first two facets: no new vertex
            ([{0, 1}, {1, 2}, {0, 2}], (1, 1, 1), (0, 1), 3, InternalInvariantError, "no new vertex"),
            ([{0, 1}, {1, 2}], (1, 1), (0,), 4, InternalInvariantError, "facet union"),
        ],
    )
    def test_rejects(self, facets, dims, attach_dims, n, error, message):
        with pytest.raises(error, match=message):
            QuasiForestDecomposition(tuple(frozenset(f) for f in facets), dims, attach_dims, n)

    def test_mask_checker_rejects_an_uncovered_position(self):
        # positions 0, 1 and 3 lie in a facet and 2 in none; relabelled
        # facets never leave a gap, so only the mask form can see one
        with pytest.raises(InternalInvariantError, match="facet union"):
            _check_facet_masks([0b0011, 0b1010], 4)

    def test_rejects_nested_facets(self):
        with pytest.raises(ContractViolationError, match="inclusion-free"):
            QuasiForestDecomposition(
                facets=(frozenset({0, 1, 2}), frozenset({0, 1})),
                dims=(2, 1),
                attach_dims=(1,),
                n=3,
            )

    def test_rejects_bad_attachment(self):
        # attachment {0, 2} is not contained in any single earlier facet
        with pytest.raises(ContractViolationError, match="single earlier facet"):
            QuasiForestDecomposition(
                facets=(frozenset({0, 1}), frozenset({2, 3}), frozenset({0, 2, 4})),
                dims=(1, 1, 2),
                attach_dims=(-1, 1),
                n=5,
            )

    @pytest.mark.parametrize(
        "facets,attach_dims",
        [
            ([{-7, 3}, {3, 40}, {40, 12, -1}], (0, 0)),
            ([{100}, {-100, 5}], (-1,)),
            ([{-2, -1, 0}, {-1, 0, 9}, {9, 1000}], (1, 0)),
        ],
    )
    def test_accepts_relabelled_facets(self, facets, attach_dims):
        facets = tuple(frozenset(f) for f in facets)
        n = len(frozenset().union(*facets))
        dec = QuasiForestDecomposition(facets, tuple(len(f) - 1 for f in facets), attach_dims, n)
        assert dec.r_min == min(attach_dims)


if __name__ == "__main__":
    # regenerate the golden fixture: PYTHONPATH=src:tests python tests/test_chordal.py
    GOLDEN.write_text("".join(json.dumps(golden_record(g6)) + "\n" for g6 in golden_inputs()))
