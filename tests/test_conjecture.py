import pytest

from edgering import conjecture
from edgering.chordal import decompose
from edgering.complexes import flag_complex
from edgering.conjecture import (
    KRR_GAP_NOTE,
    _free_vertex_witness_masks,
    build_family,
    classify,
    family_report,
    formulas,
    gap_series,
)
from edgering.cli import main
from edgering.errors import InternalInvariantError, UndefinedInputError
from edgering.graphs import Graph, bits, complement, max_degree, to_graph6
from edgering.oracle import hochster_betti, oracle_pd
from conftest import chordal_graph, random_graph


C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def kgraph(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestClassify:
    def test_c4_counterexample(self):
        rep = classify(C4)
        assert rep.has_2linear
        assert rep.pd == 3 and rep.max_deg == 2
        assert rep.holds is False and rep.gap == 1
        assert rep.witness is None
        assert rep.r_min == -1 and rep.single_facet is False

    def test_complete_graphs_hold(self):
        for n in range(2, 7):
            rep = classify(kgraph(n))
            assert rep.pd == n - 1 == rep.max_deg
            assert rep.holds and rep.r_min == -1

    def test_k4_oracle_cross_check(self):
        table = hochster_betti(flag_complex(complement(kgraph(4))))
        assert oracle_pd(table) == classify(kgraph(4)).pd

    def test_full_vertex_holds(self, rng):
        # a vertex adjacent to all others is an isolated vertex of the complement
        hits = 0
        for _ in range(200):
            g = random_graph(rng, 6)
            rows = list(g.rows)
            full = (1 << 6) - 1
            rows[0] = full & ~1
            for v in range(1, 6):
                rows[v] |= 1
            g = Graph(6, tuple(rows))
            rep = classify(g)
            if rep.has_2linear:
                assert rep.holds
                hits += 1
        assert hits > 50

    def test_non_2linear_fields_empty(self):
        rep = classify(complement(C4))  # complement of 2K2 is C4: not chordal
        assert rep.has_2linear is False
        assert rep.pd is None and rep.holds is None and rep.witness is None

    def test_edgeless_single_facet(self):
        rep = classify(Graph(4, (0,) * 4))
        assert rep.single_facet and rep.pd == 0 and rep.max_deg == 0 and rep.holds

    def test_single_vertex(self):
        rep = classify(Graph(1, (0,)))
        assert rep.holds and rep.pd == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(UndefinedInputError):
            classify(Graph(0, ()))

    def test_graph6_matches_input(self):
        assert classify(C4).graph6 == to_graph6(C4)


class TestFormulaRecord:
    def test_consistency(self, rng):
        """The record agrees with the decomposition, with classify and with
        itself (Auslander-Buchsbaum, CM iff depth = dim)."""
        for _ in range(200):
            n = rng.randint(1, 12)
            g = complement(chordal_graph(rng, n, rng.random(), rng.randint(1, min(n, 3))))
            _, qfd = decompose(complement(g))
            rec = formulas(n, [sum(1 << v for v in f) for f in qfd.facets], max_degree(g))
            assert (rec.dims, rec.attach_dims, rec.r_min) == (qfd.dims, qfd.attach_dims, qfd.r_min)
            assert len(rec.numerator) == n + 1
            assert rec.pd + rec.depth == n
            assert rec.cm == (rec.depth == rec.dim)
            assert (rec.r_min is None) == (qfd.k == 1)
            rep = classify(g)
            assert (rec.pd, rec.holds) == (rep.pd, rep.holds)
            witness = rec.witness and (frozenset(bits(rec.witness[0])), rec.witness[1])
            assert witness == rep.witness

    @pytest.mark.parametrize("command", ["analyze", "oracle"])
    def test_flipped_cm_is_an_internal_error(self, monkeypatch, capsys, command):
        """Every reader of the record runs the same checks: a record whose CM
        flag disagrees with depth = dim fails `classify`, `analyze` and
        `oracle` with the same message."""
        real = formulas

        def flipped(*args):
            rec = real(*args)
            return rec._replace(cm=not rec.cm)

        monkeypatch.setattr(conjecture, "formulas", flipped)
        message = "CM structural test disagrees with depth = dim"
        with pytest.raises(InternalInvariantError, match=f"^{message}$"):
            classify(C4)
        assert main([command, to_graph6(C4)]) == 5
        assert capsys.readouterr() == ("", f"internal error: {message}\n")


class TestFreeVertexWitness:
    def test_c4_complex_none(self):
        assert _free_vertex_witness_masks([0b0011, 0b1100], -1) is None

    def test_isolated_vertex(self):
        assert _free_vertex_witness_masks([0b001, 0b110], -1) == (0b001, 0)

    def test_two_triangles(self):
        assert _free_vertex_witness_masks([0b0111, 0b1110], 1) == (0b0111, 0)

    def test_single_facet_none(self):
        # a simplex holds trivially, and its record carries no witness
        rec = formulas(3, [0b111], 0)
        assert rec.witness is None and rec.holds

    def test_search_order_deterministic(self):
        # all three singletons qualify; the first in canonical order wins
        assert _free_vertex_witness_masks([0b010, 0b001, 0b100], -1) == (0b001, 0)
        # on the path 1-2-3-0, both end edges qualify; sorted vertex lists
        # order {0, 3} before {1, 2}, though its mask is the larger
        assert _free_vertex_witness_masks([0b0110, 0b1001, 0b1100], 0) == (0b1001, 0)


class TestFamilies:
    def test_krr_gap_value(self):
        for r in range(2, 7):
            assert gap_series("complete-bipartite", r) == r - 1

    def test_krr_is_c4_at_r2(self):
        rep = classify(build_family("complete-bipartite", 2))
        assert rep.pd == 3 and rep.max_deg == 2 and rep.gap == 1

    def test_krr_oracle_confirms_pd(self):
        for r in (2, 3, 4):
            g = build_family("complete-bipartite", r)
            table = hochster_betti(flag_complex(complement(g)))
            assert oracle_pd(table) == 2 * r - 1

    def test_barbell_gap_value(self):
        for r in (3, 4, 5):
            assert gap_series("barbell", r) == r - 2

    def test_barbell_structure(self):
        g = build_family("barbell", 3)
        rep = classify(g)
        assert rep.pd == 4 and rep.max_deg == 3 and rep.gap == 1
        gbar = complement(g)
        facets = flag_complex(gbar).facet_lists()
        assert facets == [[0, 1, 2], [2, 3], [3, 4, 5]]

    def test_family_r_guard(self):
        with pytest.raises(UndefinedInputError):
            build_family("barbell", 1)
        with pytest.raises(UndefinedInputError):
            gap_series("complete-bipartite", 0)

    def test_unknown_family(self):
        with pytest.raises(UndefinedInputError):
            build_family("petersen", 3)

    def test_krr_report_notes_discrepancy(self):
        rep = family_report("complete-bipartite", 3)
        assert rep["gap"] == 2
        assert any("r - 1" in note for note in rep["notes"])
        assert rep["notes"] == [KRR_GAP_NOTE]

    def test_barbell_report_no_note(self):
        rep = family_report("barbell", 3)
        assert rep["gap"] == 1 and rep["notes"] == []


class TestWitnessSoundness:
    def test_witness_implies_holds_on_random_graphs(self, rng):
        for _ in range(400):
            g = random_graph(rng, 7)
            rep = classify(g)  # classify itself checks witness -> holds
            if rep.has_2linear and rep.witness is not None:
                assert rep.holds
