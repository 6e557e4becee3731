"""The closed formulas of `invariants`, read through `conjecture.formulas` on
the facet masks that complex recognition (`complexes._quasi_forest_masks`)
returns, and checked by `conjecture.checked_strand`."""

from itertools import permutations

import pytest

from edgering.complexes import SimplicialComplex, _quasi_forest_masks, f_vector, flag_complex, one_skeleton
from edgering.conjecture import checked_strand, formulas
from edgering.errors import InternalInvariantError
from edgering.graphs import Graph, complement, max_degree
from edgering.invariants import BettiTable, _checked_numerator, _fvector_numerator
from conftest import random_quasi_forest_facets


def complex_of(facets):
    verts = sorted(set().union(*[frozenset(f) for f in facets]))
    return SimplicialComplex(tuple(verts), tuple(frozenset(f) for f in facets))


def record_of(c):
    """The formula record of the quasi-forest c, for the graph whose
    complement is the 1-skeleton of c."""
    masks = _quasi_forest_masks(c)[0]
    assert masks is not None
    return formulas(c.n, masks, max_degree(complement(one_skeleton(c))))


TWO_EDGES = record_of(complex_of([[0, 1], [2, 3]]))  # the 4-cycle's complement complex
TWO_TRIANGLES = record_of(complex_of([[0, 1, 2], [1, 2, 3]]))
SIMPLEX4 = record_of(complex_of([[0, 1, 2, 3]]))
EDGE_PATH = record_of(complex_of([[0, 1], [1, 2], [2, 3]]))


def strand(rec, n):
    return checked_strand(rec, n, 0, "")[1]


class TestHilbertFromDecomposition:
    def test_two_disjoint_edges(self):
        # 2/(1-t)^2 - 1 over (1-t)^4: expand 2(1-t)^2 - (1-t)^4 by hand
        assert TWO_EDGES.numerator == (1, 0, -4, 4, -1)
        assert _checked_numerator(TWO_EDGES.numerator, 4, TWO_EDGES.r_min) == (1, 0, -4, 4, -1)

    def test_single_simplex(self):
        assert SIMPLEX4.numerator == (1, 0, 0, 0, 0)
        assert _checked_numerator(SIMPLEX4.numerator, 4, None) == (1,)

    def test_two_triangles(self):
        # 2(1-t) - (1-t)^2 over (1-t)^4
        assert TWO_TRIANGLES.numerator == (1, 0, -1, 0, 0)
        assert _checked_numerator(TWO_TRIANGLES.numerator, 4, TWO_TRIANGLES.r_min) == (1, 0, -1)

    def test_numerator_degree_identity(self, rng):
        for _ in range(150):
            c = complex_of(random_quasi_forest_facets(rng))
            rec = record_of(c)
            degree = max(i for i, p in enumerate(rec.numerator) if p)
            assert degree == (0 if rec.r_min is None else c.n - rec.r_min - 1)

    def test_agrees_with_fvector_path(self, rng):
        for _ in range(200):
            c = complex_of(random_quasi_forest_facets(rng, max_n=10))
            assert list(record_of(c).numerator) == _fvector_numerator(f_vector(c).counts, c.n)


class TestHilbertFromFVector:
    def test_simplex(self):
        c = SimplicialComplex.of(3, [[0, 1, 2]])
        assert _fvector_numerator(f_vector(c).counts, 3) == [1, 0, 0, 0]

    def test_hand_expanded_fvector(self):
        # (1-t)^4 + 4t(1-t)^3 + 2t^2(1-t)^2 expanded by hand
        c = SimplicialComplex.of(4, [[0, 1], [2, 3]])
        assert _fvector_numerator(f_vector(c).counts, 4) == [1, 0, -4, 4, -1]

    def test_single_vertex(self):
        c = SimplicialComplex.of(1, [[0]])
        assert _fvector_numerator(f_vector(c).counts, 1) == [1, 0]


class TestBettiFromNumerator:
    def test_c4_numerator(self):
        entries = strand(TWO_EDGES, 4)
        assert entries == {(1, 2): 4, (2, 3): 4, (3, 4): 1}
        assert BettiTable(entries).projective_dimension == 3 == TWO_EDGES.pd

    def test_single_missing_edge(self):
        assert strand(TWO_TRIANGLES, 4) == {(1, 2): 1}

    def test_polynomial_ring(self):
        table = BettiTable(strand(SIMPLEX4, 4))
        assert table.entries == {}
        assert table.projective_dimension == 0 == SIMPLEX4.pd
        assert table.beta(0, 0) == 1

    def test_t1_rejected(self):
        with pytest.raises(InternalInvariantError, match=r"^Hilbert numerator must start 1 \+ 0t$"):
            strand(TWO_EDGES._replace(numerator=(1, -1, -2, 4, -1)), 4)

    def test_sign_violation_rejected(self):
        rec = TWO_EDGES._replace(numerator=(1, 0, 2, 3, 1))
        with pytest.raises(InternalInvariantError, match="^negative Betti number; the numerator is not 2-linear$"):
            strand(rec, 4)

    def test_constant_term_rejected(self):
        with pytest.raises(InternalInvariantError, match=r"^Hilbert numerator must start 1 \+ 0t$"):
            strand(TWO_EDGES._replace(numerator=(2, 0, -4, 4, -1)), 4)


class TestNumericInvariants:
    def test_two_disjoint_edges(self):
        assert (TWO_EDGES.pd, TWO_EDGES.depth, TWO_EDGES.dim, TWO_EDGES.cm) == (3, 1, 2, False)

    def test_disjoint_simplices_pd(self):
        for r in range(2, 6):
            assert record_of(complex_of([range(r), range(r, 2 * r)])).pd == 2 * r - 1

    def test_single_simplex(self):
        assert (SIMPLEX4.pd, SIMPLEX4.depth, SIMPLEX4.dim, SIMPLEX4.cm) == (0, 4, 4, True)

    def test_two_triangles(self):
        assert (TWO_TRIANGLES.depth, TWO_TRIANGLES.dim, TWO_TRIANGLES.cm) == (3, 3, True)

    def test_auslander_buchsbaum(self, rng):
        for _ in range(200):
            c = complex_of(random_quasi_forest_facets(rng))
            rec = record_of(c)
            assert rec.pd + rec.depth == c.n
            assert rec.depth <= rec.dim
            assert rec.cm == (rec.depth == rec.dim)

    def test_flag_of_kn_dim(self):
        g = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        assert record_of(flag_complex(g)).dim == 5


def d_tree(rec):
    """The d-tree signature: the nonincreasing facet dimensions, or None."""
    return tuple(sorted(rec.dims, reverse=True)) if rec.d_tree else None


class TestDTreeSignature:
    def test_two_triangles(self):
        assert d_tree(TWO_TRIANGLES) == (2, 2)

    def test_disconnected_edges_none(self):
        assert d_tree(TWO_EDGES) is None

    def test_edge_path(self):
        assert d_tree(EDGE_PATH) == (1, 1, 1)

    def test_single_facet(self):
        assert d_tree(SIMPLEX4) == (3,)

    def test_isolated_vertex_plus_edge(self):
        assert d_tree(record_of(complex_of([[0], [1, 2]]))) == (1, 0)

    def test_all_isolated(self):
        assert d_tree(record_of(complex_of([[0], [1], [2]]))) == (0, 0, 0)

    def test_barbell_none(self):
        assert d_tree(record_of(complex_of([[0, 1, 2], [2, 3], [3, 4, 5]]))) is None

    def test_against_exhaustive_orderings(self, rng):
        """The closed form agrees with brute force over all one-vertex-step orders."""
        checked = 0
        for _ in range(250):
            facets = random_quasi_forest_facets(rng, max_n=8)
            if len(facets) > 6:
                continue
            c = complex_of(facets)
            expected = False
            for perm in permutations(c.facets):
                union = frozenset()
                ok = True
                for i, f in enumerate(perm):
                    if i:
                        inter = f & union
                        if len(inter) != len(f) - 1 or (
                            inter and not any(inter <= e for e in perm[:i])
                        ):
                            ok = False
                            break
                    union |= f
                if ok:
                    expected = True
                    break
            rec = record_of(c)
            assert rec.d_tree == expected
            assert sorted(rec.dims) == sorted(len(f) - 1 for f in c.facets)
            checked += 1
        assert checked > 150


class TestBettiTable:
    def test_beta_accessor(self):
        t = BettiTable({(1, 2): 3})
        assert t.beta(0, 0) == 1
        assert t.beta(1, 2) == 3
        assert t.beta(5, 6) == 0

    def test_zero_entries_dropped(self):
        assert BettiTable({(1, 2): 0}).entries == {}
