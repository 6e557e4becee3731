import pytest

from edgering.chordal import QuasiForestDecomposition
from edgering.complexes import SimplicialComplex, as_quasi_forest, f_vector, flag_complex
from edgering.errors import NotTwoLinearError
from edgering.graphs import Graph, complement
from edgering.invariants import (
    BettiTable,
    HilbertSeries,
    betti_from_numerator,
    d_tree_signature,
    depth,
    hilbert_from_decomposition,
    hilbert_from_fvector,
    is_cm,
    krull_dim,
    projective_dimension,
)
from conftest import random_quasi_forest_facets


def qfd_of(facets):
    verts = sorted(set().union(*[frozenset(f) for f in facets]))
    res = as_quasi_forest(SimplicialComplex(tuple(verts), tuple(frozenset(f) for f in facets)))
    assert res.decomposition is not None
    return res.decomposition


TWO_EDGES = qfd_of([[0, 1], [2, 3]])          # the 4-cycle's complement complex
TWO_TRIANGLES = qfd_of([[0, 1, 2], [1, 2, 3]])
SIMPLEX4 = qfd_of([[0, 1, 2, 3]])
EDGE_PATH = qfd_of([[0, 1], [1, 2], [2, 3]])


class TestHilbertFromDecomposition:
    def test_two_disjoint_edges(self):
        # 2/(1-t)^2 - 1 over (1-t)^4: expand 2(1-t)^2 - (1-t)^4 by hand
        h = hilbert_from_decomposition(TWO_EDGES)
        assert h.numerator == (1, 0, -4, 4, -1)
        assert h.denom_power == 4

    def test_single_simplex(self):
        h = hilbert_from_decomposition(SIMPLEX4)
        assert h.numerator == (1,) and h.denom_power == 4
        assert h.reduced() == ((1,), 4)

    def test_two_triangles(self):
        # 2(1-t) - (1-t)^2 over (1-t)^4
        assert hilbert_from_decomposition(TWO_TRIANGLES).numerator == (1, 0, -1)

    def test_numerator_degree_identity(self, rng):
        for _ in range(150):
            qfd = qfd_of(random_quasi_forest_facets(rng))
            h = hilbert_from_decomposition(qfd)
            if qfd.k >= 2:
                assert h.degree == qfd.n - qfd.r_min - 1

    def test_agrees_with_fvector_path(self, rng):
        for _ in range(200):
            facets = random_quasi_forest_facets(rng, max_n=10)
            verts = sorted(set().union(*facets))
            relabel = {v: i for i, v in enumerate(verts)}
            c = SimplicialComplex.of(len(verts), [[relabel[v] for v in f] for f in facets])
            qfd = as_quasi_forest(c).decomposition
            assert qfd is not None
            assert hilbert_from_decomposition(qfd) == hilbert_from_fvector(f_vector(c), c.n)


class TestHilbertFromFVector:
    def test_simplex(self):
        c = SimplicialComplex.of(3, [[0, 1, 2]])
        h = hilbert_from_fvector(f_vector(c), 3)
        assert h.numerator == (1,) and h.denom_power == 3

    def test_hand_expanded_fvector(self):
        # (1-t)^4 + 4t(1-t)^3 + 2t^2(1-t)^2 expanded by hand
        c = SimplicialComplex.of(4, [[0, 1], [2, 3]])
        assert hilbert_from_fvector(f_vector(c), 4).numerator == (1, 0, -4, 4, -1)

    def test_single_vertex(self):
        c = SimplicialComplex.of(1, [[0]])
        h = hilbert_from_fvector(f_vector(c), 1)
        assert h.numerator == (1,) and h.denom_power == 1


class TestBettiFromNumerator:
    def test_c4_numerator(self):
        table = betti_from_numerator(HilbertSeries((1, 0, -4, 4, -1), 4))
        assert table.entries == {(1, 2): 4, (2, 3): 4, (3, 4): 1}
        assert table.projective_dimension == 3

    def test_single_missing_edge(self):
        table = betti_from_numerator(HilbertSeries((1, 0, -1), 4))
        assert table.entries == {(1, 2): 1}

    def test_polynomial_ring(self):
        table = betti_from_numerator(HilbertSeries((1,), 4))
        assert table.entries == {}
        assert table.projective_dimension == 0
        assert table.beta(0, 0) == 1

    def test_t1_rejected(self):
        with pytest.raises(NotTwoLinearError):
            betti_from_numerator(HilbertSeries((1, -1), 2))

    def test_sign_violation_rejected(self):
        with pytest.raises(NotTwoLinearError):
            betti_from_numerator(HilbertSeries((1, 0, 2, 3), 4))

    def test_constant_term_rejected(self):
        with pytest.raises(NotTwoLinearError):
            betti_from_numerator(HilbertSeries((2, 0, -1), 3))


class TestNumericInvariants:
    def test_two_disjoint_edges(self):
        assert projective_dimension(TWO_EDGES) == 3
        assert depth(TWO_EDGES) == 1
        assert krull_dim(TWO_EDGES) == 2
        assert is_cm(TWO_EDGES) is False

    def test_disjoint_simplices_pd(self):
        for r in range(2, 6):
            qfd = qfd_of([list(range(r)), list(range(r, 2 * r))])
            assert projective_dimension(qfd) == 2 * r - 1

    def test_single_simplex(self):
        assert projective_dimension(SIMPLEX4) == 0
        assert depth(SIMPLEX4) == 4
        assert krull_dim(SIMPLEX4) == 4
        assert is_cm(SIMPLEX4) is True

    def test_two_triangles(self):
        assert depth(TWO_TRIANGLES) == 3
        assert krull_dim(TWO_TRIANGLES) == 3
        assert is_cm(TWO_TRIANGLES) is True

    def test_auslander_buchsbaum(self, rng):
        for _ in range(200):
            qfd = qfd_of(random_quasi_forest_facets(rng))
            assert projective_dimension(qfd) + depth(qfd) == qfd.n
            assert depth(qfd) <= krull_dim(qfd)

    def test_flag_of_kn_dim(self):
        g = Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
        qfd = as_quasi_forest(flag_complex(g)).decomposition
        assert krull_dim(qfd) == 5


class TestDTreeSignature:
    def test_two_triangles(self):
        assert d_tree_signature(TWO_TRIANGLES) == (2, 2)

    def test_disconnected_edges_none(self):
        assert d_tree_signature(TWO_EDGES) is None

    def test_edge_path(self):
        assert d_tree_signature(EDGE_PATH) == (1, 1, 1)

    def test_single_facet(self):
        assert d_tree_signature(SIMPLEX4) == (3,)

    def test_isolated_vertex_plus_edge(self):
        assert d_tree_signature(qfd_of([[0], [1, 2]])) == (1, 0)

    def test_all_isolated(self):
        assert d_tree_signature(qfd_of([[0], [1], [2]])) == (0, 0, 0)

    def test_barbell_none(self):
        assert d_tree_signature(qfd_of([[0, 1, 2], [2, 3], [3, 4, 5]])) is None

    def test_against_exhaustive_orderings(self, rng):
        """The closed form agrees with brute force over all one-vertex-step orders."""
        from itertools import permutations

        checked = 0
        for _ in range(250):
            facets = random_quasi_forest_facets(rng, max_n=8)
            if len(facets) > 6:
                continue
            qfd = qfd_of([sorted(f) for f in facets])
            expected = False
            for perm in permutations(qfd.facets):
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
            got = d_tree_signature(qfd)
            assert (got is not None) == expected
            if got is not None:
                assert got == tuple(sorted(qfd.dims, reverse=True))
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


class TestHilbertSeries:
    def test_reduction_for_display(self):
        # (1 - t^2)/(1-t)^4 = (1 + t)/(1-t)^3
        assert HilbertSeries((1, 0, -1), 4).reduced() == ((1, 1), 3)

    def test_equality_on_canonical_form(self):
        assert HilbertSeries((1, 0, -1), 4) != HilbertSeries((1, 1), 3)
        assert HilbertSeries((1, 0, -1, 0), 4) == HilbertSeries((1, 0, -1), 4)
