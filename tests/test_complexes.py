import pytest

from edgering.complexes import (
    NOT_FLAG,
    SKELETON_NOT_CHORDAL,
    SimplicialComplex,
    _quasi_forest_masks,
    f_vector,
    flag_complex,
    one_skeleton,
    parse_complex,
    reduced_homology_ranks,
    restrict,
)
from edgering.errors import ContractViolationError, MalformedInputError, UnsupportedSizeError
from edgering.graphs import Graph, complement
from conftest import brute_is_quasi_forest, format_fixture, random_graph, random_quasi_forest_facets


C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
HOLLOW_TRIANGLE = SimplicialComplex.of(3, [[0, 1], [1, 2], [0, 2]])


def kgraph(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestConstruction:
    def test_non_maximal_dropped(self):
        c = SimplicialComplex.of(3, [[0, 1, 2], [0, 1], [2]])
        assert c.facets == (frozenset({0, 1, 2}),)

    def test_uncovered_vertex_rejected(self):
        with pytest.raises(MalformedInputError):
            SimplicialComplex.of(3, [[0, 1]])

    def test_empty_complex(self):
        c = SimplicialComplex.of(0, [])
        assert c.n == 0 and c.facets == () and c.dim == -1

    def test_empty_facet_rejected(self):
        with pytest.raises(MalformedInputError):
            SimplicialComplex.of(1, [[0], []])


class TestFlagComplex:
    def test_two_disjoint_edges(self):
        c = flag_complex(complement(C4))
        assert c.facet_lists() == [[0, 2], [1, 3]]

    def test_complete(self):
        assert flag_complex(kgraph(5)).facet_lists() == [[0, 1, 2, 3, 4]]

    def test_c5_triangle_free(self):
        c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        c = flag_complex(c5)
        assert len(c.facets) == 5 and all(len(f) == 2 for f in c.facets)

    def test_isolated_vertices_become_singletons(self):
        c = flag_complex(Graph(3, (0, 0, 0)))
        assert c.facet_lists() == [[0], [1], [2]]


class TestOneSkeleton:
    def test_triangle(self):
        assert one_skeleton(SimplicialComplex.of(3, [[0, 1, 2]])) == kgraph(3)

    def test_edge_plus_isolated(self):
        g = one_skeleton(SimplicialComplex.of(3, [[0, 1], [2]]))
        assert list(g.edges()) == [(0, 1)] and g.n == 3

    def test_inverse_of_flag(self, rng):
        for n in range(1, 8):
            for _ in range(40):
                g = random_graph(rng, n)
                assert one_skeleton(flag_complex(g)) == g

    def test_flag_of_skeleton_identity_iff_flag(self):
        # flag complexes are fixed; the hollow triangle is not
        c = flag_complex(complement(C4))
        assert flag_complex(one_skeleton(c)).facets == c.facets
        assert flag_complex(one_skeleton(HOLLOW_TRIANGLE)).facets != HOLLOW_TRIANGLE.facets


class TestRestrict:
    def test_to_empty(self):
        c = restrict(flag_complex(kgraph(4)), [])
        assert c.n == 0 and c.facets == ()

    def test_simplex_face(self):
        c = restrict(flag_complex(kgraph(4)), [0, 1])
        assert c.facet_lists() == [[0, 1]]

    def test_labels_kept(self):
        c = restrict(SimplicialComplex.of(4, [[0, 1], [2, 3]]), [0, 2])
        assert c.facet_lists() == [[0], [2]]
        assert c.vertices == (0, 2)

    def test_outside_ground_set(self):
        with pytest.raises(ContractViolationError):
            restrict(HOLLOW_TRIANGLE, [0, 5])

    def test_faces_are_exactly_contained_faces(self, rng):
        for _ in range(30):
            g = random_graph(rng, 6)
            c = flag_complex(g)
            w = [v for v in range(6) if rng.random() < 0.5]
            sub = restrict(c, w)
            # each restricted facet is a face of c inside w, and maximal such
            for f in sub.facets:
                assert f <= set(w)
                assert any(f <= big for big in c.facets)


class TestFVector:
    def test_simplex(self):
        assert f_vector(SimplicialComplex.of(3, [[0, 1, 2]])) == (1, 3, 3, 1)

    def test_two_disjoint_edges(self):
        assert f_vector(SimplicialComplex.of(4, [[0, 1], [2, 3]])) == (1, 4, 2)

    def test_flag_c5(self):
        c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert f_vector(flag_complex(c5)) == (1, 5, 5)

    def test_guard(self):
        big = SimplicialComplex.of(26, [[v] for v in range(26)])
        with pytest.raises(UnsupportedSizeError):
            f_vector(big)


class TestHomology:
    def test_simplex_acyclic(self):
        ranks = reduced_homology_ranks(SimplicialComplex.of(4, [[0, 1, 2, 3]]))
        assert all(v == 0 for v in ranks.values())

    def test_two_components(self):
        ranks = reduced_homology_ranks(SimplicialComplex.of(4, [[0, 1], [2, 3]]))
        assert ranks == {-1: 0, 0: 1, 1: 0}

    def test_circle(self):
        assert reduced_homology_ranks(HOLLOW_TRIANGLE) == {-1: 0, 0: 0, 1: 1}

    def test_sphere(self):
        hollow_tetra = SimplicialComplex.of(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
        assert reduced_homology_ranks(hollow_tetra) == {-1: 0, 0: 0, 1: 0, 2: 1}

    def test_empty_complex_convention(self):
        assert reduced_homology_ranks(SimplicialComplex.of(0, [])) == {-1: 1}

    def test_cones_are_acyclic(self, rng):
        # any complex with a vertex in every facet
        for _ in range(60):
            base = random_quasi_forest_facets(rng, max_n=7)
            apex = 99
            cone = SimplicialComplex.of(
                sorted(set().union(*base) | {apex}), [sorted(f | {apex}) for f in base]
            )
            assert all(v == 0 for v in reduced_homology_ranks(cone).values())

    def test_euler_poincare_external(self, rng):
        for _ in range(80):
            g = random_graph(rng, 6)
            c = flag_complex(g)
            fv = f_vector(c)
            ranks = reduced_homology_ranks(c)
            faces_sum = sum((-1) ** (s - 1) * ct for s, ct in enumerate(fv))
            ranks_sum = sum((-1) ** d * h for d, h in ranks.items())
            assert faces_sum == ranks_sum


class TestAsQuasiForest:
    """Complex recognition, `_quasi_forest_masks`: facet masks over positions
    in the ground set, or the reason and chordless cycle that rule it out."""

    def test_two_disjoint_edges_complex(self):
        facets, reason, cycle = _quasi_forest_masks(SimplicialComplex.of(4, [[0, 1], [2, 3]]))
        assert facets == [0b0011, 0b1100] and reason is None and cycle is None

    def test_hollow_triangle_not_flag(self):
        assert _quasi_forest_masks(HOLLOW_TRIANGLE) == (None, NOT_FLAG, None)

    def test_non_chordal_skeleton(self):
        c = SimplicialComplex.of(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        assert _quasi_forest_masks(c) == (None, SKELETON_NOT_CHORDAL, (0, 1, 2, 3))

    def test_flag_complexes_of_chordal_graphs(self, rng):
        from edgering.chordal import Chordal, is_chordal

        hits = 0
        for _ in range(300):
            g = random_graph(rng, 7)
            facets, reason, _ = _quasi_forest_masks(flag_complex(g))
            if isinstance(is_chordal(g), Chordal):
                assert facets is not None
                hits += 1
            else:
                assert facets is None and reason == SKELETON_NOT_CHORDAL
        assert hits > 20

    def test_against_exhaustive_ordering_search(self, rng):
        """Recognition agrees with brute force over all facet orders."""
        corpora = []
        for _ in range(120):
            corpora.append(random_quasi_forest_facets(rng, max_n=7))
        # non-quasi-forests: random antichains
        for _ in range(200):
            n = rng.randint(3, 7)
            cand = {frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 5))}
            maximal = [f for f in cand if not any(f < g for g in cand)]
            corpora.append(maximal)
        checked = 0
        for facets in corpora:
            if len(facets) > 6:
                continue
            verts = sorted(set().union(*facets))
            c = SimplicialComplex(tuple(verts), tuple(facets))
            got = _quasi_forest_masks(c)[0] is not None
            assert got == brute_is_quasi_forest(facets)
            checked += 1
        assert checked > 250

    def test_restricted_labels(self):
        # masks are over positions in the ground set (0, 1, 2, 4), and a
        # chordless cycle is reported in its labels
        c = restrict(SimplicialComplex.of(5, [[0, 1, 2], [2, 3], [4]]), [0, 1, 2, 4])
        assert set(_quasi_forest_masks(c)[0]) == {0b0111, 0b1000}
        gapped = SimplicialComplex.of([0, 2, 4, 6], [[0, 2], [2, 4], [4, 6], [0, 6]])
        assert _quasi_forest_masks(gapped)[1:] == (SKELETON_NOT_CHORDAL, (0, 2, 4, 6))


class TestFixtureFormat:
    def test_round_trip(self):
        c = SimplicialComplex.of(4, [[0, 1, 2], [2, 3]])
        assert parse_complex(format_fixture(c)).facets == c.facets

    def test_parse(self):
        c = parse_complex("3\n0 1\n1 2\n0 2\n")
        assert c.facets == HOLLOW_TRIANGLE.facets

    def test_bad_vertex(self):
        with pytest.raises(MalformedInputError):
            parse_complex("2\n0 5\n")

    def test_bad_header(self):
        with pytest.raises(MalformedInputError):
            parse_complex("x\n0 1\n")

    # int() alone takes other Unicode digits, '+' and '_' separators too
    @pytest.mark.parametrize("header", ["\uff12", "\u0662", "0_2", "+2"])
    def test_non_decimal_header(self, header):
        with pytest.raises(MalformedInputError, match="^first line must be the vertex count"):
            parse_complex(f"{header}\n0 1\n")

    @pytest.mark.parametrize("token", ["x", "\uff11", "\u0661", "0_1", "+1"])
    def test_non_decimal_vertex(self, token):
        with pytest.raises(MalformedInputError, match="^non-integer vertex in facet line"):
            parse_complex(f"2\n0 {token}\n")

    def test_negative_count(self):
        with pytest.raises(MalformedInputError, match="^negative vertex count -2$"):
            parse_complex("-2\n0 1\n")

    def test_uncovered(self):
        with pytest.raises(MalformedInputError):
            parse_complex("3\n0 1\n")
