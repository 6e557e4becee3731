import pytest

from edgering.chordal import (
    Chordal,
    NotChordal,
    QuasiForestDecomposition,
    clique_tree,
    decompose,
    is_chordal,
    maximal_cliques_chordal,
    quasi_forest_order,
)
from edgering.errors import ContractViolationError, UndefinedInputError
from edgering.graphs import Graph, complement, enumerate_labeled
from conftest import (
    brute_is_chordal,
    check_chordless_cycle,
    check_peo,
    random_graph,
    random_quasi_forest_facets,
)


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


class TestMaximalCliques:
    def test_two_disjoint_edges(self):
        g = complement(C4)
        res = is_chordal(g)
        assert maximal_cliques_chordal(g, res.peo) == [frozenset({0, 2}), frozenset({1, 3})]

    def test_complete(self):
        g = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert maximal_cliques_chordal(g, is_chordal(g).peo) == [frozenset({0, 1, 2, 3})]

    def test_path(self):
        assert maximal_cliques_chordal(PATH3, is_chordal(PATH3).peo) == [
            frozenset({0, 1}),
            frozenset({1, 2}),
        ]

    def test_invalid_peo_rejected(self):
        # eliminating the cut vertex 2 first leaves non-adjacent later neighbors 0 and 3
        g = barbell3()
        with pytest.raises(ContractViolationError):
            maximal_cliques_chordal(g, (2, 0, 1, 3, 4, 5))
        with pytest.raises(ContractViolationError):
            maximal_cliques_chordal(g, (0, 1, 2))

    def test_count_at_most_n(self, rng):
        for _ in range(200):
            g = random_graph(rng, 9)
            res = is_chordal(g)
            if isinstance(res, Chordal):
                cliques = maximal_cliques_chordal(g, res.peo)
                assert len(cliques) <= g.n
                cover = set().union(*cliques)
                assert cover == set(range(g.n))


class TestCliqueTree:
    def test_shared_edge(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        cliques = maximal_cliques_chordal(g, is_chordal(g).peo)
        tree = clique_tree(cliques, g)
        assert tree.edges == ((0, 1),)
        assert len(tree.cliques[0] & tree.cliques[1]) == 2

    def test_disjoint_facets_forest(self):
        g = complement(C4)
        tree = clique_tree(maximal_cliques_chordal(g, is_chordal(g).peo), g)
        assert tree.edges == ()

    def test_barbell_path(self):
        # hand enumeration: weights {0,1,2}-{2,3}=1, {2,3}-{3,4,5}=1, {0,1,2}-{3,4,5}=0,
        # so the only max-weight spanning tree is the path through {2,3}
        g = barbell3()
        tree = clique_tree(maximal_cliques_chordal(g, is_chordal(g).peo), g)
        assert tree.cliques == (frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({3, 4, 5}))
        assert tree.edges == ((0, 1), (1, 2))

    def test_non_chordal_rejected(self):
        with pytest.raises(ContractViolationError):
            clique_tree([frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({0, 3})], C4)

    def test_running_intersection_random(self, rng):
        for _ in range(200):
            g = random_graph(rng, 8)
            res = is_chordal(g)
            if isinstance(res, NotChordal):
                continue
            tree = clique_tree(maximal_cliques_chordal(g, res.peo), g)
            # RIP checked set-wise here, independently of the library's checker
            for v in range(g.n):
                holders = {i for i, c in enumerate(tree.cliques) if v in c}
                if not holders:
                    continue
                reached = {min(holders)}
                frontier = [min(holders)]
                while frontier:
                    a = frontier.pop()
                    for x, y in tree.edges:
                        for s, t in ((x, y), (y, x)):
                            if s == a and t in holders and t not in reached:
                                reached.add(t)
                                frontier.append(t)
                assert reached == holders


class TestQuasiForestOrder:
    def test_two_disjoint_edges_order(self):
        g = complement(C4)
        qfd = quasi_forest_order(clique_tree(maximal_cliques_chordal(g, is_chordal(g).peo), g))
        assert qfd.facets == (frozenset({0, 2}), frozenset({1, 3}))
        assert qfd.dims == (1, 1)
        assert qfd.attach_dims == (-1,)
        assert qfd.r_min == -1

    def test_two_triangles(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        qfd = quasi_forest_order(clique_tree(maximal_cliques_chordal(g, is_chordal(g).peo), g))
        assert qfd.dims == (2, 2)
        assert qfd.attach_dims == (1,)

    def test_single_clique(self):
        g = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        qfd = quasi_forest_order(clique_tree(maximal_cliques_chordal(g, is_chordal(g).peo), g))
        assert qfd.k == 1
        assert qfd.dims == (3,)
        assert qfd.attach_dims == ()
        assert qfd.r_min is None

    def test_vertex_count_identity_random(self, rng):
        for _ in range(300):
            g = random_graph(rng, 9)
            res = is_chordal(g)
            if isinstance(res, NotChordal):
                continue
            qfd = quasi_forest_order(clique_tree(maximal_cliques_chordal(g, res.peo), g))
            assert sum(d + 1 for d in qfd.dims) - sum(r + 1 for r in qfd.attach_dims) == g.n

    def test_r_min_root_invariance(self, rng):
        checked = 0
        for _ in range(400):
            g = random_graph(rng, 8)
            res = is_chordal(g)
            if isinstance(res, NotChordal):
                continue
            tree = clique_tree(maximal_cliques_chordal(g, res.peo), g)
            base = quasi_forest_order(tree)
            if base.k < 2:
                continue
            comps = _components(tree)
            for ci, comp in enumerate(comps):
                for root in comp:
                    alt = quasi_forest_order(tree, roots={ci: root})
                    assert alt.r_min == base.r_min
                    checked += 1
        assert checked > 100

    def test_invalid_root_rejected(self):
        g = barbell3()
        tree = clique_tree(maximal_cliques_chordal(g, is_chordal(g).peo), g)
        with pytest.raises(ContractViolationError):
            quasi_forest_order(tree, roots={0: 99})


class TestDecompose:
    def test_matches_validated_public_chain(self, rng):
        graphs = [g for n in range(1, 5) for g in enumerate_labeled(n)]
        graphs += [random_graph(rng, 6) for _ in range(150)]
        for _ in range(150):
            # chordal: the 1-skeleton of a randomly relabelled quasi-forest
            facets = random_quasi_forest_facets(rng, max_n=14)
            n = len(set().union(*facets))
            label = rng.sample(range(n), n)
            edges = [(label[u], label[v]) for f in facets for u in f for v in f if u < v]
            graphs.append(Graph.from_edges(n, edges))
        for g in graphs:
            res, qfd = decompose(g)
            assert res == is_chordal(g)
            if isinstance(res, NotChordal):
                assert qfd is None
            else:
                cliques = maximal_cliques_chordal(g, res.peo)
                assert qfd == quasi_forest_order(clique_tree(cliques, g))

    def test_empty_graph_rejected(self):
        with pytest.raises(UndefinedInputError):
            decompose(Graph(0, ()))


def _components(tree):
    k = len(tree.cliques)
    adj = {i: [] for i in range(k)}
    for a, b in tree.edges:
        adj[a].append(b)
        adj[b].append(a)
    comps, seen = [], set()
    for i in range(k):
        if i in seen:
            continue
        comp, stack = [i], [i]
        seen.add(i)
        while stack:
            a = stack.pop()
            for b in adj[a]:
                if b not in seen:
                    seen.add(b)
                    comp.append(b)
                    stack.append(b)
        comps.append(sorted(comp))
    comps.sort(key=lambda c: min(min(tree.cliques[i]) for i in c))
    return comps


class TestDecompositionValidation:
    def test_rejects_nested_facets(self):
        with pytest.raises(ContractViolationError):
            QuasiForestDecomposition(
                facets=(frozenset({0, 1, 2}), frozenset({0, 1})),
                dims=(2, 1),
                attach_dims=(1,),
                n=3,
            )

    def test_rejects_bad_attachment(self):
        # attachment {0, 2} is not contained in any single earlier facet
        with pytest.raises(ContractViolationError):
            QuasiForestDecomposition(
                facets=(frozenset({0, 1}), frozenset({2, 3}), frozenset({0, 2, 4})),
                dims=(1, 1, 2),
                attach_dims=(-1, 1),
                n=5,
            )
