import builtins
import random
from itertools import combinations
from math import comb

import pytest

from edgering import oracle
from edgering.complexes import (
    SimplicialComplex,
    _maximal_clique_masks,
    _quasi_forest_masks,
    flag_complex,
    reduced_homology_ranks,
    restrict,
)
from edgering.errors import ContractViolationError, UnsupportedSizeError
from edgering.conjecture import checked_strand, formulas
from edgering.graphs import Graph, bits, complement, max_degree, to_graph6
from edgering.oracle import hochster_betti, oracle_is_2linear, oracle_pd
from conftest import (
    ACYCLIC_LINK_H,
    assert_exact_calls_hold_cores,
    induced,
    random_graph,
    ref_hochster_masks,
    restriction_sum,
)


C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def seeded_gnp(seed: str, n: int, p: float) -> Graph:
    """G(n, p) on 0..n-1, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


NOT_FLAG = "^the oracle takes flag complexes only$"


class TestHochsterKnownTables:
    def test_c4_stanley_reisner(self):
        table = hochster_betti(SimplicialComplex.of(4, [[0, 1], [2, 3]]))
        assert table.entries == {(1, 2): 4, (2, 3): 4, (3, 4): 1}
        assert oracle_pd(table) == 3
        assert table.subsets_examined == 16

    def test_full_simplex(self):
        table = hochster_betti(SimplicialComplex.of(4, [[0, 1, 2, 3]]))
        assert table.entries == {}
        assert oracle_pd(table) == 0
        assert table.beta(0, 0) == 1

    def test_one_missing_edge(self):
        # K4 minus the edge {0,1}: the principal ideal on one quadric
        table = hochster_betti(SimplicialComplex.of(4, [[0, 2, 3], [1, 2, 3]]))
        assert table.entries == {(1, 2): 1}

    def test_hollow_triangle_cubic(self):
        # not flag: the oracle refuses it, and the reference finds the cubic
        c = SimplicialComplex.of(3, [[0, 1], [1, 2], [0, 2]])
        assert ref_hochster_masks(3, [0b011, 0b110, 0b101]) == restriction_sum(c) == {(1, 3): 1}
        with pytest.raises(ContractViolationError, match=NOT_FLAG):
            hochster_betti(c)

    def test_empty_complex(self):
        table = hochster_betti(SimplicialComplex.of(0, []))
        assert table.entries == {} and oracle_pd(table) == 0

    @pytest.mark.parametrize("n, k", [(5, 2), (6, 3), (7, 3), (8, 4), (9, 4), (10, 4), (10, 5)])
    def test_all_k_subsets(self, n, k):
        # the complex of all k-subsets of n vertices is not flag for 2 <= k < n;
        # its Stanley-Reisner ideal, the squarefree Veronese ideal of degree
        # k + 1, has a linear resolution: beta_(i,i+k) = C(k+i-1, k) C(n, k+i)
        c = SimplicialComplex.of(n, combinations(range(n), k))
        expected = {(i, i + k): comb(k + i - 1, k) * comb(n, k + i) for i in range(1, n - k + 1)}
        assert ref_hochster_masks(n, [sum(1 << v for v in f) for f in combinations(range(n), k)]) == expected
        with pytest.raises(ContractViolationError, match=NOT_FLAG):
            hochster_betti(c)


class TestTwoLinearDetection:
    def test_c4_complex_is_2linear(self):
        assert oracle_is_2linear(hochster_betti(SimplicialComplex.of(4, [[0, 1], [2, 3]])))

    def test_flag_c5_not_2linear(self):
        c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert not oracle_is_2linear(hochster_betti(flag_complex(c5)))


def formula_strand(g, cx):
    """The Betti strand of the formulas on the quasi-forest cx, the flag
    complex of the complement of g, or None when cx is not one."""
    facets = _quasi_forest_masks(cx)[0]
    if facets is None:
        return None
    md = max_degree(g)
    return checked_strand(formulas(g.n, facets, md), g.n, md, to_graph6(g))[1]


class TestOracleVsFormula:
    def test_c4_match_both_paths(self):
        cx = flag_complex(complement(C4))
        table = hochster_betti(cx)
        assert formula_strand(C4, cx) == table.entries
        assert oracle_pd(table) == 3

    def test_random_chordal_complements(self, rng):
        hits = 0
        for _ in range(60):
            g = random_graph(rng, 6)
            cx = flag_complex(complement(g))
            formula = formula_strand(g, cx)
            if formula is None:
                continue
            assert formula == hochster_betti(cx).entries
            hits += 1
        assert hits > 10


class TestMemoization:
    """Which subsets reach the exact-homology fallback of the graph kernel,
    the path that once went through a memo keyed by the relabelled
    restriction; the kernel now keeps no state between calls."""

    def test_relabelled_complex_hits_memo(self, exact_calls):
        # a copy of the complex on gapped labels gets the same table; the
        # flag complex of two disjoint 4-cycles runs exact homology on its
        # whole vertex set and nothing else, in either labelling
        square = [[0, 1], [1, 2], [2, 3], [0, 3]]
        c = SimplicialComplex.of(8, square + [[u + 4, v + 4] for u, v in square])
        first = hochster_betti(c)
        labels = [3, 8, 9, 20, 21, 30, 31, 40]
        relabelled = SimplicialComplex.of(labels, [[labels[v] for v in f] for f in c.facet_lists()])
        assert hochster_betti(relabelled).entries == first.entries
        assert exact_calls == [(0b11111111, {0: 1, 1: 2})] * 2

    @pytest.mark.parametrize(
        "facets",
        [[[0, 1]], [[0, 1], [1, 2]], [[0, 1], [2, 3]], [[0, 1, 2], [2, 3], [3, 4, 5], [5, 0]]],
    )
    def test_core_keys_mutually_dominating(self, exact_calls, facets):
        # 0 and 1 lie in the same facets and dominate each other: deleting both
        # at once would turn the edge [[0, 1]] into the empty complex (rank
        # H~_-1 = 1) and the two edges [[0, 1], [2, 3]] into one edge (H~_0 = 0)
        c = SimplicialComplex.of(1 + max(map(max, facets)), facets)
        assert hochster_betti(c).entries == restriction_sum(c)
        # every complex here is flag, so the graph kernel runs on its skeleton
        assert_exact_calls_hold_cores(oracle._flag_skeleton(c), exact_calls)

    @pytest.mark.parametrize(
        "h",
        [
            # the complement of a perfect matching: its flag complex is the
            # boundary of the cross-polytope, whose restrictions to unions of
            # pairs are spheres; W - v is then a cone, and W takes the link's
            # ranks one dimension up
            complement(Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])),
            # chordal: a connected H[W] has a simplicial vertex, whose link is
            # a simplex, and a disconnected one is points or has such a vertex
            Graph.from_edges(8, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (6, 7)]),
        ],
        ids=["cross-polytope", "chordal"],
    )
    def test_no_subset_is_keyed(self, exact_calls, h):
        # the loop seeds the empty subset, so no step runs exact homology on it
        table = oracle._hochster_graph(h.n, h.rows)
        assert not exact_calls
        assert table.entries == ref_hochster_masks(h.n, _maximal_clique_masks(h.n, h.rows))

    def test_disjoint_cycles_are_keyed(self, exact_calls):
        # H = two disjoint 4-cycles: every link is two points and every W - v
        # is a path and a 4-cycle, both with homology in dimension 0, so the
        # Mayer-Vietoris rule fits at no vertex and the whole set takes the
        # exact-homology path; every proper subset is settled without it
        h = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
        table = oracle._hochster_graph(h.n, h.rows)
        assert exact_calls == [(0b11111111, {0: 1, 1: 2})]
        assert_exact_calls_hold_cores(h, exact_calls)
        assert table.entries == ref_hochster_masks(h.n, _maximal_clique_masks(h.n, h.rows))

    def test_seeded_n12_graphs_build_no_key(self, exact_calls):
        # two seeded G(12, p) at each density of the n = 12 benchmark graphs;
        # with only the link rule, the acyclic W - v and the isolated v, the
        # eight cold calls once built 119 memo keys for exact homology
        for p in (0.25, 0.3, 0.35, 0.4):
            for i in range(2):
                h = seeded_gnp(f"no key {p} {i}", 12, p)
                table = oracle._hochster_graph(12, h.rows)
                assert not exact_calls
                assert table.entries == ref_hochster_masks(12, _maximal_clique_masks(12, h.rows))

    def test_acyclic_link_without_domination_is_not_keyed(self, exact_calls):
        # no vertex of H is dominated, so a domination search leaves all of
        # 0..6 to exact homology; the link of vertex 4 is acyclic, so the
        # link rule reuses the result for W - 4 instead, and no subset at all
        # runs exact homology
        h = ACYCLIC_LINK_H
        closed = [row | 1 << v for v, row in enumerate(h.rows)]
        assert not any(u != v and closed[v] & ~closed[u] == 0 for u in range(7) for v in range(7))
        assert not any(reduced_homology_ranks(flag_complex(induced(h, h.neighbors(4)))).values())
        table = oracle._hochster_graph(7, h.rows)
        assert not exact_calls
        assert table.entries == ref_hochster_masks(7, _maximal_clique_masks(7, h.rows))

    def test_size_cap(self):
        # 18 vertices, here for a simplex; below the cap a complex that is
        # not flag, here the hollow triangle and isolated vertices, is refused
        assert hochster_betti(SimplicialComplex.of(18, [range(18)])).entries == {}
        with pytest.raises(UnsupportedSizeError, match="^oracle capped at 18 vertices, got 19$"):
            hochster_betti(SimplicialComplex.of(19, [range(19)]))
        hollow = [[0, 1], [1, 2], [0, 2]]
        with pytest.raises(ContractViolationError, match=NOT_FLAG):
            hochster_betti(SimplicialComplex.of(15, hollow + [[v] for v in range(3, 15)]))


def checked_step(monkeypatch, name: str, c: SimplicialComplex) -> set[int]:
    """Patch the kernel step `name` to hold the subset loop to its contract
    on the complex c: the step is called at most once per nonempty w, and
    every proper subset u of w has its result in `at_subset` by then (the
    nonzero ranks of the restriction to u, or None when it is Q-acyclic).
    Returns the set of w the step was called for."""
    expected = []
    for w in range(1 << c.n):
        ranks = reduced_homology_ranks(restrict(c, [v for i, v in enumerate(c.vertices) if w >> i & 1]))
        expected.append({dim: h for dim, h in ranks.items() if h} or None)
    step = getattr(oracle, name)
    called = set()

    def checked(data, w, at_subset):
        assert w and w not in called, f"step called again for {w:b}"
        called.add(w)
        u = w
        while u:
            u = (u - 1) & w  # the proper subsets of w, down to the empty set
            assert at_subset[u] == expected[u], f"{u:b} not settled before {w:b}"
        return step(data, w, at_subset)

    monkeypatch.setattr(oracle, name, checked)
    return called


LOOP_CONTRACT_SIZES = range(1, 11)
# graphs on 0..4 in which vertex 0 is isolated, each with whether the whole
# vertex set reaches the step
WHOLE_SET_STEP_GRAPHS = [
    (Graph(5, (0,) * 5), True),
    (Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (1, 4)]), True),
    (Graph.from_edges(5, [(1, 2), (3, 4)]), False),
]
LOOP_CONTRACT_DENSITIES = [0.25, 0.5, 0.75]


class TestLoopContract:
    @pytest.mark.parametrize("n", LOOP_CONTRACT_SIZES)
    @pytest.mark.parametrize("p", LOOP_CONTRACT_DENSITIES)
    def test_graph_kernel(self, monkeypatch, n, p):
        h = seeded_gnp(f"loop contract {n} {p}", n, p)
        checked_step(monkeypatch, "_graph_step", flag_complex(h))
        table = oracle._hochster_graph(n, h.rows)
        assert table.entries == ref_hochster_masks(n, _maximal_clique_masks(n, h.rows))

    def test_step_sees_no_acyclic_link(self, monkeypatch):
        # the loop tries the link rule at every vertex of W before it calls
        # the step, so every link the step sees is empty or has homology
        step = oracle._graph_step
        called = []

        def checked(closed, w, at_subset):
            for u in bits(w):
                assert at_subset[closed[1 << u] & w ^ 1 << u] is not None, f"link of {u} in {w:b} is acyclic"
            called.append(w)
            return step(closed, w, at_subset)

        monkeypatch.setattr(oracle, "_graph_step", checked)
        for n in LOOP_CONTRACT_SIZES:
            for p in LOOP_CONTRACT_DENSITIES:
                h = seeded_gnp(f"loop contract {n} {p}", n, p)
                oracle._hochster_graph(n, h.rows)
        assert called

    def test_graph_kernel_sums_link_and_rest(self, monkeypatch, exact_calls):
        # the graphs above reach the Mayer-Vietoris rule where its special
        # cases fit at no vertex: every link nonempty and not Q-acyclic and
        # no W - v Q-acyclic.  A result there that no exact-homology call
        # made is a sum, so the contract above checks sums of the ranks of
        # W - v and the shifted link ranks
        step = oracle._graph_step
        summed = []

        def counted(closed, w, at_subset):
            ranks = step(closed, w, at_subset)
            pairs = [(at_subset[w ^ 1 << u], closed[1 << u] & w ^ 1 << u) for u in bits(w)]
            if (
                ranks is not None
                and w not in {u for u, _ in exact_calls}
                and len(pairs) > 1
                and all(rest is not None and link and at_subset[link] is not None for rest, link in pairs)
            ):
                summed.append(w)
            return ranks

        monkeypatch.setattr(oracle, "_graph_step", counted)
        for n in LOOP_CONTRACT_SIZES:
            for p in LOOP_CONTRACT_DENSITIES:
                h = seeded_gnp(f"loop contract {n} {p}", n, p)
                exact_calls.clear()
                oracle._hochster_graph(n, h.rows)
        assert summed

    @pytest.mark.parametrize(
        "h, reaches", WHOLE_SET_STEP_GRAPHS, ids=["edgeless", "point-and-square", "point-and-paths"]
    )
    def test_whole_set_reaches_step(self, monkeypatch, h, reaches):
        # vertex 0 is isolated, so its link is empty, never None, and the
        # loop passes the whole vertex set to the step unless the link of
        # another vertex is Q-acyclic: in the two paths the link of vertex 1
        # is the point 2, and the whole set takes the result for W - 1
        called = checked_step(monkeypatch, "_graph_step", flag_complex(h))
        table = oracle._hochster_graph(h.n, h.rows)
        assert table.entries == ref_hochster_masks(h.n, _maximal_clique_masks(h.n, h.rows))
        assert ((1 << h.n) - 1 in called) == reaches
        if not any(h.rows):
            # every link is empty, so every nonempty subset takes the step
            assert called == set(range(1, 1 << h.n))

    def test_superset_first_loop_fails(self, monkeypatch):
        # reversed ranges turn the loop into lowest vertex 0 first, each group
        # in decreasing order, so supersets come before their subsets.  A
        # result not yet set reads as None, a Q-acyclic link, so the loop
        # settles the first five sets, the whole set among them, wrongly and
        # without a call; the first call, for {0, 2, 4}, finds the two points
        # {2, 4} unset
        h = WHOLE_SET_STEP_GRAPHS[1][0]
        checked_step(monkeypatch, "_graph_step", flag_complex(h))
        monkeypatch.setattr(oracle, "range", lambda *a: reversed(builtins.range(*a)), raising=False)
        with pytest.raises(AssertionError, match="^10100 not settled before 10101\n"):
            oracle._hochster_graph(h.n, h.rows)
