import builtins
import random
import re
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from edgering import oracle
from edgering.complexes import (
    SimplicialComplex,
    _maximal_clique_masks,
    _quasi_forest_masks,
    flag_complex,
    reduced_homology_ranks,
    restrict,
)
from edgering.errors import ContractViolationError, InternalInvariantError, UnsupportedSizeError
from edgering.conjecture import checked_strand, formulas
from edgering.graphs import Graph, bits, complement, max_degree, to_graph6
from edgering.oracle import hochster_betti
from conftest import (
    ACYCLIC_LINK_H,
    assert_exact_calls_hold_cores,
    induced,
    kernel_labels,
    packed_ranks,
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
        assert table.projective_dimension == 3
        assert table.subsets_examined == 16

    def test_full_simplex(self):
        table = hochster_betti(SimplicialComplex.of(4, [[0, 1, 2, 3]]))
        assert table.entries == {}
        assert table.projective_dimension == 0
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
        assert table.entries == {} and table.projective_dimension == 0

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
        assert hochster_betti(SimplicialComplex.of(4, [[0, 1], [2, 3]])).two_linear

    def test_flag_c5_not_2linear(self):
        c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert not hochster_betti(flag_complex(c5)).two_linear


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
        assert table.projective_dimension == 3

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


class TestExactHomologyCalls:
    """Which subsets reach the exact-homology fallback of the graph kernel;
    the kernel keeps no state between calls."""

    def test_relabelled_complex_runs_the_same_exact_call(self, exact_calls):
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
    def test_mutually_dominating_pair_cores(self, exact_calls, facets):
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
    def test_no_subset_runs_exact_homology(self, exact_calls, h):
        # the loop seeds the empty subset, so no step runs exact homology on it
        table = oracle._hochster_graph(h.n, h.rows)
        assert not exact_calls
        assert table.entries == ref_hochster_masks(h.n, _maximal_clique_masks(h.n, h.rows))

    def test_disjoint_cycles_run_exact_homology_once(self, exact_calls):
        # H = two disjoint 4-cycles: every link is two points and every W - v
        # is a path and a 4-cycle, both with homology in dimension 0, so the
        # Mayer-Vietoris rule fits at no vertex and the whole set takes the
        # exact-homology path; every proper subset is settled without it
        h = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
        table = oracle._hochster_graph(h.n, h.rows)
        assert exact_calls == [(0b11111111, {0: 1, 1: 2})]
        assert_exact_calls_hold_cores(h, exact_calls)
        assert table.entries == ref_hochster_masks(h.n, _maximal_clique_masks(h.n, h.rows))

    def test_seeded_n12_graphs_run_no_exact_homology(self, exact_calls):
        # two seeded G(12, p) at each density of the n = 12 benchmark graphs;
        # with only the link rule, the acyclic W - v and the isolated v, the
        # eight cold calls once built 119 memo keys for exact homology
        for p in (0.25, 0.3, 0.35, 0.4):
            for i in range(2):
                h = seeded_gnp(f"no key {p} {i}", 12, p)
                table = oracle._hochster_graph(12, h.rows)
                assert not exact_calls
                assert table.entries == ref_hochster_masks(12, _maximal_clique_masks(12, h.rows))

    def test_acyclic_link_without_domination_runs_no_exact_homology(self, exact_calls):
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


class TestPackedFields:
    def test_field_width_bounds_every_sum(self):
        # the graph kernel packs rank H~_d into a 32-bit field.  A field of
        # the sum over the subsets of size j is at most C(n, j) C(j, d + 1),
        # the pairs of a face within a subset, and all such pairs number
        # 3^n, so below the cap no field reaches 2^31: none carries into the
        # next, and the top bit that the step's overlap test sets stays clear
        assert 3 ** oracle.VERTEX_CAP < 1 << 31

    def test_complement_of_k16(self):
        # G = K_16: H has no edges, its flag complex is 16 points, and j of
        # them have rank H~_0 = j - 1, so beta_(i, i+1) = i C(16, i + 1).
        # beta_(8, 9) = 91,520 exceeds 2^16: a 16-bit field would carry it
        # into the next dimension
        k16 = complement(Graph(16, (0,) * 16))
        expected = {(i, i + 1): i * comb(16, i + 1) for i in range(1, 16)}
        assert max(expected.values()) == 91_520 > 1 << 16
        assert oracle._hochster_graph(16, complement(k16).rows).entries == expected

    def test_complement_of_k99(self):
        # G = K_{9,9}: H is two disjoint 9-cliques.  H[W] is a simplex when
        # W lies in one clique and two disjoint simplices, with rank
        # H~_0 = 1, when W meets both, so beta_(j-1, j) = C(18, j) - 2 C(9, j).
        # Each clique holds four pairs of twins; the kernel takes seven,
        # which leaves four vertices out, and the tally weights the pair-free
        # subsets by (1 + x)^m up to m = 7, at the vertex cap
        h = complement(Graph.from_edges(18, [(u, v) for u in range(9) for v in range(9, 18)]))
        assert len(oracle._dominated_pairs(18, h.rows)) == 7
        expected = {(j - 1, j): comb(18, j) - 2 * comb(9, j) for j in range(2, 19)}
        assert oracle._hochster_graph(18, h.rows).entries == expected


@st.composite
def betti_entries(draw):
    """(entries, n) for n = 0..VERTEX_CAP: positions inside and outside
    0 <= i <= j <= n, (0, 0) among them, with zero, negative and positive
    values."""
    n = draw(st.integers(0, oracle.VERTEX_CAP))
    inside = st.integers(0, n).flatmap(lambda i: st.tuples(st.just(i), st.integers(i, n)))
    anywhere = st.tuples(st.integers(-2, n + 2), st.integers(-2, n + 2))
    positions = st.one_of(st.just((0, 0)), inside, anywhere)
    return draw(st.dictionaries(positions, st.integers(-1, 4), max_size=6)), n


def constructor_error(entries, n):
    """The exception class and message that OracleBettiTable(entries, n)
    must raise, or None: in the given order, a negative value or a nonzero
    beta_(0,0) other than 1; then, in sorted order, the first nonzero
    position other than (0, 0) outside 0 <= i <= j <= n."""
    for position, v in entries.items():
        if v < 0:
            return ContractViolationError, f"negative Betti number at {position}"
        if position == (0, 0) and v not in (0, 1):
            return ContractViolationError, "beta_(0,0) must be 1"
    for i, j in sorted(p for p, v in entries.items() if v and p != (0, 0)):
        if not (0 <= i and i <= j and j <= n):
            return InternalInvariantError, f"impossible Betti position {(i, j)}"
    return None


def assert_checked_table(table) -> None:
    """The kernel reads its table off the packed sums with no check; the
    public constructor, which checks and sorts, builds the same one from
    the same entries: the same items in the same order, and the same flag."""
    checked = oracle.OracleBettiTable(dict(table.entries), table.n)
    assert list(table.items()) == list(checked.items())
    assert table.two_linear is checked.two_linear
    assert (table.n, table.subsets_examined) == (checked.n, checked.subsets_examined)


class TestTableRead:
    @pytest.mark.parametrize("n", range(15))
    def test_seeded_graphs(self, n):
        # from n = 11 on, the kernel runs the paired layout and its tally
        for p in (0.2, 0.5, 0.8):
            assert_checked_table(oracle._hochster_graph(n, seeded_gnp(f"table read {n} {p}", n, p).rows))

    def test_complement_of_k99(self):
        h = complement(Graph.from_edges(18, [(u, v) for u in range(9) for v in range(9, 18)]))
        table = oracle._hochster_graph(18, h.rows)
        assert_checked_table(table)
        assert table.two_linear

    @settings(max_examples=400, deadline=None)
    @given(betti_entries())
    @example(({(0, 0): 2, (1, 2): 3}, 2))
    @example(({(0, 0): 1, (1, 2): 0, (1, 3): 2, (-1, 1): 1}, 3))
    def test_constructor_contract(self, drawn):
        entries, n = drawn
        error = constructor_error(entries, n)
        if error is not None:
            cls, message = error
            with pytest.raises(cls, match=f"^{re.escape(message)}$"):
                oracle.OracleBettiTable(entries, n)
            return
        table = oracle.OracleBettiTable(entries, n)
        nonzero = {p: v for p, v in entries.items() if v and p != (0, 0)}
        assert list(table.entries.items()) == sorted(nonzero.items())
        assert list(table.items()) == list(table.entries.items())
        assert table.beta(0, 0) == 1
        for i, j in entries:
            if (i, j) != (0, 0):
                assert table.beta(i, j) == entries[i, j]
        assert table.projective_dimension == max([i for i, _ in nonzero] + [0])
        assert table.two_linear == all(j == i + 1 for i, j in nonzero if i >= 1)
        assert table.subsets_examined == 2 ** n
        assert table == oracle.OracleBettiTable(dict(reversed(nonzero.items())), n)

    def test_checking_constructor_errors(self):
        with pytest.raises(ContractViolationError, match=r"^negative Betti number at \(1, 2\)$"):
            oracle.OracleBettiTable({(1, 2): -1}, 4)
        for position in ((3, 2), (1, 5)):
            message = re.escape(f"impossible Betti position {position}")
            with pytest.raises(InternalInvariantError, match=f"^{message}$"):
                oracle.OracleBettiTable({(1, 2): 4, position: 1}, 4)


class Unread:
    """What `CheckedStep` puts in the result list at each subset that holds a
    whole dominated pair: the kernel must never read or write such a
    subset, and any use of this value raises."""

    def read(self, *args):
        raise AssertionError("a subset that holds a whole pair was read")

    __bool__ = __eq__ = __add__ = __radd__ = __and__ = __rand__ = __lshift__ = __rshift__ = read


UNREAD = Unread()


class CheckedStep:
    """Patch the kernel step `name` to hold the subset loop to its contract
    on the flag complex of H, in the kernel's labels: `closed` must encode
    H relabelled by `kernel_labels`, in which vertex 2i dominates 2i + 1
    for each of the k pairs.  The step is called at most once per nonempty
    w, each w holds no whole pair, and every proper subset u of w has its
    result in `at_subset` by then: the reduced homology ranks of the
    restriction to u, packed by `packed_ranks`, so 0 when it is Q-acyclic.

    A subset that holds a whole pair reads 0 until it is written, and 0
    means Q-acyclic, so a wrong read would be silent.  At the first call
    every such subset must still hold 0; the check then puts an `Unread`
    there, which raises on any read, and every later call and `done`
    require each to still hold it, so that none is written."""

    def __init__(self, monkeypatch, name: str, h: Graph):
        labels, k = kernel_labels(h)
        label = {x: a for a, x in enumerate(labels)}
        relabelled = Graph.from_edges(h.n, [(label[u], label[v]) for u, v in h.edges()])
        closed = {1 << a: row | 1 << a for a, row in enumerate(relabelled.rows)}
        assert all(closed[2 << 2 * i] & ~closed[1 << 2 * i] == 0 for i in range(k)), "a pair is not dominated"
        self.whole = [w for w in range(1 << h.n) if any(w >> 2 * i & 3 == 3 for i in range(k))]
        c = flag_complex(relabelled)
        self.expected = {
            w: packed_ranks(reduced_homology_ranks(restrict(c, list(bits(w)))))
            for w in set(range(1 << h.n)).difference(self.whole)
        }
        self.called: set[int] = set()
        self.at_subset = None
        step = getattr(oracle, name)

        def checked(data, w, at_subset):
            assert data == closed, "closed is not H in the kernel's labels"
            assert w in self.expected, f"the step got {w:b}, which holds a whole pair"
            assert w and w not in self.called, f"step called again for {w:b}"
            self.called.add(w)
            if self.at_subset is None:
                self.at_subset = at_subset
                assert not any(at_subset[u] for u in self.whole), "a subset that holds a whole pair was written"
                for u in self.whole:
                    at_subset[u] = UNREAD
            self.done()
            u = w
            while u:
                u = (u - 1) & w  # the proper subsets of w, down to the empty set
                assert at_subset[u] == self.expected[u], f"{u:b} not settled before {w:b}"
            return step(data, w, at_subset)

        monkeypatch.setattr(oracle, name, checked)

    def done(self) -> None:
        """No subset that holds a whole pair has been written since the first call."""
        if self.at_subset is not None:
            assert all(self.at_subset[u] is UNREAD for u in self.whole), "a subset that holds a whole pair was written"


LOOP_CONTRACT_SIZES = range(1, 14)
# graphs on 0..4 in which vertex 4 is isolated, each with whether the whole
# vertex set reaches the step
WHOLE_SET_STEP_GRAPHS = [
    (Graph(5, (0,) * 5), False),
    (Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3)]), True),
    (Graph.from_edges(5, [(0, 1), (2, 3)]), False),
]
LOOP_CONTRACT_DENSITIES = [0.25, 0.5, 0.75]


class TestLoopContract:
    @pytest.mark.parametrize("n", LOOP_CONTRACT_SIZES)
    @pytest.mark.parametrize("p", LOOP_CONTRACT_DENSITIES)
    def test_graph_kernel(self, monkeypatch, n, p):
        h = seeded_gnp(f"loop contract {n} {p}", n, p)
        check = CheckedStep(monkeypatch, "_graph_step", h)
        table = oracle._hochster_graph(n, h.rows)
        check.done()
        assert table.entries == ref_hochster_masks(n, _maximal_clique_masks(n, h.rows))

    def test_step_sees_no_acyclic_link(self, monkeypatch):
        # the loop tries the link rule at every vertex of W before it calls
        # the step, so every link the step sees is empty or has homology:
        # its packed ranks are nonzero
        step = oracle._graph_step
        called = []

        def checked(closed, w, at_subset):
            for u in bits(w):
                assert at_subset[closed[1 << u] & w ^ 1 << u] != 0, f"link of {u} in {w:b} is acyclic"
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
        # no W - v Q-acyclic, every packed result nonzero.  A result there
        # that no exact-homology call made is a sum, so the contract above
        # checks sums of the ranks of W - v and the shifted link ranks
        step = oracle._graph_step
        summed = []

        def counted(closed, w, at_subset):
            ranks = step(closed, w, at_subset)
            pairs = [(at_subset[w ^ 1 << u], closed[1 << u] & w ^ 1 << u) for u in bits(w)]
            if (
                ranks != 0
                and w not in {u for u, _ in exact_calls}
                and len(pairs) > 1
                and all(rest != 0 and link and at_subset[link] != 0 for rest, link in pairs)
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
        # vertex 4 is isolated, so its link is empty, never 0, but it is the
        # lowest vertex of no W but {4}: the loop passes the whole vertex set
        # to the step unless the link of another vertex is Q-acyclic.  In
        # the square every link is two points; in the two paths the link of
        # vertex 0 is the point 1, and the whole set takes the result for
        # W - 0
        called = CheckedStep(monkeypatch, "_graph_step", h).called
        table = oracle._hochster_graph(h.n, h.rows)
        assert table.entries == ref_hochster_masks(h.n, _maximal_clique_masks(h.n, h.rows))
        assert ((1 << h.n) - 1 in called) == reaches
        if not any(h.rows):
            # every lowest vertex is isolated, so no subset takes the step
            assert not called

    def test_no_point_or_isolated_lowest_vertex_reaches_step(self, monkeypatch):
        # a point keeps the 0 it starts with, and a W whose lowest vertex k
        # is isolated takes the result for W - k plus one in dimension 0,
        # both inside the loop: the step sees neither
        step = oracle._graph_step
        called = []

        def checked(closed, w, at_subset):
            low = w & -w
            assert w != low, f"the point {w:b} reaches the step"
            assert closed[low] & w != low, f"the lowest vertex of {w:b} is isolated"
            called.append(w)
            return step(closed, w, at_subset)

        monkeypatch.setattr(oracle, "_graph_step", checked)
        for n in LOOP_CONTRACT_SIZES:
            for p in LOOP_CONTRACT_DENSITIES:
                h = seeded_gnp(f"loop contract {n} {p}", n, p)
                table = oracle._hochster_graph(n, h.rows)
                assert table.entries == ref_hochster_masks(n, _maximal_clique_masks(n, h.rows))
        assert called

    def test_superset_first_loop_fails(self, monkeypatch):
        # reversed ranges turn the loop into lowest vertex 0 first, each group
        # in decreasing order, so supersets come before their subsets.  A
        # result not yet set reads as 0, a Q-acyclic link, so the loop
        # settles every set without a call, the whole set first, and most of
        # them wrongly: the step's check never runs, and the table differs
        # from the sum
        h = WHOLE_SET_STEP_GRAPHS[1][0]
        called = CheckedStep(monkeypatch, "_graph_step", h).called
        monkeypatch.setattr(oracle, "range", lambda *a: reversed(builtins.range(*a)), raising=False)
        table = oracle._hochster_graph(h.n, h.rows)
        assert not called
        assert table.entries != ref_hochster_masks(h.n, _maximal_clique_masks(h.n, h.rows))
