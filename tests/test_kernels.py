"""The hot-path kernels against their reference forms in conftest: bucket
maximum cardinality search, string-level graph6 (and the canonical text a
parsed graph echoes), the grouped Hilbert numerator, and the incidence-mask
checks of a quasi-forest decomposition, both in its constructor and on
facet masks, on facet lists up to survey size.  Each must agree exactly, down
to the exception class and message.  The facet order of `decompose` (MCS
completion order) is held to the Kruskal clique forest on everything but
the order within a component.  The Hochster
kernel is held to the earlier facet kernel, which keys every subset and
folds a missed key to its core, on random graphs and on graphs whose
restrictions reach exact homology or that hold planted dominated
vertices, and that reference, on complexes that are not flag, to a sum
over `restrict`; its dominated pairs are held to a set-based greedy
search.  Sparse exact rank is held to dense Bareiss elimination, on
random integer matrices and on boundary maps.  The clique counter that
gives the sweep its f-vector is held to the faces of the maximal cliques
and to networkx."""

import random

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from edgering import intlinalg, oracle
from edgering.chordal import QuasiForestDecomposition, _check_facet_masks, _mcs_order, decompose
from edgering.complexes import (
    SimplicialComplex,
    _boundary,
    _clique_counts,
    _faces_by_size,
    _maximal_clique_masks,
    _maximal_masks,
    _position_masks,
    flag_complex,
)
from edgering.errors import ContractViolationError, MalformedInputError
from edgering.graphs import (
    GRAPH6_HEADER,
    MAX_VERTICES,
    Graph,
    bits,
    complement,
    parse_graph6,
    rows_from_edge_mask,
    to_graph6,
)
from edgering.invariants import _numerator
from conftest import (
    NON_FLAG_COMPLEXES,
    assert_exact_calls_hold_cores,
    chordal_graph,
    raised,
    random_quasi_forest_facets,
    recording_exact_calls,
    ref_bareiss_rank,
    ref_check_decomposition,
    ref_dominated_pairs,
    ref_hochster_masks,
    ref_mcs_order,
    ref_graph6_rows,
    ref_numerator,
    ref_quasi_forest_masks,
    ref_to_graph6,
    restriction_sum,
    sparse_rows,
)


@st.composite
def graphs(draw, max_n=MAX_VERTICES):
    """A graph on 0..max_n vertices: G(n, p) for p in {1/2, 1/4, 1/8}, or a
    chordal graph or its complement."""
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["gnp", "chordal", "cochordal"]))
    if kind == "gnp" or n < 2:
        width = n * (n - 1) // 2
        mask = draw(st.integers(0, (1 << width) - 1))
        for _ in range(draw(st.integers(0, 2))):
            mask &= draw(st.integers(0, (1 << width) - 1))
        return Graph.from_edge_mask(n, mask)
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = chordal_graph(rng, n, draw(st.sampled_from([0.2, 0.5, 0.9])), draw(st.integers(1, min(n, 4))))
    return g if kind == "chordal" else complement(g)


@settings(max_examples=400, deadline=None)
@given(graphs())
def test_mcs_order_matches_linear_scan(g):
    assert _mcs_order(g.n, g.rows) == ref_mcs_order(g.n, g.rows)


def test_mcs_order_matches_linear_scan_exhaustive():
    for n in range(7):
        for mask in range(1 << (n * (n - 1) // 2)):
            rows = rows_from_edge_mask(n, mask)
            assert _mcs_order(n, rows) == ref_mcs_order(n, rows)


@settings(max_examples=300, deadline=None)
@given(graphs(), st.booleans(), st.integers(0, 63))
def test_graph6_matches_bitwise_codec(g, header, padding):
    canonical = text = to_graph6(g)
    assert text == ref_to_graph6(g)
    # set some of the padding bits of the last byte: both decoders ignore them
    spare = -(g.n * (g.n - 1) // 2) % 6
    if spare:
        text = text[:-1] + chr(ord(text[-1]) | padding & ((1 << spare) - 1))
    data = text.encode("ascii")
    assert ref_graph6_rows(data) == list(g.rows)
    assert parse_graph6((GRAPH6_HEADER if header else b"") + data) == g
    # a parsed graph re-encodes canonically whatever its text was, and its
    # complement, a new graph, gets its own encoding
    variants = [canonical, (GRAPH6_HEADER if header else b"") + data,
                GRAPH6_HEADER.decode() + canonical, f" \t{canonical}\r\n"]
    if spare:
        padded = ord(canonical[-1]) | (padding & ((1 << spare) - 1) or 1)
        variants.append(canonical[:-1] + chr(padded))
    ref_complement = ref_to_graph6(complement(g))
    for x in variants:
        h = parse_graph6(x)
        assert h == g == Graph(g.n, g.rows) and hash(h) == hash(Graph(g.n, g.rows))
        assert repr(h) == repr(g)
        assert to_graph6(h) == canonical
        assert to_graph6(complement(h)) == ref_complement


@settings(max_examples=300, deadline=None)
@given(st.integers(0, MAX_VERTICES).flatmap(
    lambda n: st.lists(st.integers(63, 126), min_size=(n * (n - 1) // 2 + 5) // 6,
                       max_size=(n * (n - 1) // 2 + 5) // 6).map(lambda body: bytes([n + 63, *body]))
))
def test_graph6_decodes_to_valid_rows(data):
    """`parse_graph6` builds its graph without the checks of `Graph`, whose
    rows its decoder makes valid by construction.  Any graph6 text, padding
    bits and all, decodes to the rows of the bitwise decoder, which `Graph`
    accepts into an equal graph with the same hash and repr."""
    g = parse_graph6(data)
    checked = Graph(g.n, g.rows)
    assert list(g.rows) == ref_graph6_rows(data)
    assert type(g) is Graph and g == checked and hash(g) == hash(checked) and repr(g) == repr(checked)


def test_graph6_every_size():
    rng = random.Random(62)
    for n in range(MAX_VERTICES + 1):
        for g in (Graph.from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2)), complement(Graph(n, (0,) * n))):
            text = to_graph6(g)
            assert text == ref_to_graph6(g)
            assert ref_graph6_rows(text.encode("ascii")) == list(g.rows)
            assert parse_graph6(text) == g


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, n - 1), min_size=1, max_size=12),
    st.lists(st.integers(-1, max(n - 2, -1)), max_size=12),
)))
def test_numerator_matches_per_facet_sum(args):
    n, dims, attach_dims = args
    assert _numerator(n, dims, attach_dims) == ref_numerator(n, dims, attach_dims)


def test_numerator_on_decompositions(rng):
    for _ in range(300):
        n = rng.randint(1, 40)
        g = chordal_graph(rng, n, rng.random(), rng.randint(1, min(n, 3)))
        dec = decompose(g)[1]
        assert _numerator(dec.n, dec.dims, dec.attach_dims) == ref_numerator(dec.n, dec.dims, dec.attach_dims)


def component_minima(facets, attach_dims):
    """Smallest vertex of each connected component, in the order the facets
    reach the components; a component starts at attachment dimension -1."""
    minima = []
    for f, r in zip(facets, (-1, *attach_dims)):
        if r == -1:
            minima.append(min(f))
        else:
            minima[-1] = min(minima[-1], min(f))
    return minima


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, MAX_VERTICES),
    st.integers(1, 4),
    st.sampled_from([0.2, 0.5, 0.9]),
    st.integers(0, 2**32),
)
def test_facet_order_agrees_with_spanning_forest(n, components, full_p, seed):
    g = chordal_graph(random.Random(seed), n, full_p, min(components, n))
    dec = decompose(g)[1]
    masks = [sum(1 << v for v in f) for f in dec.facets]
    ref, ref_attach = ref_quasi_forest_masks(masks)
    ref_sets = [frozenset(bits(f)) for f in ref]
    ref_attach_dims = [a - 1 for a in ref_attach]
    assert set(dec.facets) == set(ref_sets)
    assert sorted(zip(masks, dec.dims)) == sorted((f, f.bit_count() - 1) for f in ref)
    assert sorted(dec.attach_dims) == sorted(ref_attach_dims)
    assert dec.facets[0] == ref_sets[0]
    minima = component_minima(dec.facets, dec.attach_dims)
    assert minima == component_minima(ref_sets, ref_attach_dims) == sorted(minima)
    assert len(minima) == min(components, n)


def verdicts(facets, dims, attach_dims, n):
    """[what the constructor raises, what the reference checks raise], and
    when the dimension lists are the ones the facets imply, what the mask
    checker raises on the facets relabelled onto 0..n-1."""
    facets = tuple(frozenset(f) for f in facets)
    found = [
        raised(QuasiForestDecomposition, facets, tuple(dims), tuple(attach_dims), n),
        raised(ref_check_decomposition, facets, tuple(dims), tuple(attach_dims), n),
    ]
    if (list(dims), list(attach_dims)) == consistent_lists(facets)[:2]:
        pos = {v: i for i, v in enumerate(sorted(set().union(*facets)))}
        masks = [sum(1 << pos[v] for v in f) for f in facets]
        found.append(raised(_check_facet_masks, masks, n))
    return found


def consistent_lists(facets):
    """The dims and attachment dims that the facet sizes and the running
    union imply, so that the structural checks decide."""
    dims, attach, union = [], [], set()
    for i, f in enumerate(facets):
        dims.append(len(f) - 1)
        if i:
            attach.append(len(set(f) & union) - 1)
        union |= set(f)
    return dims, attach, len(union)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.frozensets(st.integers(-3, 9), max_size=5), max_size=6),
    st.integers(-1, 1),
    st.integers(0, 2),
    st.integers(-1, 1),
)
def test_decomposition_checks_match_frozenset_form(facets, dim_shift, attach_shift_at, n_shift):
    dims, attach, n = consistent_lists(facets)
    if dims:
        dims[-1] += dim_shift
    if attach_shift_at < len(attach):
        attach[attach_shift_at] += 1
    new, ref, *mask = verdicts(facets, dims, attach, n + n_shift)
    assert new == ref
    assert mask in ([], [ref])


def test_decomposition_checks_on_valid_and_mutated(rng):
    # 400 small draws, then 200 of up to 62 vertices and a median of 28
    # facets: the chordal complements of survey_mixed have 24 on average
    accepted = rejected = 0
    sizes = []
    for max_n, stop in [(12, 0.25)] * 400 + [(62, 0.02)] * 200:
        facets = [sorted(f) for f in random_quasi_forest_facets(rng, max_n=max_n, stop=stop)]
        sizes.append(len(facets))
        label = rng.sample(range(-5, 2 * max_n + 6), max_n)  # negative and gapped labels
        facets = [[label[v] for v in f] for f in facets]
        mutation = rng.randrange(5)
        if mutation == 1:
            rng.shuffle(facets)
        elif mutation == 2:
            f = rng.choice(facets)
            f.append(rng.choice([v for g in facets for v in g]))
            f[:] = sorted(set(f))
        elif mutation == 3 and len(facets) > 1:
            i, j = rng.sample(range(len(facets)), 2)
            facets[i] = sorted(set(facets[i]) | set(facets[j][:1]))
        elif mutation == 4:
            facets.append(rng.choice(facets)[:-1] or [label[-1]])
        new, ref, mask = verdicts(facets, *consistent_lists(facets))
        assert new == ref == mask
        accepted += new is None
        rejected += new is not None
    assert accepted > 150 and rejected > 75
    assert sum(k >= 24 for k in sizes[400:]) > 100


@st.composite
def keyed_core_graphs(draw, max_n=12):
    """A graph H on at most max_n vertices whose flag complex has restrictions
    that no rule of the kernel settles, so that they reach exact homology: a
    disjoint union of cycles C_k, k >= 4, and complements of perfect
    matchings (the boundaries of cross-polytopes), plus extra vertices joined
    to random earlier vertices, relabelled at random."""
    rows: list[int] = []

    def join(u, v):
        rows[u] |= 1 << v
        rows[v] |= 1 << u

    pieces = st.tuples(st.sampled_from(["cycle", "cross"]), st.integers(4, 8))
    for kind, size in draw(st.lists(pieces, min_size=1, max_size=3)):
        if kind == "cross":
            size -= size % 2
        if len(rows) + size > max_n:
            continue
        first = len(rows)
        rows += [0] * size
        for i in range(size):
            if kind == "cycle":
                join(first + i, first + (i + 1) % size)
            else:
                for j in range(i + 2 - i % 2, size):  # all but the partner i ^ 1
                    join(first + i, first + j)
    for _ in range(draw(st.integers(0, max_n - len(rows)))):
        rows.append(0)
        new = len(rows) - 1
        for u in bits(draw(st.integers(0, (1 << new) - 1)) & draw(st.integers(0, (1 << new) - 1))):
            join(u, new)
    perm = draw(st.permutations(range(len(rows))))
    return Graph.from_edges(len(rows), [(perm[u], perm[v]) for u in range(len(rows)) for v in bits(rows[u]) if u < v])


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(max_n=9), keyed_core_graphs()))
def test_graph_kernel_matches_reference(g):
    """The graph kernel runs exact homology only on subsets that its link
    rule and its Mayer-Vietoris rule settle at no vertex."""
    expected = ref_hochster_masks(g.n, _maximal_clique_masks(g.n, g.rows))
    with recording_exact_calls() as calls:
        assert oracle._hochster_graph(g.n, g.rows).entries == expected
    assert_exact_calls_hold_cores(g, calls)
    assert oracle.hochster_betti(flag_complex(g)).entries == expected


@st.composite
def dominated_graphs(draw, max_n=12):
    """A graph H on oracle.PAIRED_FROM to max_n vertices with dominated
    vertices planted: G(c, p) on the first c < n vertices, then each later
    vertex u joined to a drawn earlier vertex v and to some or all of v's
    neighbours, so that N[u] lies within N[v] until a later vertex joins u
    alone (u and v are twins when u takes all of them), relabelled at
    random.  The last vertex stays dominated."""
    n = draw(st.integers(oracle.PAIRED_FROM, max_n))
    c = draw(st.integers(1, n - 1))
    rows = list(rows_from_edge_mask(c, draw(st.integers(0, (1 << c * (c - 1) // 2) - 1))))
    for u in range(c, n):
        v = draw(st.integers(0, u - 1))
        part = rows[v] if draw(st.booleans()) else rows[v] & draw(st.integers(0, (1 << u) - 1))
        rows.append(part | 1 << v)
        for x in bits(part | 1 << v):
            rows[x] |= 1 << u
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u in range(n) for v in bits(rows[u]) if u < v])


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs(max_n=oracle.VERTEX_CAP), dominated_graphs()))
def test_dominated_pairs_match_setwise_greedy(g):
    """The pairs the kernel drops subsets by, found by one AND per vertex of
    N[u], are those of the set-based greedy search, which compares closed
    neighbourhoods; it leaves oracle.UNPAIRED_MIN vertices out."""
    most = max(0, (g.n - oracle.UNPAIRED_MIN) // 2)
    assert oracle._dominated_pairs(g.n, g.rows) == ref_dominated_pairs(g, most)


@settings(max_examples=100, deadline=None)
@given(dominated_graphs())
def test_graph_kernel_skips_whole_pairs(g):
    """The kernel finds dominated pairs in every graph drawn here, visits
    only the subsets that hold no whole pair, and still gets the table of
    the reference, which sums over every subset."""
    assert oracle._dominated_pairs(g.n, g.rows)
    expected = ref_hochster_masks(g.n, _maximal_clique_masks(g.n, g.rows))
    with recording_exact_calls() as calls:
        assert oracle._hochster_graph(g.n, g.rows).entries == expected
    assert_exact_calls_hold_cores(g, calls)


@settings(max_examples=300, deadline=None)
@example(Graph(0, ()))
@example(Graph(1, (0,)))
@example(Graph(12, (0,) * 12))
@example(complement(Graph(12, (0,) * 12)))
@given(graphs(max_n=12))
def test_clique_counts_match_faces_and_networkx(g):
    """The f-vector the sweep reads from the rows, by a search that lists no
    clique, against the faces of the maximal cliques and networkx's list of
    every clique; all three count the empty clique at size 0."""
    counts = _clique_counts(g.n, g.rows)
    assert len(counts) == g.n + 1
    faces = [len(grouped) for grouped in _faces_by_size(_maximal_clique_masks(g.n, g.rows))]
    assert counts == faces + [0] * (g.n + 1 - len(faces))
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    listed = [1] + [0] * g.n
    for clique in nx.enumerate_all_cliques(nxg):
        listed[len(clique)] += 1
    assert counts == listed


@st.composite
def non_flag_complexes(draw, max_n=10):
    """Facet masks on 0..n-1, n <= max_n: the boundary of a simplex S of at
    least three vertices and random faces that do not hold S, so S is a
    clique of the 1-skeleton but no face; a vertex left bare is a facet."""
    n = draw(st.integers(3, max_n))
    s = sum(1 << v for v in draw(st.sets(st.integers(0, n - 1), min_size=3)))
    masks = {s ^ 1 << v for v in bits(s)}
    masks.update(m for m in draw(st.lists(st.integers(1, (1 << n) - 1), max_size=6)) if m & s != s)
    covered = 0
    for m in masks:
        covered |= m
    masks.update(1 << v for v in range(n) if not covered >> v & 1)
    return n, _maximal_masks(masks)


def assert_refused(c):
    with pytest.raises(ContractViolationError, match="^the oracle takes flag complexes only$"):
        oracle.hochster_betti(c)


@settings(max_examples=300, deadline=None)
@given(non_flag_complexes())
def test_facet_kernel_matches_reference(complex_):
    """The reference facet kernel, `ref_hochster_masks`, against the sum over
    `restrict` on complexes that are not flag, which the oracle refuses."""
    n, facets = complex_
    c = SimplicialComplex.of(n, [list(bits(f)) for f in facets])
    assert ref_hochster_masks(n, facets) == restriction_sum(c)
    assert_refused(c)


@pytest.mark.parametrize("n, facets", NON_FLAG_COMPLEXES)
def test_non_flag_complex_takes_the_facet_kernel(n, facets):
    """Only the reference facet kernel takes a complex that is not flag."""
    c = SimplicialComplex.of(n, facets)
    assert ref_hochster_masks(n, _position_masks(c)) == restriction_sum(c)
    assert_refused(c)


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_complement_is_a_checked_graph(g):
    """`complement` skips the checks of `Graph`; its rows pass them anyway,
    and they still run when rows come through the constructor."""
    h = complement(g)
    assert Graph(h.n, h.rows) == h
    assert complement(h) == g
    if g.n:
        with pytest.raises(MalformedInputError, match="loop at vertex 0"):
            Graph(h.n, (h.rows[0] | 1,) + h.rows[1:])


@st.composite
def integer_matrices(draw):
    """Dense m x n integer matrices, m, n <= 8, with zero rows, zero columns
    and rows that are multiples of others, scaled by non-unit factors."""
    m = draw(st.integers(0, 8))
    n = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**12, 10**12))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(m):
        kind = draw(st.sampled_from(["keep", "zero", "multiple", "scale"]))
        if kind == "zero":
            rows[i] = [0] * n
        elif kind == "multiple" and i:
            k = draw(st.integers(-4, 4))
            rows[i] = [k * x for x in rows[draw(st.integers(0, i - 1))]]
        elif kind == "scale":
            k = draw(st.sampled_from([2, -3, 6, 35]))
            rows[i] = [k * x for x in rows[i]]
    for c in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        for row in rows:
            row[c] = 0
    return rows


@settings(max_examples=500, deadline=None)
@given(integer_matrices())
def test_sparse_rank_matches_bareiss(matrix):
    assert intlinalg.rank(sparse_rows(matrix)) == ref_bareiss_rank(matrix)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=8)))
def test_boundary_rank_matches_bareiss(facets):
    """Every boundary map of a random complex, built densely from sorted
    vertex lists, against the sparse rows `_homology_ranks` passes."""
    grouped = _faces_by_size(facets)
    for s in range(1, len(grouped)):
        index = {m: i for i, m in enumerate(grouped[s - 1])}
        dense = []
        for face in grouped[s]:
            row = [0] * len(index)
            for i, v in enumerate(bits(face)):
                row[index[face & ~(1 << v)]] = (-1) ** i
            dense.append(row)
        sparse = [_boundary(face) for face in grouped[s]]
        assert sparse_rows(dense) == [{index[c]: v for c, v in row.items()} for row in sparse]
        assert intlinalg.rank(sparse) == ref_bareiss_rank(dense)
