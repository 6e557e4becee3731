"""Property-based tests: the parsers on arbitrary input, facet
canonicalization against its set-inclusion definition, chordality of the
complement against networkx as one more independent recognizer, the deletion
of a dominated vertex, or of a vertex with an acyclic link in a flag complex,
against uncollapsed homology, the Hochster oracle against a sum over
restricted complexes and against the closed formulas, pd and the verdict
against the vertex connectivity of the complement, and the CLI on random
argument lists."""

import contextlib
import io
import json
import sys
from importlib import resources
from itertools import combinations
from pathlib import Path

import jsonschema
import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from edgering.chordal import _decompose_masks
from edgering.cli import analyze_record, main
from edgering.complexes import (
    SimplicialComplex,
    _canonical_facets,
    _homology_ranks,
    _maximal_masks,
    _position_masks,
    flag_complex,
    parse_complex,
    reduced_homology_ranks,
    restrict,
)
from edgering.conjecture import checked_strand, classify, formulas
from edgering.errors import ContractViolationError, EdgeRingError
from edgering.graphs import Graph, bits, complement, parse_edge_list, parse_graph6, to_graph6
from edgering.oracle import _graph_step, hochster_betti, oracle_is_2linear, oracle_pd
from conftest import ACYCLIC_LINK_H, chordal_graph, induced, ref_core_key, ref_hochster_masks

PARSERS = (parse_graph6, parse_edge_list, parse_complex)


def only_package_errors(data) -> None:
    for parse in PARSERS:
        try:
            parse(data)
        except EdgeRingError:
            pass


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_parsers_on_text(text):
    only_package_errors(text)


@settings(max_examples=300, deadline=None)
@given(st.binary())
def test_parsers_on_bytes(data):
    only_package_errors(data)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sets(st.integers(-3, 12), min_size=1), max_size=12))
def test_canonical_facets_are_the_maximal_sets(facets):
    sets = {frozenset(f) for f in facets}
    maximal = [f for f in sets if not any(f < g for g in sets)]
    assert _canonical_facets(facets) == tuple(sorted(maximal, key=sorted))


@st.composite
def facet_keys(draw, max_n=7):
    """A memo key: sorted inclusion-free facet masks over at most 7 vertices,
    flag or not, made a cone on one more vertex half of the time."""
    pieces = draw(st.lists(st.integers(1, (1 << max_n) - 1), max_size=8))
    if pieces and draw(st.booleans()):
        apex = 1 << draw(st.integers(0, max_n - 1))
        pieces = [p | apex for p in pieces]
    return tuple(sorted(_maximal_masks(set(pieces))))


def nonzero(ranks: dict[int, int]) -> dict[int, int]:
    return {d: h for d, h in ranks.items() if h}


@settings(max_examples=300, deadline=None)
@example(())  # the empty complex: rank H~_-1 = 1, no vertex to delete
@example((0b11,))  # a single edge, a cone
@example((0b0011, 0b1100))  # two edges: each pair of ends dominates itself
@example((0b011, 0b110, 0b101))  # the hollow triangle: no dominated vertex
# the 6-vertex real projective plane: no dominated vertex, Q-acyclic
@example((0x07, 0x0D, 0x16, 0x19, 0x1A, 0x23, 0x2A, 0x2C, 0x31, 0x34))
@given(facet_keys())
def test_core_has_the_homology_of_the_complex(key):
    """The strong-collapse core of the reference kernel, `ref_core_key`:
    deleting a dominated vertex, one that lies with another vertex in every
    facet that holds it, keeps every nonzero rank, and so does the core, in
    which no vertex is dominated."""
    w = 0
    for f in key:
        w |= f
    ranks = nonzero(_homology_ranks(key))
    for u in bits(w):
        # set-based: u is dominated when the facets that hold u share another vertex
        if len(frozenset.intersection(*(frozenset(bits(f)) for f in key if f >> u & 1))) > 1:
            rest = _maximal_masks({f & ~(1 << u) for f in key} - {0})
            assert nonzero(_homology_ranks(rest)) == ranks
    core = ref_core_key(key)
    assert nonzero(_homology_ranks(core)) == ranks
    support = 0
    for f in core:
        support |= f
    for u in bits(support):
        assert frozenset.intersection(*(frozenset(bits(f)) for f in core if f >> u & 1)) == {u}


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    return Graph.from_edge_mask(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))


@settings(max_examples=300, deadline=None)
@example(ACYCLIC_LINK_H)  # no dominated vertex; the link of vertex 4 is acyclic
@given(graphs(max_n=8))
def test_acyclic_link_keeps_the_homology(h):
    """Mayer-Vietoris: the flag complex of H is that of H - v and the cone
    on the link of v, glued along the link, which is the flag complex of
    H[N(v)].  When that link is nonempty and Q-acyclic, deleting v keeps
    every reduced homology rank."""
    whole = nonzero(reduced_homology_ranks(flag_complex(h)))
    for v in range(h.n):
        link = h.neighbors(v)
        if link and not nonzero(reduced_homology_ranks(flag_complex(induced(h, link)))):
            rest = [u for u in range(h.n) if u != v]
            assert nonzero(reduced_homology_ranks(flag_complex(induced(h, rest)))) == whole


@settings(max_examples=150, deadline=None)
@example(ACYCLIC_LINK_H)
@given(graphs(max_n=7))
def test_graph_step_on_the_whole_vertex_set(h):
    """Given the result of every proper subset, the graph kernel's step on
    all of H is the nonzero ranks of the flag complex of H, or None iff it
    is Q-acyclic."""
    at_subset = [nonzero(reduced_homology_ranks(flag_complex(induced(h, list(bits(w)))))) or None
                 for w in range(1 << h.n)]
    closed = {1 << v: row | 1 << v for v, row in enumerate(h.rows)}
    full = (1 << h.n) - 1
    assert _graph_step(closed, full, at_subset) == at_subset[full]


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_2linear_iff_networkx_complement_chordal(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    assert classify(g).has_2linear == nx.is_chordal(nx.complement(nxg))


@st.composite
def complexes_on_gapped_labels(draw, max_n=7):
    """Any complex with n <= 7 (flag or not) on a sorted label set drawn from
    0..20, so restrictions keep labels that are not positions."""
    labels = sorted(draw(st.sets(st.integers(0, 20), max_size=max_n)))
    facets = draw(st.lists(st.sets(st.sampled_from(labels), min_size=1), max_size=8)) if labels else []
    covered = set().union(*facets)
    facets += [{v} for v in labels if v not in covered]
    return SimplicialComplex.of(labels, facets)


@settings(max_examples=200, deadline=None)
@given(complexes_on_gapped_labels())
def test_hochster_sum_equals_restriction_homology(c):
    # gapped labels catch a wrong relabelling, and the reference's memo
    # persists across examples, so a key it shares between two different
    # restrictions shows up here
    expected: dict[tuple[int, int], int] = {}
    for size in range(1, c.n + 1):  # W = {} gives the implicit beta_(0,0)
        for w in combinations(c.vertices, size):
            for dim, h in reduced_homology_ranks(restrict(c, w)).items():
                if h:
                    key = (size - 1 - dim, size)
                    expected[key] = expected.get(key, 0) + h
    def is_face(s):
        return any(s <= f for f in c.facets)

    # set-based: c is flag when every clique of its 1-skeleton is a face
    cliques = (set(s) for k in range(3, c.n + 1) for s in combinations(c.vertices, k))
    if not all(is_face(s) for s in cliques if all(is_face({a, b}) for a, b in combinations(s, 2))):
        assert ref_hochster_masks(c.n, _position_masks(c)) == expected
        with pytest.raises(ContractViolationError, match="^the oracle takes flag complexes only$"):
            hochster_betti(c)
    else:
        assert hochster_betti(c).entries == expected


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8))
def test_oracle_agrees_with_classify(g):
    table = hochster_betti(flag_complex(complement(g)))
    report = classify(g)
    assert oracle_is_2linear(table) == report.has_2linear
    if report.has_2linear:
        facets = _decompose_masks(complement(g))[1]
        rec = formulas(g.n, facets, report.max_deg)
        assert table.entries == checked_strand(rec, g.n, report.max_deg, report.graph6)[1]
        assert oracle_pd(table) == report.pd


@settings(max_examples=5, deadline=None)
@given(st.integers(15, 18), st.floats(0, 1), st.integers(1, 3), st.randoms(use_true_random=False))
def test_oracle_confirms_the_formulas_up_to_the_cap(n, full_p, components, rnd):
    """For G with a chordal complement on 15 to 18 vertices, `edgering
    oracle` finds the Betti table of the formulas and classify's pd."""
    g = complement(chordal_graph(rnd, n, full_p, components))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["oracle", to_graph6(g)]) == 0
    rec = json.loads(out.getvalue())
    assert rec["n"] == n and rec["match"] is True and rec["two_linear"] is True
    assert rec["pd"] == classify(g).pd


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 62), st.floats(0, 1), st.integers(1, 3), st.randoms(use_true_random=False))
def test_pd_from_the_connectivity_of_the_complement(n, full_p, components, rnd):
    """For G with a chordal complement H, pd(k[G]) = n - 1 - kappa(H), and
    the conjecture holds iff kappa(H) = delta(H), since max deg G =
    n - 1 - delta(H).  A reference that does not use the formulas, for every
    size up to 62, far above the oracle's cap."""
    h = chordal_graph(rnd, n, full_p, min(components, n))
    rec = analyze_record(complement(h))
    if h.num_edges == n * (n - 1) // 2:
        assert rec["pd"] == 0 and rec["conjecture_holds"] is True
        return
    nxh = nx.Graph()
    nxh.add_nodes_from(range(n))
    nxh.add_edges_from(h.edges())
    kappa = nx.node_connectivity(nxh)
    assert rec["pd"] == n - 1 - kappa
    assert rec["conjecture_holds"] == (kappa == min(row.bit_count() for row in h.rows))


FIXTURES = Path(__file__).parent / "fixtures"
GRAPH6_VALUES = (
    "C~", "Bw", "Cl", "DQw", "EQhO", "?", "@", "~", ">>graph6<<C~", "not-a-graph", "é", "",
    to_graph6(Graph(13, (0,) * 13)),
    # 10 disjoint triangles: far above the oracle cap, 3^10 cliques in the complement
    to_graph6(Graph.from_edges(30, [(t + a, t + b) for t in range(0, 30, 3) for a, b in ((0, 1), (0, 2), (1, 2))])),
)
EDGE_VALUES = ("4 0 1 1 2 2 3", "3", "0", "-1", "2 0 0", "2 0 5", "3 0 1 2", "x y", "63", "")
FIXTURE_VALUES = (str(FIXTURES / "hollow.cx"), str(FIXTURES / "missing.cx"), str(FIXTURES), __file__)
SCHEMAS = {name: json.loads(resources.files("edgering.schemas").joinpath(f"{name}.schema.json").read_text())
           for name in ("analyze", "survey", "oracle", "decompose")}


@st.composite
def cli_runs(draw):
    """(argv, stdin text) over the four subcommands; never more than two
    worker processes and never an enumeration above n = 4."""
    command = draw(st.sampled_from(["analyze", "survey", "oracle", "decompose"]))
    graph6 = draw(st.sampled_from(GRAPH6_VALUES))
    if command == "survey":
        argv = [command]
        if draw(st.booleans()):
            argv += ["--all-labeled", draw(st.sampled_from(("-1", "0", "1", "2", "3", "4", "8", "x")))]
        if draw(st.booleans()):
            argv += ["--only-2linear"]
        argv += ["--jobs", draw(st.sampled_from(("1", "2")))]
    else:
        other = (["--edges", draw(st.sampled_from(EDGE_VALUES))] if command == "analyze"
                 else ["--complex", draw(st.sampled_from(FIXTURE_VALUES))])
        sources = {"graph6": [graph6], "other": other, "both": [graph6, *other], "neither": []}
        if command == "analyze":
            sources["stdin"] = ["--stdin"]
        argv = [command, *sources[draw(st.sampled_from(sorted(sources)))]]
    if draw(st.integers(0, 9)) == 0:
        argv.append("--bogus")
    stdin = "\n".join(draw(st.lists(st.sampled_from(GRAPH6_VALUES[:12]), max_size=4)))
    return argv, stdin


@settings(max_examples=150, deadline=None)
@given(cli_runs())
def test_cli_exit_codes_and_json(run):
    argv, stdin = run
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        sys.stdin = saved
    assert code in range(6)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1, 4):
        lines = out.getvalue().splitlines()
        assert lines
        for line in lines:
            jsonschema.validate(json.loads(line), SCHEMAS[argv[0]])
