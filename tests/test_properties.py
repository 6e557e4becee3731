"""Property-based tests: the parsers on arbitrary input, and chordality of
the complement against networkx as one more independent recognizer."""

import networkx as nx
from hypothesis import given, settings, strategies as st

from edgering.complexes import parse_complex
from edgering.conjecture import classify
from edgering.errors import EdgeRingError
from edgering.graphs import Graph, parse_edge_list, parse_graph6

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


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(1, max_n))
    return Graph.from_edge_mask(n, draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1)))


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_2linear_iff_networkx_complement_chordal(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    assert classify(g).has_2linear == nx.is_chordal(nx.complement(nxg))
