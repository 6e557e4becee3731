import random

import pytest
from hypothesis import given, settings, strategies as st

from edgering.errors import (
    MalformedInputError,
    UndefinedInputError,
    UnsupportedSizeError,
)
from edgering.graphs import (
    Graph,
    complement,
    enumerate_labeled,
    max_degree,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from conftest import raised, random_graph, ref_check_rows


def k(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


class TestGraph6Parse:
    def test_edgeless_four(self):
        g = parse_graph6("C?")
        assert g.n == 4 and g.num_edges == 0

    def test_complete_four(self):
        # '~' = 126 = 63 + 0b111111: all six upper-triangle bits set
        assert parse_graph6("C~") == k(4)

    def test_single_edge(self):
        # 'A' gives n=2; byte 95 = 63 + 0b100000 sets the (0,1) bit
        g = parse_graph6("A_")
        assert g.n == 2 and list(g.edges()) == [(0, 1)]

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<C~") == k(4)

    def test_byte_out_of_range(self):
        # the first byte outside 63..126 is named
        with pytest.raises(MalformedInputError, match="^byte 32 outside graph6 range 63..126$"):
            parse_graph6(b"C\x20\x7f")
        with pytest.raises(MalformedInputError, match="^byte 127 outside graph6 range 63..126$"):
            parse_graph6(b"C\x7f\x20")

    def test_truncated(self):
        with pytest.raises(MalformedInputError):
            parse_graph6("E?")  # n=6 needs 3 bit-section bytes

    def test_trailing_garbage(self):
        with pytest.raises(MalformedInputError):
            parse_graph6("C??")

    def test_long_form_rejected(self):
        with pytest.raises(UnsupportedSizeError):
            parse_graph6("~??")

    def test_empty(self):
        with pytest.raises(MalformedInputError):
            parse_graph6("")

    def test_zero_vertices(self):
        g = parse_graph6("?")
        assert g.n == 0


class TestGraph6Serialize:
    def test_edgeless(self):
        assert to_graph6(Graph(4, (0, 0, 0, 0))) == "C?"

    def test_complete_four(self):
        assert to_graph6(k(4)) == "C~"

    def test_c4_hand_encoded(self):
        # column order bits for the 4-cycle: 1,0,1,1,0,1 -> 0b101101 = 45 -> chr(108)
        assert to_graph6(C4) == "Cl"

    def test_round_trip_random(self, rng):
        for n in range(1, 21):
            for _ in range(200):
                g = random_graph(rng, n)
                assert parse_graph6(to_graph6(g)) == g


class TestEdgeList:
    def test_c4(self):
        assert parse_edge_list("4 0 1 1 2 2 3 3 0") == C4

    def test_isolated_vertex(self):
        g = parse_edge_list("1")
        assert g.n == 1 and g.num_edges == 0

    def test_duplicates_collapse(self):
        g = parse_edge_list("3 0 1 0 1")
        assert g.n == 3 and list(g.edges()) == [(0, 1)]

    def test_out_of_range(self):
        with pytest.raises(MalformedInputError):
            parse_edge_list("3 0 3")

    def test_loop(self):
        with pytest.raises(MalformedInputError):
            parse_edge_list("3 1 1")

    def test_non_integer(self):
        with pytest.raises(MalformedInputError):
            parse_edge_list("3 0 x")

    # int() alone takes other Unicode digits, '+' and '_' separators too
    @pytest.mark.parametrize("text", ["\uff14 0 1 1 2 2 3 3 0", "3 \u0660 1", "3 0_0 1", "+3 0 1", "3 0 -", "3 0 --1"])
    def test_non_decimal_token(self, text):
        with pytest.raises(MalformedInputError, match="^non-integer token in edge list: "):
            parse_edge_list(text)

    def test_negative_count(self):
        with pytest.raises(MalformedInputError, match="^negative vertex count -3$"):
            parse_edge_list("-3 0 1")

    def test_odd_tokens(self):
        with pytest.raises(MalformedInputError):
            parse_edge_list("3 0")


class TestComplement:
    def test_c4(self):
        assert sorted(complement(C4).edges()) == [(0, 2), (1, 3)]

    def test_complete(self):
        assert complement(k(5)).num_edges == 0

    def test_involution(self, rng):
        for n in range(0, 10):
            for _ in range(50):
                g = random_graph(rng, n)
                assert complement(complement(g)) == g

    def test_degree_sum(self, rng):
        for _ in range(100):
            g = random_graph(rng, 8)
            gb = complement(g)
            assert all(g.degree(v) + gb.degree(v) == 7 for v in range(8))


class TestMaxDegree:
    def test_c4(self):
        assert max_degree(C4) == 2

    def test_k33(self):
        g = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
        assert max_degree(g) == 3

    def test_edgeless(self):
        assert max_degree(Graph(5, (0,) * 5)) == 0

    def test_empty_graph_undefined(self):
        with pytest.raises(UndefinedInputError):
            max_degree(Graph(0, ()))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 2), (4, 64), (6, 32768)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_labeled(n)) == count

    def test_distinct(self):
        seen = {to_graph6(g) for g in enumerate_labeled(4)}
        assert len(seen) == 64

    def test_cap(self):
        with pytest.raises(UnsupportedSizeError):
            next(enumerate_labeled(8))


class TestValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(MalformedInputError):
            Graph(2, (2, 0))
        with pytest.raises(MalformedInputError):
            Graph(2, (0, 1))  # a bit below the diagonal only

    def test_loop_rejected(self):
        with pytest.raises(MalformedInputError):
            Graph(2, (1, 1))

    def test_size_cap(self):
        with pytest.raises(UnsupportedSizeError):
            Graph(63, (0,) * 63)

    @pytest.mark.parametrize("n,mask", [(3, -1), (3, 8), (1, 1), (0, 1), (7, 1 << 21)])
    def test_edge_mask_out_of_range(self, n, mask):
        with pytest.raises(MalformedInputError, match="edge mask"):
            Graph.from_edge_mask(n, mask)

    def test_edge_mask_extremes(self):
        assert Graph.from_edge_mask(3, 7) == k(3)
        assert Graph.from_edge_mask(3, 0) == Graph(3, (0, 0, 0))
        assert Graph.from_edge_mask(0, 0) == Graph(0, ())


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 62).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 2**32), st.integers(0, n - 1), st.integers(0, n - 2)
)))
def test_one_flipped_bit_is_asymmetric(args):
    """Flipping one bit off the diagonal of a symmetric graph, above or below
    it, is rejected with the message of the bit-by-bit check."""
    n, seed, v, u = args
    u += u >= v  # any u != v
    rows = list(random_graph(random.Random(seed), n).rows)
    rows[v] ^= 1 << u
    error = raised(Graph, n, tuple(rows))
    assert error is not None and error[0] is MalformedInputError
    assert error == raised(ref_check_rows, n, rows)
