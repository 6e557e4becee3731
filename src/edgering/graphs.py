"""Labeled simple graphs on 0..n-1 with bitset adjacency rows.

Vertices are 0-indexed.  Adjacency is stored as one int per vertex whose bit u
is set iff {v, u} is an edge, so edge membership and neighbor sets are O(1)
bit operations.  Graphs are immutable and safe to share between workers.

The graph6 codecs and the symmetry check of `Graph` do their bit work at C
level on strings of '0'/'1': a row is `format`ted into a string or read back
with `int(..., 2)`, and column v of an n x n matrix held as one string of n*n
characters is its stride slice [v::n], so no Python loop runs per bit.
graph6 packs six bits per byte as base64 does, so `binascii` and a
`bytes.translate` of the alphabet turn bytes into that string and back.  A
graph parsed from graph6 with zero padding bits keeps the stripped text, its
canonical encoding, for `to_graph6` to echo; it is held outside the dataclass
fields, so equality, hash and repr ignore it.

Supported interchange formats:
  * graph6 (short form only, n <= 62): leading byte n+63, then the upper
    triangle in column order (0,1),(0,2),(1,2),(0,3),... packed 6 bits per
    byte big-endian, each byte offset by 63, zero-padded.
  * edge list text: first token n, then pairs "u v".
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import MalformedInputError, UndefinedInputError, UnsupportedSizeError

MAX_VERTICES = 62  # graph6 short form

GRAPH6_HEADER = b">>graph6<<"

# graph6 byte 63 + i <-> base64 digit i: both pack six bits per byte
_GRAPH6_BYTES = bytes(range(63, 127))
_BASE64_BYTES = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(_GRAPH6_BYTES, _BASE64_BYTES)
_FROM_BASE64 = bytes.maketrans(_BASE64_BYTES, _GRAPH6_BYTES)


@dataclass(frozen=True)
class Graph:
    """Immutable labeled simple graph; `rows[v]` is the neighbor bitmask of v."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise UnsupportedSizeError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.rows) != self.n:
            raise MalformedInputError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise MalformedInputError(f"row {v} has bits outside 0..{self.n - 1}")
            if row >> v & 1:
                raise MalformedInputError(f"loop at vertex {v}")
        # `format` writes a row from bit n-1 down to bit 0, so m is the
        # adjacency matrix turned by 180 degrees, which is its own transpose
        # iff the matrix is: iff every column, a stride slice, is its row.
        # On a mismatch, name the first bit above the diagonal without its
        # mirror, else one below it.
        n = self.n
        fmt = f"0{n}b"
        m = "".join([format(row, fmt) for row in reversed(self.rows)])
        if "".join([m[v::n] for v in range(n)]) != m:
            bitrows = [format(row, fmt)[::-1] for row in self.rows]  # bit u of row v at [v][u]
            for v in range(n):
                for u in range(v + 1, n):
                    if bitrows[v][u] == "1" and bitrows[u][v] == "0":
                        raise MalformedInputError(f"asymmetric adjacency between {v} and {u}")
            raise MalformedInputError("asymmetric adjacency: a bit below the diagonal has no mirror")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise MalformedInputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise MalformedInputError(f"loop edge at {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def from_edge_mask(cls, n: int, mask: int) -> "Graph":
        """Graph whose edges are the set bits of `mask` in graph6 column order."""
        if mask < 0 or mask.bit_length() > n * (n - 1) // 2:
            raise MalformedInputError(f"edge mask {mask} outside 0..2^{n * (n - 1) // 2} - 1 for n={n}")
        return cls(n, tuple(rows_from_edge_mask(n, mask)))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.rows[v]))

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in bits(self.rows[v] >> (v + 1) << (v + 1)):
                yield (v, u)

    @property
    def num_edges(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def rows_from_edge_mask(n: int, mask: int) -> list[int]:
    """Adjacency rows for an edge bitmask in column order (0,1),(0,2),(1,2),...;
    column v is row v below the diagonal, and each of its bits u sets bit v of row u."""
    rows = [0] * n
    i = 0
    for v in range(1, n):
        rows[v] = col = mask >> i & ((1 << v) - 1)
        i += v
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= 1 << v
            col ^= low
    return rows


def parse_graph6(text: str | bytes) -> Graph:
    """Parse one short-form graph6 graph (optional '>>graph6<<' header)."""
    try:
        data = text.encode("ascii") if isinstance(text, str) else bytes(text)
    except UnicodeEncodeError as exc:
        raise MalformedInputError(f"graph6 text must be ASCII ({exc.reason})") from None
    data = data.strip()
    if data.startswith(GRAPH6_HEADER):
        data = data[len(GRAPH6_HEADER):]
    if not data:
        raise MalformedInputError("empty graph6 input")
    if data[0] == 126:
        raise UnsupportedSizeError("long-form graph6 (n > 62) is not supported")
    bad = data.translate(None, _GRAPH6_BYTES)
    if bad:
        raise MalformedInputError(f"byte {bad[0]} outside graph6 range 63..126")
    n = data[0] - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - 1 != nbytes:
        raise MalformedInputError(
            f"bit section has {len(data) - 1} bytes, expected {nbytes} for n={n}"
        )
    # column v is the v bits (0,v),(1,v),..,(v-1,v): bit u of row v below the
    # diagonal.  Padded to n and joined into t, the stride slice t[v::n] is
    # the bits above it, here read from u = n-1 down.  The body, zero-padded
    # to whole base64 quanta of 24 bits, decodes to the bit string s at C level.
    body = data[1:].translate(_TO_BASE64) + b"A" * (-nbytes % 4)
    raw = a2b_base64(body)
    s = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
    pad = "0" * n
    cols = [s[v * (v - 1) // 2 : v * (v + 1) // 2] + pad[v:] for v in range(n)]
    t = "".join(cols)
    last = n * n - n
    # row v is col v below the diagonal and the bits (v, u), u > v, above
    # it, so the rows are symmetric, loop-free and in range by construction
    rows = [int(col[::-1], 2) | int(t[last + v :: -n], 2) for v, col in enumerate(cols)]
    g = _valid_graph(n, tuple(rows))
    if (data[-1] - 63) & ((1 << 6 * nbytes - nbits) - 1) == 0:
        # zero padding bits: the canonical encoding of g, which `to_graph6` echoes
        g.__dict__["_graph6"] = data.decode("ascii")
    return g


def to_graph6(g: Graph) -> str:
    """Canonical short-form graph6 encoding of this labeled graph."""
    text = g.__dict__.get("_graph6")
    if text is not None:
        return text
    if g.n > MAX_VERTICES:
        raise UnsupportedSizeError(f"n={g.n} exceeds graph6 short form")
    s = "".join([format(g.rows[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, g.n)])
    nbytes = (len(s) + 5) // 6
    s += "0" * (-len(s) % 24)
    body = b2a_base64(int(s or "0", 2).to_bytes(len(s) // 8, "big"), newline=False)
    return chr(g.n + 63) + body[:nbytes].translate(_FROM_BASE64).decode("ascii")


def parse_edge_list(text: str) -> Graph:
    """Parse "n u1 v1 u2 v2 ..." into a graph; duplicate edges collapse."""
    tokens = text.split()
    if not tokens:
        raise MalformedInputError("empty edge list")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise MalformedInputError(f"non-integer token in edge list: {exc}") from None
    n = values[0]
    if n < 0:
        raise MalformedInputError(f"negative vertex count {n}")
    if n > MAX_VERTICES:
        raise UnsupportedSizeError(f"vertex count {n} exceeds {MAX_VERTICES}")
    rest = values[1:]
    if len(rest) % 2:
        raise MalformedInputError("odd number of endpoints; edges must come in pairs")
    return Graph.from_edges(n, list(zip(rest[::2], rest[1::2])))


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges of g.

    g is already validated and its complement is symmetric and loop-free by
    construction, so the checks of `Graph.__post_init__` are not re-run.
    """
    full = (1 << g.n) - 1
    return _valid_graph(g.n, tuple(full & ~row & ~(1 << v) for v, row in enumerate(g.rows)))


def _valid_graph(n: int, rows: tuple[int, ...]) -> Graph:
    """Graph(n, rows) without the checks of `Graph.__post_init__`, for rows
    that are valid by construction; the tests hold each caller to that."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "rows", rows)
    return g


def max_degree(g: Graph) -> int:
    if g.n == 0:
        raise UndefinedInputError("max degree of the empty graph is undefined")
    return max(row.bit_count() for row in g.rows)


ENUMERATION_CAP = 7


def mask_count(n: int) -> int:
    """2^(n(n-1)/2), the number of labeled graphs that a sweep or an
    all-labeled survey of size n covers; those need 1 <= n <= ENUMERATION_CAP."""
    if n < 1:
        raise UndefinedInputError("sweeps and surveys of all labeled graphs need at least one vertex")
    if n > ENUMERATION_CAP:
        raise UnsupportedSizeError(
            f"sweeps and surveys of all labeled graphs support 1..{ENUMERATION_CAP} vertices"
        )
    return 1 << (n * (n - 1) // 2)


def enumerate_labeled(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled graphs on n vertices, in edge-mask counter order."""
    if not 0 <= n <= ENUMERATION_CAP:
        raise UnsupportedSizeError(f"labeled enumeration supports 0 <= n <= {ENUMERATION_CAP}")
    for mask in range(1 << (n * (n - 1) // 2)):
        yield Graph.from_edge_mask(n, mask)
