"""Labeled simple graphs on 0..n-1 with bitset adjacency rows.

Vertices are 0-indexed.  Adjacency is stored as one int per vertex whose bit u
is set iff {v, u} is an edge, so edge membership and neighbor sets are O(1)
bit operations.  Graphs are immutable and safe to share between workers.

No Python loop runs per bit.  An edge mask in graph6 column order decodes
to rows in `rows_from_edge_mask`: row v below the diagonal is one shift and
mask of the edge mask, and the part above it is the transpose of those lower
rows, taken as one 64 x 64 bit matrix by `_transpose64` in six rounds of
block swaps on a single 4096-bit int (Warren, Hacker's Delight, 7-3), so
the decoder assumes n <= 64.  graph6 packs six bits per byte as base64
does, so `binascii` and a `bytes.translate` of the alphabet turn its bit
section into bytes, and `parse_graph6` reads those, last bit first, as the
edge mask.  The encoder and the symmetry check of `Graph` still work at C
level on strings of '0'/'1': a row is `format`ted into a string, and column
v of an n x n matrix held as one string of n*n characters is its stride
slice [v::n].  A graph parsed from graph6 with zero padding bits keeps the
stripped text, its canonical encoding, for `to_graph6` to echo; it is held
outside the dataclass fields, so equality, hash and repr ignore it.

Supported interchange formats:
  * graph6 (short form only, n <= 62): leading byte n+63, then the upper
    triangle in column order (0,1),(0,2),(1,2),(0,3),... packed 6 bits per
    byte big-endian, each byte offset by 63, zero-padded.
  * edge list text: first token n, then pairs "u v".
"""

from __future__ import annotations

import os
import struct
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
# byte b <-> b with its eight bits in reverse order
_REVERSED_BITS = bytes([int(f"{b:08b}"[::-1], 2) for b in range(256)])

# one round of `_transpose64` per bit j of a row or column index: (63j, the
# positions 64r + c with bit j clear in r and set in c, that is the columns'
# pattern times a 1 at bit 64r of each such row)
_TRANSPOSE_ROUNDS = tuple(
    (63 * j, sum(1 << c for c in range(64) if c & j) * sum(1 << 64 * r for r in range(64) if not r & j))
    for j in (32, 16, 8, 4, 2, 1)
)
# row v below the diagonal is `mask >> at & low` of an edge mask
_LOWER_PARTS = tuple((v * (v - 1) // 2, (1 << v) - 1) for v in range(64))
# k rows <-> the bytes of the low 64k bits of a bit matrix held as one int
_WORDS = [struct.Struct(f"<{k}Q") for k in range(65)]


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
        return _valid_graph(n, tuple(rows_from_edge_mask(n, mask)))

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
    """Adjacency rows for an edge bitmask in column order (0,1),(0,2),(1,2),...,
    for n <= 64: column v is row v below the diagonal, and the parts above it
    are the transpose of those lower parts.  The rows are symmetric,
    loop-free and in range by construction."""
    words = _WORDS[n]
    lower = int.from_bytes(words.pack(*[mask >> at & low for at, low in _LOWER_PARTS[:n]]), "little")
    return list(words.unpack((lower | _transpose64(lower)).to_bytes(8 * n, "little")))


def _transpose64(x: int) -> int:
    """The transpose of a 64 x 64 bit matrix held as one int, bit c of row r
    at 64r + c.

    Transposing swaps each bit of r with the same bit of c.  For bit j, that
    exchanges the positions with j clear in r and set in c with those 63j
    above them, one delta swap of five int operations.
    """
    for shift, block in _TRANSPOSE_ROUNDS:
        t = (x ^ x >> shift) & block
        x ^= t ^ t << shift
    return x


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
    # bit i of the edge mask is bit i of the bit section: reversing the bits
    # of each byte and then their order puts it there.  The body is first
    # zero-padded to whole base64 quanta of 24 bits; those bits, and the
    # padding bits of graph6, land above the mask.
    body = data[1:].translate(_TO_BASE64) + b"A" * (-nbytes % 4)
    mask = int.from_bytes(a2b_base64(body).translate(_REVERSED_BITS), "little") & (1 << nbits) - 1
    g = _valid_graph(n, tuple(rows_from_edge_mask(n, mask)))
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


def _decimal(token: str | bytes) -> int:
    """The integer of ASCII decimal digits with an optional leading '-', as
    text or bytes; ValueError for any other token, such as the other Unicode
    digits, '+' and '_' separators that int() also takes."""
    digits = token[1:] if token[:1] in ("-", b"-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


def parse_edge_list(text: str) -> Graph:
    """Parse "n u1 v1 u2 v2 ..." into a graph; duplicate edges collapse."""
    tokens = text.split()
    if not tokens:
        raise MalformedInputError("empty edge list")
    try:
        values = [_decimal(t) for t in tokens]
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
    return _valid_graph(g.n, tuple([full ^ 1 << v ^ row for v, row in enumerate(g.rows)]))


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


def _pool_size(jobs: int) -> int:
    """The worker count of a survey or sweep asked for `jobs`: at least one
    and at most the CPUs this process may run on, as a larger pool only
    costs memory."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(jobs, cpus))


def enumerate_labeled(n: int) -> Iterator[Graph]:
    """All 2^(n(n-1)/2) labeled graphs on n vertices, in edge-mask counter order."""
    if not 0 <= n <= ENUMERATION_CAP:
        raise UnsupportedSizeError(f"labeled enumeration supports 0 <= n <= {ENUMERATION_CAP}")
    for mask in range(1 << (n * (n - 1) // 2)):
        yield Graph.from_edge_mask(n, mask)
