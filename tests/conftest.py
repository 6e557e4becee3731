"""Independent reference checkers shared by the test modules.

The checkers are deliberately written set-based and naively, without reusing
the package's bitmask machinery, so that library results are checked against
genuinely independent code paths.  The `ref_*` functions at the end are the
straightforward earlier forms of the hot-path kernels (linear-scan search,
an induced-cycle walk over the vertex subsets, bit-by-bit graph6, edge
masks and bit-matrix transposes, one add
per facet, pairwise frozenset checks, a Kruskal clique forest walked in
preorder, a Hochster sum that keys every subset and folds a missed key to
its core, dense Bareiss elimination for exact rank);
the property tests require the package's kernels to agree with them exactly,
or, for the facet order, on everything but the order within a component.
`graphs` is the Hypothesis strategy of mixed random graphs that several
test modules draw from.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from itertools import combinations, permutations
from unittest.mock import patch

import pytest
from hypothesis import strategies as st

from edgering.complexes import (
    SimplicialComplex,
    _homology_ranks,
    _maximal_masks,
    reduced_homology_ranks,
    restrict,
)
from edgering.errors import (
    ContractViolationError,
    EdgeRingError,
    InternalInvariantError,
    MalformedInputError,
)
from edgering.graphs import MAX_VERTICES, Graph, bits, complement
from edgering.invariants import one_minus_t_pow


def check_peo(g: Graph, peo) -> bool:
    """Set-based perfect elimination ordering verifier."""
    if sorted(peo) != list(range(g.n)):
        return False
    pos = {v: i for i, v in enumerate(peo)}
    for idx, v in enumerate(peo):
        later = [u for u in g.neighbors(v) if pos[u] > idx]
        for a, b in combinations(later, 2):
            if not g.has_edge(a, b):
                return False
    return True


def check_chordless_cycle(g: Graph, cycle) -> bool:
    """Verify an induced cycle certificate: length >= 4, no chord."""
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    for i in range(k):
        if not g.has_edge(cycle[i], cycle[(i + 1) % k]):
            return False
    for i, j in combinations(range(k), 2):
        if (j - i) % k in (1, k - 1):
            continue
        if g.has_edge(cycle[i], cycle[j]):
            return False
    return True


def brute_is_chordal(g: Graph) -> bool:
    """Chordality by enumerating all induced cycles of length >= 4."""
    for size in range(4, g.n + 1):
        for sub in combinations(range(g.n), size):
            degs = [sum(1 for u in sub if g.has_edge(v, u)) for v in sub]
            if any(d != 2 for d in degs):
                continue
            seen = {sub[0]}
            stack = [sub[0]]
            while stack:
                a = stack.pop()
                for b in sub:
                    if b not in seen and g.has_edge(a, b):
                        seen.add(b)
                        stack.append(b)
            if len(seen) == size:
                return False
    return True


def naive_maximal_cliques(g: Graph) -> set[frozenset[int]]:
    """Every clique, grown one vertex at a time; the maximal ones are those
    that no outside vertex extends."""
    cliques: list[tuple[int, ...]] = []
    level: list[tuple[int, ...]] = [()]
    while level:
        cliques += level
        level = [
            c + (u,)
            for c in level
            for u in range(c[-1] + 1 if c else 0, g.n)
            if all(g.has_edge(u, v) for v in c)
        ]
    return {
        frozenset(c)
        for c in cliques[1:]
        if not any(all(g.has_edge(u, v) for v in c) for u in range(g.n) if u not in c)
    }


def quasi_forest_attachments(order) -> list[int] | None:
    """|F_i intersect (F_1 u ... u F_(i-1))| for i >= 2 when every such
    intersection lies in a single earlier facet (running intersection), else None."""
    sets = [frozenset(f) for f in order]
    union: frozenset = frozenset()
    sizes = []
    for i, f in enumerate(sets):
        if i:
            inter = f & union
            if inter and not any(inter <= e for e in sets[:i]):
                return None
            sizes.append(len(inter))
        union |= f
    return sizes


def brute_is_quasi_forest(facets) -> bool:
    """Try every facet ordering against the recursive attachment condition."""
    return any(quasi_forest_attachments(perm) is not None for perm in permutations(facets))


def format_fixture(c: SimplicialComplex) -> str:
    """The complex fixture text of c on the ground set 0..n-1: the vertex
    count, then one facet per line."""
    assert c.vertices == tuple(range(c.n))
    lines = [str(c.n)] + [" ".join(map(str, f)) for f in c.facet_lists()]
    return "\n".join(lines) + "\n"


def skeleton(rng: random.Random, facets) -> Graph:
    """The 1-skeleton of a facet list, its vertices randomly relabelled."""
    n = len(set().union(*facets))
    label = rng.sample(range(n), n)
    return Graph.from_edges(n, [(label[u], label[v]) for f in facets for u in f for v in f if u < v])


def random_graph(rng: random.Random, n: int) -> Graph:
    mask = rng.getrandbits(n * (n - 1) // 2) if n > 1 else 0
    return Graph.from_edge_mask(n, mask)


def chordal_graph(rng: random.Random, n: int, full_p: float, components: int) -> Graph:
    """A random chordal graph on n vertices grown by perfect elimination.

    Each vertex after the first of its component joins a subset of an earlier
    clique of that component (the whole clique with probability `full_p`),
    so it is simplicial when added.  The labels are shuffled at the end.
    """
    starts = {0} | set(rng.sample(range(1, n), components - 1))
    edges = []
    for v in range(n):
        if v in starts:
            cliques = [[v]]  # the cliques of the component that v starts
            continue
        clique = rng.choice(cliques)
        if len(clique) > 1 and rng.random() >= full_p:
            clique = rng.sample(clique, rng.randint(1, len(clique) - 1))
        edges += [(u, v) for u in clique]
        cliques.append(clique + [v])
    label = rng.sample(range(n), n)
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


@st.composite
def graphs(draw, max_n=MAX_VERTICES, min_n=0):
    """A graph on min_n..max_n vertices: G(n, p) for p in {1/2, 1/4, 1/8},
    or a chordal graph or its complement."""
    n = draw(st.integers(min_n, max_n))
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


def random_quasi_forest_facets(
    rng: random.Random, max_n: int = 10, stop: float = 0.25
) -> list[frozenset[int]]:
    """Build a quasi-forest facet list by attaching simplices one at a time,
    stopping with probability `stop` before each one or when the next would
    pass `max_n` vertices."""
    first = rng.randint(1, min(4, max_n))
    facets = [frozenset(range(first))]
    fresh = first
    while True:
        grow = rng.randint(1, 3)
        if fresh + grow > max_n or rng.random() < stop:
            break
        base = facets[rng.randrange(len(facets))]
        attach_size = rng.randint(0, len(base) - 1)
        attach = frozenset(rng.sample(sorted(base), attach_size))
        facets.append(attach | frozenset(range(fresh, fresh + grow)))
        fresh += grow
    return facets


def ref_mcs_order(n: int, rows) -> list[int]:
    """Maximum cardinality search by a linear scan for the heaviest unvisited
    vertex, the first (lowest) one on ties."""
    order = []
    weights = [0] * n
    unvisited = (1 << n) - 1
    for _ in range(n):
        best = -1
        best_w = -1
        m = unvisited
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            if weights[u] > best_w:
                best_w = weights[u]
                best = u
        order.append(best)
        unvisited ^= 1 << best
        m = rows[best] & unvisited
        while m:
            low = m & -m
            weights[low.bit_length() - 1] += 1
            m ^= low
    return order


def ref_has_long_induced_cycle(n: int, rows) -> bool:
    """Induced cycle of length >= 4 by a walk over every vertex subset of size
    >= 4: some subset must be 2-regular in the induced subgraph and connected."""
    for size in range(4, n + 1):
        for combo in combinations(range(n), size):
            s = sum(1 << v for v in combo)
            if any((rows[v] & s).bit_count() != 2 for v in combo):
                continue
            reached = 1 << combo[0]
            while True:
                grow = reached
                for v in bits(reached):
                    grow |= rows[v] & s
                if grow == reached:
                    break
                reached = grow
            if reached == s:
                return True
    return False


def ref_rows_from_edge_mask(n: int, mask: int) -> list[int]:
    """Adjacency rows of an edge mask in graph6 column order, one bit at a time."""
    rows = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if mask >> i & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            i += 1
    return rows


def ref_transpose64(x: int) -> int:
    """The transpose of a 64 x 64 bit matrix held as one int, bit c of row r
    at 64r + c, one bit at a time."""
    return sum(1 << 64 * c + r for r in range(64) for c in range(64) if x >> 64 * r + c & 1)


def ref_graph6_rows(data: bytes) -> list[int]:
    """Adjacency rows of valid short-form graph6 bytes (no header), decoded
    one bit at a time; padding bits are ignored."""
    n = data[0] - 63
    rows = [0] * n
    acc = 0
    accbits = 0
    pos = 1
    for v in range(1, n):
        for u in range(v):
            if accbits == 0:
                acc = data[pos] - 63
                accbits = 6
                pos += 1
            accbits -= 1
            if acc >> accbits & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def ref_to_graph6(g: Graph) -> str:
    """Short-form graph6 encoded one bit at a time."""
    out = [g.n + 63]
    acc = 0
    accbits = 0
    for v in range(1, g.n):
        row = g.rows[v]
        for u in range(v):
            acc = acc << 1 | (row >> u & 1)
            accbits += 1
            if accbits == 6:
                out.append(acc + 63)
                acc = 0
                accbits = 0
    if accbits:
        out.append((acc << (6 - accbits)) + 63)
    return bytes(out).decode("ascii")


def ref_check_rows(n: int, rows) -> None:
    """The symmetry check of `Graph`, bit by bit: raises what `Graph(n, rows)`
    raises for rows that pass its range and loop checks."""
    upper = 0
    for v, row in enumerate(rows):
        m, u = row >> (v + 1), v + 1
        while m:
            if m & 1:
                if not rows[u] >> v & 1:
                    raise MalformedInputError(f"asymmetric adjacency between {v} and {u}")
                upper += 1
            m, u = m >> 1, u + 1
    if sum(row.bit_count() for row in rows) != 2 * upper:
        raise MalformedInputError("asymmetric adjacency: a bit below the diagonal has no mirror")


def ref_numerator(n: int, dims, attach_dims) -> list[int]:
    """The Hilbert numerator over (1-t)^n with one add per facet and per
    attachment."""
    coeffs = [0] * (n + 1)
    for d in dims:
        for i, c in enumerate(one_minus_t_pow(n - d - 1)):
            coeffs[i] += c
    for r in attach_dims:
        for i, c in enumerate(one_minus_t_pow(n - r - 1)):
            coeffs[i] -= c
    return coeffs


def ref_check_decomposition(facets, dims, attach_dims, n: int) -> None:
    """The checks of `QuasiForestDecomposition` by pairwise frozenset
    comparisons: raises what its constructor raises.  The structural checks
    of the facets come first, then the facet dimensions, then the attachment
    dimensions."""
    k = len(facets)
    if k == 0:
        raise ContractViolationError("a quasi-forest has at least one facet")
    union: frozenset[int] = frozenset()
    for i, f in enumerate(facets):
        if not f:
            raise ContractViolationError("empty facet")
        if any(f <= g for j, g in enumerate(facets) if j != i):
            raise ContractViolationError("facets must be inclusion-free")
        if i:
            inter = f & union
            if inter == f:
                raise InternalInvariantError("facet adds no new vertex")
            if inter and not any(inter <= g for g in facets[:i]):
                raise ContractViolationError("attachment is not a face of a single earlier facet")
        union |= f
    if len(union) != n:
        raise InternalInvariantError("vertex count does not match facet union")
    if len(dims) != k or len(attach_dims) != k - 1:
        raise InternalInvariantError("dimension lists inconsistent with facet count")
    if any(len(f) - 1 != d for f, d in zip(facets, dims)):
        raise InternalInvariantError("facet dimension mismatch")
    for i in range(1, k):
        if len(facets[i] & frozenset().union(*facets[:i])) - 1 != attach_dims[i - 1]:
            raise InternalInvariantError("attachment dimension mismatch")


def ref_quasi_forest_masks(cliques) -> tuple[list[int], list[int]]:
    """Maximal clique masks of a chordal graph to (ordered facet masks,
    attachment sizes) through a maximum-weight spanning forest of the clique
    intersection graph.

    The cliques are sorted by their sorted vertex lists and joined by Kruskal
    on (-separator size, i, j) with a union-find.  Components come in order
    of their smallest vertex; each is walked in preorder, ascending children
    first, from its clique with the smallest minimum vertex (then index).
    """
    cl = sorted(cliques, key=lambda m: sorted(bits(m)))
    k = len(cl)
    weighted = sorted(
        (-(cl[i] & cl[j]).bit_count(), i, j)
        for i in range(k)
        for j in range(i + 1, k)
        if cl[i] & cl[j]
    )
    parent = list(range(k))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj: list[list[int]] = [[] for _ in range(k)]
    for _, i, j in weighted:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri
            adj[i].append(j)
            adj[j].append(i)
    key = [(min(bits(c)), i) for i, c in enumerate(cl)]
    comps: dict[int, list[int]] = {}
    for i in range(k):
        comps.setdefault(find(i), []).append(i)
    order: list[int] = []
    placed = [False] * k
    for comp in sorted(comps.values(), key=lambda comp: min(key[i] for i in comp)):
        root = min(comp, key=key.__getitem__)
        placed[root] = True
        stack = [root]
        while stack:
            a = stack.pop()
            order.append(a)
            for b in sorted(adj[a], reverse=True):
                if not placed[b]:
                    placed[b] = True
                    stack.append(b)
    facets = [cl[i] for i in order]
    sizes, union = [], 0
    for f in facets:
        sizes.append((f & union).bit_count())
        union |= f
    return facets, sizes[1:]


def ref_bareiss_rank(matrix: list[list[int]]) -> int:
    """Rank over Q of a dense integer matrix by fraction-free (Bareiss)
    elimination: every update divides exactly by the previous pivot, which
    is chosen with the smallest absolute value in its column."""
    rows = [row[:] for row in matrix if any(row)]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    prev = 1
    for c in range(ncols):
        pivot_row = -1
        pivot_abs = 0
        for i in range(r, len(rows)):
            v = rows[i][c]
            if v and (pivot_row < 0 or abs(v) < pivot_abs):
                pivot_row = i
                pivot_abs = abs(v)
                if pivot_abs == 1:
                    break
        if pivot_row < 0:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][c]
        base = rows[r]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[c]
            if f == 0:
                if p != prev:
                    for j in range(c + 1, ncols):
                        row[j] = row[j] * p // prev
            else:
                for j in range(c + 1, ncols):
                    row[j] = (row[j] * p - base[j] * f) // prev
            row[c] = 0
        r += 1
        prev = p
        if r == len(rows):
            break
    return r


def sparse_rows(matrix: list[list[int]]) -> list[dict[int, int]]:
    """A dense matrix as the sparse rows {column: entry} of `intlinalg.rank`."""
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


def _compress(piece: int, w: int) -> int:
    """`piece`, a subset of the mask `w`, relabelled onto 0..|w|-1 in order."""
    out = 0
    while piece:
        low = piece & -piece
        out |= 1 << (w & (low - 1)).bit_count()
        piece ^= low
    return out


_REF_FACET_MEMO: dict[tuple[int, ...], dict[int, int]] = {}


def ref_hochster_masks(n: int, facets) -> dict[tuple[int, int], int]:
    """Betti entries of the complex on 0..n-1 with these facet masks, but
    the implicit beta_(0,0) = 1.

    Every subset W builds a raw key, the maximal nonempty f & W relabelled
    onto 0..|W|-1; a key that misses its own memo is folded to its
    strong-collapse core by `ref_core_key`, which is looked up too.
    """
    entries: dict[tuple[int, int], int] = {}
    for w in range(1 << n):
        key = tuple(sorted(_compress(piece, w) for piece in _maximal_masks({f & w for f in facets} - {0})))
        ranks = _REF_FACET_MEMO.get(key)
        if ranks is None:
            core = ref_core_key(key)
            ranks = _REF_FACET_MEMO.get(core)
            if ranks is None:
                ranks = _REF_FACET_MEMO[core] = _homology_ranks(core)
            _REF_FACET_MEMO[key] = ranks
        j = w.bit_count()
        for dim, h in ranks.items():
            if h:
                i = j - 1 - dim
                entries[(i, j)] = entries.get((i, j), 0) + h
    assert entries.pop((0, 0)) == 1
    return entries


def ref_core_key(key: tuple[int, ...]) -> tuple[int, ...]:
    """Strong-collapse core of the complex with facet masks `key`, as a key.

    Deletes one dominated vertex at a time until none is left; the result has
    the same reduced homology ranks and is relabelled onto 0..|core|-1.
    """
    if not key:
        return key
    apex = -1
    for f in key:
        apex &= f
    if apex:
        return (1,)
    facets = list(key)
    deleted = True
    while deleted:
        deleted = False
        support = 0
        for f in facets:
            support |= f
        m = support
        while m:
            v = m & -m
            m ^= v
            common = -1
            for f in facets:
                if f & v:
                    common &= f
            if common != v:
                facets = _maximal_masks({f & ~v for f in facets})
                deleted = True
    return tuple(sorted(_compress(f, support) for f in facets))


def ref_dominated_pairs(g: Graph, most: int) -> list[tuple[int, int]]:
    """Greedy vertex-disjoint pairs (v, u) with the closed neighbourhood of u
    a subset of that of v, set-based: for u = 0, 1, ... not yet in a pair,
    the lowest such v not yet in one, until there are `most` pairs."""
    closed = [set(g.neighbors(x)) | {x} for x in range(g.n)]
    used: set[int] = set()
    pairs = []
    for u in range(g.n):
        if len(pairs) < most and u not in used:
            v = min((v for v in range(g.n) if v != u and v not in used and closed[u] <= closed[v]), default=None)
            if v is not None:
                used |= {u, v}
                pairs.append((v, u))
    return pairs


def packed_ranks(ranks: dict[int, int]) -> int:
    """Reduced homology ranks in the packed form of the oracle's graph
    kernel, built here from its definition: rank H~_d times 2^(32(d + 1)),
    summed, so 0 for a Q-acyclic complex and 1 for the empty one."""
    assert all(0 <= h < 2**31 for h in ranks.values())
    return sum(h * 2 ** (32 * (d + 1)) for d, h in ranks.items())


def restriction_sum(c: SimplicialComplex) -> dict[tuple[int, int], int]:
    """Hochster's formula summed over `restrict` and `reduced_homology_ranks`."""
    entries: dict[tuple[int, int], int] = {}
    for w in range(1, 1 << c.n):
        sub = restrict(c, [v for i, v in enumerate(c.vertices) if w >> i & 1])
        for dim, h in reduced_homology_ranks(sub).items():
            if h:
                key = (sub.n - 1 - dim, sub.n)
                entries[key] = entries.get(key, 0) + h
    return entries


# The complement of `Frqa_`: no vertex is dominated (no closed neighbourhood
# lies in another), yet the neighbourhood {2, 3, 5, 6} of vertex 4 spans the
# path 2-6-5-3, so the link of 4 in the flag complex is acyclic
ACYCLIC_LINK_H = Graph.from_edges(
    7, [(0, 3), (0, 6), (1, 2), (1, 5), (2, 4), (2, 6), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6)]
)


# complexes that are not flag, as (n, facets): each has a clique of its
# 1-skeleton that is no face
NON_FLAG_COMPLEXES = [
    (3, [[0, 1], [1, 2], [0, 2]]),  # hollow triangle
    (4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),  # hollow tetrahedron
    (5, [[0, 1, 2], [1, 3], [2, 3], [3, 4]]),  # {1, 2, 3} is a clique, not a face
]


def induced(g: Graph, keep) -> Graph:
    """g[keep], relabelled onto 0..len(keep)-1 in the order of `keep`."""
    pos = {v: i for i, v in enumerate(keep)}
    return Graph.from_edges(len(pos), [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos])


@contextmanager
def recording_exact_calls():
    """Wrap the oracle's exact homology, `oracle._homology_ranks`, and yield
    the list of its calls as (W, ranks): W the vertex subset, the union of
    the facet masks it was given, and ranks its nonzero results."""
    from edgering import oracle

    exact = oracle._homology_ranks
    calls: list[tuple[int, dict[int, int]]] = []

    def recorded(facets):
        ranks = exact(facets)
        w = 0
        for f in facets:
            w |= f
        calls.append((w, {d: h for d, h in ranks.items() if h}))
        return ranks

    with patch.object(oracle, "_homology_ranks", recorded):
        yield calls


@pytest.fixture
def exact_calls():
    """The calls of the oracle's exact homology during the test, as
    `recording_exact_calls` records them."""
    with recording_exact_calls() as calls:
        yield calls


def kernel_labels(h: Graph) -> tuple[list[int], int]:
    """The vertex of H that each label of the oracle's graph kernel stands
    for, and the number k of pairs.  From `oracle.PAIRED_FROM` vertices on,
    the k dominated pairs (v, u) of `oracle._dominated_pairs` take the
    labels 2i and 2i + 1 in their order, and the other vertices follow in
    theirs; below, k = 0 and every vertex keeps its own label."""
    from edgering import oracle

    pairs = oracle._dominated_pairs(h.n, h.rows) if h.n >= oracle.PAIRED_FROM else []
    order = [x for pair in pairs for x in pair]
    return order + [x for x in range(h.n) if x not in order], len(pairs)


def assert_exact_calls_hold_cores(h: Graph, calls) -> None:
    """Every subset W that reached exact homology on the flag complex of H,
    mapped back from the kernel's labels by `kernel_labels`, has k != 1
    vertices and got the nonzero reduced homology ranks of the flag complex
    of H[W], and the Mayer-Vietoris rule fits at none of its vertices: none
    is dominated, and for every v some degree holds homology in both its
    link (the flag complex of its neighbourhood, the empty one with rank 1
    in dimension -1) and the restriction to W - v.  So no link is empty or
    Q-acyclic, and no deletion leaves a Q-acyclic restriction."""
    from edgering.complexes import flag_complex

    def nonzero(g: Graph) -> dict[int, int]:
        return {d: h for d, h in reduced_homology_ranks(flag_complex(g)).items() if h}

    labels = kernel_labels(h)[0]
    for w, ranks in calls:
        core = induced(h, [labels[a] for a in bits(w)])
        k = core.n
        assert k != 1
        closed = [row | 1 << v for v, row in enumerate(core.rows)]
        assert not any(u != v and closed[v] & ~closed[u] == 0 for u in range(k) for v in range(k))
        assert ranks == nonzero(core)
        for v in range(k):
            link = nonzero(induced(core, core.neighbors(v)))
            assert link.keys() & nonzero(induced(core, [u for u in range(k) if u != v])).keys()


def raised(f, *args):
    """(exception class, message) that f(*args) raises, or None."""
    try:
        f(*args)
    except EdgeRingError as exc:
        return type(exc), str(exc)
    return None


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240831)
