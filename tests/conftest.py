"""Independent reference checkers shared by the test modules.

Everything here is deliberately written set-based and naively, without
reusing the package's bitmask machinery, so that library results are checked
against genuinely independent code paths.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest

from edgering.graphs import Graph


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


def skeleton(rng: random.Random, facets) -> Graph:
    """The 1-skeleton of a facet list, its vertices randomly relabelled."""
    n = len(set().union(*facets))
    label = rng.sample(range(n), n)
    return Graph.from_edges(n, [(label[u], label[v]) for f in facets for u in f for v in f if u < v])


def random_graph(rng: random.Random, n: int) -> Graph:
    mask = rng.getrandbits(n * (n - 1) // 2) if n > 1 else 0
    return Graph.from_edge_mask(n, mask)


def random_quasi_forest_facets(rng: random.Random, max_n: int = 10) -> list[frozenset[int]]:
    """Build a quasi-forest facet list by attaching simplices one at a time."""
    first = rng.randint(1, min(4, max_n))
    facets = [frozenset(range(first))]
    fresh = first
    while True:
        grow = rng.randint(1, 3)
        if fresh + grow > max_n or rng.random() < 0.25:
            break
        base = facets[rng.randrange(len(facets))]
        attach_size = rng.randint(0, len(base) - 1)
        attach = frozenset(rng.sample(sorted(base), attach_size))
        facets.append(attach | frozenset(range(fresh, fresh + grow)))
        fresh += grow
    return facets


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240831)
