"""Seeded input generation; nothing here imports edgering.

Graphs are adjacency bitmask rows (row v has bit u set iff {u, v} is an
edge) and reach the program only as graph6 strings or edge-mask ranges.
"""

from __future__ import annotations

import random

SURVEY_N = range(8, 63)  # every graph6 short-form size from 8 to 62
SURVEY_DISCONNECTED_PER_N = 1  # of those, complements with several components
SURVEY_GNP_PER_N = 2  # G(n, 1/2)
SURVEY_FULL_P = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)  # clique growth of the chordal complements

FORMULA_N = 7
FORMULA_CHUNKS = 2048  # chunks per round, one in each 1/2048 of the mask range
FORMULA_CHUNK = 16  # edge masks per chunk

ORACLE_SWEEP_N = 6
ORACLE_SWEEP_CHUNKS = 128
ORACLE_SWEEP_CHUNK = 32

ORACLE_COLD_N = 12
ORACLE_COLD_DENSITIES = (0.25, 0.30, 0.35, 0.40)
ORACLE_COLD_PER_DENSITY = 3
ORACLE_COLD_BASE_SEED = 20220529  # fixed base set; --seed relabels it


def graph6(n: int, rows: list[int]) -> str:
    """Short-form graph6: n + 63, then the upper triangle column by column."""
    out = [n + 63]
    acc = nbits = 0
    for v in range(1, n):
        for u in range(v):
            acc = acc << 1 | (rows[v] >> u & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out).decode("ascii")


def complement_rows(n: int, rows: list[int]) -> list[int]:
    full = (1 << n) - 1
    return [full & ~r & ~(1 << v) for v, r in enumerate(rows)]


def relabel(n: int, rows: list[int], perm: list[int]) -> list[int]:
    """Rows of the graph with vertex v renamed perm[v]."""
    out = [0] * n
    for v, r in enumerate(rows):
        m = 0
        while r:
            low = r & -r
            m |= 1 << perm[low.bit_length() - 1]
            r ^= low
        out[perm[v]] = m
    return out


def gnp_rows(n: int, p: float, rng: random.Random) -> list[int]:
    rows = [0] * n
    for v in range(1, n):
        for u in range(v):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def chordal_rows(n: int, rng: random.Random, full_p: float, components: int = 1) -> list[int]:
    """A random chordal graph grown by perfect elimination, randomly relabelled.

    Each new vertex joins a subset of an earlier clique, so it is simplicial
    when added and the reversed insertion order is a perfect elimination
    ordering.  `full_p` is how often it joins the whole clique, which sets
    how large the cliques grow.  The first vertex of each extra component
    joins nothing.
    """
    starts = set(rng.sample(range(1, n), components - 1))
    rows = [0] * n
    cliques = [[0]]
    for v in range(1, n):
        if v in starts:
            cliques.append([v])
            continue
        clique = rng.choice(cliques)
        if len(clique) == 1 or rng.random() < full_p:
            joined = clique
        else:
            joined = rng.sample(clique, rng.randint(1, len(clique) - 1))
        for u in joined:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        cliques.append(joined + [v])
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(n, rows, perm)


def survey_graphs(seed: int) -> list[str]:
    """One survey round: for every n in SURVEY_N, graphs with a chordal
    complement (some disconnected) and G(n, 1/2), shuffled together."""
    rng = random.Random(f"survey_mixed/{seed}")
    out = []
    for n in SURVEY_N:
        for i, full_p in enumerate(SURVEY_FULL_P):
            components = 2 + n % 3 if i < SURVEY_DISCONNECTED_PER_N else 1
            out.append(graph6(n, complement_rows(n, chordal_rows(n, rng, full_p, components))))
        for _ in range(SURVEY_GNP_PER_N):
            out.append(graph6(n, gnp_rows(n, 0.5, rng)))
    rng.shuffle(out)
    return out


def sweep_chunks(n: int, chunks: int, size: int, tag: str, seed: int) -> list[tuple[int, int]]:
    """One chunk of `size` consecutive edge masks at a seeded offset inside
    each of `chunks` equal slices of the n-vertex mask range, ascending."""
    rng = random.Random(f"{tag}/{seed}")
    stride = (1 << (n * (n - 1) // 2)) // chunks
    out = []
    for i in range(chunks):
        lo = i * stride + rng.randrange(stride - size + 1)
        out.append((lo, lo + size))
    return out


def oracle_cold_graphs(seed: int) -> list[str]:
    """A fixed base set of n=12 graphs at edge densities 0.25-0.4, each
    relabelled by a permutation drawn from the seed, in seeded order."""
    base_rng = random.Random(ORACLE_COLD_BASE_SEED)
    n = ORACLE_COLD_N
    base = [gnp_rows(n, p, base_rng) for p in ORACLE_COLD_DENSITIES for _ in range(ORACLE_COLD_PER_DENSITY)]
    rng = random.Random(f"oracle_cold_n12/{seed}")
    out = []
    for rows in base:
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(graph6(n, relabel(n, rows, perm)))
    rng.shuffle(out)
    return out
