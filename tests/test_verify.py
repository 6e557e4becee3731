"""The sweep's mask-level path (the chordal kernel plus the shared d-tree
criterion) must agree with the public object API."""

import pytest

from edgering import verify
from edgering.chordal import (
    Chordal,
    _clique_masks_from_peo,
    _first_peo_violation,
    _mcs_order,
    _quasi_forest_masks,
    clique_tree,
    is_chordal,
    maximal_cliques_chordal,
    quasi_forest_order,
)
from edgering.complexes import f_vector, flag_complex
from edgering.graphs import Graph, bits, complement, enumerate_labeled, max_degree
from edgering.invariants import (
    _d_tree_exists,
    d_tree_signature,
    depth,
    hilbert_from_decomposition,
    is_cm,
    krull_dim,
    one_minus_t_pow,
    projective_dimension,
)
from edgering.conjecture import classify
from conftest import brute_is_chordal, random_graph


def public_reference(g: Graph):
    """Everything the sweep computes, via the public API."""
    gbar = complement(g)
    res = is_chordal(gbar)
    if not isinstance(res, Chordal):
        return None
    cliques = maximal_cliques_chordal(gbar, res.peo)
    qfd = quasi_forest_order(clique_tree(cliques, gbar))
    rep = classify(g)
    return {
        "facets": [sorted(f) for f in qfd.facets],
        "attach": list(qfd.attach_dims),
        "numerator": hilbert_from_decomposition(qfd).numerator,
        "fcounts": list(f_vector(flag_complex(gbar)).counts),
        "pd": projective_dimension(qfd),
        "depth": depth(qfd),
        "dim": krull_dim(qfd),
        "cm": is_cm(qfd),
        "dtree": d_tree_signature(qfd) is not None,
        "holds": rep.holds,
        "witness": rep.witness is not None,
        "single": qfd.k == 1,
    }


def fast_reference(g: Graph):
    """The same quantities on masks, via the kernel the sweep calls."""
    n = g.n
    full = (1 << n) - 1
    crow = [full & ~r & ~(1 << v) for v, r in enumerate(g.rows)]
    elim = _mcs_order(n, crow)[::-1]
    if _first_peo_violation(n, crow, elim) is not None:
        return None
    cliques = _clique_masks_from_peo(n, crow, elim)
    facets, attach = _quasi_forest_masks(cliques)
    dims = [f.bit_count() - 1 for f in facets]

    num = [0] * (n + 1)
    for d in dims:
        for i, c in enumerate(one_minus_t_pow(n - d - 1)):
            num[i] += c
    for r in attach:
        for i, c in enumerate(one_minus_t_pow(n - r)):
            num[i] -= c
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    fcounts = verify._fast_fvector(facets)
    k = len(facets)
    r_min = min(attach) - 1 if attach else None
    pd = 0 if k == 1 else n - r_min - 2
    depth_val = n if k == 1 else r_min + 2
    dim_val = 1 + max(dims)
    cm = k == 1 or (all(d == dims[0] for d in dims) and all(r == dims[0] for r in attach))
    md = max_degree(g)
    holds = pd == md
    witness = False
    if k >= 2:
        vcount = [0] * n
        for f in facets:
            for v in bits(f):
                vcount[v] += 1
        target = r_min + 2
        witness = any(
            f.bit_count() == target and sum(1 for v in bits(f) if vcount[v] == 1) == 1
            for f in facets
        )
    return {
        "facets": [sorted(bits(f)) for f in facets],
        "attach": [r - 1 for r in attach],
        "numerator": tuple(num),
        "fcounts": fcounts,
        "pd": pd,
        "depth": depth_val,
        "dim": dim_val,
        "cm": cm,
        "dtree": _d_tree_exists(n, k, max(dims) + 1),
        "holds": holds,
        "witness": witness,
        "single": k == 1,
    }


class TestFastPathAgreesWithPublic:
    def test_exhaustive_small(self):
        for n in range(1, 6):
            for g in enumerate_labeled(n):
                assert fast_reference(g) == public_reference(g)

    def test_random_six_seven(self, rng):
        for n, trials in ((6, 400), (7, 250)):
            for _ in range(trials):
                g = random_graph(rng, n)
                assert fast_reference(g) == public_reference(g)


class TestBruteCycleChecker:
    def test_matches_setwise_brute(self, rng):
        for _ in range(300):
            g = random_graph(rng, 7)
            assert verify.has_long_induced_cycle(7, list(g.rows)) == (not brute_is_chordal(g))


class TestSweepMachinery:
    def test_small_sweeps_clean(self):
        for n in (1, 2, 3, 4):
            res = verify.run_sweep(n, with_oracle=True)
            assert res.all_clean()
            assert res.counts["total"] == 1 << (n * (n - 1) // 2)

    def test_known_counts_n4(self):
        res = verify.run_sweep(4, with_oracle=True)
        assert res.counts["twolinear"] == 61  # all but the 3 labelings of 2K2
        assert res.counts["fails"] == 3       # exactly the 3 labelings of C4

    def test_parallel_matches_serial(self):
        serial = verify.run_sweep(5, with_oracle=False, jobs=1)
        parallel = verify.run_sweep(5, with_oracle=False, jobs=4, chunk=64)
        assert serial.counts == parallel.counts
        assert serial.violations == parallel.violations
