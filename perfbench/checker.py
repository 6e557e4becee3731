"""Independent checks of the program's outputs, and their self-test.

Nothing here calls edgering to compute an expected value: chordality,
cliques and connectivity come from networkx or from the small bitmask
routines below, and Betti numbers are checked against Hochster's linear
strand and the K-polynomial of the clique complex.  The one exception is
the A058862 check, which runs the program's own n=6 formula sweep over the
full mask range and compares its 2-linear count with the published value.

    python3 perfbench/checker.py --self-test

corrupts one output for each check and confirms that the check catches it.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import jsonschema
import networkx as nx

import inputs
from inputs import complement_rows

A058862_N6 = 18154  # labelled chordal graphs on 6 vertices (OEIS A058862)
COUNT_KINDS = ("total", "twolinear", "holds", "fails", "single_facet", "witness", "cm", "dtree", "isolated")


# ---------------------------------------------------------------- graphs


def decode_graph6(s: str) -> tuple[int, list[int]]:
    data = s.encode("ascii")
    n = data[0] - 63
    bits = []
    for b in data[1:]:
        bits.extend((b - 63) >> k & 1 for k in range(5, -1, -1))
    rows = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if bits[i]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            i += 1
    return n, rows


def rows_from_mask(n: int, mask: int) -> list[int]:
    rows = [0] * n
    i = 0
    for v in range(1, n):
        for u in range(v):
            if mask >> i & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            i += 1
    return rows


def nx_graph(n: int, rows: list[int]) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((u, v) for v in range(n) for u in range(v) if rows[v] >> u & 1)
    return g


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def components(rows: list[int], s: int) -> int:
    """Connected components of the subgraph induced on the vertex mask s."""
    count = 0
    left = s
    while left:
        reach = left & -left
        frontier = reach
        while frontier:
            grow = 0
            for v in _members(frontier):
                grow |= rows[v]
            frontier = grow & s & ~reach
            reach |= frontier
        left &= ~reach
        count += 1
    return count


def clique_masks(n: int, rows: list[int]) -> list[int]:
    """All cliques (the empty one included) by dynamic programming over subsets."""
    ok = bytearray(1 << n)
    ok[0] = 1
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        ok[s] = ok[rest] and rows[low.bit_length() - 1] & rest == rest
    return [s for s in range(1 << n) if ok[s]]


def is_chordal_by_elimination(n: int, rows: list[int]) -> bool:
    """Chordal iff simplicial vertices can be removed one by one until none remain."""
    alive = (1 << n) - 1
    while alive:
        for v in _members(alive):
            nb = rows[v] & alive
            if all(rows[u] & nb | 1 << u == nb | 1 << u for u in _members(nb)):
                alive &= ~(1 << v)
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _subsets_by_size(n: int) -> tuple[int, ...]:
    return tuple(sorted(range(1 << n), key=lambda s: (bin(s).count("1"), s)))


def connectivity(n: int, rows: list[int]) -> int:
    """Vertex connectivity by brute force; n - 1 for a complete graph."""
    full = (1 << n) - 1
    for s in _subsets_by_size(n):
        left = full & ~s
        if bin(left).count("1") < 2:
            break
        if components(rows, left) > 1:
            return bin(s).count("1")
    return n - 1


# ------------------------------------------------------- expected answers


def chordal_facts(n: int, crow: list[int], gnx: nx.Graph | None = None) -> dict:
    """Expected classification of G from its complement (rows `crow`).

    For a chordal complement, pd = n - kappa - 1 (0 for a single clique),
    depth = kappa + 1, Krull dimension = omega, and the structural witness
    is a clique of size r_min + 2 with exactly one vertex in no other
    maximal clique.  Small graphs use brute force; larger ones networkx.
    """
    if gnx is None:
        cliques = clique_masks(n, crow)
        maximal = [c for c in cliques if c and not any(crow[v] & c == c for v in range(n) if not c >> v & 1)]
        facets = [frozenset(_members(c)) for c in maximal]
        chordal = is_chordal_by_elimination(n, crow)
        kappa = connectivity(n, crow) if chordal else None
    else:
        chordal = nx.is_chordal(gnx)
        facets = [frozenset(c) for c in nx.find_cliques(gnx)] if chordal else []
        kappa = nx.node_connectivity(gnx) if chordal and n > 1 else 0
    facts = {"chordal": chordal, "max_deg": max(bin(r).count("1") for r in complement_rows(n, crow))}
    if not chordal:
        return facts
    k = len(facets)
    omega = max(len(f) for f in facets)
    pd = 0 if k == 1 else n - kappa - 1
    r_min = None if k == 1 else kappa - 1
    count: dict[int, int] = {}
    for f in facets:
        for v in f:
            count[v] = count.get(v, 0) + 1
    witnesses = set()
    if k >= 2:
        for f in facets:
            free = [v for v in f if count[v] == 1]
            if len(f) == r_min + 2 and len(free) == 1:
                witnesses.add((f, free[0]))
    facts.update(k=k, omega=omega, kappa=kappa, pd=pd, r_min=r_min, facets=facets,
                 witnesses=witnesses, cm=k == 1 or kappa + 1 == omega,
                 dtree=omega == n - k + 1, isolated=any(len(f) == 1 for f in facets),
                 dims=sorted((len(f) - 1 for f in facets), reverse=True))
    return facts


# ------------------------------------------------------------- survey


def survey_problems(line: str, rec: dict, facts: dict, validator) -> list[str]:
    out = [f"schema: {e.message}" for e in validator.iter_errors(rec)]
    if out:
        return out
    n = facts_n = len(decode_graph6(line)[1])
    if rec["input"] != line or rec["n"] != facts_n:
        out.append("input: record does not echo the input graph")
    if rec["max_deg"] != facts["max_deg"]:
        out.append(f"max_deg: {rec['max_deg']} != {facts['max_deg']}")
    if rec["complement_chordal"] != facts["chordal"]:
        out.append(f"chordal: complement_chordal {rec['complement_chordal']} != {facts['chordal']}")
        return out
    if not facts["chordal"]:
        nulls = ("r_min", "pd", "cm", "d_tree", "witness", "holds", "gap")
        if any(rec[k] is not None for k in nulls):
            out.append("nulls: formula fields of a non-2-linear graph are not null")
        return out
    pd, k = facts["pd"], facts["k"]
    if rec["pd"] != pd:
        out.append(f"pd: {rec['pd']} != n - kappa - 1 = {pd}")
    if rec["r_min"] != facts["r_min"]:
        out.append(f"r_min: {rec['r_min']} != kappa - 1 = {facts['r_min']}")
    if rec["holds"] != (pd == facts["max_deg"]):
        out.append(f"holds: {rec['holds']} but pd={pd}, max_deg={facts['max_deg']}")
    if rec["gap"] != pd - facts["max_deg"]:
        out.append(f"gap: {rec['gap']} != {pd - facts['max_deg']}")
    if (rec["witness"] is not None) != (pd == facts["max_deg"] and k >= 2):
        out.append("witness: present/absent does not match (holds and k >= 2)")
    elif rec["witness"] is not None:
        wit = (frozenset(rec["witness"]["facet"]), rec["witness"]["vertex"])
        if wit not in facts["witnesses"]:
            out.append(f"witness: {rec['witness']} is not a free vertex of a facet of size r_min + 2")
    if rec["d_tree"] is not None:
        if facts["omega"] != n - k + 1:
            out.append(f"d_tree: non-null but omega {facts['omega']} != n - k + 1 = {n - k + 1}")
        elif rec["d_tree"] != facts["dims"]:
            out.append(f"d_tree: {rec['d_tree']} != facet dimensions {facts['dims']}")
    if rec["cm"] != facts["cm"]:
        out.append(f"cm: {rec['cm']} != (kappa + 1 == omega)")
    return out


def check_survey(items: list[str], outputs: list, validator) -> list[str]:
    problems = []
    for line, out in zip(items, outputs):
        try:
            rec = json.loads(out)
        except (TypeError, ValueError):
            problems.append(f"{line}: output is not JSON: {out!r}")
            continue
        n, rows = decode_graph6(line)
        crow = complement_rows(n, rows)
        facts = chordal_facts(n, crow, nx_graph(n, crow))
        problems += [f"{line}: {p}" for p in survey_problems(line, rec, facts, validator)]
    return problems


# ------------------------------------------------------------- oracle


def expected_oracle(n: int, rows: list[int]) -> dict:
    """|E|, Hochster's linear strand, the K-polynomial and chordality of the complement."""
    crow = complement_rows(n, rows)
    strand = [0] * (n + 1)  # strand[j] = beta_(j-1, j)
    for s in range(1, 1 << n):
        strand[bin(s).count("1")] += components(crow, s) - 1
    kpoly = [0] * (n + 1)
    binom = [[1]]
    for m in range(1, n + 1):
        prev = binom[-1]
        binom.append([1] + [prev[i] + prev[i + 1] for i in range(m - 1)] + [1])
    for c in clique_masks(n, crow):
        s = bin(c).count("1")
        for i in range(n - s + 1):
            kpoly[s + i] += (-1) ** i * binom[n - s][i]
    return {"edges": sum(bin(r).count("1") for r in rows) // 2, "strand": strand, "kpoly": kpoly,
            "chordal": nx.is_chordal(nx_graph(n, crow))}


def oracle_problems(n: int, code: int, rec: dict, exp: dict, validator) -> list[str]:
    if code != 0:
        return [f"exit: code {code}"]
    out = [f"schema: {e.message}" for e in validator.iter_errors(rec)]
    if out:
        return out
    entries = {(i, j): v for i, j, v in rec["betti"]}
    if rec["n"] != n or rec["subsets_examined"] != 1 << n or entries.get((0, 0)) != 1:
        out.append("shape: n, subsets_examined or beta_(0,0) wrong")
    if entries.get((1, 2), 0) != exp["edges"]:
        out.append(f"beta12: beta_(1,2) {entries.get((1, 2), 0)} != |E(G)| {exp['edges']}")
    strand = [entries.get((j - 1, j), 0) for j in range(2, n + 1)]
    if strand != exp["strand"][2:]:
        out.append(f"linear_strand: {strand} != components sums {exp['strand'][2:]}")
    sums = [0] * (n + 1)
    for (i, j), v in entries.items():
        sums[j] += (-1) ** i * v
    if sums != exp["kpoly"]:
        out.append(f"k_polynomial: alternating sums {sums} != {exp['kpoly']}")
    if rec["pd"] != max(i for i, _ in entries):
        out.append("pd: not the largest homological index")
    linear = all(j == i + 1 for i, j in entries if i >= 1)
    if rec["two_linear"] != linear or linear != exp["chordal"]:
        out.append(f"two_linear: {rec['two_linear']} (table {linear}, chordal complement {exp['chordal']})")
    if rec["match"] != (True if exp["chordal"] else None):
        out.append(f"match: {rec['match']} for chordal complement {exp['chordal']}")
    return out


def check_oracle(items: list[str], outputs: list, validator) -> list[str]:
    problems = []
    for g6, out in zip(items, outputs):
        if not isinstance(out, tuple):
            problems.append(f"{g6}: {out}")
            continue
        code, text = out
        n, rows = decode_graph6(g6)
        try:
            rec = json.loads(text)
        except ValueError:
            problems.append(f"{g6}: output is not JSON")
            continue
        problems += [f"{g6}: {p}" for p in oracle_problems(n, code, rec, expected_oracle(n, rows), validator)]
    return problems


# -------------------------------------------------------------- sweeps


def expected_counts(n: int, lo: int, hi: int) -> dict[str, int]:
    c = dict.fromkeys(COUNT_KINDS, 0)
    for mask in range(lo, hi):
        rows = rows_from_mask(n, mask)
        f = chordal_facts(n, complement_rows(n, rows))
        c["total"] += 1
        if not f["chordal"]:
            continue
        holds = f["pd"] == f["max_deg"]
        c["twolinear"] += 1
        c["holds"] += holds
        c["fails"] += not holds
        c["single_facet"] += f["k"] == 1
        c["witness"] += bool(f["witnesses"])
        c["cm"] += f["cm"]
        c["dtree"] += f["dtree"]
        c["isolated"] += f["isolated"]
    return c


def sweep_problems(item: tuple[int, int], result, expected: dict[str, int]) -> list[str]:
    if isinstance(result, str):
        return [f"exception: {result}"]
    out = [f"violations: {kind} {lst[:3]}" for kind, lst in result.violations.items() if lst]
    for kind in COUNT_KINDS:
        if result.counts.get(kind) != expected[kind]:
            out.append(f"count_{kind}: {result.counts.get(kind)} != {expected[kind]}")
    return out


def check_sweep(n: int, items, outputs, program, full_count: bool) -> list[str]:
    problems = []
    for item, result in zip(items, outputs):
        problems += [f"chunk {item}: {p}" for p in sweep_problems(item, result, expected_counts(n, *item))]
    if full_count:
        problems += a058862_problems(program.verify.sweep_chunk(6, 0, 1 << 15, False))
    return problems


def a058862_problems(full) -> list[str]:
    """The program's full n=6 sweep must find the published number of 2-linear graphs."""
    if full.counts["twolinear"] != A058862_N6 or not full.all_clean():
        return [f"a058862: n=6 sweep counts {full.counts['twolinear']} 2-linear graphs, "
                f"expected {A058862_N6}"]
    return []


# ---------------------------------------------------------------- entry


def validator(program, name: str):
    path = Path(program.package.__file__).parent / "schemas" / f"{name}.schema.json"
    with open(path, encoding="utf-8") as fh:
        schema = json.load(fh)
    return jsonschema.Draft7Validator(schema)


def check(workload, program, outputs: list) -> list[str]:
    """Problems found in one round of a workload's outputs; empty when correct."""
    name = workload.name
    if len(outputs) != len(workload.items):
        return ["round: output count does not match the inputs"]
    if name == "survey_mixed":
        return check_survey(workload.items, outputs, validator(program, "survey"))
    if name == "oracle_cold_n12":
        return check_oracle(workload.items, outputs, validator(program, "oracle"))
    return check_sweep(workload.n, workload.items, outputs, program, name == "sweep_oracle_n6")


# ------------------------------------------------------------ self-test


def _corrupt(rec: dict, **changes) -> dict:
    out = json.loads(json.dumps(rec))
    out.update(changes)
    return out


def self_test(program) -> list[tuple[str, bool]]:
    """For each check, corrupt one correct output and see the check catch it.

    Returns (check, caught) pairs; a clean output that is flagged counts as
    a failure of the check named "clean".
    """
    results: list[tuple[str, bool]] = []

    def expect(name: str, problems: list[str], label: str) -> None:
        results.append((f"{label}: {name}", any(p.split(":", 1)[0].endswith(name) for p in problems)))

    # survey records
    val = validator(program, "survey")
    recs = []
    for line in inputs.survey_graphs(0)[:200]:
        rec = program.cli.survey_record(program.graphs.parse_graph6(line))
        n, rows = decode_graph6(line)
        crow = complement_rows(n, rows)
        recs.append((line, json.loads(json.dumps(rec)), chordal_facts(n, crow, nx_graph(n, crow))))
    clean = [p for line, rec, f in recs for p in survey_problems(line, rec, f, val)]
    results.append(("clean survey", not clean))

    def pick(cond):
        return next((line, rec, f) for line, rec, f in recs if cond(rec, f))

    chordal = lambda r, f: f["chordal"] and f["k"] >= 2  # noqa: E731
    cases = [
        ("schema", chordal, lambda r, f: {"extra": 1}),
        ("input", chordal, lambda r, f: {"n": r["n"] + 1}),
        ("max_deg", chordal, lambda r, f: {"max_deg": r["max_deg"] + 1}),
        ("chordal", chordal, lambda r, f: {"complement_chordal": False}),
        ("nulls", lambda r, f: not f["chordal"], lambda r, f: {"pd": 3}),
        ("pd", chordal, lambda r, f: {"pd": r["pd"] + 1}),
        ("r_min", chordal, lambda r, f: {"r_min": r["r_min"] + 1}),
        ("holds", chordal, lambda r, f: {"holds": not r["holds"]}),
        ("gap", chordal, lambda r, f: {"gap": r["gap"] + 1}),
        ("witness", lambda r, f: r["witness"] is not None, lambda r, f: {"witness": None}),
        ("witness", lambda r, f: r["witness"] is not None and len(r["witness"]["facet"]) > 1,
         lambda r, f: {"witness": {"facet": r["witness"]["facet"],
                                   "vertex": [v for v in r["witness"]["facet"] if v != r["witness"]["vertex"]][0]}}),
        ("d_tree", lambda r, f: f["chordal"] and f["omega"] != r["n"] - f["k"] + 1,
         lambda r, f: {"d_tree": f["dims"]}),
        ("d_tree", lambda r, f: r["d_tree"] is not None and f["k"] >= 2,
         lambda r, f: {"d_tree": [r["d_tree"][0] + 1] + r["d_tree"][1:]}),
        ("cm", chordal, lambda r, f: {"cm": not r["cm"]}),
    ]
    for name, cond, change in cases:
        line, rec, f = pick(cond)
        expect(name, survey_problems(line, _corrupt(rec, **change(rec, f)), f, val), "survey")

    # oracle records, on n=7 graphs: one with a chordal complement, one without
    val = validator(program, "oracle")
    import contextlib
    import io
    import random

    rng = random.Random(7)
    graphs = {True: None, False: None}
    while None in graphs.values():
        rows = inputs.gnp_rows(7, 0.4, rng)
        exp = expected_oracle(7, rows)
        graphs[exp["chordal"]] = graphs[exp["chordal"]] or (inputs.graph6(7, rows), exp)
    oracle_recs = {}
    for chordal_case, (g6, exp) in graphs.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = program.cli.main(["oracle", g6])
        oracle_recs[chordal_case] = (code, json.loads(buf.getvalue()), exp)
        results.append((f"clean oracle ({'chordal' if chordal_case else 'non-chordal'} complement)",
                        not oracle_problems(7, code, oracle_recs[chordal_case][1], exp, val)))

    def bump(rec, pred):
        betti = [list(e) for e in rec["betti"]]
        target = next(e for e in betti if pred(e[0], e[1]))
        target[2] += 1
        return {"betti": betti}

    ocases = [
        ("exit", True, None),
        ("schema", True, lambda r: {"match": "yes"}),
        ("shape", True, lambda r: {"subsets_examined": r["subsets_examined"] - 1}),
        ("beta12", True, lambda r: bump(r, lambda i, j: (i, j) == (1, 2))),
        ("linear_strand", True, lambda r: bump(r, lambda i, j: (i, j) == (2, 3))),
        ("k_polynomial", False, lambda r: bump(r, lambda i, j: j > i + 1)),
        ("pd", True, lambda r: {"pd": r["pd"] + 1}),
        ("two_linear", True, lambda r: {"two_linear": False}),
        ("match", True, lambda r: {"match": False}),
    ]
    for name, case, change in ocases:
        code, rec, exp = oracle_recs[case]
        if change is None:
            expect(name, oracle_problems(7, 1, rec, exp, val), "oracle")
        else:
            expect(name, oracle_problems(7, code, _corrupt(rec, **change(rec)), exp, val), "oracle")

    # sweep chunks, at n=5 with the oracle
    item = (0, 1 << 10)
    result = program.verify.sweep_chunk(5, *item, True)
    expected = expected_counts(5, *item)
    results.append(("clean sweep", not sweep_problems(item, result, expected)))
    import copy

    for kind in COUNT_KINDS:
        bad = copy.deepcopy(result)
        bad.counts[kind] += 1
        expect(f"count_{kind}", sweep_problems(item, bad, expected), "sweep")
    bad = copy.deepcopy(result)
    bad.violations["betti_mismatch"].append("D??")
    expect("violations", sweep_problems(item, bad, expected), "sweep")
    expect("exception", sweep_problems(item, "InternalInvariantError: boom", expected), "sweep")

    full = program.verify.sweep_chunk(6, 0, 1 << 15, False)
    results.append(("clean a058862", not a058862_problems(full)))
    bad = copy.deepcopy(full)
    bad.counts["twolinear"] -= 1
    expect("a058862", a058862_problems(bad), "sweep")
    own = sum(is_chordal_by_elimination(6, rows_from_mask(6, m)) for m in range(1 << 15))
    results.append(("checker's own n=6 chordal count is A058862", own == A058862_N6))
    return results


def main() -> int:
    if sys.argv[1:] != ["--self-test"]:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from run import Program

    results = self_test(Program())
    for name, ok in results:
        print(f"{'ok    ' if ok else 'MISSED'}  {name}")
    missed = [name for name, ok in results if not ok]
    print(f"{len(results) - len(missed)}/{len(results)} checks catch their corruption"
          + (f"; missed: {missed}" if missed else ""))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
