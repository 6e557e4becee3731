"""Golden `edgering oracle` output for seeded graphs and complexes.

Each fixture line holds one input (a graph6 argument, or the text of a
`--complex` file), the exit code and the exact stdout.  The graph inputs are
G(n, p) graphs with n <= 18, the 4-cycle `Cl`, `Frqa_` (a complement with an
acyclic link but no dominated vertex), the perfect matchings on 14 and 18
vertices, whose complements' flag complexes are the boundaries of the 7- and
9-dimensional cross-polytopes, K_{9,9} and the complement of the barbell of
two K_8.  The complex inputs are the hollow triangle, seeded random
complexes with n <= 10 and simplex skeletons (all k-subsets of n vertices);
the flag ones run the kernel on their 1-skeleton, and the others, most of
them, exit 4 as not flag.  Regenerate the fixture only when a change of
output is intended:

    PYTHONPATH=src:tests python tests/test_oracle_golden.py
"""

import contextlib
import io
import json
import random
from itertools import combinations
from pathlib import Path

from edgering.cli import main
from edgering.complexes import flag_complex, one_skeleton, parse_complex
from edgering.conjecture import build_family
from edgering.graphs import Graph, to_graph6

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = FIXTURES / "oracle_golden.jsonl"
NOT_FLAG_LINE = '{"chordless_cycle": null, "error": "not-flag"}\n'


def matching_graph6(n: int) -> str:
    return to_graph6(Graph.from_edges(n, [(2 * i, 2 * i + 1) for i in range(n // 2)]))


MATCHING_14 = matching_graph6(14)
# the complement H of this graph has no dominated vertex, but the link of
# vertex 4 in the flag complex of H, the flag complex of its neighbourhood,
# is Q-acyclic
FRQA = "Frqa_"
SKELETONS = [(4, 2), (5, 2), (5, 3), (6, 2), (6, 4), (7, 3), (8, 4), (9, 3), (9, 5)]


def gnp_graph6(rng: random.Random, n: int, p: float) -> str:
    """A G(n, p) graph: each of the n(n-1)/2 edge-mask bits is set with chance p."""
    mask = sum(1 << b for b in range(n * (n - 1) // 2) if rng.random() < p)
    return to_graph6(Graph.from_edge_mask(n, mask))


def complex_text(n: int, facets) -> str:
    return "".join(f"{line}\n" for line in [n, *(" ".join(map(str, f)) for f in facets)])


def golden_inputs() -> list[dict]:
    """Graph inputs as {"graph6": ...}, complex inputs as {"complex": text}."""
    rng = random.Random("oracle_golden")
    inputs = [{"graph6": "Cl"}, {"graph6": MATCHING_14}]
    for n in range(1, 13):
        for p in (0.2, 0.5, 0.8) if n < 12 else (0.25, 0.4):
            inputs.append({"graph6": gnp_graph6(rng, n, p)})
    inputs.append({"complex": (FIXTURES / "hollow.cx").read_text()})
    for _ in range(80):
        # three in four hold the boundary of a simplex s, and no facet holds
        # s, so that the complex is not flag
        n = rng.randint(3, 10)
        s = set(rng.sample(range(n), rng.randint(3, min(n, 5))))
        hollow = rng.random() < 0.75
        facets = [sorted(s - {v}) for v in s] if hollow else []
        for _ in range(rng.randint(1, 10)):
            f = set(rng.sample(range(n), rng.randint(2, min(n, 5))))
            if not (hollow and s <= f):
                facets.append(sorted(f))
        covered = set().union(*facets)
        facets += [[v] for v in range(n) if v not in covered]
        inputs.append({"complex": complex_text(n, facets)})
    for n, k in SKELETONS:
        inputs.append({"complex": complex_text(n, combinations(range(n), k))})
    # from their own stream, so the lines above keep theirs
    inputs.append({"graph6": FRQA})
    cap_rng = random.Random("oracle_golden_cap")
    inputs += [{"graph6": gnp_graph6(cap_rng, n, p)} for n in (13, 14) for p in (0.25, 0.4)]
    # n = 15..18, from a third stream
    inputs.append({"graph6": matching_graph6(18)})
    inputs.append({"graph6": to_graph6(build_family("complete-bipartite", 9))})
    inputs.append({"graph6": to_graph6(build_family("barbell", 8))})
    big_rng = random.Random("oracle_golden_18")
    inputs += [{"graph6": gnp_graph6(big_rng, n, p)} for n, p in ((15, 0.3), (17, 0.3), (18, 0.25), (18, 0.4))]
    return inputs


def run_oracle(item: dict, tmp_dir: Path) -> tuple[int, str]:
    if "graph6" in item:
        argv = ["oracle", item["graph6"]]
    else:
        path = tmp_dir / "input.cx"
        path.write_text(item["complex"])
        argv = ["oracle", "--complex", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def golden_text(tmp_dir: Path) -> str:
    lines = []
    for item in golden_inputs():
        code, stdout = run_oracle(item, tmp_dir)
        lines.append(json.dumps({**item, "exit": code, "stdout": stdout}, sort_keys=True) + "\n")
    return "".join(lines)


def test_inputs_cover_flag_and_non_flag_complexes():
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    graphs = [json.loads(r["stdout"]) for r in records if "graph6" in r]
    assert all(r["exit"] == 0 for r in records if "graph6" in r)
    assert max(t["n"] for t in graphs) == 18
    flag = {True: [], False: []}
    for r in records:
        if "complex" in r:
            c = parse_complex(r["complex"])
            flag[flag_complex(one_skeleton(c)).facets == c.facets].append((c, r))
    assert max(c.n for c, _ in flag[True] + flag[False]) == 10
    assert flag[True] and all(r["exit"] == 0 for _, r in flag[True])
    # every complex that is not flag exits 4
    assert len(flag[False]) >= 50
    assert all(r["exit"] == 4 and r["stdout"] == NOT_FLAG_LINE for _, r in flag[False])


def test_matches_golden_fixture(tmp_path):
    assert golden_text(tmp_path) == GOLDEN.read_text()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(golden_text(Path(tmp)))
