"""Golden `analyze` records for seeded graphs on 8..62 vertices.

The inputs are graphs whose complements are chordal (connected or not) and
G(n, 1/2) graphs, so both the quasi-forest path and the chordless-cycle path
run at every size that graph6's short form allows.  Regenerate the fixture
only when a change of output is intended:

    PYTHONPATH=src:tests python tests/test_survey_golden.py
"""

import hashlib
import json
import random
from pathlib import Path

from edgering.cli import analyze_record, main
from edgering.graphs import Graph, complement, parse_graph6, to_graph6
from conftest import chordal_graph

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "survey_golden.jsonl"
# stdout of `edgering survey --all-labeled 6`, the same for every --jobs value
ALL_LABELED_6_SHA256 = "bdf47b1a6fcc2c5be094702fc928eaab5bf15f92f965fe9bcd093cf7cda4af99"
SIZES = range(8, 63)


def golden_inputs() -> list[str]:
    """Per size: a connected and a disconnected chordal complement and one
    G(n, 1/2); on even sizes one more chordal complement with larger cliques."""
    rng = random.Random("survey_golden")
    graphs = []
    for n in SIZES:
        graphs.append(complement(chordal_graph(rng, n, 0.4, 1)))
        graphs.append(complement(chordal_graph(rng, n, 0.4, 2 + n % 3)))
        if n % 2 == 0:
            graphs.append(complement(chordal_graph(rng, n, 0.8, 1)))
        mask = rng.getrandbits(n * (n - 1) // 2)
        graphs.append(Graph.from_edge_mask(n, mask))
    return [to_graph6(g) for g in graphs]


def golden_text() -> str:
    return "".join(
        json.dumps(analyze_record(parse_graph6(g6)), sort_keys=True) + "\n" for g6 in golden_inputs()
    )


def test_inputs_cover_both_paths():
    records = [json.loads(line) for line in GOLDEN.read_text().splitlines()]
    assert len(records) == 3 * len(SIZES) + len(SIZES[::2])
    assert {r["n"] for r in records} == set(SIZES)
    chordal = [r for r in records if r["complement_chordal"]]
    assert len(chordal) == len(records) - len(SIZES)  # every G(n, 1/2) has a chordless cycle
    # some complements are disconnected: a facet attaches along the empty face
    assert sum(r["r_min"] == -1 for r in chordal) >= len(SIZES)


def test_matches_golden_fixture():
    assert golden_text() == GOLDEN.read_text()


def test_all_labeled_6_sha256(capsys):
    assert main(["survey", "--all-labeled", "6"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == ALL_LABELED_6_SHA256


if __name__ == "__main__":
    GOLDEN.write_text(golden_text())
