"""Mutation check: every listed mutant of the package must fail its named tests.

    python tests/mutants.py            # from the repository root

The script copies src/edgering to a temporary directory and first runs all
the named tests on the unchanged copy, which must pass.  Then, for each
mutant, it applies the mutant's text replacements to the copy, runs the
mutant's named tests on it through PYTHONPATH, and restores the file.  Each
replacement must match its file exactly once, so a refactor of the code it
targets has to update the list here instead of leaving a mutant that tests
nothing.  A mutant is killed when pytest reports failed tests (exit code
1); one that passes survives, and an import or collection error is no kill
either.  The script exits 1 unless every mutant is killed.

A mutant that survives is a finding: the fix is a new or sharper test, not
a dropped mutant.  Each entry names the tests that should kill it, so a
change that deletes such a test sees its mutant survive.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLE = "tests/test_oracle.py"
SWEEPS_CLEAN = "tests/test_verify.py::TestSweepMachinery::test_small_sweeps_clean"
FACET_VERDICTS = "tests/test_kernels.py::test_decomposition_checks_match_frozenset_form"

# (what the mutant breaks, file under src/edgering, [(old, new), ...], tests)
MUTANTS = [
    (
        "the step's overlap test never sees a degree with homology on both sides",
        "oracle.py",
        [("if not (rest + _LOW) & (link + _LOW) & ~_LOW:", "if not False:")],
        [f"{ORACLE}::TestExactHomologyCalls::test_disjoint_cycles_run_exact_homology_once", "tests/test_oracle_golden.py"],
    ),
    (
        "the loop's inline link rule reads the closed neighbourhood, a cone, as the link",
        "oracle.py",
        [("if not at_subset[closed[u] & w ^ u]:", "if not at_subset[closed[u] & w]:")],
        [f"{ORACLE}::TestLoopContract::test_graph_kernel"],
    ),
    (
        "the step adds the link's ranks in their own dimension, not one up",
        "oracle.py",
        [("return rest + (link << 32)", "return rest + (link << 0)")],
        [f"{ORACLE}::TestLoopContract::test_graph_kernel"],
    ),
    (
        "16-bit fields, which carry at beta_(8, 9) of the complement of K_16",
        "oracle.py",
        [
            ("sums[j] >> 32 * (j - i) & 0xFFFFFFFF", "sums[j] >> 16 * (j - i) & 0xFFFF"),
            ("not max(sums) >> 64", "not max(sums) >> 32"),
            ("sum(0x7FFFFFFF << 32 * f for", "sum(0x7FFF << 16 * f for"),
            ("return rest + (link << 32)", "return rest + (link << 16)"),
            ("at_subset[w ^ v] + (1 << 32)", "at_subset[w ^ v] + (1 << 16)"),
            ("sum(h << 32 * (dim + 1)", "sum(h << 16 * (dim + 1)"),
        ],
        [f"{ORACLE}::TestPackedFields::test_complement_of_k16"],
    ),
    (
        "the loop's isolated rule adds the empty link's rank in dimension -1, not 0",
        "oracle.py",
        [("at_subset[w ^ v] + (1 << 32)", "at_subset[w ^ v] + (1 << 0)")],
        [f"{ORACLE}::TestLoopContract::test_no_point_or_isolated_lowest_vertex_reaches_step", SWEEPS_CLEAN],
    ),
    (
        "the clique counter files each grown clique at the size of the one it grows",
        "complexes.py",
        [("stack.append((q, s + 1))", "stack.append((q, s))")],
        ["tests/test_kernels.py::test_clique_counts_match_faces_and_networkx", SWEEPS_CLEAN],
    ),
    (
        "the PEO test never finds two earlier-visited neighbours that are not adjacent",
        "chordal.py",
        [("if m & ~rows[x.bit_length() - 1]:", "if False:")],
        ["tests/test_chordal.py::TestIsChordal::test_c4_certificate", SWEEPS_CLEAN],
    ),
    (
        "the clique test skips the first earlier-visited neighbour",
        "chordal.py",
        [("m = rows[v] & ~unvisited\n", "m = rows[v] & ~unvisited\n            m &= m - 1\n")],
        ["tests/test_kernels.py::test_mcs_order_matches_linear_scan_exhaustive"],
    ),
    (
        "the fast facet check drops its test that no attachment equals a facet",
        "chordal.py",
        [("if set(facets).isdisjoint(atts) and not any(", "if not any(")],
        [FACET_VERDICTS],
    ),
    (
        "the fast facet check takes the facet before F_i as the parent of its attachment",
        "chordal.py",
        [("a & ~facets[bisect_left(unions, a, 0, i, key=a.__and__)]", "a & ~facets[i - 1]")],
        [FACET_VERDICTS],
    ),
    (
        "the fast facet check ignores a union short of the n vertices",
        "chordal.py",
        [("if facets and all(facets) and unions[-1] == (1 << n) - 1:", "if facets and all(facets):")],
        [FACET_VERDICTS],
    ),
    (
        "the witness facet has r_min + 3 vertices",
        "conjecture.py",
        [("target = r_min + 2", "target = r_min + 3")],
        ["tests/test_conjecture.py::TestFreeVertexWitness::test_two_triangles", SWEEPS_CLEAN],
    ),
    (
        "the numerator adds the attachments' terms instead of subtracting them",
        "invariants.py",
        [("mult[n - r - 1] -= 1", "mult[n - r - 1] += 1")],
        ["tests/test_kernels.py::test_numerator_on_decompositions", SWEEPS_CLEAN],
    ),
    (
        "the tally files each subset one size too low",
        "oracle.py",
        [("sums[w.bit_count()] += at_subset[w]", "sums[w.bit_count() - 1] += at_subset[w]")],
        [f"{ORACLE}::TestHochsterKnownTables::test_c4_stanley_reisner"],
    ),
    (
        "the tally's Horner pass adds each lower power of (1 + x) without the step that multiplies by it",
        "oracle.py",
        [("[c + s + lower for c, s, lower in zip(by_count[m], sums, [0] + sums)]",
          "[c + s for c, s in zip(by_count[m], sums)]")],
        [f"{ORACLE}::TestPackedFields::test_complement_of_k99"],
    ),
    (
        "the domination AND leaves out the lowest neighbour of u",
        "oracle.py",
        [("m = rows[u]\n", "m = rows[u] & rows[u] - 1\n")],
        ["tests/test_kernels.py::test_dominated_pairs_match_setwise_greedy",
         f"{ORACLE}::TestLoopContract::test_graph_kernel"],
    ),
    (
        "a pattern of the pair vertices may hold a whole pair",
        "oracle.py",
        [("for b in (0, 1 << 2 * i, 2 << 2 * i)", "for b in (0, 1 << 2 * i, 2 << 2 * i, 3 << 2 * i)")],
        [f"{ORACLE}::TestLoopContract::test_graph_kernel"],
    ),
    (
        "maximum cardinality search breaks ties toward the highest vertex",
        "chordal.py",
        [("low = buckets[top] & -buckets[top]", "low = 1 << buckets[top].bit_length() - 1")],
        ["tests/test_kernels.py::test_mcs_order_matches_linear_scan_exhaustive"],
    ),
    (
        "the induced-cycle table holds the paths through each subset, not the cycles",
        "verify.py",
        [("cycles.add(edges(zip(ring, ring[1:] + ring[:1])))", "cycles.add(edges(zip(ring, ring[1:])))")],
        ["tests/test_verify.py::TestBruteCycleChecker::test_exhaustive_against_subset_walk", SWEEPS_CLEAN],
    ),
    (
        "the table's 2-linear flag calls field 1 off the linear strand",
        "oracle.py",
        [("not max(sums) >> 64", "not max(sums) >> 32")],
        [f"{ORACLE}::TestTwoLinearDetection::test_c4_complex_is_2linear",
         f"{ORACLE}::TestTableRead::test_seeded_graphs"],
    ),
    (
        "the sweep's in-place update flips an edge in one endpoint's row only",
        "verify.py",
        [("crow[v] ^= u_bit", "u_bit")],
        ["tests/test_verify.py::test_chunk_is_the_merge_of_one_mask_chunks"],
    ),
    (
        "the sweep's references hold the f-vector numerator of chordal complements only, also with the oracle on",
        "verify.py",
        [("if chordal or with_oracle else None", "if chordal else None")],
        ["tests/test_verify.py::TestSweepMachinery::test_fvector_reference_is_checked"],
    ),
    (
        "the sweep records only the first kind that a mask violates",
        "verify.py",
        [("for kind in kinds:", "for kind in kinds[:1]:")],
        ["tests/test_verify.py::TestSweepMachinery::test_fvector_reference_is_checked"],
    ),
    (
        "the sweep's check drops the Auslander-Buchsbaum comparison of depth and the oracle's pd",
        "verify.py",
        [("if f.depth + table.projective_dimension != n:", "if False:")],
        ["tests/test_verify.py::test_fault_is_recorded[ab_identity]"],
    ),
    (
        "a Betti table counts half of the 2^n subsets of Hochster's sum",
        "oracle.py",
        [("return 1 << self.n", "return 1 << self.n - 1")],
        [f"{ORACLE}::TestTableRead::test_constructor_contract"],
    ),
    (
        "the Betti table constructor accepts a beta_(0,0) other than 1",
        "oracle.py",
        [("if v != 1:", "if False:")],
        [f"{ORACLE}::TestTableRead::test_constructor_contract"],
    ),
    (
        "the Betti table constructor accepts a position beyond j = n",
        "oracle.py",
        [("if not 0 <= i <= j <= n:", "if not 0 <= i <= j:")],
        [f"{ORACLE}::TestTableRead::test_checking_constructor_errors"],
    ),
    (
        "the numerator degree stops at 1, so a single facet's numerator reads degree 1",
        "invariants.py",
        [("while d > 0 and not coeffs[d]:", "while d > 1 and not coeffs[d]:")],
        ["tests/test_invariants.py::TestHilbertFromDecomposition::test_single_simplex"],
    ),
    (
        "the attachment of a facet meets only the facet before it, not the union of all earlier ones",
        "chordal.py",
        [("dims.append((f & union).bit_count() - 1)\n        union |= f",
          "dims.append((f & union).bit_count() - 1)\n        union = f")],
        ["tests/test_kernels.py::test_facet_order_agrees_with_spanning_forest"],
    ),
    (
        "the d-tree criterion asks for a largest facet one vertex short of n - k + 1",
        "invariants.py",
        [("return largest == n - k + 1", "return largest == n - k")],
        ["tests/test_invariants.py::TestDTreeSignature"],
    ),
    (
        "a graph6 line with padding bits set echoes its own text, not the canonical one",
        "graphs.py",
        [("if (data[-1] - 63) & ((1 << 6 * nbytes - nbits) - 1) == 0:", "if True:")],
        ["tests/test_kernels.py::test_graph6_matches_bitwise_codec"],
    ),
    (
        "the oracle's match flag is true wherever the formulas apply, whatever the table",
        "cli.py",
        [('"match": None if strand is None else strand == table.entries,', '"match": strand is not None,')],
        ["tests/test_cli.py::TestOracle::test_mismatched_table_is_match_false"],
    ),
    (
        "classify drops the free-vertex witness of the answer",
        "conjecture.py",
        [("witness=f.witness and (frozenset(bits(f.witness[0])), f.witness[1]),", "")],
        ["tests/test_conjecture.py::TestFormulaRecord::test_consistency"],
    ),
    (
        "the CLI maps an internal invariant failure to the exit code of a malformed input",
        "cli.py",
        [("return EXIT_INTERNAL", "return EXIT_MALFORMED")],
        ["tests/test_cli.py::TestSurvey::test_internal_error_is_not_a_skipped_line"],
    ),
    (
        "the graph6 decoder drops the bits above the diagonal, so its rows are not symmetric",
        "graphs.py",
        [("(lower | _transpose64(lower)).to_bytes", "lower.to_bytes")],
        ["tests/test_kernels.py::test_graph6_decodes_to_valid_rows"],
    ),
    (
        "the bit-matrix transpose skips its round for bit 0 of the row and column indices",
        "graphs.py",
        [("for j in (32, 16, 8, 4, 2, 1)", "for j in (32, 16, 8, 4, 2)")],
        ["tests/test_kernels.py::test_transpose64_matches_bitwise"],
    ),
    (
        "the answer skips `checked_strand`, so a survey line is never checked",
        "conjecture.py",
        [("num, strand = checked_strand(f, g.n, max_deg, graph6)", "num, strand = f.numerator, {}")],
        ["tests/test_cli.py::TestSurvey::test_line_runs_the_strand_check"],
    ),
]


def run_tests(env: dict[str, str], tests: list[str]) -> int:
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(tmp) / "edgering"
        shutil.copytree(ROOT / "src" / "edgering", package, ignore=shutil.ignore_patterns("__pycache__"))
        # no bytecode: a mutant of the same size and mtime could reuse a stale .pyc
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import edgering; print(edgering.__file__)"],
                               env=env, capture_output=True, text=True).stdout.strip()
        if Path(where).parent != package:
            print(f"edgering imports from {where!r}, not from the copy")
            return 1
        named = sorted({t for *_, tests in MUTANTS for t in tests})
        if run_tests(env, named) != 0:
            print("the named tests fail on the unchanged package")
            return 1
        failures = 0
        for what, name, replacements, tests in MUTANTS:
            path = package / name
            original = text = path.read_text(encoding="utf-8")
            for old, new in replacements:
                if text.count(old) != 1:
                    print(f"STALE    {what}: {old!r} matches {name} {text.count(old)} times, not once")
                    failures += 1
                    break
                text = text.replace(old, new)
            else:
                path.write_text(text, encoding="utf-8")
                start = time.perf_counter()
                code = run_tests(env, tests)
                path.write_text(original, encoding="utf-8")
                verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR {code}")
                print(f"{verdict:8} {what} ({time.perf_counter() - start:.1f} s)")
                failures += code != 1
        print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
        return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
