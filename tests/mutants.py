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

# (what the mutant breaks, file under src/edgering, [(old, new), ...], tests)
MUTANTS = [
    (
        "the step's overlap test never sees a degree with homology on both sides",
        "oracle.py",
        [("if not (rest + _LOW) & (link + _LOW) & ~_LOW:", "if not False:")],
        [f"{ORACLE}::TestMemoization::test_disjoint_cycles_are_keyed", "tests/test_oracle_golden.py"],
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
            ("range(packed.bit_length() + 31 >> 5)", "range(packed.bit_length() + 15 >> 4)"),
            ("packed >> 32 * f & 0xFFFFFFFF", "packed >> 16 * f & 0xFFFF"),
            ("sum(0x7FFFFFFF << 32 * f for", "sum(0x7FFF << 16 * f for"),
            ("return rest + (link << 32)", "return rest + (link << 16)"),
            ("sum(h << 32 * (dim + 1)", "sum(h << 16 * (dim + 1)"),
        ],
        [f"{ORACLE}::TestPackedFields::test_complement_of_k16"],
    ),
    (
        "the tally files each subset one size too low",
        "oracle.py",
        [("sums[w.bit_count()] += at_subset[w]", "sums[w.bit_count() - 1] += at_subset[w]")],
        [f"{ORACLE}::TestHochsterKnownTables::test_c4_stanley_reisner"],
    ),
    (
        "the graph6 decoder drops the bits above the diagonal, so its rows are not symmetric",
        "graphs.py",
        [("rows = [int(col[::-1], 2) | int(t[last + v :: -n], 2) for v, col in enumerate(cols)]",
          "rows = [int(col[::-1], 2) for v, col in enumerate(cols)]")],
        ["tests/test_kernels.py::test_graph6_decodes_to_valid_rows"],
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
