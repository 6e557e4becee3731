import contextlib
import errno
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from importlib import resources
from math import comb
from pathlib import Path

import jsonschema
import pytest

from edgering import chordal, cli, complexes, conjecture, oracle, verify
from edgering.cli import main
from edgering.errors import (
    ContractViolationError,
    InternalInvariantError,
    MalformedInputError,
    UndefinedInputError,
    UnsupportedSizeError,
)
from edgering.graphs import Graph, complement, enumerate_labeled, parse_graph6, to_graph6
from edgering.oracle import hochster_betti
from edgering.complexes import flag_complex
from edgering.conjecture import build_family
from conftest import format_fixture


C4_G6 = to_graph6(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
K4_G6 = "C~"
EDGELESS4_G6 = "C?"
HOLLOW_CX = Path(__file__).parent / "fixtures" / "hollow.cx"
CL_COMPLEMENT_CX = Path(__file__).parent / "fixtures" / "cl_complement.cx"


def schema(name):
    text = resources.files("edgering.schemas").joinpath(f"{name}.schema.json").read_text()
    return json.loads(text)


def run_cli(args, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "edgering.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )
    return proc


def simulated_bug(*args):
    raise InternalInvariantError("simulated bug")


class TestAnalyze:
    def test_internal_error_exit_5(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "analyze_record", simulated_bug)
        assert main(["analyze", C4_G6]) == 5
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "internal error: simulated bug\n"

    def test_corrupted_facets_exit_5(self, monkeypatch, capsys):
        # the complement of Cl is 2K2; {0} lies inside its facet {0, 2}
        corrupted = [0b0101, 0b0001, 0b1010]
        monkeypatch.setattr(chordal, "_clique_masks_from_peo", lambda n, rows, elim: corrupted)
        assert main(["analyze", "Cl"]) == 5
        assert capsys.readouterr() == ("", "internal error: facets must be inclusion-free\n")

    # K4 has a chordal complement; the complement of 2K2 is C4
    @pytest.mark.parametrize("g6", [K4_G6, to_graph6(Graph.from_edges(4, [(0, 2), (1, 3)]))])
    def test_graph6_encoded_once(self, monkeypatch, g6):
        calls = []

        def counting(g):
            calls.append(g)
            return to_graph6(g)

        monkeypatch.setattr(conjecture, "to_graph6", counting)
        assert cli.analyze_record(parse_graph6(g6))["input"] == g6
        assert len(calls) == 1

    def test_c4(self, capsys):
        assert main(["analyze", C4_G6]) == 0
        rec = json.loads(capsys.readouterr().out)
        jsonschema.validate(rec, schema("analyze"))
        assert rec["complement_chordal"] is True
        assert rec["pd"] == 3 and rec["max_deg"] == 2
        assert rec["conjecture_holds"] is False and rec["witness"] is None
        assert rec["hilbert_numerator"] == [1, 0, -4, 4, -1]

    def test_k4(self, capsys):
        assert main(["analyze", K4_G6]) == 0
        rec = json.loads(capsys.readouterr().out)
        jsonschema.validate(rec, schema("analyze"))
        assert rec["conjecture_holds"] is True
        assert rec["witness"] == {"facet": [0], "vertex": 0}

    def test_edgeless(self, capsys):
        assert main(["analyze", EDGELESS4_G6]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["facets"] == [[0, 1, 2, 3]]
        assert rec["pd"] == 0 and rec["max_deg"] == 0 and rec["conjecture_holds"] is True

    def test_non_chordal_complement(self, capsys):
        g6 = to_graph6(complement(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])))
        assert main(["analyze", g6]) == 0
        rec = json.loads(capsys.readouterr().out)
        jsonschema.validate(rec, schema("analyze"))
        assert rec["complement_chordal"] is False
        assert rec["chordless_cycle"] == [0, 1, 2, 3]
        for key in ("facets", "pd", "depth", "dim", "cm", "conjecture_holds", "gap"):
            assert rec[key] is None
        assert rec["max_deg"] == 1

    def test_edges_input(self, capsys):
        assert main(["analyze", "--edges", "4 0 1 1 2 2 3 3 0"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["input"] == C4_G6

    def test_stdin_input(self):
        proc = run_cli(["analyze", "--stdin"], stdin=C4_G6 + "\n")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pd"] == 3

    def test_malformed_exit_2(self, capsys):
        assert main(["analyze", "C"]) == 2
        assert "error" in capsys.readouterr().err

    def test_two_sources_rejected(self, capsys):
        assert main(["analyze", C4_G6, "--edges", "1"]) == 2

    def test_empty_graph_rejected(self, capsys):
        assert main(["analyze", "?"]) == 2

    def test_pretty(self, capsys):
        assert main(["analyze", C4_G6, "--pretty"]) == 0
        out = capsys.readouterr().out
        assert "conjecture_holds" in out and "\n" in out

    def test_deterministic_output(self):
        a = run_cli(["analyze", C4_G6]).stdout
        b = run_cli(["analyze", C4_G6]).stdout
        assert a == b

    def test_d_tree_decided_past_eight_facets(self, capsys):
        cases = [
            # nine disjoint edges: n = 18, k = 9, largest facet 2 != n - k + 1
            (Graph.from_edges(18, [(2 * i, 2 * i + 1) for i in range(9)]), None),
            # the path on 12 vertices: k = 11 edges, largest facet 2 = n - k + 1
            (Graph.from_edges(12, [(i, i + 1) for i in range(11)]), [1] * 11),
        ]
        for complement_graph, d_tree in cases:
            assert main(["analyze", to_graph6(complement(complement_graph))]) == 0
            rec = json.loads(capsys.readouterr().out)
            jsonschema.validate(rec, schema("analyze"))
            assert rec["d_tree"] == d_tree
            assert rec["notes"] == []
            assert rec["conjecture_holds"] is not None


class TestSurvey:
    def test_all_labeled_four(self, capsys):
        assert main(["survey", "--all-labeled", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 65
        survey_schema = schema("survey")
        for ln in lines:
            jsonschema.validate(json.loads(ln), survey_schema)
        summary = json.loads(lines[-1])["summary"]
        assert summary["total"] == 64
        # independent expectation straight from the oracle
        expected_counterexamples = []
        expected_2linear = 0
        for g in enumerate_labeled(4):
            table = hochster_betti(flag_complex(complement(g)))
            if table.two_linear:
                expected_2linear += 1
                if table.projective_dimension != max(g.degree(v) for v in range(4)):
                    expected_counterexamples.append(to_graph6(g))
        assert summary["2linear"] == expected_2linear == 61
        assert summary["fails"] == len(expected_counterexamples) == 3
        assert summary["counterexamples"] == expected_counterexamples
        assert C4_G6 in summary["counterexamples"]

    def test_all_labeled_two(self, capsys):
        assert main(["survey", "--all-labeled", "2"]) == 0
        lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        assert len(lines) == 3
        assert all(rec["holds"] for rec in lines[:-1])

    def test_summary_counts_match_lines(self, capsys):
        assert main(["survey", "--all-labeled", "4"]) == 0
        lines = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
        records, summary = lines[:-1], lines[-1]["summary"]
        assert summary["total"] == len(records)
        assert summary["2linear"] == sum(1 for r in records if r["complement_chordal"])
        assert summary["holds"] == sum(1 for r in records if r["holds"])

    def test_internal_error_is_not_a_skipped_line(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "survey_record", simulated_bug)
        monkeypatch.setattr(sys, "stdin", io.StringIO(C4_G6 + "\n"))
        assert main(["survey", "--jobs", "1"]) == cli.EXIT_INTERNAL == 5
        err = capsys.readouterr().err
        assert err == "internal error: simulated bug\n"

    def test_broken_contract_is_not_a_skipped_line(self, monkeypatch, capsys):
        def broken_contract(*args):
            raise ContractViolationError("simulated contract bug")

        monkeypatch.setattr(conjecture, "formulas", broken_contract)
        monkeypatch.setattr(sys, "stdin", io.StringIO(C4_G6 + "\n"))
        assert main(["survey", "--jobs", "1"]) == 5
        assert capsys.readouterr().err == "internal error: simulated contract bug\n"

    def test_line_runs_the_strand_check(self, monkeypatch, capsys):
        """A survey line reads none of the numerator or the strand, but its
        record is checked as analyze's is: a CM flag that disagrees with
        depth = dim is an internal error."""
        real = conjecture.formulas

        def flipped(*args):
            rec = real(*args)
            return rec._replace(cm=not rec.cm)

        monkeypatch.setattr(conjecture, "formulas", flipped)
        monkeypatch.setattr(sys, "stdin", io.StringIO(K4_G6 + "\n"))
        assert main(["survey", "--jobs", "1"]) == 5
        assert capsys.readouterr() == ("", "internal error: CM structural test disagrees with depth = dim\n")

    def test_streams_stdin(self, monkeypatch):
        out = io.StringIO()
        stdout_at_read = []

        def stdin():
            for line in (C4_G6 + "\n", "\n", K4_G6 + "\n"):
                stdout_at_read.append(out.getvalue())
                yield line

        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stdin", stdin())
        assert main(["survey", "--jobs", "1"]) == 0
        assert stdout_at_read[0] == ""
        assert json.loads(stdout_at_read[1])["input"] == C4_G6
        records = [json.loads(ln) for ln in out.getvalue().splitlines()]
        assert [r["input"] for r in records[:-1]] == [C4_G6, K4_G6]

    def test_non_ascii_line_skipped(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO("Bw\n\u00e9\n"))
        assert main(["survey"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: line 2: ")
        assert json.loads(captured.out.splitlines()[-1])["summary"]["total"] == 1

    def test_stdin_with_bad_line(self):
        stdin = f"{C4_G6}\nnot-a-graph\n{K4_G6}\n"
        proc = run_cli(["survey"], stdin=stdin)
        assert proc.returncode == 1
        lines = proc.stdout.splitlines()
        assert len(lines) == 3  # two good lines + summary
        assert "line 2" in proc.stderr
        assert json.loads(lines[-1])["summary"]["total"] == 2

    def test_only_2linear_filter(self):
        graphs = "\n".join(to_graph6(g) for g in enumerate_labeled(4))
        proc = run_cli(["survey", "--only-2linear"], stdin=graphs + "\n")
        assert proc.returncode == 0
        lines = [json.loads(ln) for ln in proc.stdout.splitlines()]
        records, summary = lines[:-1], lines[-1]["summary"]
        assert len(records) == 61
        assert all(r["complement_chordal"] for r in records)
        assert summary["total"] == summary["2linear"] == 61

    def test_jobs_deterministic(self):
        one = run_cli(["survey", "--all-labeled", "4", "--jobs", "1"])
        four = run_cli(["survey", "--all-labeled", "4", "--jobs", "4"])
        assert one.returncode == four.returncode == 0
        assert one.stdout == four.stdout

    @pytest.mark.parametrize(
        "affinity, cpu_count, size", [({0, 1, 2}, 8, 3), (None, 2, 2), (None, None, None)]
    )
    def test_pool_clamped_to_available_cpus(self, monkeypatch, capsys, affinity, cpu_count, size):
        sizes = []

        class RecordingPool:
            """Records the size it is asked for and runs the work in this process."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, items, chunksize=1):
                return map(func, items)

        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        assert main(["survey", "--all-labeled", "3", "--jobs", "100000"]) == 0
        out = capsys.readouterr().out
        assert sizes == ([] if size is None else [size])
        assert main(["survey", "--all-labeled", "3", "--jobs", "1"]) == 0
        assert capsys.readouterr().out == out

    def test_size_cap(self, capsys):
        assert main(["survey", "--all-labeled", "8"]) == 3
        err = capsys.readouterr().err
        assert err == "error: sweeps and surveys of all labeled graphs support 1..7 vertices\n"

    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_all_labeled_without_vertices(self, capsys, n):
        assert main(["survey", "--all-labeled", n]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: sweeps and surveys of all labeled graphs need at least one vertex\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_closed_stdout_ends_run(self, jobs):
        # all 2^21 graphs on 7 vertices take minutes; a reader that leaves
        # after one line should stop the survey and its workers at once
        proc = subprocess.Popen(
            [sys.executable, "-m", "edgering.cli", "survey", "--all-labeled", "7", "--jobs", jobs],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            assert json.loads(proc.stdout.readline())["n"] == 7
            proc.stdout.close()
            assert proc.wait(timeout=60) == 1
            assert b"Traceback" not in proc.stderr.read()
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            proc.stderr.close()


class TestOracle:
    def test_c4(self, capsys):
        assert main(["oracle", C4_G6]) == 0
        rec = json.loads(capsys.readouterr().out)
        jsonschema.validate(rec, schema("oracle"))
        assert rec["betti"] == [[0, 0, 1], [1, 2, 4], [2, 3, 4], [3, 4, 1]]
        assert rec["pd"] == 3 and rec["two_linear"] is True and rec["match"] is True

    def test_edgeless(self, capsys):
        assert main(["oracle", EDGELESS4_G6]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["betti"] == [[0, 0, 1]] and rec["match"] is True

    def test_complex_file(self, capsys):
        # the README example: the hollow triangle is not flag
        assert main(["oracle", "--complex", str(HOLLOW_CX)]) == 4
        out, err = capsys.readouterr()
        assert out == '{"chordless_cycle": null, "error": "not-flag"}\n' and err == ""
        jsonschema.validate(json.loads(out), schema("oracle"))

    def test_size_cap_exit_3(self, capsys):
        g6 = to_graph6(Graph(19, (0,) * 19))
        assert main(["oracle", g6]) == 3
        assert capsys.readouterr().err == "error: oracle capped at 18 vertices, got 19\n"

    def test_large_non_flag_complex_exit_4(self, tmp_path, capsys):
        # the hollow triangle and isolated vertices, below the cap of 18
        path = tmp_path / "hollow15.cx"
        path.write_text("15\n0 1\n1 2\n0 2\n" + "".join(f"{v}\n" for v in range(3, 15)))
        assert main(["oracle", "--complex", str(path)]) == 4
        assert capsys.readouterr() == ('{"chordless_cycle": null, "error": "not-flag"}\n', "")

    @pytest.mark.parametrize(
        "g6", ["Cl", "Frqa_", to_graph6(build_family("barbell", 4))], ids=["C4", "Frqa_", "barbell"]
    )
    def test_graph_path_builds_no_complex(self, monkeypatch, tmp_path, capsys, g6):
        # both inputs run the kernel on the rows of H and take match from its
        # decomposition: a graph's complement, and the 1-skeleton of a flag
        # complex, so the flag complex of the complement prints the same bytes
        path = tmp_path / "flag.cx"
        path.write_text(format_fixture(flag_complex(complement(parse_graph6(g6)))))

        def never(*args):
            raise AssertionError("oracle input went through a complex")

        monkeypatch.setattr(complexes, "flag_complex", never)
        monkeypatch.setattr(complexes, "_quasi_forest_masks", never)
        monkeypatch.setattr(oracle, "hochster_betti", never)
        assert main(["oracle", "--complex", str(path)]) == 0
        expected = capsys.readouterr().out
        assert main(["oracle", g6]) == 0
        assert capsys.readouterr().out == expected
        if g6 != "Frqa_":
            assert json.loads(expected)["match"] is True
        # no vertex is an oracle error, raised before the kernel runs
        monkeypatch.setattr(oracle, "_hochster_graph", never)
        assert main(["oracle", "?"]) == 2
        assert capsys.readouterr() == ("", "error: the oracle needs at least one vertex\n")

    def test_fourteen_vertices_match(self, capsys):
        # a chordal complement (a path of triangles and a pendant tail) on 14
        # vertices is checked against the formulas
        h = Graph.from_edges(14, [(i, i + 1) for i in range(13)] + [(i, i + 2) for i in range(0, 8)])
        assert main(["oracle", to_graph6(complement(h))]) == 0
        rec = json.loads(capsys.readouterr().out)
        jsonschema.validate(rec, schema("oracle"))
        assert rec["n"] == 14 and rec["subsets_examined"] == 1 << 14
        assert rec["two_linear"] is True and rec["match"] is True

    def test_perfect_matching_is_koszul(self, capsys, exact_calls):
        # I(G) of a matching of k edges is a complete intersection of k
        # quadrics, resolved by the Koszul complex: beta_(i,2i) = C(k, i) and
        # nothing else.  Its independence complex is the cross-polytope, a
        # sphere with no dominated vertex and no acyclic link; the
        # Mayer-Vietoris rule still settles every subset without exact
        # homology.
        k = 7
        assert main(["oracle", to_graph6(Graph.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)]))]) == 0
        rec = json.loads(capsys.readouterr().out)
        jsonschema.validate(rec, schema("oracle"))
        assert rec["betti"] == [[i, 2 * i, comb(k, i)] for i in range(k + 1)]
        assert rec["pd"] == k and rec["two_linear"] is False
        assert not exact_calls

    def test_complex_cap_before_canonical_facets(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "path19.cx"
        path.write_text("19\n" + "".join(f"{i} {i + 1}\n" for i in range(18)))

        def never(facets):
            raise AssertionError("complex canonicalized above the oracle cap")

        with monkeypatch.context() as m:
            m.setattr(complexes, "_canonical_facets", never)
            assert main(["oracle", "--complex", str(path)]) == 3
        assert capsys.readouterr().err == "error: oracle capped at 18 vertices, got 19\n"
        # decompose has no vertex cap
        assert main(["decompose", "--complex", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 19

    def test_size_cap_before_flag_complex(self, monkeypatch, capsys):
        # the complement of 10 disjoint triangles has 3^10 maximal cliques
        edges = [(t + a, t + b) for t in range(0, 30, 3) for a, b in ((0, 1), (0, 2), (1, 2))]
        triangles = Graph.from_edges(30, edges)

        def never(g):
            raise AssertionError("flag complex built above the oracle cap")

        monkeypatch.setattr(complexes, "flag_complex", never)
        assert main(["oracle", to_graph6(triangles)]) == 3
        assert capsys.readouterr().err == "error: oracle capped at 18 vertices, got 30\n"

    def test_missing_input(self, capsys):
        assert main(["oracle"]) == 2

    @pytest.mark.parametrize("source", ["graph", "complex"])
    def test_mismatched_table_is_match_false(self, monkeypatch, capsys, source):
        # one entry of the kernel's table for the complement of C4, whose
        # complement is chordal, off by one: the formulas disagree with it
        real = oracle._hochster_graph

        def off_by_one(n, rows):
            table = real(n, rows)
            entries = dict(table.entries)
            entries[1, 2] += 1
            return oracle.OracleBettiTable(entries, table.n)

        monkeypatch.setattr(oracle, "_hochster_graph", off_by_one)
        argv = [C4_G6] if source == "graph" else ["--complex", str(CL_COMPLEMENT_CX)]
        assert main(["oracle", *argv]) == 0
        rec = json.loads(capsys.readouterr().out)
        jsonschema.validate(rec, schema("oracle"))
        assert rec["betti"] == [[0, 0, 1], [1, 2, 5], [2, 3, 4], [3, 4, 1]]
        assert rec["match"] is False


class TestOneProcess:
    """`main` reuses one parser for every call in a process, and importing
    the CLI leaves the worker-pool module out until a pool is made."""

    def test_calls_share_no_state(self, capsys):
        # each call prints and exits as a fresh process does: --pretty does
        # not carry over to the analyze after it, and argparse's exit 2
        # leaves nothing behind for the calls after it
        parser = cli.build_parser()
        calls = [
            ["oracle", "Cl"],
            ["analyze", "--pretty", "Cl"],
            ["analyze", "Cl"],
            ["analyze", "--no-such-flag", "Cl"],
            ["oracle", "--complex", str(CL_COMPLEMENT_CX)],
            ["survey", "--all-labeled", "3"],
        ]
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            results.append((capsys.readouterr().out, code))
        assert results == [(proc.stdout, proc.returncode) for proc in map(run_cli, calls)]
        assert [code for _, code in results] == [0, 0, 0, 2, 0, 0]
        assert json.loads(results[2][0])["input"] == "Cl"
        assert results[4][0] == results[0][0]
        assert cli.build_parser() is parser

    def test_import_leaves_multiprocessing_out(self):
        code = "import sys; from edgering import cli, verify; print('multiprocessing' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "False\n")


class TestExitCodes:
    """`main` maps every error class to its exit code, wherever a command raises it."""

    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            (MalformedInputError, 2, "error: "),
            (UndefinedInputError, 2, "error: "),
            (UnsupportedSizeError, 3, "error: "),
            (InternalInvariantError, 5, "internal error: "),
            (ContractViolationError, 5, "internal error: "),
        ],
        ids=["malformed", "undefined", "size", "internal", "contract"],
    )
    @pytest.mark.parametrize(
        "module, name, argv",
        [
            (conjecture, "formulas", ["analyze", C4_G6]),
            # called after the oracle's table is computed, for its match
            (conjecture, "formulas", ["oracle", C4_G6]),
            (chordal, "_decompose_masks", ["decompose", C4_G6]),
        ],
        ids=["analyze", "oracle", "decompose"],
    )
    def test_error_class(self, monkeypatch, capsys, error, code, prefix, module, name, argv):
        def raising(*args):
            raise error("simulated")

        monkeypatch.setattr(module, name, raising)
        assert main(argv) == code
        assert capsys.readouterr() == ("", f"{prefix}simulated\n")

    def test_analyze_and_sweep_share_the_formula_record(self, monkeypatch, capsys):
        # one patched function breaks both, so neither has a formula path of its own
        monkeypatch.setattr(conjecture, "formulas", simulated_bug)
        assert main(["analyze", C4_G6]) == 5
        assert capsys.readouterr() == ("", "internal error: simulated bug\n")
        with pytest.raises(InternalInvariantError, match="simulated bug"):
            verify.sweep_chunk(4, 0, 64, False)

    @pytest.mark.parametrize("command", ["oracle", "decompose"])
    def test_unreadable_complex_file(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.cx"
        assert main([command, "--complex", str(missing)]) == 2
        expected = f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{missing}'\n"
        assert capsys.readouterr() == ("", expected)
        assert main([command, "--complex", str(tmp_path)]) == 2
        expected = f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{tmp_path}'\n"
        assert capsys.readouterr() == ("", expected)


class TestBadInputExit2:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "?"],
            ["oracle", "?"],
            ["decompose", "--complex", "EMPTY"],
            ["oracle", "--complex", "EMPTY"],
        ],
    )
    def test_no_vertices(self, tmp_path, capsys, argv):
        path = tmp_path / "empty.cx"
        path.write_text("0\n")
        argv = [str(path) if a == "EMPTY" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        if argv[0] == "oracle":
            assert captured.err == "error: the oracle needs at least one vertex\n"

    @pytest.mark.parametrize("command", ["oracle", "decompose"])
    @pytest.mark.parametrize(
        "sources",
        [["Cl", "--complex", "HOLLOW"], ["--complex", "HOLLOW", "Cl"], []],
        ids=["graph6-first", "complex-first", "neither"],
    )
    def test_exactly_one_source(self, capsys, command, sources):
        # a graph6 argument beside --complex is not ignored, in either order
        argv = [command] + [str(HOLLOW_CX) if a == "HOLLOW" else a for a in sources]
        assert main(argv) == 2
        expected = "error: exactly one input source required: positional graph6 or --complex FILE\n"
        assert capsys.readouterr() == ("", expected)

    def test_non_decimal_edge_list(self, capsys):
        # a fullwidth 4 is a digit to int(), not to the edge-list parser
        assert main(["analyze", "--edges", "\uff14 0 1 1 2 2 3 3 0"]) == 2
        assert capsys.readouterr() == ("", "error: non-integer token in edge list: "
                                           "invalid literal for int() with base 10: '\uff14'\n")

    @pytest.mark.parametrize("option, value", [("--all-labeled", "\uff103"), ("--all-labeled", "\u0663"),
                                               ("--all-labeled", "0_3"), ("--jobs", "\uff12")])
    def test_non_decimal_survey_option(self, capsys, option, value):
        with pytest.raises(SystemExit) as exc:
            main(["survey", option, value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "_decimal" not in err
        assert err.splitlines()[-1] == f"edgering survey: error: argument {option}: invalid int value: {value!r}"

    def test_non_ascii_graph6(self, capsys):
        assert main(["analyze", "\u00e9"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, stdin, code, prefix",
        [(["survey"], b"Cl\n\xff\nCl\n", 1, "line 2: "), (["analyze", "--stdin"], b"C\xffl\n", 2, "")],
        ids=["survey", "analyze"],
    )
    def test_invalid_utf8_stdin(self, argv, stdin, code, prefix):
        # under strict UTF-8 decoding of stdin, an undecodable byte is
        # rejected like any non-ASCII line, and survey reads on
        proc = subprocess.run(
            [sys.executable, "-m", "edgering.cli", *argv],
            input=stdin,
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        )
        assert proc.returncode == code
        assert proc.stderr.decode() == f"error: {prefix}graph6 text must be ASCII (ordinal not in range(128))\n"
        lines = proc.stdout.decode().splitlines()
        if code == 1:
            assert [json.loads(ln)["input"] for ln in lines[:-1]] == ["Cl", "Cl"]
            assert json.loads(lines[-1])["summary"]["total"] == 2
        else:
            assert lines == []

    @pytest.mark.parametrize("command", ["oracle", "decompose"])
    def test_non_ascii_complex(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.cx"
        path.write_bytes(b"1\n0\xe9\n")
        assert main([command, "--complex", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestDecompose:
    def test_c4(self, capsys):
        assert main(["decompose", C4_G6]) == 0
        rec = json.loads(capsys.readouterr().out)
        jsonschema.validate(rec, schema("decompose"))
        assert rec["facets"] == [[0, 2], [1, 3]]
        assert rec["r"] == [-1] and rec["r_min"] == -1

    def test_k33(self, capsys):
        k33 = Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
        assert main(["decompose", to_graph6(k33)]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["facets"] == [[0, 1, 2], [3, 4, 5]]
        assert rec["r"] == [-1]

    def test_quasi_forest_complex_file(self, tmp_path, capsys):
        path = tmp_path / "triangles.cx"
        path.write_text("4\n0 1 2\n1 2 3\n")
        assert main(["decompose", "--complex", str(path)]) == 0
        rec = json.loads(capsys.readouterr().out)
        jsonschema.validate(rec, schema("decompose"))
        assert rec["d"] == [2, 2] and rec["r"] == [1] and rec["r_min"] == 1

    def test_not_flag_complex_file(self, capsys):
        # the README example
        assert main(["decompose", "--complex", str(HOLLOW_CX)]) == 4
        rec = json.loads(capsys.readouterr().out)
        jsonschema.validate(rec, schema("decompose"))
        assert rec == {"chordless_cycle": None, "error": "not-flag"}

    def test_complex_cap_before_canonical_facets(self, monkeypatch, tmp_path, capsys):
        # the 1-skeleton of a complex is a graph, capped at 62 vertices
        for n in (62, 63):
            (tmp_path / f"simplex{n}.cx").write_text(f"{n}\n" + " ".join(map(str, range(n))) + "\n")
        assert main(["decompose", "--complex", str(tmp_path / "simplex62.cx")]) == 0
        assert json.loads(capsys.readouterr().out)["facets"] == [list(range(62))]

        def never(*args):
            raise AssertionError("complex canonicalized above the graph cap")

        monkeypatch.setattr(complexes.SimplicialComplex, "of", never)
        assert main(["decompose", "--complex", str(tmp_path / "simplex63.cx")]) == 3
        assert capsys.readouterr() == ("", "error: vertex count 63 outside 0..62\n")

    def test_not_chordal_exit_4(self, capsys):
        g6 = to_graph6(complement(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])))
        assert main(["decompose", g6]) == 4
        rec = json.loads(capsys.readouterr().out)
        jsonschema.validate(rec, schema("decompose"))
        assert rec["error"] == "skeleton-not-chordal"
        assert rec["chordless_cycle"] == [0, 1, 2, 3]

    def test_console_script_entry(self):
        proc = run_cli(["decompose", C4_G6])
        assert proc.returncode == 0 and json.loads(proc.stdout)["k"] == 2
