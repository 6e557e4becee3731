"""Command-line front end.

Subcommands:
  analyze    full pipeline for one graph, single JSON document on stdout
  survey     one JSON line per input graph plus a trailing summary object
  oracle     brute-force Betti table of a graph's complement flag complex
             or of a flag complex, with a match flag against the formulas
  decompose  quasi-forest decomposition of a complex or of a graph's
             complement flag complex

Exit codes: 0 ok, 1 partial (some survey lines skipped, or stdout closed
before all output was written), 2 malformed input, 3 size cap exceeded,
4 not a quasi-forest (for `oracle`, a complex that is not flag), 5 internal
error (a failed consistency check or a broken internal contract, that is a
bug, reported as `internal error: ...`).
The commands compose no answer of their own: `analyze`, `survey` and the
`match` flag of `oracle` read `conjecture.analyze_record`, imported here
with `ANALYZE_KEYS`.  The commands compute, print and raise; `main` alone
maps an exception to its exit code.  All JSON is emitted with sorted keys
and stable list orders, so identical inputs and flags produce
byte-identical output for every --jobs value.
`survey` streams stdin: with --jobs 1 each record is written before the next
line is read; with --jobs > 1 the pool's `imap` still reads ahead.  A closed
stdout ends a survey at its next write, and its workers are terminated.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from functools import cache

from . import chordal, complexes, oracle
from .conjecture import ANALYZE_KEYS, analyze_record
from .errors import (
    ContractViolationError,
    InternalInvariantError,
    MalformedInputError,
    UndefinedInputError,
    UnsupportedSizeError,
)
from .graphs import (
    ENUMERATION_CAP,
    MAX_VERTICES,
    Graph,
    _decimal,
    _pool_size,
    bits,
    complement,
    mask_count,
    parse_edge_list,
    parse_graph6,
)

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_MALFORMED = 2
EXIT_SIZE_CAP = 3
EXIT_NOT_QUASI_FOREST = 4
EXIT_INTERNAL = 5


def survey_record(g: Graph) -> dict:
    """Abbreviated per-line record for surveys."""
    full = analyze_record(g)
    keys = ("input", "n", "complement_chordal", "r_min", "pd", "max_deg",
            "cm", "d_tree", "witness", "gap")
    rec = {k: full[k] for k in keys}
    rec["holds"] = full["conjecture_holds"]
    return rec


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _pretty_analyze(rec: dict) -> None:
    rows = [(k, rec[k]) for k in ANALYZE_KEYS]
    width = max(len(k) for k, _ in rows)
    for k, v in rows:
        sys.stdout.write(f"{k:<{width}}  {json.dumps(v, sort_keys=True)}\n")


def _read_graph(args) -> Graph:
    sources = [args.graph6 is not None, args.edges is not None, args.stdin]
    if sum(sources) != 1:
        raise MalformedInputError(
            "exactly one input source required: positional graph6, --edges, or --stdin"
        )
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    if args.edges is not None:
        return parse_edge_list(args.edges)
    line = sys.stdin.readline()
    if not line.strip():
        raise MalformedInputError("no graph6 line on standard input")
    return parse_graph6(line)


def cmd_analyze(args) -> int:
    rec = analyze_record(_read_graph(args))
    if args.pretty:
        _pretty_analyze(rec)
    else:
        _print_json(rec)
    return EXIT_OK


def _survey_worker(item) -> tuple[int, bool, str, bool, bool, str]:
    """(line_no, ok, payload, is_2linear, holds, graph6); payload is a JSON
    line or an error message.  Only a malformed, undefined or oversized input
    is a bad line; any other error is a bug and propagates."""
    kind, line_no, data = item
    try:
        if kind == "mask":
            n, mask = data
            g = Graph.from_edge_mask(n, mask)
        else:
            g = parse_graph6(data)
        rec = survey_record(g)
    except (MalformedInputError, UndefinedInputError, UnsupportedSizeError) as exc:
        return (line_no, False, str(exc), False, False, "")
    return (
        line_no,
        True,
        json.dumps(rec, sort_keys=True),
        bool(rec["complement_chordal"]),
        bool(rec["holds"]),
        rec["input"],
    )


def cmd_survey(args) -> int:
    if args.all_labeled is not None:
        n = args.all_labeled
        items = (("mask", i, (n, mask)) for i, mask in enumerate(range(mask_count(n))))
    else:
        lines = ((i, raw.strip()) for i, raw in enumerate(sys.stdin, 1))
        items = (("g6", i, ln) for i, ln in lines if ln)
    jobs = _pool_size(args.jobs)
    skipped = total = emitted_2linear = emitted_holds = 0
    counterexamples: list[str] = []
    if jobs > 1:
        import multiprocessing  # here, not at the top: it slows every start-up
    # leaving the block early, on an error or a closed stdout, terminates the
    # workers instead of waiting for them to finish the whole input
    with multiprocessing.Pool(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        results = map(_survey_worker, items) if pool is None else pool.imap(_survey_worker, items, chunksize=64)
        for line_no, ok, payload, is_2linear, holds, g6 in results:
            if not ok:
                print(f"error: line {line_no}: {payload}", file=sys.stderr)
                skipped += 1
                continue
            if args.only_2linear and not is_2linear:
                continue
            sys.stdout.write(payload + "\n")
            total += 1
            emitted_2linear += is_2linear
            emitted_holds += holds
            if is_2linear and not holds:
                counterexamples.append(g6)
    summary = {
        "summary": {
            "total": total,
            "2linear": emitted_2linear,
            "holds": emitted_holds,
            "fails": emitted_2linear - emitted_holds,
            "counterexamples": counterexamples,
        }
    }
    _print_json(summary)
    return EXIT_PARTIAL if skipped else EXIT_OK


def _read_fixture(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{path}: not ASCII text ({exc.reason})") from None
    except OSError as exc:
        raise MalformedInputError(str(exc)) from None


def _check_graph_or_complex(args) -> None:
    """`oracle` and `decompose` take a graph6 argument or --complex FILE, not both."""
    if (args.graph6 is None) == (args.complex is None):
        raise MalformedInputError(
            "exactly one input source required: positional graph6 or --complex FILE"
        )


def _check_oracle_size(n: int) -> None:
    """Reject a ground set the oracle does not take, before its kernel runs."""
    if n < 1:
        raise UndefinedInputError("the oracle needs at least one vertex")
    oracle.check_vertex_cap(n)


def cmd_oracle(args) -> int:
    _check_graph_or_complex(args)
    if args.complex is not None:
        n, facet_lists = complexes.parse_fixture(_read_fixture(args.complex))
        # before the complex is built: canonicalizing is superlinear in the facets
        _check_oracle_size(n)
        h = oracle._flag_skeleton(complexes.SimplicialComplex.of(n, facet_lists))
        if h is None:
            _print_json({"error": complexes.NOT_FLAG, "chordless_cycle": None})
            return EXIT_NOT_QUASI_FOREST
        g = complement(h)
    else:
        g = parse_graph6(args.graph6)
        _check_oracle_size(g.n)
        h = complement(g)
    # the kernel runs on the rows of H, so the flag complex of a graph's
    # complement, which can have exponentially many facets, is never built
    table = oracle._hochster_graph(h.n, h.rows)
    strand = [[i, j, v] for (i, j), v in table.items()]
    betti = analyze_record(g)["betti"]
    rec = {
        "n": table.n,
        "subsets_examined": table.subsets_examined,
        "betti": [[0, 0, 1]] + strand,
        "pd": oracle.oracle_pd(table),
        "two_linear": oracle.oracle_is_2linear(table),
        "match": None if betti is None else betti == strand,
    }
    _print_json(rec)
    return EXIT_OK


def cmd_decompose(args) -> int:
    _check_graph_or_complex(args)
    if args.complex is not None:
        n, facet_lists = complexes.parse_fixture(_read_fixture(args.complex))
        # before the complex is built, as for `oracle`; the 1-skeleton has the same cap
        if n > MAX_VERTICES:
            raise UnsupportedSizeError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        # a fixture's ground set is 0..n-1, so its positions are its labels
        facets, reason, cycle = complexes._quasi_forest_masks(complexes.SimplicialComplex.of(n, facet_lists))
    else:
        h = complement(parse_graph6(args.graph6))
        n = h.n
        res, facets = chordal._decompose_masks(h)
        reason = complexes.SKELETON_NOT_CHORDAL if facets is None else None
        cycle = res.cycle if facets is None else None
    if facets is None:
        _print_json({"error": reason, "chordless_cycle": None if cycle is None else list(cycle)})
        return EXIT_NOT_QUASI_FOREST
    r = chordal._attach_dims(facets)
    _print_json({
        "facets": [list(bits(f)) for f in facets], "d": [f.bit_count() - 1 for f in facets],
        "r": r, "r_min": min(r, default=None), "n": n, "k": len(facets),
    })
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; `parse_args` gives each call a fresh
    namespace, so `main` can reuse it."""
    parser = argparse.ArgumentParser(
        prog="edgering",
        description="Homological invariants of edge rings with 2-linear resolutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze one graph end to end")
    p.add_argument("graph6", nargs="?", default=None, help="graph6 string")
    p.add_argument("--edges", default=None, metavar="LIST", help='edge list: "n u v u v ..."')
    p.add_argument("--stdin", action="store_true", help="read one graph6 line from stdin")
    p.add_argument("--pretty", action="store_true", help="human-readable table instead of JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("survey", help="classify a stream of graphs")
    p.add_argument("--all-labeled", type=_decimal, default=None, metavar="N",
                   help=f"all labeled graphs on N vertices (1 <= N <= {ENUMERATION_CAP})")
    p.add_argument("--only-2linear", action="store_true",
                   help="emit lines only for graphs with a 2-linear resolution")
    p.add_argument("--jobs", type=_decimal, default=1, metavar="J", help="worker processes")
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("oracle", help="brute-force Betti table")
    p.add_argument("graph6", nargs="?", default=None,
                   help="graph6 of G; the table is for the flag complex of its complement")
    p.add_argument("--complex", default=None, metavar="FILE",
                   help="read a simplicial-complex fixture instead")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("decompose", help="quasi-forest decomposition")
    p.add_argument("graph6", nargs="?", default=None,
                   help="graph6 of G; decomposes the flag complex of its complement")
    p.add_argument("--complex", default=None, metavar="FILE",
                   help="read a simplicial-complex fixture instead")
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if isinstance(sys.stdin, io.TextIOWrapper):
        # bytes that the stdin encoding cannot decode become lone surrogates,
        # which parse_graph6 rejects per line like any other non-ASCII text
        sys.stdin.reconfigure(errors="surrogateescape")
    # the one place that maps an outcome to its exit code; the commands
    # return 0, 1 or 4 and raise everything else
    try:
        return args.func(args)
    except (MalformedInputError, UndefinedInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except UnsupportedSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except (ContractViolationError, InternalInvariantError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # the reader closed stdout early; point stdout at devnull so the
        # interpreter's final flush of what is still buffered cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
