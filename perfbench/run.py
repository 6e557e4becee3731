#!/usr/bin/env python3
"""edgering benchmark: one workload per run, drift-calibrated.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory.  With --trace 0 the last stdout line is the result object
with the end-to-end metrics; with --trace 1 it carries the per-layer metrics
of a traced run.  Every timing is calibrated against machine drift (see
probe.py); the raw wall-clock figures are printed on the line before, and
the whole record is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
from probe import Calibrator  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("graphs", "chordal", "complexes", "invariants", "conjecture", "oracle", "verify", "cli")
SETUP_REPS = 9

# A fresh interpreter imports the CLI and makes one first call into each
# entry point the workloads use, so lazy first-call set-up is included.
# Then it runs the probe itself: the child may run on the other CPU, whose
# speed the parent's probes do not see.
SETUP_CHILD = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
from edgering import cli, verify
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["analyze", "Cl"]) == 0
    assert cli.main(["oracle", "Cl"]) == 0
verify.sweep_chunk(4, 0, 64, True)
sys.path.insert(0, sys.argv[2])
import probe
t0 = time.perf_counter()
p = probe.probe()
print(json.dumps([p, time.perf_counter() - t0]))
"""


class Program:
    """The edgering modules, imported from this checkout's src/ only."""

    def __init__(self) -> None:
        if not (SRC / "edgering" / "__init__.py").is_file():
            raise SystemExit(f"error: no edgering sources under {SRC}; run from a source checkout")
        sys.path.insert(0, str(SRC))
        self.package = importlib.import_module("edgering")
        if Path(self.package.__file__).resolve().parent != (SRC / "edgering").resolve():
            raise SystemExit("error: edgering was imported from outside this checkout")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"edgering.{name}"))


def measure_setup() -> tuple[float, float]:
    """Median (calibrated, raw) seconds for a fresh interpreter's set-up.

    A launch's time is its wall time minus the child's own probe, scaled by
    that probe.
    """
    cmd = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE)]

    def launch() -> tuple[float, float]:
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=60).stdout
        wall = time.perf_counter() - t0
        p, probe_s = json.loads(out.strip().splitlines()[-1])
        return wall - probe_s, (wall - probe_s) * probe.PROBE_REF_S / p

    launch()  # the first launch may write bytecode caches
    raw, cal = zip(*(launch() for _ in range(SETUP_REPS)))
    return statistics.median(cal), statistics.median(raw)


def percentile(values: list[float], pct: int) -> float:
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Phase:
    """Whole rounds of a workload for at least `seconds` of wall time.

    Every round repeats the same items, so each item's figure for the run is
    the median of its calibrated times over the rounds; a transient the
    probes missed moves no metric.  The round time is the sum of the item
    medians, and latencies are taken over the item medians.
    """

    def __init__(self, workload, seconds: float, tracer=None) -> None:
        self.w = workload
        self.tracer = tracer
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.first: list = []
        self.round_mismatch = 0
        self.round_counts: list[dict] = []
        self.cal = Calibrator()
        if tracer is not None:
            tracer.attach(self.cal)
        timed: list[tuple[int, float, float]] = []
        start = time.perf_counter()
        with self.cal:
            self._run(seconds, timed)
        self.wall = time.perf_counter() - start - self.cal.probe_time
        if tracer is not None:
            tracer.roll()
        self.raw: list[list[float]] = [[] for _ in workload.items]
        self.calibrated: list[list[float]] = [[] for _ in workload.items]
        for i, t0, t1 in timed:
            raw, cal = self.cal.calibrate(t0, t1)
            self.raw[i].append(raw)
            self.calibrated[i].append(cal)

    def _item(self, item):
        if self.tracer is None:
            return self.w.run(item)
        return self.tracer.item_call(self.w.run, item, self.tracer)

    def _run(self, seconds: float, timed: list) -> None:
        w = self.w
        deadline = time.perf_counter() + seconds
        while self.rounds == 0 or time.perf_counter() < deadline:
            w.start_round()
            before = self.tracer.snapshot() if self.tracer else None
            outputs = []
            for i, item in enumerate(w.items):
                w.before_item()
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    out = self._item(item)
                except Exception as exc:  # a failed operation is counted, not fatal
                    out = f"{type(exc).__name__}: {exc}"
                    self.failed += 1
                timed.append((i, t0, time.perf_counter()))
                outputs.append(out)
            if self.tracer is not None:
                after = self.tracer.snapshot()
                counts = {k: after[k] - before.get(k, 0) for k in after}
                counts["oracle.memo_entries"] = len(getattr(w.p.oracle, "_HOMOLOGY_MEMO", ()))
                self.round_counts.append(counts)
            if self.rounds == 0:
                self.first = outputs
                # the program's peak for a round, before the run's own samples pile up
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            elif outputs != self.first:
                self.round_mismatch += 1
            self.rounds += 1

    def item_medians(self, raw: bool = False) -> list[float]:
        return [statistics.median(times) for times in (self.raw if raw else self.calibrated)]

    @property
    def round_time(self) -> float:
        """Calibrated work seconds per round."""
        return sum(self.item_medians())

    @property
    def round_units(self) -> int:
        return sum(self.w.units(item) for item in self.w.items)


def end_to_end(w, phase: Phase, setup: tuple[float, float], rss_mb: float) -> tuple[dict, dict]:
    def figures(raw: bool) -> dict:
        items = phase.item_medians(raw)
        return {
            "throughput_per_s": phase.round_units / sum(items),
            "latency_p50_ms": statistics.median(items) * 1e3,
            "latency_tail_ms": percentile(items, w.tail) * 1e3,
            "setup_s": setup[1 if raw else 0],
        }

    units = {"throughput_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "setup_s": "s"}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in figures(raw=False).items()}
    metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    return metrics, figures(raw=True)


def per_layer(tracer, untraced: Phase, traced: Phase) -> tuple[dict, dict]:
    counts = traced.round_counts[0]
    us, ms = 1e6, 1e3
    chunk, cycles = tracer.ids["verify.sweep_chunk"], tracer.ids["verify.cycle_bruteforce"]
    # verify's own time per chunk: the chunk's self time plus its brute-force cycle search
    verify_self = (tracer.cal_self[chunk] + tracer.cal_self[cycles]) / max(1, tracer.calls[chunk])
    subsets = counts["oracle.subsets"]
    per_round_untraced = untraced.round_time
    per_round_traced = traced.round_time
    stage = tracer.stage_self()
    raw_stage = tracer.stage_self(raw=True)
    traced_raw = sum(sum(times) for times in traced.raw)
    # the root span's self time is the item time its children leave over, so
    # counting it would make the coverage 100 % by construction
    self_sum = sum(t for stage_name, t in raw_stage.items() if stage_name != "bench")
    values = {
        "graphs.parse_graph6_us": (tracer.per_call("graphs.parse_graph6", us), "us"),
        "graphs.complement_us": (tracer.per_call("graphs.complement", us), "us"),
        "graphs.to_graph6_us": (tracer.per_call("graphs.to_graph6", us), "us"),
        "chordal.is_chordal_us": (tracer.per_call("chordal.is_chordal", us), "us"),
        "chordal.is_chordal_calls": (counts["chordal.is_chordal_calls"], "count"),
        "chordal.maximal_cliques_us": (tracer.per_call("chordal.maximal_cliques", us), "us"),
        "chordal.clique_tree_us": (tracer.per_call("chordal.clique_tree", us), "us"),
        "chordal.quasi_forest_order_us": (tracer.per_call("chordal.quasi_forest_order", us), "us"),
        "chordal.facets": (counts["chordal.facets"], "count"),
        "invariants.hilbert_us": (tracer.per_call("invariants.hilbert", us), "us"),
        "invariants.betti_us": (tracer.per_call("invariants.betti", us), "us"),
        "invariants.d_tree_us": (tracer.per_call("invariants.d_tree", us), "us"),
        "invariants.d_tree_inconclusive": (counts["invariants.d_tree_inconclusive"], "count"),
        "conjecture.report_us": (tracer.per_call("conjecture.report", us), "us"),
        "conjecture.twolinear": (counts["conjecture.twolinear"], "count"),
        "conjecture.holds": (counts["conjecture.holds"], "count"),
        "conjecture.witness": (counts["conjecture.witness"], "count"),
        "cli.survey_record_self_us": (tracer.per_call("cli.survey_record", us), "us"),
        "cli.json_us": (tracer.per_call("cli.json", us), "us"),
        "verify.sweep_chunk_ms": (tracer.per_call("verify.sweep_chunk", ms, inclusive=True), "ms"),
        "verify.self_ms": (verify_self * ms, "ms"),
        "verify.cycle_bruteforce_us": (tracer.per_call("verify.cycle_bruteforce", us), "us"),
        "oracle.hochster_betti_ms": (tracer.per_call("oracle.hochster_betti", ms), "ms"),
        "oracle.subsets": (subsets, "count"),
        "oracle.memo_misses": (counts["oracle.memo_misses"], "count"),
        "oracle.memo_hit_ratio": (1 - counts["oracle.memo_misses"] / subsets if subsets else 0.0, "ratio"),
        "oracle.memo_entries": (counts["oracle.memo_entries"], "count"),
        "complexes.restrict_us": (tracer.per_call("complexes.restrict", us), "us"),
        "complexes.flag_complex_us": (tracer.per_call("complexes.flag_complex", us), "us"),
        "complexes.homology_us": (tracer.per_call("complexes.homology", us), "us"),
        "complexes.faces": (counts["complexes.faces"], "count"),
        "intlinalg.rank_us": (tracer.per_call("intlinalg.rank", us), "us"),
        "intlinalg.rank_calls": (counts["intlinalg.rank_calls"], "count"),
        "intlinalg.matrix_entries": (counts["intlinalg.matrix_entries"], "count"),
        "bench.round_items": (len(traced.first), "count"),
        "trace.overhead_pct": ((per_round_traced / per_round_untraced - 1) * 100, "%"),
        "trace.self_coverage_pct": (self_sum / traced_raw * 100, "%"),
    }
    accounting = {
        "traced_work_raw_s": traced_raw,
        "stage_self_raw_s": raw_stage,
        "stage_self_raw_sum_s": self_sum,
        "bench_self_raw_s": raw_stage.get("bench", 0.0),
        "stage_self_calibrated_s": stage,
        "untraced_round_s": per_round_untraced,
        "traced_round_s": per_round_traced,
        "counts_repeat": all(c == counts for c in traced.round_counts),
        "missing_names": tracer.missing,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, accounting


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    program = Program()
    w = WORKLOADS[args.workload](program, args.seed)
    record: dict = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}

    if args.trace:
        from spans import Tracer

        untraced = Phase(w, args.seconds / 2)
        tracer = Tracer()
        tracer.install(program.package)
        traced = Phase(w, args.seconds / 2, tracer)
        tracer.uninstall()
        phase = traced
        metrics, accounting = per_layer(tracer, untraced, traced)
        record["accounting"] = accounting
        tracer.write(OUT / f"trace-{w.name}-seed{args.seed}.jsonl", {"metrics": metrics, "accounting": accounting})
        outputs_consistent = untraced.first == traced.first
        attempted, failed = untraced.attempted + traced.attempted, untraced.failed + traced.failed
    else:
        setup = measure_setup()
        phase = Phase(w, args.seconds)
        metrics, raw = end_to_end(w, phase, setup, phase.peak_rss_mb)
        record["raw"] = raw
        outputs_consistent = True
        attempted, failed = phase.attempted, phase.failed

    factors = phase.cal.factors
    record["calibration"] = {
        "probe_ref_s": probe.PROBE_REF_S,
        "probe_median_s": statistics.median(phase.cal.probes),
        "factor_min": min(factors),
        "factor_max": max(factors),
        "probes": len(phase.cal.probes),
        "probe_share": phase.cal.probe_time / (phase.wall + phase.cal.probe_time),
    }
    record.update(rounds=phase.rounds, items=len(w.items), tail_pct=w.tail)

    import checker  # imported only after the timed part, so its modules stay out of peak_rss_mb

    problems = checker.check(w, program, phase.first)
    if phase.round_mismatch:
        problems.append(f"{phase.round_mismatch} round(s) gave outputs different from the first")
    if not outputs_consistent:
        problems.append("traced outputs differ from untraced outputs")
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    record["problems"] = problems[:100]
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"run-{w.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    side = {k: record[k] for k in ("raw", "accounting", "calibration", "rounds", "items", "tail_pct")
            if k in record}
    print(json.dumps(side, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
