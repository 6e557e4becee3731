#!/usr/bin/env python3
"""Steadiness report: two sets of benchmark runs of one commit, compared.

    python3 perfbench/steadiness.py

Each set runs every workload of BENCHMARK.json RUNS times for its
`run_seconds`, each run with its own seed (set A seeds 1..10, set B seeds
11..20; runs of all workloads interleave, so drift reaches them alike).
Per workload and end-to-end metric it prints both medians with their
quartiles, the spread (quartile distance over median), the shift of B's
median against A's in the worse direction, and the bound, with the raw
wall-clock figures beside the calibrated ones.  A metric passes when both
spreads and the shift stay within its bound.  The whole report is written
to perfbench/out/steadiness.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # runs per workload in each set


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {' '.join(cmd)}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    side, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"result": result, "raw": side.get("raw", {})}


def summarize(runs: list[dict], metric: str) -> dict:
    cal = [r["result"]["metrics"][metric]["value"] for r in runs]
    q1, med, q3 = quartiles(cal)
    out = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": cal}
    raw = [r["raw"][metric] for r in runs if metric in r["raw"]]
    if len(raw) == len(runs):
        rq1, rmed, rq3 = quartiles(raw)
        out.update(raw_median=rmed, raw_spread=(rq3 - rq1) / rmed)
    return out


def main() -> int:
    if len(sys.argv) > 1:
        raise SystemExit("usage: python3 perfbench/steadiness.py (it takes no options)")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sets: dict[str, list[list[dict]]] = {w: [[], []] for w in workloads}
    started = time.time()
    for s in range(2):
        for i in range(RUNS):
            seed = s * RUNS + i + 1
            for w in workloads:
                sets[w][s].append(run_once(w, seed, seconds))
                print(f"# set {'AB'[s]} run {i + 1}/{RUNS} {w} done "
                      f"({time.time() - started:.0f} s)", file=sys.stderr, flush=True)
    report: dict = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    ok = True
    head = (f"{'workload':<17} {'metric':<17} {'A median':>11} {'A q1..q3':>23} {'A sprd':>7} "
            f"{'B median':>11} {'B q1..q3':>23} {'B sprd':>7} {'shift':>7} {'bound':>6}  "
            f"{'raw A sprd':>10} {'raw shift':>9}  verdict")
    print(head)
    for w in workloads:
        a_runs, b_runs = sets[w]
        share = [{r["result"]["failed"] / r["result"]["attempted"] for r in runs} for runs in (a_runs, b_runs)]
        correct = all(r["result"]["correct"] for r in a_runs + b_runs)
        entry = {"failed_shares": [sorted(x) for x in share], "all_correct": correct, "metrics": {}}
        if share[0] != share[1] or len(share[0]) != 1 or not correct:
            ok = False
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            a, b = summarize(a_runs, name), summarize(b_runs, name)
            shift = (b["median"] - a["median"]) / a["median"] * (1 if lower else -1)
            passed = max(a["spread"], b["spread"]) <= bound and shift <= bound
            ok &= passed
            raw_shift = None
            if "raw_median" in a:
                raw_shift = (b["raw_median"] - a["raw_median"]) / a["raw_median"] * (1 if lower else -1)
            entry["metrics"][name] = {"A": a, "B": b, "shift": shift, "bound": bound, "pass": passed,
                                      "raw_shift": raw_shift}
            raw_a = f"{a['raw_spread']:10.3f}" if "raw_spread" in a else f"{'-':>10}"
            raw_s = f"{raw_shift:9.3f}" if raw_shift is not None else f"{'-':>9}"
            print(f"{w:<17} {name:<17} {a['median']:11.4g} {a['q1']:11.4g}..{a['q3']:<11.4g} "
                  f"{a['spread']:7.3f} {b['median']:11.4g} {b['q1']:11.4g}..{b['q3']:<11.4g} "
                  f"{b['spread']:7.3f} {shift:7.3f} {bound:6.2f}  {raw_a} {raw_s}  {'ok' if passed else 'FAIL'}")
        report["workloads"][w] = entry
    report["pass"] = ok
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steadiness.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
