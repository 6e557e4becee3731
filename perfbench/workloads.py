"""The four workloads: their rounds of inputs and how one item is run.

Every workload runs whole rounds of the same items; a round is a pure
function of the seed.  An item is the unit of one latency sample; `units`
is how many graphs (or calls) it counts for in throughput.
"""

from __future__ import annotations

import contextlib
import io
import json

import inputs


class Workload:
    name = ""
    # percentile reported as latency_tail_ms: the highest with at least ten
    # distinct items of a round beyond it (README)
    tail = 50

    def __init__(self, program, seed: int) -> None:
        self.p = program
        self.seed = seed
        self.items = self.make_items()

    def make_items(self) -> list:
        raise NotImplementedError

    def units(self, item) -> int:
        return 1

    def start_round(self) -> None:
        """Untimed, before each round."""

    def before_item(self) -> None:
        """Untimed, before each item."""

    def run(self, item, tracer=None):
        raise NotImplementedError


class SurveyMixed(Workload):
    name = "survey_mixed"
    tail = 97

    def make_items(self):
        return inputs.survey_graphs(self.seed)

    def run(self, line, tracer=None):
        rec = self.p.cli.survey_record(self.p.graphs.parse_graph6(line))
        if tracer is None:
            return json.dumps(rec, sort_keys=True)
        return tracer.span("cli.json", json.dumps, rec, sort_keys=True)


class _Sweep(Workload):
    n = 0
    with_oracle = False

    def units(self, item) -> int:
        return item[1] - item[0]

    def run(self, item, tracer=None):
        lo, hi = item
        return self.p.verify.sweep_chunk(self.n, lo, hi, self.with_oracle)


class SweepFormulaN7(_Sweep):
    name = "sweep_formula_n7"
    tail = 95
    n = inputs.FORMULA_N

    def make_items(self):
        return inputs.sweep_chunks(self.n, inputs.FORMULA_CHUNKS, inputs.FORMULA_CHUNK,
                                   self.name, self.seed)


class SweepOracleN6(_Sweep):
    name = "sweep_oracle_n6"
    tail = 90
    n = inputs.ORACLE_SWEEP_N
    with_oracle = True

    def make_items(self):
        return inputs.sweep_chunks(self.n, inputs.ORACLE_SWEEP_CHUNKS, inputs.ORACLE_SWEEP_CHUNK,
                                   self.name, self.seed)

    def start_round(self) -> None:
        self.p.oracle.clear_memo()


class OracleColdN12(Workload):
    name = "oracle_cold_n12"
    tail = 50  # 12 items per round support no percentile above the median

    def make_items(self):
        return inputs.oracle_cold_graphs(self.seed)

    def before_item(self) -> None:
        self.p.oracle.clear_memo()

    def run(self, g6, tracer=None):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.p.cli.main(["oracle", g6])
        return code, buf.getvalue()


WORKLOADS = {w.name: w for w in (SurveyMixed, SweepFormulaN7, SweepOracleN6, OracleColdN12)}
