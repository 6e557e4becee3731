"""Per-layer spans and counters, recorded from the benchmark's own code.

The tracer wraps module-level names of the program (for example
`chordal.is_chordal`), rebinding every module attribute of the package that
holds the same function object, so calls made through `from .x import f`
bindings are caught too.  Each wrapper records a span (name, start, end,
parent, item) and accumulates self time, which is the span's duration minus
the part its child spans cover.  A name the program no longer has is
skipped, and its metrics read 0.

Probe time (see probe.py) is cut out of every span, and self times are
scaled with the drift calibration factor of the probe interval they close
in, like every other timing of the benchmark.  Counts are taken per
round of the workload and must repeat exactly from round to round.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import probe

KEEP_SPANS = 20000  # spans written out individually: the first ones to close


def _facets(tracer, result, args):
    tracer.count("chordal.facets", len(getattr(result, "facets", ())))


def _report(tracer, result, args):
    tracer.count("conjecture.twolinear")
    tracer.count("conjecture.holds", int(bool(getattr(result, "holds", False))))
    tracer.count("conjecture.witness", int(getattr(result, "witness", None) is not None))


def _hochster(tracer, result, args):
    tracer.count("oracle.subsets", getattr(result, "subsets_examined", 0))


def _homology(tracer, result, args):
    if tracer.is_open("oracle.hochster_betti"):
        tracer.count("oracle.memo_misses")


def _rank(tracer, result, args):
    matrix = args[0] if args else []
    tracer.count("intlinalg.rank_calls")
    tracer.count("intlinalg.matrix_entries", len(matrix) * (len(matrix[0]) if matrix else 0))


def _faces(tracer, result, args):
    tracer.count("complexes.faces", sum(len(group) for group in result))


def _is_chordal(tracer, result, args):
    tracer.count("chordal.is_chordal_calls")


# (module, attribute, span name or None for count-only, counter hook)
SPANS = (
    ("graphs", "parse_graph6", "graphs.parse_graph6", None),
    ("graphs", "complement", "graphs.complement", None),
    ("graphs", "to_graph6", "graphs.to_graph6", None),
    ("chordal", "is_chordal", "chordal.is_chordal", _is_chordal),
    ("chordal", "maximal_cliques_chordal", "chordal.maximal_cliques", None),
    ("chordal", "clique_tree", "chordal.clique_tree", None),
    ("chordal", "quasi_forest_order", "chordal.quasi_forest_order", _facets),
    ("invariants", "hilbert_from_decomposition", "invariants.hilbert", None),
    ("invariants", "betti_from_numerator", "invariants.betti", None),
    ("invariants", "d_tree_signature", "invariants.d_tree", None),
    ("conjecture", "report_from_decomposition", "conjecture.report", _report),
    ("cli", "survey_record", "cli.survey_record", None),
    ("cli", "main", "cli.main", None),
    ("verify", "sweep_chunk", "verify.sweep_chunk", None),
    ("verify", "has_long_induced_cycle", "verify.cycle_bruteforce", None),
    ("oracle", "hochster_betti", "oracle.hochster_betti", _hochster),
    ("complexes", "restrict", "complexes.restrict", None),
    ("complexes", "flag_complex", "complexes.flag_complex", None),
    ("complexes", "reduced_homology_ranks", "complexes.homology", _homology),
    ("complexes", "_faces_by_size", None, _faces),
    ("intlinalg", "rank", "intlinalg.rank", _rank),
)

# exceptions counted where they leave a span: span name -> (exception class name, counter)
RAISES = {"invariants.d_tree": ("UnsupportedSizeError", "invariants.d_tree_inconclusive")}

COUNTERS = (
    "chordal.is_chordal_calls", "chordal.facets", "invariants.d_tree_inconclusive",
    "conjecture.twolinear", "conjecture.holds", "conjecture.witness",
    "oracle.subsets", "oracle.memo_misses", "complexes.faces",
    "intlinalg.rank_calls", "intlinalg.matrix_entries",
)

ROOT = "bench.item"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.block_self: list[float] = []
        self.block_incl: list[float] = []
        self.cal_self: list[float] = []
        self.cal_incl: list[float] = []
        self.raw_self: list[float] = []
        self.calls: list[int] = []
        self.counts: dict[str, int] = {k: 0 for k in COUNTERS}
        self.stack: list[list] = []  # [name_id, child_time, span_id]
        self.open_names: list[str] = []
        self.spans: list[tuple] = []
        self.item = -1
        self.next_span = 0
        self.patched: list[tuple] = []
        self.missing: list[str] = []
        self.root_id = self._id(ROOT)
        self.cal = None
        self.epoch = 0

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            for lst in (self.block_self, self.block_incl, self.cal_self, self.cal_incl, self.raw_self):
                lst.append(0.0)
            self.calls.append(0)
        return self.ids[name]

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def is_open(self, name: str) -> bool:
        return name in self.open_names

    def call(self, name_id: int, fn, args, kwargs):
        """Run fn inside a span and return its result."""
        span_id = self.next_span
        self.next_span += 1
        frame = [name_id, 0.0, span_id]
        parent = self.stack[-1][2] if self.stack else -1
        self.stack.append(frame)
        self.open_names.append(self.names[name_id])
        probes = len(self.cal.starts)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.open_names.pop()
            dur = t1 - t0
            if len(self.cal.starts) != probes:  # a probe ran during the call, maybe inside the span
                dur -= self.cal.probe_time_within(t0, t1)
            if len(self.cal.probes) != self.epoch:
                self.roll()
            self.block_self[name_id] += dur - frame[1]
            self.block_incl[name_id] += dur
            self.calls[name_id] += 1
            if self.stack:
                self.stack[-1][1] += dur
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((self.item, span_id, parent, name_id, t0, t1))

    def wrap(self, span: str | None, fn, hook):
        tracer = self
        if span is None:
            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(tracer, result, args)
                return result
            return counting
        name_id = self._id(span)
        raises = RAISES.get(span)

        def traced(*args, **kwargs):
            try:
                result = tracer.call(name_id, fn, args, kwargs)
            except Exception as exc:
                if raises and type(exc).__name__ == raises[0]:
                    tracer.count(raises[1])
                raise
            if hook is not None:
                hook(tracer, result, args)
            return result
        return traced

    def install(self, package) -> None:
        """Rebind every package-module attribute that holds a wrapped function."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))]
        for mod_name, attr, span, hook in SPANS:
            mod = sys.modules.get(f"{package.__name__}.{mod_name}")
            orig = getattr(mod, attr, None) if mod is not None else None
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                if span is not None:
                    self._id(span)
                continue
            wrapper = self.wrap(span, orig, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self.patched.append((m, key, orig))

    def uninstall(self) -> None:
        for m, key, orig in reversed(self.patched):
            setattr(m, key, orig)
        self.patched.clear()

    def item_call(self, fn, *args):
        """Root span around one workload item."""
        self.item += 1
        return self.call(self.root_id, fn, args, {})

    def span(self, name: str, fn, *args, **kwargs):
        """A span around a call made by the benchmark itself."""
        return self.call(self._id(name), fn, args, kwargs)

    def attach(self, cal) -> None:
        """Take probe times and calibration factors from this Calibrator."""
        self.cal = cal
        self.epoch = len(cal.probes)

    def roll(self) -> None:
        """Scale the sums of spans that closed before the latest probe into the totals."""
        probes = self.cal.probes
        factor = probe.scale(probes[self.epoch - 1], probes[self.epoch])
        self.epoch = len(probes)
        for i in range(len(self.names)):
            self.cal_self[i] += self.block_self[i] * factor
            self.cal_incl[i] += self.block_incl[i] * factor
            self.raw_self[i] += self.block_self[i]
            self.block_self[i] = 0.0
            self.block_incl[i] = 0.0

    def snapshot(self) -> dict[str, int]:
        return dict(self.counts)

    def per_call(self, name: str, scale: float, inclusive: bool = False) -> float:
        i = self.ids.get(name)
        if i is None or not self.calls[i]:
            return 0.0
        total = self.cal_incl[i] if inclusive else self.cal_self[i]
        return total / self.calls[i] * scale

    def stage_self(self, raw: bool = False) -> dict[str, float]:
        """Self time per module (span-name prefix), in seconds."""
        out: dict[str, float] = {}
        for name, t in zip(self.names, self.raw_self if raw else self.cal_self):
            stage = name.split(".", 1)[0]
            out[stage] = out.get(stage, 0.0) + t
        return out

    def write(self, path: Path, summary: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
            for item, span_id, parent, name_id, t0, t1 in self.spans:
                fh.write(json.dumps({"item": item, "span": span_id, "parent": parent,
                                     "name": self.names[name_id],
                                     "start_us": round(t0 * 1e6, 1), "end_us": round(t1 * 1e6, 1)}) + "\n")
