"""Span tracing for the traced run, from the benchmark's own files.

`Tracer.install` swaps public tautcalc functions for timing wrappers, by
attribute, and `Tracer.uninstall` puts the originals back.  Each call
records a span [name, start_ns, end_ns, parent, report id, hook_ns] in
memory; hook_ns is time this span's children spent in counting hooks, which
is taken out of the span's self time.  Self time is a span's duration
minus that of its direct children.  Nothing is wrapped in an untraced run.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from collections import defaultdict


def _max_bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def _targets(tc):
    """(owner, attribute, span name, counting hook) for every wrapped function."""
    m, h, p, hol = tc.matrices.IntMatrix, tc.homology, tc.polytope, tc.holonomy

    def word_action(t, args, result):
        t.count["letters"] += len(args[0])
        t.peak("max_entry_bits", _max_bits(result.rows))
        t.peak("max_dim", result.n_rows)

    def matmul(t, args, result):
        t.count["matmul"] += 1
        t.peak("max_dim", result.n_rows)

    def elimination(t, args, result):
        t.peak("max_entry_bits", _max_bits(args[0].rows))
        t.peak("max_dim", args[0].n_rows)

    def boundary(t, args, result):
        x0, x1, y0, y1 = args[0].bounding_box()
        t.count["scanned"] += (x1 - x0 + 1) * (y1 - y0 + 1)
        t.count["kept"] += len(result)

    def solve(t, args, result):
        t.count["samples"] += len(result[1].checks)

    def pl_eval(t, args, result):
        t.count["evals"] += 1
        t.peak("max_den_bits", result.denominator.bit_length())

    def witness(t, args, result):
        t.count["witness_steps"] += len(result.steps)

    out = [
        (h, "word_action", "homology.word_action", word_action),
        (m, "__matmul__", "matrices.matmul", matmul),
        (m, "det", "matrices.det", elimination),
        (m, "rank", "matrices.rank", elimination),
        (p, "candidate_points", "polytope.candidate_points", None),
        (p, "integral_boundary_points", "polytope.boundary_scan", boundary),
        (hol, "solve_conjugacy", "holonomy.solve", solve),
        (hol.PLHomeo, "eval", "holonomy.eval", pl_eval),
        (tc.penner, "validate_word", "penner.validate", None),
    ]
    for name in ("sutured_chi", "core_disk", "euler_pairing", "poincare_hopf_chi", "is_fully_marked",
                 "novikov_witness"):
        out.append((tc.sutured, name, f"sutured.{name}", witness if name == "novikov_witness" else None))
    # Entry points of jsonio; the scalar helpers (fmt_int, parse_int, ...) run
    # once per matrix entry and are left to their caller's span.
    for name in sorted(vars(tc.jsonio)):
        fn = getattr(tc.jsonio, name)
        if callable(fn) and getattr(fn, "__module__", None) == tc.jsonio.__name__:
            if name.endswith("_to_json"):
                out.append((tc.jsonio, name, f"jsonio.encode.{name}", None))
            elif name.endswith("_from_json"):
                out.append((tc.jsonio, name, f"jsonio.decode.{name}", None))
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.report = -1
        self.count = defaultdict(int)
        self.peaks = defaultdict(int)
        self._saved = []

    def peak(self, key, value):
        if value > self.peaks[key]:
            self.peaks[key] = value

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0, parent, self.report, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if hook is not None:
                hook(self, args, result)
                if parent >= 0:
                    spans[parent][5] += clock() - rec[2]
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, tc):
        for owner, attr, name, hook in _targets(tc):
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def report_span(self, rid):
        """One report: a "cli.report" span that parents the rest."""
        rec = ["cli.report", 0, 0, -1, rid, 0]
        self.report = rid
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()
            self.report = -1

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start_ns", "end_ns", "parent", "report", "hook_ns"]) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self, n_reports: int, input_bytes: int, report_bytes: int) -> dict:
        """Per-layer figures, per report where they are totals."""
        n = max(1, n_reports)
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_ns[rec[3]] += rec[2] - rec[1]
        incl = defaultdict(int)   # a layer's time, not counted again inside itself
        self_ns = defaultdict(int)
        for i, (name, start, end, parent, _, hook_ns) in enumerate(self.spans):
            self_ns[name] += end - start - child_ns[i] - hook_ns
            group = _group(name)
            if parent < 0 or _group(self.spans[parent][0]) != group:
                incl[group] += end - start

        def ms(ns):
            return ns / 1e6 / n

        scanned = self.count["scanned"]
        return {
            "homology.word_action_self_ms": (ms(self_ns["homology.word_action"]), "ms/report"),
            "homology.letters_applied": (self.count["letters"] / n, "count/report"),
            "matrices.matmul_calls": (self.count["matmul"] / n, "count/report"),
            "matrices.matmul_ms": (ms(incl["matrices.matmul"]), "ms/report"),
            "matrices.rank_ms": (ms(incl["matrices.rank"]), "ms/report"),
            "matrices.det_ms": (ms(incl["matrices.det"]), "ms/report"),
            "matrices.max_entry_bits": (self.peaks["max_entry_bits"], "bits"),
            "matrices.max_dim": (self.peaks["max_dim"], "rows"),
            "polytope.candidate_points_ms": (ms(incl["polytope.candidate_points"]), "ms/report"),
            "polytope.boundary_scan_ms": (ms(incl["polytope.boundary_scan"]), "ms/report"),
            "polytope.points_scanned": (scanned / n, "count/report"),
            "polytope.points_kept": (self.count["kept"] / n, "count/report"),
            "polytope.kept_ratio": (self.count["kept"] / scanned if scanned else 0.0, "ratio"),
            "holonomy.solve_ms": (ms(incl["holonomy.solve"]), "ms/report"),
            "holonomy.eval_calls": (self.count["evals"] / n, "count/report"),
            "holonomy.samples": (self.count["samples"] / n, "count/report"),
            "holonomy.max_denominator_bits": (self.peaks["max_den_bits"], "bits"),
            "penner.validate_ms": (ms(incl["penner.validate"]), "ms/report"),
            "sutured.ms": (ms(incl["sutured"]), "ms/report"),
            "sutured.witness_steps": (self.count["witness_steps"] / n, "count/report"),
            "jsonio.decode_ms": (ms(incl["jsonio.decode"]), "ms/report"),
            "jsonio.encode_ms": (ms(incl["jsonio.encode"]), "ms/report"),
            "jsonio.input_bytes": (input_bytes / n, "B/report"),
            "cli.self_ms": (ms(self_ns["cli.report"]), "ms/report"),
            "cli.report_bytes": (report_bytes / n, "B/report"),
        }


def _group(name: str) -> str:
    """Layer a span counts toward: sutured.* and jsonio.<direction>.* pool."""
    parts = name.split(".")
    if parts[0] == "sutured":
        return "sutured"
    if parts[0] == "jsonio":
        return ".".join(parts[:2])
    return name
