"""tautcalc report benchmark.

    python3 bench/run.py --workload twist-ladder --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a checkout.  Each workload runs in its own process
(bench/harness.py).  With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics; with --trace 1 it has the
per-layer metrics of a traced run and the tracing overhead against an
untraced run of the same requests.  The full record of every run, with the
Python version, commit, nproc, seed, sample counts, digest and failures, is
written under .bench_results/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from harness import REFERENCE_NOMINAL_S, time_reference  # noqa: E402
from loadgen import WORKLOADS  # noqa: E402

# A report's time is scaled by REFERENCE_NOMINAL_S over the median of the
# REFERENCE_NEAREST reference timings nearest to it (see harness.py).
REFERENCE_NEAREST = 4
# Set-up is timed this many times per run (extra set-up-only processes plus
# the measured one); the median is reported.
SETUP_SAMPLES = 7
# Standard percentiles for report_tail_ms; the highest with ten or more
# reports beyond it is used.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0)
PROCESS_TIMEOUT_S = 100.0

END_TO_END_UNITS = {
    "reports_per_s": "1/s",
    "report_p50_ms": "ms",
    "report_tail_ms": "ms",
    "fail_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# fail_rate is printed and recorded, but is 0 on most workloads, so the
# JSON line leaves it to "attempted" and "failed".
REPORTED_END_TO_END = ("reports_per_s", "report_p50_ms", "report_tail_ms", "setup_s", "peak_rss_mb")


class BenchError(Exception):
    pass


def _betainc(a, b, x):
    """Regularized incomplete beta I_x(a, b), by its continued fraction."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    f, c, d = 1.0, 1.0, 0.0
    for i in range(400):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > 1e-300 else 1e-300)
        c = 1.0 + num / (c if abs(c) > 1e-300 else 1e-300)
        f *= c * d
        if abs(1.0 - c * d) < 1e-12:
            break
    return front * (f - 1.0)


def percentile(sorted_values, p):
    """Harrell-Davis estimate of the p-th percentile: a weighted mean of the
    order statistics, steadier than a single one when samples are few."""
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    q = p / 100.0
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    total, prev = 0.0, 0.0
    for i, x in enumerate(sorted_values, 1):
        cur = _betainc(a, b, i / n)
        total += (cur - prev) * x
        prev = cur
    return total


def tail_percentile(n: int) -> float:
    ok = [p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10]
    return ok[-1] if ok else TAIL_LADDER[0]


def host_scale(reference, times, at):
    """REFERENCE_NOMINAL_S over the median reference time nearest `at`;
    times are the reference start times, in order."""
    i = bisect.bisect_left(times, at)
    lo, hi = i, i
    while hi - lo < REFERENCE_NEAREST and (lo > 0 or hi < len(times)):
        if lo > 0 and (hi == len(times) or at - times[lo - 1] <= times[hi] - at):
            lo -= 1
        else:
            hi += 1
    return REFERENCE_NOMINAL_S / statistics.median(d for _, d in reference[lo:hi])


def _spawn(workload, seed, seconds, mode, result=None):
    """Seconds from process start to "ready", scaled to the nominal host."""
    before = [time_reference() for _ in range(REFERENCE_NEAREST)]
    cmd = [sys.executable, os.path.join(BENCH, "harness.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--root", ROOT]
    if result:
        cmd += ["--result", result]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} {mode} process timed out")
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} {mode} process failed (exit {proc.returncode})")
    return ready, ready * REFERENCE_NOMINAL_S / statistics.median(before)


def _run_child(workload, seed, seconds, mode, results_dir):
    path = os.path.join(results_dir, f"{workload}-seed{seed}-{mode}.json")
    setup = _spawn(workload, seed, seconds, mode, path)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh), setup


def _commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "tautcalc")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def end_to_end(run, setups, scaled=True):
    """End-to-end values of one run; scaled=False gives the raw wall-clock ones."""
    pairs = run["latencies"]
    if scaled:
        times = [t for t, _ in run["reference"]]
        ms = sorted(d * host_scale(run["reference"], times, t + d / 2) * 1000.0 for t, d in pairs)
    else:
        ms = sorted(d * 1000.0 for _, d in pairs)
    n = len(ms)
    ok = run["verdicts"].get("ok", 0)
    p_tail = tail_percentile(n)
    values = {
        "reports_per_s": ok / (sum(ms) / 1000.0),
        "report_p50_ms": percentile(ms, 50.0),
        "report_tail_ms": percentile(ms, p_tail),
        "fail_rate": (n - ok) / n,
        "setup_s": statistics.median(s[1] if scaled else s[0] for s in setups),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    samples = {
        "reports": n,
        "tail_percentile": p_tail,
        "reports_beyond_tail": int(n * (100.0 - p_tail) / 100.0),
        "setup_samples": len(setups),
        "reference_samples": len(run["reference"]),
    }
    return values, samples


def run_workload(workload, seed, seconds, trace, results_dir):
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
    }
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_spawn(workload, seed, seconds, "setup"))
    run, setup = _run_child(workload, seed, seconds, "run", results_dir)
    setups.append(setup)
    values, samples = end_to_end(run, setups)
    raw, _ = end_to_end(run, setups, scaled=False)
    record.update(
        wall_clock={k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in raw.items()},
        rounds=run["rounds"], complete=run["complete"], attempted=run["attempted"],
        verdicts=run["verdicts"], failures=run["failures"], digest=run["digest"],
        end_to_end={k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        samples=samples,
    )
    if trace:
        traced, _ = _run_child(workload, seed, seconds, "trace", results_dir)
        layers = {k: {"value": v, "unit": u} for k, (v, u) in traced["per_layer"].items()}
        traced_rps = end_to_end(traced, setups)[0]["reports_per_s"]
        layers["trace.overhead_pct"] = {"value": (values["reports_per_s"] / traced_rps - 1.0) * 100.0,
                                        "unit": "%"}
        record.update(per_layer=layers, traced_digest=traced["digest"], spans=traced["spans"])
    failed = run["attempted"] - run["verdicts"].get("ok", 0)
    wrong = run["verdicts"].get("content", 0) + run["verdicts"].get("error", 0)
    record["correct"] = wrong == 0 and run["complete"] and (not trace or traced["digest"] == run["digest"])
    record["failed"] = failed
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(rec):
    s = rec["samples"]
    print(f"{rec['workload']}: seed {rec['seed']}, {rec['rounds']} rounds, {s['reports']} reports, "
          f"python {rec['python']}, nproc {rec['nproc']}, commit {rec['commit'] or 'n/a'}")
    for name, m in rec["end_to_end"].items():
        note = ""
        if name == "report_tail_ms":
            note = f"  (p{s['tail_percentile']:g} of {s['reports']} reports, {s['reports_beyond_tail']} beyond)"
        elif name == "setup_s":
            note = f"  (median of {s['setup_samples']} set-ups)"
        elif name == "fail_rate":
            note = f"  ({rec['failed']} of {rec['attempted']} failed)"
        wall = rec["wall_clock"][name]["value"]
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']:<6} wall-clock {wall:>12.6g}{note}")
    for name, m in rec.get("per_layer", {}).items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    print(f"  output sha256 {rec['digest']}")
    kinds = Counter((f["kind"], f["verdict"], f["reason"]) for f in rec["failures"])
    for (kind, verdict, reason), count in sorted(kinds.items()):
        print(f"  failure x{count}: {kind} [{verdict}] {reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tautcalc report benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tautcalc", "cli.py")):
        print("error: no tautcalc sources under src/ in this checkout", file=sys.stderr)
        return 2
    results_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(results_dir, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace), results_dir) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        print_record(rec)
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        source = rec["per_layer"] if args.trace else {k: rec["end_to_end"][k] for k in REPORTED_END_TO_END}
        for k, m in source.items():
            metrics[prefix + k] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
