"""One workload run in its own process: set up, time the reports, check them.

    python3 bench/harness.py --workload W --seed S --seconds T --mode run|trace|setup \
        --root CHECKOUT --result PATH

Set-up imports tautcalc from CHECKOUT/src, builds the request list and
writes the first round's input files into a fresh directory under
CHECKOUT/.bench_tmp, then prints "ready" so the parent can time it.  The
files of each later round are written just before it, outside the timed
reports.  In "setup" mode the process stops there.  Otherwise it
makes every report in a closed loop with one client: each report is one
in-process call of tautcalc.cli.main(argv), with --output into the work
directory.  Timing stops before the oracle reads anything.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from collections import Counter
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import loadgen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

# The host's speed drifts by up to a third over seconds on a shared machine.
# A fixed piece of pure-Python integer and rational arithmetic is timed
# between reports at least this often, so that report times can be put on
# the scale of a host where it takes REFERENCE_NOMINAL_S (see run.py).
REFERENCE_EVERY_S = 0.02
REFERENCE_NOMINAL_S = 0.00025
_REF_ROWS = [[(i * 7 + j * 3) % 11 - 5 for j in range(12)] for i in range(12)]


def reference_work():
    cols = list(zip(*_REF_ROWS))
    prod = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in _REF_ROWS]
    total = Fraction(0)
    for i in range(1, 30):
        total += Fraction(prod[i % 12][i % 7], i + 1)
    return total


def time_reference() -> float:
    """Median of three back-to-back timings of reference_work."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


# A run stops starting reports after this long, so that a program far slower
# than the baseline still ends, marked incomplete, within the time allowed.
MEASURE_LIMIT_S = 75.0


def prepare(root: str, workload: str, seed: int, seconds: float):
    """Import tautcalc and write the run's inputs; returns (cli, requests, workdir)."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from tautcalc import cli

    requests = loadgen.build_requests(workload, seed, loadgen.rounds_for(workload, seconds))
    base = os.path.join(root, ".bench_tmp")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=base)
    os.makedirs(os.path.join(workdir, "in"))
    os.makedirs(os.path.join(workdir, "out"))
    write_inputs(requests, 0, workdir)
    return cli, requests, workdir


def write_inputs(requests, round_index, workdir):
    for req in requests:
        if req["round"] == round_index:
            for name, text in req["files"].items():
                with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                    fh.write(text)


def call(cli, argv):
    """(exit code or "traceback", captured stderr) of one report."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # noqa: BLE001 - a traceback is a failed report, not a failed run
            rc = "traceback"
            err.write(traceback.format_exc())
    return rc, err.getvalue()


def measure(cli, requests, workdir, tracer=None):
    """Closed loop over the requests.

    Returns (latencies_s, outcomes, elapsed_s, reference) where reference
    holds (start, duration) of the reference work timed between reports.
    """
    os.chdir(workdir)
    latencies, outcomes, reference = [], [], []
    clock = time.perf_counter
    start = clock()
    last_ref = -REFERENCE_EVERY_S
    written = 0
    for req in requests:
        if req["round"] > written:
            written = req["round"]
            write_inputs(requests, written, workdir)
        now = clock()
        if now - start > MEASURE_LIMIT_S:
            break
        if now - last_ref >= REFERENCE_EVERY_S:
            reference.append((now, time_reference()))
            last_ref = clock()
        with tracer.report_span(req["id"]) if tracer else contextlib.nullcontext():
            t0 = clock()
            rc, err = call(cli, req["argv"])
            t1 = clock()
        latencies.append((t0, t1 - t0))
        outcomes.append((rc, err))
    reference.append((clock(), time_reference()))
    return latencies, outcomes, clock() - start, reference


def verify(requests, outcomes, workdir):
    """Oracle verdicts, output digest and byte counts, after timing."""
    digest = hashlib.sha256()
    verdicts, failures = Counter(), []
    in_bytes = out_bytes = 0
    for req, (rc, err) in zip(requests, outcomes):
        path = os.path.join(workdir, "out", f"r{req['id']}.out")
        output = None
        if os.path.exists(path):
            with open(path, "rb") as fh:
                output = fh.read()
            out_bytes += len(output)
        in_bytes += sum(len(t.encode("utf-8")) for t in req["files"].values())
        digest.update(f"{req['id']}:{rc}:{len(output or b'')}:{len(err)}\n".encode())
        digest.update(output or b"")
        digest.update(err.encode("utf-8") if rc != "traceback" else b"traceback")
        verdict, reason = oracle.check(req, rc, err, output)
        verdicts[verdict] += 1
        if verdict != "ok":
            failures.append({"id": req["id"], "kind": req["kind"], "argv": req["argv"],
                             "verdict": verdict, "reason": reason})
    return verdicts, failures, digest.hexdigest(), in_bytes, out_bytes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=loadgen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--result")
    args = ap.parse_args(argv)

    cli, requests, workdir = prepare(args.root, args.workload, args.seed, args.seconds)
    try:
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        tracer = None
        if args.mode == "trace":
            import tautcalc
            tracer = spans.Tracer()
            tracer.install(tautcalc)
        try:
            latencies, outcomes, elapsed, reference = measure(cli, requests, workdir, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        done = requests[: len(outcomes)]
        verdicts, failures, digest, in_bytes, out_bytes = verify(done, outcomes, workdir)
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "mode": args.mode,
            "rounds": loadgen.rounds_for(args.workload, args.seconds),
            "planned": len(requests),
            "attempted": len(outcomes),
            "complete": len(outcomes) == len(requests),
            "verdicts": dict(verdicts),
            "failures": failures,
            "latencies": latencies,
            "reference": reference,
            "elapsed_s": elapsed,
            "peak_rss_mb": rss_mb,
            "digest": digest,
        }
        if tracer is not None:
            result["per_layer"] = tracer.layer_metrics(len(outcomes), in_bytes, out_bytes)
            result["spans"] = len(tracer.spans)
            tracer.write(args.result[: -len(".json")] + ".spans.jsonl.gz")
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0
    finally:
        os.chdir(args.root)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
