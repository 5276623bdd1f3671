"""Tests of the benchmark itself: request generation, oracle and tracing."""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
for path in (BENCH, os.path.join(os.path.dirname(BENCH), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import loadgen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import tautcalc  # noqa: E402
from tautcalc import cli  # noqa: E402


def _run(requests, workdir, tracer=None):
    os.makedirs(os.path.join(workdir, "in"), exist_ok=True)
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    harness.write_inputs(requests, 0, str(workdir))
    cwd = os.getcwd()
    try:
        _, outcomes, _, _ = harness.measure(cli, requests, str(workdir), tracer)
    finally:
        os.chdir(cwd)
    return outcomes


def _output(workdir, req):
    with open(os.path.join(workdir, "out", f"r{req['id']}.out"), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("workload", loadgen.WORKLOADS)
def test_same_seed_same_requests(workload):
    a = loadgen.build_requests(workload, 7, 2)
    assert a == loadgen.build_requests(workload, 7, 2)
    assert a != loadgen.build_requests(workload, 8, 2)
    inputs = [json.dumps([r["argv"][:-4], r["format"], sorted(r["files"].values())]) for r in a]
    assert len(set(inputs)) == len(inputs)


def test_small_mix_round_passes_oracle(tmp_path):
    requests = loadgen.build_requests("small-mix", 3, 1)
    outcomes = _run(requests, tmp_path)
    verdicts, failures, _, _, _ = harness.verify(requests, outcomes, str(tmp_path))
    assert failures == []
    assert verdicts["ok"] == len(requests)
    assert {r["format"] for r in requests} == {"text", "json"}


# (kind, path to one leaf of the JSON report) for a flipped entry
FLIPS = [
    ("penner", ("action_matrix", 0, 1)),
    ("penner", ("mapping_torus_b2",)),
    ("vmatrix", ("det_abs",)),
    ("candidates", ("candidates", 0, "coords", 1)),
    ("candidates", ("candidates", 0, "realizability")),
    ("holonomy", ("samples", 5, "pass")),
    ("sutured-witness", ("witness", "steps", 0, "running_total")),
    ("sutured-pairing", ("euler_pairing",)),
]


def _flip(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 2
    if value.lstrip("-").isdigit():
        return str(int(value) + 2)
    return "excluded"


@pytest.mark.parametrize("kind,path", FLIPS)
def test_oracle_rejects_one_flipped_entry(tmp_path, kind, path):
    requests = [r for r in loadgen.build_requests("small-mix", 5, 1)
                if r["kind"] == kind and r["format"] == "json"][:1]
    for i, r in enumerate(requests):
        r["id"] = i
        r["argv"][-1] = f"out/r{i}.out"
    (rc, err), = _run(requests, tmp_path)
    req = requests[0]
    raw = _output(tmp_path, req)
    assert oracle.check(req, rc, err, raw) == ("ok", None)
    doc = json.loads(raw)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = _flip(node[path[-1]])
    verdict, reason = oracle.check(req, rc, err, json.dumps(doc).encode())
    assert verdict == "content", reason


def test_oracle_exact_rank_and_det():
    rows = [[2, 1, 0], [4, 2, 0], [0, 0, 3]]
    assert oracle.rank_det(rows) == (2, 0)
    assert oracle.rank_det([[0, 1], [1, 0]]) == (2, -1)
    assert oracle.rank_det([[1, 2, 3], [0, 1, 4], [5, 6, 0]]) == (3, 1)
    assert oracle.nullity_minus_identity([[1, 1], [0, 1]]) == 1


def _public(tc):
    return {(id(owner), attr): vars(owner)[attr] for owner, attr, _, _ in spans._targets(tc)}


def test_untraced_run_leaves_functions_unwrapped(tmp_path):
    before = _public(tautcalc)
    assert not any(hasattr(fn, "__wrapped__") for fn in before.values())
    requests = loadgen.build_requests("small-mix", 2, 1)[:12]
    _run(requests, tmp_path / "plain")
    assert _public(tautcalc) == before

    tracer = spans.Tracer()
    tracer.install(tautcalc)
    try:
        assert all(hasattr(fn, "__wrapped__") for fn in _public(tautcalc).values())
        _run(requests, tmp_path / "traced", tracer)
    finally:
        tracer.uninstall()
    assert _public(tautcalc) == before
    names = {rec[0] for rec in tracer.spans}
    assert "cli.report" in names and "sutured.sutured_chi" in names
    layers = tracer.layer_metrics(len(requests), 0, 0)
    assert layers["cli.self_ms"][0] > 0
