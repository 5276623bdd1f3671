"""Seeded request lists for the tautcalc report benchmark.

A request is one `tautcalc` report: its argv, the input files it reads and
the parameters the oracle needs to check the report once timing stops.
Paths in argv are relative to the run's work directory.  The same
(workload, seed, rounds) always gives the same list, and no two requests
of one list share an input, so a cache kept across calls finds nothing to
reuse, as for a user who starts one process per report.

A run is a whole number of rounds.  Every round of a workload has the same
mix of report kinds and sizes and only the seeded contents differ, so the
mix, the failure count and the output digest of a run do not depend on
where a clock happens to stop.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("twist-ladder", "norm-sweep", "holonomy-tau", "small-mix")

# Seconds one round takes at the baseline.  A run measures
# rounds_for(workload, seconds) rounds, which lasts about --seconds there.
ROUND_SECONDS = {
    "twist-ladder": 6.5,
    "norm-sweep": 6.5,
    "holonomy-tau": 6.5,
    "small-mix": 0.04,
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


# -- chain curve systems (independent of tautcalc) ------------------------------


def chain_labels(genus: int) -> list:
    """Chain order a1, b1, a2, b2, ..., bg, a(g+1)."""
    out = []
    for i in range(1, genus + 1):
        out += [f"a{i}", f"b{i}"]
    return out + [f"a{genus + 1}"]


def chain_coords(genus: int) -> dict:
    """Classes a_i = r_(i-1) + r_i and b_i = s_i in the basis r1, s1, ..., rg, sg."""
    n = 2 * genus
    coords = {}
    for i in range(1, genus + 2):
        c = [0] * n
        if i - 1 >= 1:
            c[2 * (i - 1) - 2] = 1
        if i <= genus:
            c[2 * i - 2] = 1
        coords[f"a{i}"] = c
    for i in range(1, genus + 1):
        c = [0] * n
        c[2 * i - 1] = 1
        coords[f"b{i}"] = c
    return coords


def chain_word(genus: int) -> list:
    """The paper's three-phase word, outermost letter first."""
    applied = [(f"a{i}", -1) for i in range(genus + 1, 3, -1)]
    applied.append(("a1", -1))
    applied += [(f"b{i}", 1) for i in range(genus, 2, -1)]
    applied += [("b1", 1), ("a3", -1), ("a2", -1), ("b2", 1)]
    return [list(x) for x in reversed(applied)]


def seeded_word(rng: random.Random, genus: int, exp_max: int = 3) -> list:
    """Opposite-twist word of 4g+2 letters that uses every chain curve."""
    labels = chain_labels(genus)
    picks = labels + [rng.choice(labels) for _ in range(len(labels))]
    rng.shuffle(picks)
    sign_a = rng.choice((1, -1))
    return [
        [lbl, (sign_a if lbl[0] == "a" else -sign_a) * rng.randint(1, exp_max)]
        for lbl in picks
    ]


def penner_doc(genus: int, word: list) -> dict:
    labels = chain_labels(genus)
    coords = chain_coords(genus)
    return {
        "genus": genus,
        "curves": [
            {"label": lbl, "coords": [str(x) for x in coords[lbl]], "family": lbl[0].upper()}
            for lbl in labels
        ],
        "geo_int": [["1" if j == i - 1 else "0" for j in range(i)] for i in range(len(labels))],
        "word": [{"label": lbl, "exp": exp} for lbl, exp in word],
        "regions": [{"disk": True}, {"disk": True}],
    }


# -- norm specs, PL maps, tangencies ------------------------------------------------


def surgery_spec(genus: int) -> dict:
    return {"x_f": 2, "x_s": 2 * genus - 2, "x_sum": 2 * genus, "x_diff": 2 * genus,
            "chi": [-2, 2 - 2 * genus]}


def seeded_spec(rng: random.Random, area: int, tight: bool) -> dict:
    """Valid norm values whose dual ball scans about `area` lattice points.

    x(F) = 2a and x(S) = 2b are even, chi = -(x(F), x(S)), and x(S+F), x(S-F)
    lie in [x(S), x(S) + x(F)], which makes all four values consistent.  A
    tight spec puts one of them at x(S), so (0, -x(S)) is a dual-ball vertex.
    """
    x_f = 2 * rng.randint(3, 6)
    x_s = max(x_f, 2 * round(area / (2 * x_f + 1) / 4))
    lo, hi = x_s + 1, x_s + x_f
    x_sum, x_diff = rng.randint(lo, hi), rng.randint(lo, hi)
    if tight:
        if rng.random() < 0.5:
            x_sum = x_s
        else:
            x_diff = x_s
    return {"x_f": x_f, "x_s": x_s, "x_sum": x_sum, "x_diff": x_diff, "chi": [-x_f, -x_s]}


def spec_json(spec: dict) -> dict:
    return {k: ([str(c) for c in v] if k == "chi" else str(v)) for k, v in spec.items()}


def frac_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def seeded_pl(rng: random.Random, n_breakpoints: int, max_den: int = 16) -> dict:
    """Increasing PL map of [-1, 1] fixing both ends, n_breakpoints in all."""
    k = n_breakpoints - 2

    def interior():
        pts = set()
        while len(pts) < k:
            den = rng.randint(2, max_den)
            pts.add(Fraction(rng.randint(1 - den, den - 1), den))
        return sorted(pts)

    bps = [Fraction(-1)] + interior() + [Fraction(1)]
    vals = [Fraction(-1)] + interior() + [Fraction(1)]
    return {"breakpoints": [frac_str(b) for b in bps], "values": [frac_str(v) for v in vals]}


def seeded_tangencies(rng: random.Random) -> list:
    return [
        {"kind": rng.choice(("saddle", "center")), "sign": rng.choice((1, -1))}
        for _ in range(rng.randint(1, 12))
    ]


# -- corruptions -------------------------------------------------------------------


def _paths(obj, prefix=()):
    """Every (path, value) inside a JSON document, containers included."""
    yield prefix, obj
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _paths(v, prefix + (i,))


def _replace(obj, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(obj, dict):
        out = dict(obj)
    else:
        out = list(obj)
    out[head] = _replace(obj[head], rest, value)
    return out


def _drop_key(obj, path):
    parent = obj
    for p in path[:-1]:
        parent = parent[p]
    parent = dict(parent)
    del parent[path[-1]]
    return _replace(obj, path[:-1], parent)


def corrupt(rng: random.Random, doc, semantic: list) -> str:
    """Text of a seeded corruption of a valid document.

    Operators: truncate the JSON text, drop a required key, put a float or a
    boolean where an exact number belongs, swap a container for a scalar,
    or one of the document kind's own semantic corruptions (a list of
    (path, bad value) pairs).
    """
    op = rng.randrange(5)
    if op == 0:
        text = json.dumps(doc)
        return text[: rng.randrange(1, len(text) - 1)]
    nodes = [(p, v) for p, v in _paths(doc) if p]
    if op == 1:
        # penner reads "regions" and "word" as optional, so dropping them is no error
        keyed = [p for p, _ in nodes if isinstance(p[-1], str) and p[-1] not in ("regions", "word")]
        return json.dumps(_drop_key(doc, rng.choice(keyed)))
    if op == 2:
        leaves = [p for p, v in nodes if isinstance(v, (str, int)) and not isinstance(v, bool) and _is_number(v)]
        return json.dumps(_replace(doc, rng.choice(leaves), rng.choice((0.5, True, 1.25))))
    if op == 3:
        containers = [p for p, v in nodes if isinstance(v, (list, dict))]
        return json.dumps(_replace(doc, rng.choice(containers), "oops") if containers else "oops")
    path, bad = rng.choice(semantic)
    return json.dumps(_replace(doc, path, bad))


def _is_number(v) -> bool:
    return isinstance(v, int) or v.lstrip("-").replace("/", "", 1).isdigit()


# -- request lists -----------------------------------------------------------------


class _RequestList:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.requests = []
        self.seen = set()
        self.round = 0

    def add(self, kind: str, args: list, files: dict, params: dict, fmt: str = "json") -> bool:
        """Append a request unless an earlier one has the same input."""
        key = json.dumps([args, fmt, sorted(files.values())])
        if key in self.seen:
            return False
        self.seen.add(key)
        rid = len(self.requests)
        names = {slot: f"in/r{rid}-{slot}.json" for slot in files}
        argv = [names.get(a[1:], a) if a.startswith("@") else a for a in args]
        self.requests.append({
            "id": rid,
            "round": self.round,
            "kind": kind,
            "argv": argv + ["--format", fmt, "--output", f"out/r{rid}.out"],
            "files": {names[slot]: text for slot, text in files.items()},
            "format": fmt,
            "params": params,
        })
        return True

    def add_unique(self, make):
        """Draw with make() until it yields an input not used before."""
        for _ in range(1000):
            if self.add(*make()):
                return
        raise RuntimeError("could not draw a fresh input")


def _spread(rng: random.Random, lo: int, hi: int, per_round: int, rounds: int) -> list:
    """per_round distinct sizes for each round, evenly spaced over [lo, hi].

    Both ends are always in; interior sizes get a seeded jitter of less than
    half a step.  Consecutive sizes go to different rounds, so every round
    spans the range and every run makes nearly the same sizes.
    """
    n = per_round * rounds
    step = (hi - lo) / (n - 1)
    if step < 2:
        raise ValueError("too many rounds for the distinct inputs of this workload")
    jitter = int((step - 1) / 2)
    ladder = [lo + round(k * step) + (rng.randint(-jitter, jitter) if 0 < k < n - 1 else 0)
              for k in range(n)]
    out = [[] for _ in range(rounds)]
    for j in range(0, n, rounds):
        for size, r in zip(ladder[j:j + rounds], rng.sample(range(rounds), rounds)):
            out[r].append(size)
    return out


# twist-ladder: the chain word and a seeded word at each rung, and vmatrix
# at eight genera of 6..120 per round.
PENNER_RUNGS = (3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 20, 30)


def _twist_ladder(b: _RequestList, rounds: int):
    if rounds > 2 * PENNER_RUNGS[0] + 1:
        raise ValueError("too many rounds for the distinct inputs of this workload")
    rng = b.rng
    vm = _spread(rng, 6, 120, 8, rounds)
    # Round 0 runs the paper's word itself, later rounds distinct cyclic
    # rotations of it (conjugates, with the same b2), so no input repeats.
    offsets = {g: [0] + rng.sample(range(1, 2 * g + 1), rounds - 1) for g in PENNER_RUNGS}
    for r in range(rounds):
        b.round = r
        for g in PENNER_RUNGS:
            word = chain_word(g)
            offset = offsets[g][r]
            word = word[offset:] + word[:offset]
            b.add("penner", ["penner", "--input", "@sys"],
                  {"sys": json.dumps(penner_doc(g, word))},
                  {"genus": g, "word": word, "chain": True})

            def make(g=g):
                word = seeded_word(rng, g)
                return ("penner", ["penner", "--input", "@sys"],
                        {"sys": json.dumps(penner_doc(g, word))},
                        {"genus": g, "word": word, "chain": False})
            b.add_unique(make)
        for g in vm[r]:
            b.add("vmatrix", ["vmatrix", "--genus", str(g)], {}, {"genus": g})


# norm-sweep: candidates --genus at twelve genera of 3..300 per round, and
# --spec at four scales of 30..300 (the dual-ball area of the genus-g
# family), one tight and one loose spec per scale.
def _norm_sweep(b: _RequestList, rounds: int):
    rng = b.rng
    gs = _spread(rng, 3, 300, 12, rounds)
    scales = _spread(rng, 30, 300, 4, rounds)
    for r in range(rounds):
        b.round = r
        for g in gs[r]:
            b.add("candidates", ["candidates", "--genus", str(g)], {},
                  {"genus": g, "spec": surgery_spec(g), "surgery": True})
        for scale in scales[r]:
            area = 5 * (4 * scale - 3)
            for tight in (True, False):
                def make(area=area, tight=tight):
                    spec = seeded_spec(rng, area, tight)
                    genus = 1 + spec["x_s"] // 2
                    return ("candidates", ["candidates", "--genus", str(genus), "--spec", "@spec"],
                            {"spec": json.dumps(spec_json(spec))},
                            {"genus": genus, "spec": spec, "surgery": False})
                b.add_unique(make)


# holonomy-tau: every case at every size of the ladder, with seeded maps;
# the largest size takes two cases per round, in turn, so a run of three
# rounds makes each case once at that size.
HOLONOMY_SIZES = ((8, 16), (8, 64), (16, 128), (32, 256), (64, 512), (128, 1024))
HOLONOMY_TOP = (256, 4096)


def _holonomy_tau(b: _RequestList, rounds: int):
    rng = b.rng
    for r in range(rounds):
        b.round = r
        jobs = [(size, case) for size in HOLONOMY_SIZES for case in "abcdef"]
        jobs += [(HOLONOMY_TOP, "abcdef"[(2 * r + i) % 6]) for i in range(2)]
        for (tiles, samples), case in jobs:
            def make(tiles=tiles, samples=samples, case=case):
                u = seeded_pl(rng, rng.randint(2, 16))
                v = seeded_pl(rng, rng.randint(2, 16))
                return ("holonomy",
                        ["holonomy", "tau", "--case", case, "--tiles", str(tiles),
                         "--samples", str(samples), "--u", "@u", "--v", "@v"],
                        {"u": json.dumps(u), "v": json.dumps(v)},
                        {"case": case, "tiles": tiles, "samples": samples, "u": u, "v": v})
            b.add_unique(make)


# small-mix: seeded sutured reports, seeded genus-3 penner words, seeded
# corruptions, and once per run each stock report the CLI has.
STOCK = (
    (["penner"], "penner", {"bundled": True}),
    (["vmatrix", "--genus", "6"], "vmatrix", {"genus": 6}),
    (["candidates", "--genus", "3"], "candidates", {"genus": 3, "spec": surgery_spec(3), "surgery": True}),
) + tuple(
    (["holonomy", "tau", "--case", c], "holonomy",
     {"case": c, "tiles": 8, "samples": 64, "u": None, "v": None})
    for c in "abcdef"
)


def _sutured_chi(rng):
    base, cvx, ccv = rng.randint(-40, 2), rng.randint(0, 60), rng.randint(0, 60)
    return ("sutured-chi", ["sutured", "chi", "--base-chi", str(base), "--convex", str(cvx),
                            "--concave", str(ccv)], {}, {"base_chi": base, "convex": cvx, "concave": ccv})


def _sutured_core(rng):
    wraps, sutures = rng.randint(1, 2000), rng.randint(1, 8)
    return ("sutured-core-disk", ["sutured", "core-disk", "--wraps", str(wraps),
                                  "--sutures", str(sutures)], {}, {"wraps": wraps, "sutures": sutures})


def _sutured_pairing(rng):
    tl = seeded_tangencies(rng)
    return ("sutured-pairing", ["sutured", "pairing", "--input", "@tan"],
            {"tan": json.dumps(tl)}, {"tangencies": tl})


def _sutured_witness(rng):
    k = rng.choice((1, -1)) * rng.randint(1, 40)
    m = rng.choice((1, -1)) * rng.randint(1, 50)
    return ("sutured-witness", ["sutured", "witness", "--k", str(k), "--m", str(m)], {},
            {"k": k, "m": m})


def _small_penner(rng):
    word = seeded_word(rng, 3)
    return ("penner", ["penner", "--input", "@sys"], {"sys": json.dumps(penner_doc(3, word))},
            {"genus": 3, "word": word, "chain": False})


def _corruption(rng, which):
    if which == 0:
        doc = penner_doc(3, seeded_word(rng, 3))
        semantic = [(("genus",), "0"), (("curves", 0, "family"), "C"), (("word", 0, "exp"), 0),
                    (("word", 0, "label"), "z9"), (("curves", 1, "coords", 1), "2"),
                    (("geo_int", 1, 0), "-1")]
        args = ["penner", "--input", "@bad"]
    elif which == 1:
        doc = spec_json(seeded_spec(rng, rng.randint(100, 2000), rng.random() < 0.5))
        semantic = [(("x_f",), "-2"), (("x_sum",), "1000"), (("chi",), ["-2"]), (("chi", 0), "-3"),
                    (("x_s",), "1/0")]
        args = ["candidates", "--genus", "3", "--spec", "@bad"]
    elif which == 2:
        doc = seeded_tangencies(rng)
        semantic = [((0, "kind"), "node"), ((0, "sign"), 0), ((0, "sign"), "x")]
        args = ["sutured", "pairing", "--input", "@bad"]
    else:
        doc = seeded_pl(rng, rng.randint(3, 8))
        semantic = [(("breakpoints", 0), "0"), (("values", 1), "2"), (("values",), ["-1", "1"] * 3)]
        args = ["holonomy", "tau", "--case", rng.choice("abcdef"), "--u", "@bad", "--v", "@good"]
    text = corrupt(rng, doc, semantic)
    files = {"bad": text}
    if which == 3:
        files["good"] = json.dumps(seeded_pl(rng, 3))
    return ("corrupt", args, files, {})


def _small_mix(b: _RequestList, rounds: int):
    rng = b.rng
    stock = [(argv, kind, params, fmt) for argv, kind, params in STOCK for fmt in ("text", "json")]
    for r in range(rounds):
        b.round = r
        for i, fmt in enumerate(("text", "json")):
            for make in (_sutured_chi, _sutured_core, _sutured_pairing, _sutured_witness, _small_penner):
                b.add_unique(lambda: make(rng) + (fmt,))
            for which in (2 * i, 2 * i + 1):
                b.add_unique(lambda: _corruption(rng, which) + (fmt,))
        for argv, kind, params, fmt in stock[r * len(stock) // rounds:(r + 1) * len(stock) // rounds]:
            b.add(kind, argv, {}, params, fmt)


_MAKERS = {
    "twist-ladder": _twist_ladder,
    "norm-sweep": _norm_sweep,
    "holonomy-tau": _holonomy_tau,
    "small-mix": _small_mix,
}


def build_requests(workload: str, seed: int, rounds: int) -> list:
    if workload not in _MAKERS:
        raise ValueError(f"unknown workload {workload!r}")
    b = _RequestList(workload, seed)
    _MAKERS[workload](b, rounds)
    return b.requests
