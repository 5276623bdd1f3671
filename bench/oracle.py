"""Independent checks of tautcalc reports, run after timing stops.

Nothing here imports tautcalc.  Every report is parsed (JSON, or the text
renderer's layout), reduced to strings at the leaves, and compared with
values computed here from the request's own parameters:

* action matrices as products of transvections, applied vector by vector;
* b2 and the determinant law by exact elimination over the rationals (a
  nonzero determinant modulo a prime certifies full rank on its own);
* dual-ball points by walking the edges of an independently built polar
  polygon: each must have dual norm 1 and the parity of chi, and vertices
  must be marked realizable;
* holonomy sample sets exactly, and their pass flags by evaluating the
  conjugacy identity with a separate implementation of the tiling.

A verdict is "ok", "exit" (the report's content is right but the exit code
is not), "content" (the oracle rejects the content) or "error" (a traceback).
"""

from __future__ import annotations

import ast
import json
import re
from fractions import Fraction
from math import floor, gcd

from loadgen import chain_coords, chain_word, frac_str

# -- report parsing ----------------------------------------------------------------

# Keys whose value is a list of objects; the text layout of a one-item list
# is the same as that of an object, so the parser needs the names.
_LIST_KEYS = {"candidates", "samples", "steps", "tangencies", "halfspaces"}


def _leaf(v):
    if isinstance(v, dict):
        return {k: _leaf(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_leaf(x) for x in v]
    return str(v)


def parse_report(text: str, fmt: str) -> dict:
    """Report as nested dicts and lists with string leaves."""
    if fmt == "json":
        doc = _leaf(json.loads(text))
    else:
        lines = text.rstrip("\n").split("\n")
        doc, i = _parse_block(lines, 0, 0)
        if i != len(lines):
            raise ValueError(f"unparsed text from line {i + 1}")
    doc.setdefault("checks", [])
    return doc


def _indent(line: str) -> int:
    return (len(line) - len(line.lstrip(" "))) // 2


_NUMBER = re.compile(r"-?\d+(/\d+)?")


def _is_row(line: str) -> bool:
    parts = line.split()
    return bool(parts) and all(_NUMBER.fullmatch(p) for p in parts)


def _parse_block(lines, i, level):
    out = {}
    while i < len(lines) and _indent(lines[i]) == level and lines[i].strip() != "-":
        body = lines[i].strip()
        i += 1
        if body.startswith("[PASS] ") or body.startswith("[FAIL] "):
            out.setdefault("checks", []).append({"name": body[7:], "pass": str(body[1:5] == "PASS")})
            continue
        if ": " in body:
            key, value = body.split(": ", 1)
            out[key] = _scalar(value)
            continue
        key = body[:-1]
        if i < len(lines) and _is_row(lines[i]):
            rows = []
            while i < len(lines) and _indent(lines[i]) > level and _is_row(lines[i]):
                rows.append(lines[i].split())
                i += 1
            out[key] = rows
            continue
        items = []
        while True:
            item, i = _parse_block(lines, i, level + 1)
            items.append(item)
            if i < len(lines) and lines[i].strip() == "-" and _indent(lines[i]) == level + 1:
                i += 1
                continue
            break
        out[key] = items if (len(items) > 1 or key in _LIST_KEYS) else items[0]
    return out, i


def _scalar(value: str):
    if value.startswith("["):
        return _leaf(ast.literal_eval(value))
    return value


# -- exact linear algebra -----------------------------------------------------------

_PRIME = (1 << 61) - 1


def _det_mod(rows, p=_PRIME) -> int:
    m = [[x % p for x in row] for row in rows]
    n = len(m)
    det = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det = det * m[k][k] % p
        inv = pow(m[k][k], p - 2, p)
        rk = m[k]
        for r in range(k + 1, n):
            f = m[r][k] * inv % p
            if f:
                rr = m[r]
                for j in range(k + 1, n):
                    rr[j] = (rr[j] - f * rk[j]) % p
    return det % p


def rank_det(rows):
    """(rank, determinant) over the rationals by sparse elimination.

    The determinant is reported for square matrices (0 when singular).
    Pivots are taken from the sparsest candidate row, which keeps banded
    matrices banded.
    """
    todo = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in rows]
    n_cols = len(rows[0])
    by_col = {}
    for i, row in enumerate(todo):
        for j in row:
            by_col.setdefault(j, set()).add(i)
    alive = set(range(len(todo)))
    rank, det, order = 0, Fraction(1), []
    for col in range(n_cols):
        cands = [i for i in by_col.get(col, ()) if i in alive]
        if not cands:
            continue
        piv = min(cands, key=lambda i: (len(todo[i]), i))
        alive.discard(piv)
        prow = todo[piv]
        pv = prow[col]
        det *= pv
        order.append(piv)
        for i in cands:
            if i == piv:
                continue
            row = todo[i]
            f = row[col] / pv
            for j, x in prow.items():
                y = row.get(j, 0) - f * x
                if y:
                    if j not in row:
                        by_col.setdefault(j, set()).add(i)
                    row[j] = y
                elif j in row:
                    del row[j]
                    by_col[j].discard(i)
        rank += 1
    if len(rows) != n_cols or rank < n_cols:
        return rank, 0
    # sign of the row permutation taken by the pivots (pivot k sits in column k)
    perm, sign, seen = order, 1, set()
    for start in range(len(perm)):
        if start in seen:
            continue
        j, length = start, 0
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        sign *= -1 if length % 2 == 0 else 1
    value = sign * det
    if value.denominator != 1:
        raise ArithmeticError("determinant of an integer matrix is not an integer")
    return rank, int(value)


def nullity_minus_identity(rows) -> int:
    n = len(rows)
    diff = [[x - (1 if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(rows)]
    if _det_mod(diff):
        return 0
    return n - rank_det(diff)[0]


def word_action_columns(genus: int, coords: dict, word: list) -> list:
    """Matrix (as rows) of the word acting on column vectors, letters applied
    right to left, each as x -> x + e <x, c> c with <x, c> = sum x_r c_s - x_s c_r."""
    n = 2 * genus
    cols = []
    for k in range(n):
        x = [0] * n
        x[k] = 1
        for label, e in reversed(word):
            c = coords[label]
            pair = sum(x[2 * i] * c[2 * i + 1] - x[2 * i + 1] * c[2 * i] for i in range(genus))
            if pair:
                f = e * pair
                x = [a + f * b for a, b in zip(x, c)]
        cols.append(x)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


# -- polygons ----------------------------------------------------------------------


def _hull(points):
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def norm_ball(spec: dict):
    """Vertices (counter-clockwise) of the unit ball through the eight
    scaled directions; None if some direction falls inside the hull."""
    pts = []
    for (dx, dy), key in (((1, 0), "x_f"), ((0, 1), "x_s"), ((1, 1), "x_sum"), ((-1, 1), "x_diff")):
        v = Fraction(spec[key])
        pts += [(Fraction(dx) / v, Fraction(dy) / v), (Fraction(-dx) / v, Fraction(-dy) / v)]
    hull = _hull(pts)
    for p in pts:
        if p not in hull and not _on_hull_edge(hull, p):
            return None
    return hull


def _on_hull_edge(hull, p):
    for a, b in zip(hull, hull[1:] + hull[:1]):
        if (b[0] - a[0]) * (p[1] - a[1]) == (b[1] - a[1]) * (p[0] - a[0]) and \
                min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]):
            return True
    return False


def _edge_line(p, q):
    """Integer (a, b, c), gcd-normalized, with a x + b y = c on the line p q."""
    a, b = q[1] - p[1], p[0] - q[0]
    c = a * p[0] + b * p[1]
    den = 1
    for x in (a, b, c):
        den = den * x.denominator // gcd(den, x.denominator)
    a, b, c = int(a * den), int(b * den), int(c * den)
    g = gcd(gcd(a, b), c)
    return a // g, b // g, c // g


def polar(vertices):
    """Vertices of {u : <u, v> <= 1 for every vertex v}, counter-clockwise."""
    out = []
    n = len(vertices)
    for i in range(n):
        (x1, y1), (x2, y2) = vertices[i], vertices[(i + 1) % n]
        det = x1 * y2 - x2 * y1
        out.append(((y2 - y1) / det, (x1 - x2) / det))
    return _hull(out)


def boundary_lattice_points(vertices):
    """Integer points on the polygon's edges, walked edge by edge."""
    pts = set()
    n = len(vertices)
    for i in range(n):
        p, q = vertices[i], vertices[(i + 1) % n]
        a, b, c = _edge_line(p, q)
        if b != 0:
            lo, hi = sorted((p[0], q[0]))
            for x in range(int(-floor(-lo)), floor(hi) + 1):
                y = Fraction(c - a * x, b)
                if y.denominator == 1:
                    pts.add((x, int(y)))
        else:
            lo, hi = sorted((p[1], q[1]))
            x = Fraction(c, a)
            if x.denominator == 1:
                for y in range(int(-floor(-lo)), floor(hi) + 1):
                    pts.add((int(x), y))
    return pts


def dual_norm(ball, u) -> Fraction:
    return max(u[0] * vx + u[1] * vy for vx, vy in ball)


# -- PL maps and the tiled conjugacy ----------------------------------------------


class _PL:
    def __init__(self, bps, vals):
        ob, ov = [bps[0]], [vals[0]]
        for i in range(1, len(bps) - 1):
            if (vals[i] - ov[-1]) * (bps[i + 1] - bps[i]) != (vals[i + 1] - vals[i]) * (bps[i] - ob[-1]):
                ob.append(bps[i])
                ov.append(vals[i])
        self.bps, self.vals = ob + [bps[-1]], ov + [vals[-1]]

    def __call__(self, q):
        for i in range(len(self.bps) - 1):
            if q <= self.bps[i + 1]:
                x0, x1, y0, y1 = self.bps[i], self.bps[i + 1], self.vals[i], self.vals[i + 1]
                return y0 + (q - x0) * (y1 - y0) / (x1 - x0)
        raise ValueError("outside the domain")

    def inverse(self):
        return _PL(self.vals, self.bps)


def _pl(doc):
    if doc is None:
        return None
    return _PL([Fraction(x) for x in doc["breakpoints"]], [Fraction(x) for x in doc["values"]])


def _tile(side, n):
    if side < 0:
        return Fraction(-1, n), Fraction(-1, n + 1)
    return Fraction(1, n + 1), Fraction(1, n)


def _where(q):
    return (-1 if q < 0 else 1), int(1 / abs(q))


def _tiled(neg, pos, alt_neg, alt_pos, inverse):
    """Evaluator of the map carrying a rescaled copy of neg/pos (their
    inverses on even tiles when alternating) on every tile."""
    cache = {}

    def tile_map(side, n):
        key = (side, n % 2 == 0)
        if key not in cache:
            base, alt = (neg, alt_neg) if side < 0 else (pos, alt_pos)
            m = base.inverse() if (alt and n % 2 == 0) else base
            cache[key] = m.inverse() if inverse else m
        return cache[key]

    def ev(q):
        if q == 0:
            return Fraction(0)
        side, n = _where(q)
        lo, hi = _tile(side, n)
        s = -1 + 2 * (q - lo) / (hi - lo)
        return lo + (tile_map(side, n)(s) + 1) * (hi - lo) / 2

    return ev


def conjugacy_holds(case, u, v, points):
    """h(t(x)) == expr(h(x)) at each point, for the construction of the case."""
    ident = _PL([Fraction(-1), Fraction(1)], [Fraction(-1), Fraction(1)])
    uses_u, uses_v, inv = case in "abce", case in "abdf", case in "aef"
    neg, pos = (u if uses_u else ident), (v if uses_v else ident)
    t = _tiled(neg, pos, inv and uses_u, inv and uses_v, False)
    middle = _tiled(neg, pos, inv and uses_u, inv and uses_v, inv)
    pieces = ([u] if uses_u else []) + [middle] + ([v] if uses_v else [])
    m, k = (1 if uses_u else 0), len(pieces)

    def expr(q):
        i = min(int(q), k - 1)
        return i + (pieces[i](-1 + 2 * (q - i)) + 1) / 2

    def chart(x):
        return m + (x + 1) / 2

    def h(q):
        if q == 0:
            return chart(Fraction(0))
        side, n = _where(q)
        lo, hi = _tile(side, n)
        outer = (m == 1) if side < 0 else (k > m + 1)
        if not outer:
            tlo, thi = chart(lo), chart(hi)
        elif n == 1:
            tlo, thi = (Fraction(0), Fraction(1)) if side < 0 else (Fraction(m + 1), Fraction(m + 2))
        else:
            plo, phi = _tile(side, n - 1)
            tlo, thi = chart(plo), chart(phi)
        return tlo + (q - lo) * (thi - tlo) / (hi - lo)

    return [h(t(q)) == expr(h(q)) for q in points]


def sample_points(tiles, per_tile):
    offsets = [Fraction(i + 1, per_tile + 1) for i in range(per_tile)]
    pts = [Fraction(-1), Fraction(0), Fraction(1)]
    for n in range(1, tiles + 1):
        for side in (-1, 1):
            lo, hi = _tile(side, n)
            pts += [lo + t * (hi - lo) for t in offsets]
    return pts


_EXPRESSIONS = {"a": "u t^-1 v", "b": "u t v", "c": "u t", "d": "t v", "e": "u t^-1", "f": "t^-1 v"}
_STOCK_U = {"breakpoints": ["-1", "0", "1"], "values": ["-1", "1/2", "1"]}
_STOCK_V = {"breakpoints": ["-1", "-1/3", "1"], "values": ["-1", "1/4", "1"]}
# Sample points whose pass flag is re-derived; the whole set is compared.
IDENTITY_CHECKS_PER_REPORT = 48


# -- per-kind checks ---------------------------------------------------------------


class Reject(Exception):
    pass


def _need(cond, what):
    if not cond:
        raise Reject(what)


def _fs(x) -> str:
    return frac_str(Fraction(x))


def _rows(m):
    return [[str(x) for x in row] for row in m]


def _check_penner(p, doc):
    if p.get("bundled"):
        genus, word, regions = 3, chain_word(3), False
    else:
        genus, word, regions = p["genus"], p["word"], True
    _need(doc["genus"] == str(genus), "genus")
    action = word_action_columns(genus, chain_coords(genus), word)
    _need(doc["action_matrix"] == _rows(action), "action matrix")
    b2 = 1 + nullity_minus_identity(action)
    _need(doc["mapping_torus_b2"] == str(b2), "b2")
    _need(doc["fixed_homology_trivial"] == str(b2 == 1), "fixed homology flag")
    rep = doc["report"]
    for key in ("word_valid", "all_curves_used", "sign_discipline"):
        _need(rep[key] == "True", key)
    _need(rep["filling_status"] == ("verified" if regions else "necessary-conditions-only"), "filling")
    return b2 == 1


def _check_vmatrix(p, doc):
    g = p["genus"]
    m = [[int(x) for x in row] for row in doc["matrix"]]
    _need(len(m) == 2 * g and all(len(r) == 2 * g for r in m), "matrix shape")
    diff = [[x - (1 if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(m)]
    _need(doc["matrix_minus_identity"] == _rows(diff), "matrix minus identity")
    det = rank_det(diff)[1]
    _need(doc["det_abs"] == str(abs(det)), "det")
    _need(doc["target"] == str(g + 1), "target")
    return abs(det) == g + 1


def _check_candidates(p, doc):
    spec, g = p["spec"], p["genus"]
    _need(doc["genus"] == str(g), "genus")
    _need(doc["norm_spec"] == {k: ([str(c) for c in v] if k == "chi" else _fs(v)) for k, v in spec.items()},
          "norm spec")
    ball = norm_ball(spec)
    _need(ball is not None, "spec is valid")
    dual = polar(ball)
    _need({tuple(v) for v in doc["ball"]["vertices"]} == {(_fs(x), _fs(y)) for x, y in ball}, "ball")
    _need({tuple(v) for v in doc["dual_ball"]["vertices"]} == {(_fs(x), _fs(y)) for x, y in dual}, "dual ball")
    n = len(dual)
    lines = {_edge_line(dual[i], dual[(i + 1) % n]) for i in range(n)}
    got_lines = {(int(h["normal"][0]), int(h["normal"][1]), int(h["offset"])) for h in doc["dual_ball"]["halfspaces"]}
    _need(got_lines == lines, "dual halfspaces")
    cf, cs = spec["chi"]
    vertices = {(int(x), int(y)) for x, y in dual if x.denominator == 1 and y.denominator == 1}
    expected = {q for q in boundary_lattice_points(dual) if (q[0] - cf) % 2 == 0 and (q[1] - cs) % 2 == 0}
    got = {}
    for c in doc["candidates"]:
        got[(int(c["coords"][0]), int(c["coords"][1]))] = c
    _need(set(got) == expected and len(got) == len(doc["candidates"]), "candidate set")
    tip = 2 * g - 2
    flagged_ok = False
    for q, c in got.items():
        _need(dual_norm(ball, q) == 1, "dual norm one")
        vertex = q in vertices
        _need(c["location"] == ("boundary-vertex" if vertex else "boundary-nonvertex"), "location")
        _need(c["parity_ok"] == "True", "parity")
        _need(c["realizability"] == ("realizable-vertex" if vertex else "candidate"), "realizability")
        if p["surgery"]:
            flag = not vertex and q in ((0, tip), (0, -tip))
            _need(c["counterexample"] == str(flag), "counterexample flag")
            flagged_ok |= flag and q == (0, -tip)
    # The flagged-point check belongs to the genus-g family only; a valid
    # spec should pass, so its expected verdict is PASS.
    return flagged_ok if p["surgery"] else True


def _check_holonomy(p, doc, rid):
    case = p["case"]
    u_doc = p["u"] if p["u"] is not None else _STOCK_U
    v_doc = p["v"] if p["v"] is not None else _STOCK_V
    u, v = _pl(u_doc), _pl(v_doc)
    _need(doc["case"] == case and doc["expression"] == _EXPRESSIONS[case], "case")
    for name, m in (("u", u), ("v", v)):
        _need(doc[name] == {"breakpoints": [_fs(x) for x in m.bps], "values": [_fs(x) for x in m.vals]}, name)
    tiles = max(8, p["tiles"])
    per_tile = max(1, -(-p["samples"] // (2 * tiles)))
    _need(doc["tiles_per_side"] == str(tiles), "tiles")
    pts = sample_points(tiles, per_tile)
    _need([s["point"] for s in doc["samples"]] == [_fs(q) for q in pts], "sample set")
    flags = [s["pass"] for s in doc["samples"]]
    step = max(1, len(pts) // IDENTITY_CHECKS_PER_REPORT)
    idx = sorted(set(range(rid % step, len(pts), step)) | {0, 1, 2, len(pts) - 1})
    truth = conjugacy_holds(case, u, v, [pts[i] for i in idx])
    _need(all(flags[i] == str(ok) for i, ok in zip(idx, truth)), "sample pass flags")
    _need(all(f in ("True", "False") for f in flags), "flag values")
    return all(f == "True" for f in flags) and len(pts) >= p["samples"]


def _check_sutured(kind, p, doc):
    if kind == "sutured-chi":
        _need(doc["chi"] == _fs(Fraction(p["base_chi"]) - Fraction(p["convex"], 2) + Fraction(p["concave"], 2)),
              "chi")
        _need((doc["base_chi"], doc["convex"], doc["concave"]) ==
              (str(p["base_chi"]), str(p["convex"]), str(p["concave"])), "echo")
    elif kind == "sutured-core-disk":
        corners = p["wraps"] * p["sutures"]
        _need(doc["convex_corners"] == str(corners), "corners")
        _need(doc["chi"] == _fs(1 - Fraction(corners, 2)), "chi")
    elif kind == "sutured-pairing":
        tl = p["tangencies"]
        index = [(-1 if t["kind"] == "saddle" else 1) for t in tl]
        _need(doc["tangencies"] == _leaf(tl), "tangencies")
        _need(doc["euler_pairing"] == str(sum(i * t["sign"] for i, t in zip(index, tl))), "pairing")
        _need(doc["poincare_hopf_chi"] == str(sum(index)), "chi")
        if all(t["kind"] == "saddle" for t in tl):
            _need(doc.get("fully_marked") == str(len({t["sign"] for t in tl}) == 1), "fully marked")
        else:
            _need("fully_marked" not in doc, "fully marked")
    else:
        k, m = p["k"], p["m"]
        w = doc["witness"]
        steps = [{"op": "semigroup", "exponent_added": str(m), "running_total": str(m * (i + 2))}
                 for i in range(abs(k) - 1)]
        steps.append({"op": "pi1", "exponent_added": str(-abs(k) * m), "running_total": "0"})
        _need((w["k"], w["m"], w["initial_exponent"], w["final_exponent"]) == (str(k), str(m), str(m), "0"),
              "witness")
        _need(w["steps"] == steps, "steps")
    return True


def check(req: dict, rc, stderr: str, output) -> tuple:
    """Verdict on one report: ("ok" | "exit" | "content" | "error", reason)."""
    if rc == "traceback":
        return "error", stderr.strip().splitlines()[-1] if stderr.strip() else "traceback"
    kind = req["kind"]
    if kind == "corrupt":
        lines = stderr.splitlines()
        if rc != 2:
            return "exit", f"exit {rc}, expected 2"
        if len(lines) != 1 or not lines[0].startswith("error: ") or output is not None:
            return "content", "expected one 'error:' line and no report"
        return "ok", None
    if output is None:
        return "content" if rc == 0 else "exit", f"exit {rc} without a report"
    try:
        doc = parse_report(output.decode("utf-8"), req["format"])
        p = req["params"]
        if kind == "penner":
            passes = _check_penner(p, doc)
        elif kind == "vmatrix":
            passes = _check_vmatrix(p, doc)
        elif kind == "candidates":
            passes = _check_candidates(p, doc)
        elif kind == "holonomy":
            passes = _check_holonomy(p, doc, req["id"])
        else:
            passes = _check_sutured(kind, p, doc)
        _need(doc.get("status") == ("PASS" if all(c["pass"] == "True" for c in doc["checks"]) else "FAIL"),
              "status")
    except Reject as exc:
        return "content", str(exc)
    except (KeyError, ValueError, TypeError, IndexError, SyntaxError) as exc:
        return "content", f"unreadable report: {type(exc).__name__}: {exc}"
    want = 0 if passes else 1
    if rc != want:
        return "exit", f"exit {rc}, expected {want}"
    return "ok", None
