"""Dense reference operations that only the tests use.

The library keeps what its reports need: products, M - Id, det and rank
over sparse rows, and classes by their nonzeros.  These helpers rebuild
the rest from the dense `rows` view, the dense coordinates of
`dense_coords` and the public constructors, so the tests can state
identities such as t^T J t = J and <x + y, z> = <x, z> + <y, z> without
the library carrying code no report runs.  `pairing_dense` is x^T J y from
the dense coordinates and `intersection_matrix`, so the library's sparse
pairing is checked against J itself, not against its own k ^ 1 rule.
Likewise `transvection_matrix` is the dense I + e c (Jc)^T of a twist,
built from J, so `word_action`'s sparse rank-one updates are checked
against the transvection itself.

The polygon helpers keep the Fraction construction of a polygon, from
before `RatPolytope` moved to one integer scale, and the Minkowski gauge,
which no report reads.  `fraction_plhomeo` keeps the Fraction set-up of a
`PLHomeo`, from before it moved to integer pairs.

`records_text` keeps the record-by-record text layout of a list of
records, from before every such list in a report became a `jsonio.Table`,
so the Table's text writer is checked against the layout, not itself.
"""

from fractions import Fraction
from math import gcd, lcm

from tautcalc.exact import frac
from tautcalc.homology import HomologyClass, TwistGenerator, TwistWord
from tautcalc.matrices import IntMatrix


def identity(n):
    return IntMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def zero(n_rows, n_cols):
    return IntMatrix([[0] * n_cols for _ in range(n_rows)])


def add(a, b):
    _same_shape(a, b)
    return IntMatrix([[x + y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)])


def sub(a, b):
    _same_shape(a, b)
    return IntMatrix([[x - y for x, y in zip(r, s)] for r, s in zip(a.rows, b.rows)])


def neg(a):
    return IntMatrix([[-x for x in row] for row in a.rows])


def _same_shape(a, b):
    if (a.n_rows, a.n_cols) != (b.n_rows, b.n_cols):
        raise ValueError("shape mismatch")


def transpose(a):
    return IntMatrix([list(col) for col in zip(*a.rows)])


def apply(a, vec):
    """Matrix times column vector."""
    if len(vec) != a.n_cols:
        raise ValueError("vector length mismatch")
    return tuple(sum(x * v for x, v in zip(row, vec)) for row in a.rows)


def to_lists(a):
    return [list(row) for row in a.rows]


def echelon_dense(rows):
    """Dense Bareiss oracle: (rank, sign, pivot), with sign that of the row
    swaps; for a square matrix of full rank sign * pivot is the determinant.

    Takes the first nonzero row at each column and rescales every row below
    the pivot, so it costs O(n^3) whatever the sparsity.
    """
    m = [list(row) for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    sign = 1
    prev = 1
    for c in range(n_cols):
        p = next((r for r in range(rank, n_rows) if m[r][c] != 0), None)
        if p is None:
            continue
        if p != rank:
            m[rank], m[p] = m[p], m[rank]
            sign = -sign
        row_k = m[rank]
        pivot = row_k[c]
        for i in range(rank + 1, n_rows):
            row_i = m[i]
            mic = row_i[c]
            for j in range(c + 1, n_cols):
                row_i[j] = (row_i[j] * pivot - mic * row_k[j]) // prev
            row_i[c] = 0
        prev = pivot
        rank += 1
        if rank == n_rows:
            break
    return rank, sign, prev


def mapping_torus_dense(m):
    """(M - Id, det(M - Id), b2) of a square M from its dense rows, with
    det and rank from one dense Bareiss pass and b2 = 1 + n - rank."""
    n = m.n_rows
    diff = sub(m, identity(n))
    rank, sign, pivot = echelon_dense(diff.rows)
    return diff, sign * pivot if rank == n else 0, 1 + n - rank


def intersection_matrix(genus):
    """J, block diagonal with g blocks [[0, 1], [-1, 0]]."""
    n = 2 * genus
    m = [[0] * n for _ in range(n)]
    for i in range(0, n, 2):
        m[i][i + 1], m[i + 1][i] = 1, -1
    return IntMatrix(m)


def dense_class(genus, coords):
    """The class with these 2g dense coordinates."""
    if len(coords) != 2 * genus:
        raise ValueError("coordinate length must equal 2*genus")
    return HomologyClass(genus, tuple((k, v) for k, v in enumerate(coords) if v))


def dense_coords(x):
    """The 2g dense coordinates of a class."""
    dense = [0] * (2 * x.genus)
    for k, v in x.nonzeros:
        dense[k] = v
    return tuple(dense)


def pairing_dense(x, y):
    """<x, y> = x^T J y, as a dense product with J."""
    _same_genus(x, y)
    return sum(a * b for a, b in zip(dense_coords(x), apply(intersection_matrix(x.genus), dense_coords(y))))


def basis_r(genus, i):
    """The class r_i, 1-based."""
    if not 1 <= i <= genus:
        raise ValueError("basis index out of range")
    return HomologyClass(genus, ((2 * i - 2, 1),))


def basis_s(genus, i):
    """The class s_i, 1-based."""
    if not 1 <= i <= genus:
        raise ValueError("basis index out of range")
    return HomologyClass(genus, ((2 * i - 1, 1),))


def class_sum(x, y):
    _same_genus(x, y)
    return dense_class(x.genus, [a + b for a, b in zip(dense_coords(x), dense_coords(y))])


def class_difference(x, y):
    _same_genus(x, y)
    return dense_class(x.genus, [a - b for a, b in zip(dense_coords(x), dense_coords(y))])


def class_negation(x):
    return dense_class(x.genus, [-a for a in dense_coords(x)])


def _same_genus(x, y):
    if x.genus != y.genus:
        raise ValueError("classes live in different spaces")


def zero_class(genus):
    return HomologyClass(genus, ())


def twist_word(*letters):
    """TwistWord from (label, exponent) pairs, outermost letter first."""
    return TwistWord(tuple(letters))


def transvection_matrix(c: TwistGenerator, sign=1):
    """Homology action x -> x + sign <x, c> c of the sign-handed Dehn twist
    along c, as the dense matrix I + sign c (Jc)^T, since <x, c> = (Jc)^T x
    with J from `intersection_matrix`; sign may be any integer, the power
    of the twist."""
    v = dense_coords(c.cls)
    jc = apply(intersection_matrix(c.cls.genus), v)
    return IntMatrix([[int(i == j) + sign * a * b for j, b in enumerate(jc)] for i, a in enumerate(v)])


# -- polygons -------------------------------------------------------------------


def _fraction_cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _fraction_edge_halfspace(p, q):
    """Outward halfspace of the edge p -> q of a counter-clockwise polygon."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    a, b = dy, -dx
    c = a * p[0] + b * p[1]
    denom = a.denominator * b.denominator * c.denominator
    ai = int(a * denom)
    bi = int(b * denom)
    ci = int(c * denom)
    g = gcd(gcd(abs(ai), abs(bi)), abs(ci))
    if g:
        ai, bi, ci = ai // g, bi // g, ci // g
    return ((ai, bi), ci)


def fraction_polygon(points):
    """(vertices, halfspaces) of the hull of the points, computed on
    Fractions: Andrew's monotone chain with strict turns, the vertices
    counter-clockwise from the lexicographically smallest, and each edge's
    primitive integer halfspace."""
    pts = sorted({(frac(x), frac(y)) for x, y in points})
    if len(pts) < 3:
        raise ValueError("polygon needs at least three distinct points")
    lower, upper = [], []
    for chain, seq in ((lower, pts), (upper, reversed(pts))):
        for p in seq:
            while len(chain) >= 2 and _fraction_cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValueError("points are collinear; polygon is degenerate")
    start = min(range(len(hull)), key=lambda i: hull[i])
    vertices = tuple(hull[start:] + hull[:start])
    halfspaces = tuple(
        _fraction_edge_halfspace(vertices[i], vertices[(i + 1) % len(vertices)]) for i in range(len(vertices))
    )
    return vertices, halfspaces


def gauge(polygon, p):
    """Minkowski gauge: least t >= 0 with p in t * polygon (origin interior)."""
    if not polygon.origin_interior:
        raise ValueError("gauge requires the origin in the interior")
    x, y = frac(p[0]), frac(p[1])
    return max(Fraction(a * x + b * y, c) for (a, b), c in polygon.halfspaces)


# -- PL maps --------------------------------------------------------------------


def fraction_plhomeo(breakpoints, values):
    """(breakpoints, values, cuts, segments) of a valid PL map, computed on
    Fractions: collinear interior breakpoints dropped left to right, then
    each segment's slope and intercept over their lcm denominator."""
    bps, vals = [frac(b) for b in breakpoints], [frac(v) for v in values]
    out_b, out_v = [bps[0]], [vals[0]]
    for i in range(1, len(bps) - 1):
        x0, x1, x2 = out_b[-1], bps[i], bps[i + 1]
        y0, y1, y2 = out_v[-1], vals[i], vals[i + 1]
        if (y1 - y0) * (x2 - x1) == (y2 - y1) * (x1 - x0):
            continue  # collinear, skip
        out_b.append(x1)
        out_v.append(y1)
    out_b.append(bps[-1])
    out_v.append(vals[-1])
    segments = []
    for x0, x1, y0, y1 in zip(out_b, out_b[1:], out_v, out_v[1:]):
        slope = (y1 - y0) / (x1 - x0)
        intercept = y0 - slope * x0
        den = lcm(slope.denominator, intercept.denominator)
        segments.append((
            slope.numerator * (den // slope.denominator),
            intercept.numerator * (den // intercept.denominator),
            den,
        ))
    cuts = tuple((b.numerator, b.denominator) for b in out_b[1:-1])
    return tuple(out_b), tuple(out_v), cuts, tuple(segments)


def records_text(key, records):
    """The text report of {key: records}, record by record: "key:", then
    each record's "name: value" lines indented two spaces, with a "  -" line
    between two records; "key: []" when there is none.  A value shows as
    its str, so a list of strings as its Python repr."""
    if not records:
        return f"{key}: []"
    blocks = ("".join(f"\n  {name}: {value}" for name, value in record.items()) for record in records)
    return f"{key}:" + "\n  -".join(blocks)
