import itertools
import random
from fractions import Fraction

import pytest

from tautcalc.homology import TwistWord, word_action
from tautcalc.matrices import IntMatrix
from tautcalc.penner import chain_system

from oracles import add, apply, echelon_dense, identity, neg, sub, to_lists, transpose, zero


def det_gauss(rows):
    """Independent determinant oracle: rational Gaussian elimination."""
    m = [[Fraction(e) for e in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    assert det.denominator == 1
    return int(det)


def rank_gauss(rows):
    """Independent rank oracle: reduced row echelon form over the rationals."""
    m = [[Fraction(e) for e in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for c in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][c]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def det_dense(rows):
    rank, sign, pivot = echelon_dense(rows)
    return sign * pivot if rank == len(rows) else 0


def assert_matches_dense(rows):
    m = IntMatrix(rows)
    rank, sign, pivot = echelon_dense(rows)
    assert m.rank() == rank, rows
    if m.is_square:
        assert m.det() == (sign * pivot if rank == m.n_rows else 0), rows


def test_identity_det():
    assert identity(5).det() == 1


def test_diagonal_det():
    m = IntMatrix([[2, 0, 0], [0, 3, 0], [0, 0, -1]])
    assert m.det() == -6


def test_singular_det():
    m = IntMatrix([[1, 2], [2, 4]])
    assert m.det() == 0


def test_det_requires_square():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2, 3], [4, 5, 6]]).det()


def test_det_matches_gauss_oracle():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert IntMatrix(rows).det() == det_gauss(rows) == det_dense(rows)


def test_det_needs_pivot_swap():
    m = IntMatrix([[0, 1], [1, 0]])
    assert m.det() == -1


def test_big_integer_entries():
    k = 10**30
    m = IntMatrix([[k, 0], [0, k]])
    assert m.det() == k * k


def test_matmul_and_identity():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a @ identity(2) == a
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a @ b).rows == ((2, 1), (4, 3))
    rng = random.Random("matmul")
    for _ in range(100):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        x = [[rng.choice((0, 0, 0, -2, 1, 3)) for _ in range(k)] for _ in range(n)]
        y = [[rng.choice((0, 0, 0, -1, 2, 2)) for _ in range(m)] for _ in range(k)]
        dense = [[sum(p * q for p, q in zip(row, col)) for col in zip(*y)] for row in x]
        assert (IntMatrix(x) @ IntMatrix(y)).rows == tuple(map(tuple, dense))
    with pytest.raises(ValueError, match="dimension mismatch"):
        a @ IntMatrix([[1, 2]])


def test_apply_vector():
    a = IntMatrix([[1, 2], [3, 4]])
    assert apply(a, (1, 1)) == (3, 7)
    with pytest.raises(ValueError):
        apply(a, (1, 2, 3))


def test_transpose_add_sub_neg():
    a = IntMatrix([[1, 2], [3, 4]])
    assert transpose(a).rows == ((1, 3), (2, 4))
    assert add(a, a).rows == ((2, 4), (6, 8))
    assert sub(a, a) == zero(2, 2)
    assert neg(a).rows == ((-1, -2), (-3, -4))


def test_rank_and_nullity():
    assert IntMatrix([[1, 2], [2, 4]]).rank() == 1
    assert identity(4).rank() == 4
    assert zero(3, 3).rank() == 0
    assert IntMatrix([[1, 0, 1], [0, 1, 1]]).rank() == 2


def _random_rows(rng, kind):
    n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
    if kind == "low-rank":
        # A (n_rows x k) times B (k x n_cols) has rank at most k
        k = rng.randint(1, min(n_rows, n_cols))
        a = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(n_rows)]
        b = [[rng.randint(-5, 5) for _ in range(n_cols)] for _ in range(k)]
        return to_lists(IntMatrix(a) @ IntMatrix(b))
    bound = 10**20 if kind == "big" else 9
    density = rng.choice((0.3, 0.7, 1.0))
    rows = [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n_cols)]
        for _ in range(n_rows)
    ]
    if kind == "zero-lead":
        lead = rng.randint(1, n_cols)
        for row in rows:
            row[:lead] = [0] * lead
    return rows


@pytest.mark.parametrize("kind", ["dense", "low-rank", "zero-lead", "big"])
def test_rank_matches_gauss_oracle(kind):
    rng = random.Random(f"rank-{kind}")
    for _ in range(300):
        rows = _random_rows(rng, kind)
        m = IntMatrix(rows)
        assert m.rank() == rank_gauss(rows), rows
        if m.is_square:
            assert (m.det() != 0) == (m.rank() == m.n_rows), rows
        assert_matches_dense(rows)


def _seeded_chain_word(rng, genus):
    """Opposite-twist word over the chain curves: each curve once, as many
    random extra letters, shuffled; a-curves one sign, b-curves the other."""
    labels = [f"a{i}" for i in range(1, genus + 2)] + [f"b{i}" for i in range(1, genus + 1)]
    picks = labels + [rng.choice(labels) for _ in labels]
    rng.shuffle(picks)
    sign_a = rng.choice((1, -1))
    return TwistWord(tuple((lbl, (sign_a if lbl[0] == "a" else -sign_a) * rng.randint(1, 2)) for lbl in picks))


def test_chain_and_seeded_words_match_dense_bareiss():
    rng = random.Random("seeded-words")
    for genus in range(2, 61):
        system, chain_word = chain_system(genus)
        generators = system.generator_map()
        for word in (chain_word, _seeded_chain_word(rng, genus)):
            assert_matches_dense(to_lists(word_action(word, generators).minus_identity()))


def _perm_sign(perm):
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def test_permutation_matrix_det_is_its_sign():
    for n in range(1, 6):
        for perm in itertools.permutations(range(n)):
            m = IntMatrix([[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)])
            assert m.det() == _perm_sign(perm), perm
            assert m.rank() == n


def test_wide_tall_and_zero_lines():
    rng = random.Random("shapes")
    for _ in range(100):
        short, long = rng.randint(1, 4), rng.randint(5, 9)
        wide = [[rng.randint(-3, 3) for _ in range(long)] for _ in range(short)]
        tall = [list(col) for col in zip(*wide)]
        assert_matches_dense(wide)
        assert_matches_dense(tall)
        n = rng.randint(2, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        zero_row = [row[:] for row in rows]
        zero_row[rng.randrange(n)] = [0] * n
        zero_col = [row[:] for row in rows]
        c = rng.randrange(n)
        for row in zero_col:
            row[c] = 0
        for m in (zero_row, zero_col):
            assert IntMatrix(m).det() == 0
            assert IntMatrix(m).rank() == rank_gauss(m) < n
            assert_matches_dense(m)
    assert zero(3, 5).rank() == 0
    assert zero(4, 4).det() == 0


def _block_triangular(rng, k, m):
    """[[A, B], [0, C]] with 10^20-sized entries, rows shuffled: the rows of
    C stay untouched while A's k pivots are taken, then are eliminated."""
    big = 10**20
    n = k + m

    def entry():
        return rng.randint(-big, big)

    a = [[entry() for _ in range(k)] for _ in range(k)]
    c = [[entry() for _ in range(m)] for _ in range(m)]
    rows = [a[i] + [entry() for _ in range(m)] for i in range(k)]
    rows += [[0] * k + c[i] for i in range(m)]
    perm = list(range(n))
    rng.shuffle(perm)
    return [rows[p] for p in perm], _perm_sign(perm) * det_gauss(a) * det_gauss(c)


def test_block_triangular_rows_untouched_across_pivots():
    rng = random.Random("blocks")
    for k in (2, 3, 4):
        for m in (2, 3):
            for _ in range(20):
                rows, det = _block_triangular(rng, k, m)
                assert IntMatrix(rows).det() == det == det_dense(rows)
                assert IntMatrix(rows).rank() == k + m
                # a singular corner: the last row of C repeats the one above
                lower = [i for i, row in enumerate(rows) if not any(row[:k])]
                rows[lower[-1]] = rows[lower[-2]][:]
                assert IntMatrix(rows).det() == 0
                assert IntMatrix(rows).rank() == k + m - 1 == rank_gauss(rows)


def test_chain_word_minus_identity_has_full_rank():
    for genus in range(2, 31):
        system, word = chain_system(genus)
        m = word_action(word, system.generator_map())
        assert m.minus_identity().rank() == 2 * genus


def test_minus_identity_stores_no_zero():
    m = IntMatrix([[1, 2, 0], [0, 3, 0], [4, 0, 1]]).minus_identity()
    assert m.nonzeros == ({1: 2}, {1: 2}, {0: 4})
    assert m == IntMatrix([[0, 2, 0], [0, 2, 0], [4, 0, 0]])
    assert hash(m) == hash(IntMatrix([[0, 2, 0], [0, 2, 0], [4, 0, 0]]))
    with pytest.raises(ValueError, match="matrix must be square"):
        IntMatrix([[1, 0]]).minus_identity()


def test_rows_is_a_dense_tuple_view():
    system, word = chain_system(4)
    action = word_action(word, system.generator_map())
    for m in (IntMatrix([[0, 2, 0], [0, 0, 0]]), action, action @ action, action.minus_identity()):
        rows = m.rows
        assert type(rows) is tuple and len(rows) == m.n_rows
        assert all(type(row) is tuple and len(row) == m.n_cols for row in rows)
        assert all(type(x) is int for row in rows for x in row)
        assert IntMatrix(rows) == m
    assert IntMatrix([[0, 2, 0], [0, 0, 0]]).rows == ((0, 2, 0), (0, 0, 0))
    assert action.rows[0] == (2, 3, 0, 1, 0, 0, 0, 0)


def test_constructor_keeps_its_messages_and_stores_nonzeros():
    for rows, message in (
        ([[1, 0], [0, True]], "entries must be integers, got True"),
        ([[1.0, 0], [0, 1]], "entries must be integers, got 1.0"),
        ([[1, 2], [3]], "ragged rows"),
        ([], "matrix must have at least one row and column"),
        ([[]], "matrix must have at least one row and column"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            IntMatrix(rows)
    m = IntMatrix([[0, 5, 0], [0, 0, 0], [-1, 0, 10**30]])
    assert m.nonzeros == ({1: 5}, {}, {0: -1, 2: 10**30})
    assert (m.n_rows, m.n_cols) == (3, 3)


def test_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        IntMatrix([[1.5, 0], [0, 1]])
    with pytest.raises(ValueError):
        IntMatrix([[True, False], [False, True]])


def test_rejects_ragged_rows():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])


def test_immutability():
    m = identity(2)
    with pytest.raises(AttributeError):
        m.rows = ()
