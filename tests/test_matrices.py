import random
from fractions import Fraction

import pytest

from tautcalc.homology import word_action
from tautcalc.matrices import IntMatrix
from tautcalc.penner import _chain_system, _chain_word


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


def test_identity_det():
    assert IntMatrix.identity(5).det() == 1


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
        assert IntMatrix(rows).det() == det_gauss(rows)


def test_det_needs_pivot_swap():
    m = IntMatrix([[0, 1], [1, 0]])
    assert m.det() == -1


def test_big_integer_entries():
    k = 10**30
    m = IntMatrix([[k, 0], [0, k]])
    assert m.det() == k * k


def test_matmul_and_identity():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a @ IntMatrix.identity(2) == a
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a @ b).rows == ((2, 1), (4, 3))


def test_apply_vector():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a.apply((1, 1)) == (3, 7)
    with pytest.raises(ValueError):
        a.apply((1, 2, 3))


def test_transpose_add_sub_neg():
    a = IntMatrix([[1, 2], [3, 4]])
    assert a.transpose().rows == ((1, 3), (2, 4))
    assert (a + a).rows == ((2, 4), (6, 8))
    assert (a - a) == IntMatrix.zero(2, 2)
    assert (-a).rows == ((-1, -2), (-3, -4))


def test_rank_and_nullity():
    assert IntMatrix([[1, 2], [2, 4]]).nullity() == 1
    assert IntMatrix.identity(4).nullity() == 0
    assert IntMatrix.zero(3, 3).nullity() == 3
    assert IntMatrix([[1, 0, 1], [0, 1, 1]]).rank() == 2


def _random_rows(rng, kind):
    n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
    if kind == "low-rank":
        # A (n_rows x k) times B (k x n_cols) has rank at most k
        k = rng.randint(1, min(n_rows, n_cols))
        a = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(n_rows)]
        b = [[rng.randint(-5, 5) for _ in range(n_cols)] for _ in range(k)]
        return (IntMatrix(a) @ IntMatrix(b)).to_lists()
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


def test_chain_word_minus_identity_has_full_rank():
    for genus in range(2, 31):
        m = word_action(_chain_word(genus), _chain_system(genus).generator_map())
        assert m.minus_identity().rank() == 2 * genus


def test_rejects_non_integer_entries():
    with pytest.raises(ValueError):
        IntMatrix([[1.5, 0], [0, 1]])
    with pytest.raises(ValueError):
        IntMatrix([[True, False], [False, True]])


def test_rejects_ragged_rows():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])


def test_immutability():
    m = IntMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = ()
