"""Exact integer matrices.

Everything downstream (twist actions, determinant tests, Betti numbers)
needs exact answers, so all arithmetic here is arbitrary-precision integer
or rational.  One fraction-free (Bareiss) elimination gives both the rank
and the determinant.  No floating point anywhere.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class IntMatrix:
    """Immutable matrix with arbitrary-precision integer entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        data = tuple(tuple(self._as_int(e) for e in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", data)

    @staticmethod
    def _as_int(e) -> int:
        if isinstance(e, bool) or not isinstance(e, int):
            raise ValueError(f"entries must be integers, got {e!r}")
        return e

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    # -- shape ------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]})"

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, n_rows: int, n_cols: int) -> "IntMatrix":
        return cls([[0] * n_cols for _ in range(n_rows)])

    # -- algebra ----------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("dimension mismatch in product")
        cols = tuple(zip(*other.rows))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._require_same_shape(other)
        return IntMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._require_same_shape(other)
        return IntMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-a for a in row] for row in self.rows])

    def _require_same_shape(self, other: "IntMatrix"):
        if self.n_rows != other.n_rows or self.n_cols != other.n_cols:
            raise ValueError("shape mismatch")

    def transpose(self) -> "IntMatrix":
        return IntMatrix([list(col) for col in zip(*self.rows)])

    def apply(self, vec: Sequence[int]) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.n_cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.rows)

    def minus_identity(self) -> "IntMatrix":
        if not self.is_square:
            raise ValueError("matrix must be square")
        return self - IntMatrix.identity(self.n_rows)

    # -- exact linear algebra ----------------------------------------------

    def _echelon(self) -> tuple:
        """Bareiss (fraction-free) row echelon pass over a copy of the rows.

        Returns (rank, sign, pivot): the rank, the sign of the row swaps and
        the last pivot.  Columns without a pivot are skipped.  Every entry
        below the pivot rows stays a minor of the input, so each division is
        exact, and for a square matrix of full rank sign * pivot is the
        determinant.
        """
        m = [list(row) for row in self.rows]
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

    def det(self) -> int:
        """Exact determinant by fraction-free elimination."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        rank, sign, pivot = self._echelon()
        return sign * pivot if rank == self.n_rows else 0

    def rank(self) -> int:
        """Rank over the rationals, from the same elimination as det()."""
        return self._echelon()[0]

    def nullity(self) -> int:
        return self.n_cols - self.rank()

    def to_lists(self) -> list:
        return [list(row) for row in self.rows]
