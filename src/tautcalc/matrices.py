"""Exact integer matrices.

Everything downstream (twist actions, determinant tests, Betti numbers)
needs exact answers, so all arithmetic here is arbitrary-precision integer
or rational.  One fraction-free (Bareiss) elimination gives both the rank
and the determinant.  It is sparse: each pivot rewrites only the rows with
a nonzero in its column, so on the banded twist actions M - Id it does
about O(n) row updates, not O(n^3) entry updates.  Every other row keeps a
lazy scale (its true entries are the stored ones times the latest pivot
over the pivot of the step that last rewrote it), and a rewritten row
divides by its own last pivot.  Every stored entry is then a minor of the
input, so every division is exact and entries grow no larger than those
minors.  No floating point anywhere.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable matrix with arbitrary-precision integer entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        data = tuple(map(tuple, rows))
        # one C-level pass over the entry types; the per-entry check only
        # runs to name the offending entry or to admit an int subclass
        if not {*map(type, chain.from_iterable(data))} <= {int}:
            for e in chain.from_iterable(data):
                self._as_int(e)
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
        return IntMatrix([[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(self.rows)])

    # -- exact linear algebra ----------------------------------------------

    def _echelon(self) -> tuple:
        """Sparse Bareiss (fraction-free) elimination over a copy of the rows.

        Returns (rank, sign, pivot): the rank, the sign of the order in which
        rows became pivots, and the last pivot.  For a square matrix of full
        rank sign * pivot is the determinant.

        Each row is a dict of its nonzeros, and `holders[c]` is the set of
        rows not yet used as a pivot that have a nonzero in column c.  Columns
        are taken in order; a column no such row reaches is skipped.  At
        column c the pivot is the row of `holders[c]` with the fewest
        nonzeros, the lowest index on ties (Markowitz), and only the other
        rows of `holders[c]` are rewritten.

        Lazy scale: P[k] is the pivot of step k, P[0] = 1, and last[i] is the
        step at which row i was last rewritten.  Bareiss step k multiplies a
        row that is zero in the pivot column by P[k] / P[k-1], so after an
        untouched stretch the true row is stored * P[now] / P[last[i]], by
        telescoping, and nothing is stored for it.  Substituting that into
        the Bareiss update of row i at step k gives

            new[j] = (piv * v[j] - v[c] * prow[j]) // P[last[i]]

        with v the stored row and prow the pivot row scaled to step k - 1.
        The result is the true entry, a minor of the input (Sylvester's
        identity), so the division by the row's own last pivot is exact; the
        latest pivot would not divide it.
        """
        n_rows, n_cols = self.n_rows, self.n_cols
        rows = [dict(zip(compress(range(n_cols), row), filter(None, row))) for row in self.rows]
        holders = [set() for _ in range(n_cols)]
        for i, row in enumerate(rows):
            for j in row:
                holders[j].add(i)
        P = [1]
        last = [0] * n_rows
        order = []
        for c in range(n_cols):
            if not holders[c]:
                continue
            r = min(holders[c], key=lambda i: (len(rows[i]), i))
            prev, scale = P[-1], P[last[r]]
            prow = rows[r]
            if scale != prev:
                prow = {j: v * prev // scale for j, v in prow.items()}
            for j in prow:
                holders[j].discard(r)
            piv = prow.pop(c)  # rows[r] is never read again
            step = len(P)
            for i in holders[c]:
                row = rows[i]
                f = row.pop(c)
                div = P[last[i]]
                new = {j: v * piv for j, v in row.items()}
                for j, pv in prow.items():
                    if j in new:
                        new[j] -= f * pv
                    else:
                        new[j] = -f * pv
                        holders[j].add(i)
                for j, v in new.items():
                    if v:
                        row[j] = v // div
                    else:
                        row.pop(j, None)
                        holders[j].discard(i)
                last[i] = step
            holders[c] = ()
            P.append(piv)
            order.append(r)
            if len(order) == n_rows:
                break
        return len(order), _order_sign(order, n_rows), P[-1]

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


def _order_sign(order: list, n: int) -> int:
    """Sign of the permutation of range(n) that lists `order` first and the
    other rows after it in increasing order: (-1) ** (n - number of cycles)."""
    seen = set(order)
    perm = order + [i for i in range(n) if i not in seen]
    visited = [False] * n
    cycles = 0
    for start in range(n):
        if not visited[start]:
            cycles += 1
            i = start
            while not visited[i]:
                visited[i] = True
                i = perm[i]
    return -1 if (n - cycles) % 2 else 1
