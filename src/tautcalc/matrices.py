"""Exact integer matrices.

Everything downstream (twist actions, determinant tests, Betti numbers)
needs exact answers, so all arithmetic here is arbitrary-precision integer
or rational.

A matrix stores each row as a dict of its nonzero entries, column ->
entry, and never stores a zero; the dense rows are built only when a caller
asks for them.  The twist actions this package builds have O(n) nonzeros
in n x n; M - Id, products and the elimination below touch only stored
entries.

One fraction-free (Bareiss) elimination gives both the rank
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

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from .exact import is_int


@dataclass(frozen=True, init=False, repr=False)
class IntMatrix:
    """Immutable matrix with arbitrary-precision integer entries.

    `nonzeros` holds one dict per row, column -> entry, with no zero entry
    ever stored; treat it as read-only.  `rows` is the dense view, built on
    each access.
    """

    nonzeros: Tuple[dict, ...]
    n_cols: int

    def __init__(self, rows: Iterable[Sequence[int]]):
        data = tuple(map(tuple, rows))
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(data[0])
        nonzeros = []
        for row in data:
            if len(row) != width:
                raise ValueError("ragged rows")
            line = {}
            for j, e in enumerate(row):
                if not is_int(e):
                    raise ValueError(f"entries must be integers, got {e!r}")
                if e:
                    line[j] = e
            nonzeros.append(line)
        object.__setattr__(self, "nonzeros", tuple(nonzeros))
        object.__setattr__(self, "n_cols", width)

    @classmethod
    def _from_nonzeros(cls, rows: Sequence[dict], n_cols: int) -> "IntMatrix":
        """Wrap dicts of nonzero int entries that the caller built and hands
        over; nothing is copied or checked."""
        m = object.__new__(cls)
        object.__setattr__(m, "nonzeros", tuple(rows))
        object.__setattr__(m, "n_cols", n_cols)
        return m

    # -- shape ------------------------------------------------------------

    @property
    def rows(self) -> tuple:
        n, dense = self.n_cols, []
        for row in self.nonzeros:
            line = [0] * n
            for j, v in row.items():
                line[j] = v
            dense.append(tuple(line))
        return tuple(dense)

    @property
    def n_rows(self) -> int:
        return len(self.nonzeros)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    # written out, since the rows are dicts and cannot be hashed
    def __hash__(self):
        return hash((self.n_cols, tuple(frozenset(row.items()) for row in self.nonzeros)))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]})"

    # -- algebra ----------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n_cols != other.n_rows:
            raise ValueError("dimension mismatch in product")
        out = []
        for row in self.nonzeros:
            acc = {}
            for k, a in row.items():
                for j, b in other.nonzeros[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out.append({j: v for j, v in acc.items() if v})
        return IntMatrix._from_nonzeros(out, other.n_cols)

    def minus_identity(self) -> "IntMatrix":
        if not self.is_square:
            raise ValueError("matrix must be square")
        out = []
        for i, row in enumerate(self.nonzeros):
            row = dict(row)
            v = row.get(i, 0) - 1
            if v:
                row[i] = v
            else:
                del row[i]
            out.append(row)
        return IntMatrix._from_nonzeros(out, self.n_cols)

    # -- exact linear algebra ----------------------------------------------

    def _echelon(self) -> tuple:
        """Sparse Bareiss (fraction-free) elimination over a copy of the
        stored row dicts.

        Returns (rank, det): the number of pivots, and the signed
        determinant, which is 0 unless the matrix is square and of full rank.
        Then every row became a pivot, and the determinant is the last pivot
        times the sign of the order in which the rows did.

        Each row is a copy of its stored dict, and `holders[c]` is the set of
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
        rows = list(map(dict, self.nonzeros))
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
        rank = len(order)
        if not rank == n_rows == n_cols:
            return rank, 0
        # the sign of the order: each swap puts one row in its place
        sign = 1
        for i in range(rank):
            while order[i] != i:
                j = order[i]
                order[i], order[j] = order[j], j
                sign = -sign
        return rank, sign * P[-1]

    def det(self) -> int:
        """Exact determinant, from the one elimination."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        return self._echelon()[1]

    def rank(self) -> int:
        """Rank over the rationals, from the one elimination."""
        return self._echelon()[0]
