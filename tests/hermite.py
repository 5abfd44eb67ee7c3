"""Reference Hermite normal form over the integers, for the tests only.

No engine path runs this: the subgroup accumulators in
``entropy_lab.groups`` build canonical bases themselves, and the tests
compare them with a from-scratch Hermite form computed here. It follows the
same convention:

* nonzero rows come first, in echelon order (zero rows sink to the bottom),
* every pivot is positive,
* entries above a pivot are reduced into ``[0, pivot)``.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

__all__ = ["IntMatrix", "hermite_form", "hermite_rows", "sparse_view", "subgroup_form"]


def _coerce_int(e) -> int:
    # operator.index rejects floats; exactness is non-negotiable here
    return operator.index(e)


class IntMatrix:
    """Immutable dense integer matrix, row-major, arbitrary precision."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        rows = operator.index(rows)
        cols = operator.index(cols)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        ents = tuple(_coerce_int(e) for e in entries)
        if len(ents) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(ents)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ents)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[t] * other.entries[t * other.cols + j] for t in range(self.cols)))
        return IntMatrix(self.rows, other.cols, out)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, [self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_rows()!r})"


def _row_sub(rows: list[list[int]], i: int, j: int, q: int) -> None:
    """rows[i] -= q * rows[j]."""
    ri, rj = rows[i], rows[j]
    for t in range(len(ri)):
        ri[t] -= q * rj[t]


def hermite_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns ``(h, u)`` where ``u`` is unimodular and ``h == u @ m``. ``h``
    follows the package convention: echelon row order, positive pivots,
    entries above each pivot reduced into ``[0, pivot)``.
    """
    work = m.to_rows()
    trans = IntMatrix.identity(m.rows).to_rows()
    hermite_rows(work, m.cols, trans)
    return IntMatrix.from_rows(work) if work else IntMatrix(0, m.cols, []), IntMatrix.from_rows(trans) if trans else IntMatrix(0, 0, [])


def hermite_rows(work: list[list[int]], ncols: int, *companions: list[list[int]]) -> None:
    """Bring the rows of ``work`` into the Hermite form of :func:`hermite_form`, in place.

    Every row operation is applied to each companion too, so a companion
    that starts as the identity ends as the transform.
    """
    nrows = len(work)
    mats = (work, *companions)
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == nrows:
            break
        while True:
            live = [i for i in range(pivot_row, nrows) if work[i][col]]
            if not live:
                break
            best = min(live, key=lambda i: abs(work[i][col]))
            if best != pivot_row:
                for t in mats:
                    t[pivot_row], t[best] = t[best], t[pivot_row]
            if work[pivot_row][col] < 0:
                for t in mats:
                    t[pivot_row] = [-e for e in t[pivot_row]]
            p = work[pivot_row][col]
            clean = True
            for i in range(pivot_row + 1, nrows):
                if work[i][col]:
                    q = work[i][col] // p
                    if q:
                        for t in mats:
                            _row_sub(t, i, pivot_row, q)
                    if work[i][col]:
                        clean = False
            if clean:
                break
        if work[pivot_row][col] == 0:
            continue
        p = work[pivot_row][col]
        for i in range(pivot_row):
            q = work[i][col] // p
            if q:
                for t in mats:
                    _row_sub(t, i, pivot_row, q)
        pivot_row += 1


def sparse_view(rows: Iterable[Sequence[int]]) -> tuple:
    """Dense echelon rows in the package's canonical layout: ``((j, row from column j on), ...)``.

    ``j`` is each row's pivot column; zero rows are dropped.
    """
    out = []
    for r in rows:
        j = next((c for c, e in enumerate(r) if e), None)
        if j is not None:
            out.append((j, tuple(r[j:])))
    return tuple(out)


def subgroup_form(ambient, vectors) -> tuple[tuple, int]:
    """``(basis, den)`` of the subgroup that ``vectors`` generate, in the package's canonical layout.

    Torsion vectors (an ambient with a ``modulus`` ``m``) are lifted densely and
    joined with ``m * I``; rows of pivot ``m`` are dropped, and each other row
    runs from its pivot to its last nonzero entry. Rational vectors are cleared
    to their common denominator, which the rows' gcd then divides out; each row
    runs from its pivot to the last coordinate.
    """
    m = getattr(ambient, "modulus", 0)
    if m:
        w = max((x.data[-1][0] + 1 for x in vectors if x.data), default=0)
        rows = [[dict(x.data).get(j, 0) for j in range(w)] for x in vectors]
        rows += [[m if i == j else 0 for j in range(w)] for i in range(w)]
        hermite_rows(rows, w)
        kept = [row[: max(t for t, e in enumerate(row) if e) + 1] for j, row in enumerate(rows[:w]) if row[j] != m]
        return sparse_view(kept), 1
    den = math.lcm(1, *(v.denominator for x in vectors for v in x.data))
    rows = [[int(v * den) for v in x.data] for x in vectors]
    hermite_rows(rows, ambient.rank)
    g = math.gcd(den, *(e for r in rows for e in r))
    return sparse_view([e // g for e in r] for r in rows), den // g
