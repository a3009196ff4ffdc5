"""Exact linear algebra over the rationals.

Matrices are lists of row lists with Fraction (or int) entries, carried
together with an explicit shape so that 0 x n and n x 0 matrices behave.
Everything here is exact; no floating point.
"""

from __future__ import annotations

from fractions import Fraction


class Mat:
    """Dense rational matrix with explicit shape (rows may be empty)."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            rows = [[Fraction(0)] * ncols for _ in range(nrows)]
        else:
            rows = [[Fraction(x) for x in r] for r in rows]
            assert len(rows) == nrows and all(len(r) == ncols for r in rows)
        self.rows = rows

    def copy(self):
        return Mat(self.nrows, self.ncols, [r[:] for r in self.rows])

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols}, {self.rows})"

    def transpose(self):
        out = Mat(self.ncols, self.nrows)
        for i in range(self.nrows):
            for j in range(self.ncols):
                out.rows[j][i] = self.rows[i][j]
        return out


def _echelon(rows, ncols):
    """In-place row echelon form; returns list of pivot column indices."""
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / Fraction(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(m: Mat) -> int:
    if m.nrows == 0 or m.ncols == 0:
        return 0
    rows = [r[:] for r in m.rows]
    return len(_echelon(rows, m.ncols))


def nullspace(m: Mat):
    """Basis (list of column vectors) of the right kernel of m."""
    if m.ncols == 0:
        return []
    rows = [r[:] for r in m.rows]
    pivots = _echelon(rows, m.ncols) if m.nrows else []
    pivset = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [Fraction(0)] * m.ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def left_nullspace(m: Mat):
    """Basis of row vectors y with y*m = 0."""
    return nullspace(m.transpose())


def det(m: Mat) -> Fraction:
    assert m.nrows == m.ncols
    n = m.nrows
    if n == 0:
        return Fraction(1)
    rows = [r[:] for r in m.rows]
    sign = 1
    d = Fraction(1)
    for c in range(n):
        piv = None
        for i in range(c, n):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        d *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return d * sign
