"""Dense exact linear algebra over the integers and the rationals.

`_bareiss` is the only elimination loop that rank and solve use:
fraction-free (Bareiss) elimination on lists of Python ints, with partial
pivoting on magnitude, so intermediate entries stay minors of the input
instead of growing freely.  A row with a zero entry in the pivot column
is not rewritten at that step; the scale Bareiss would have given it is
applied when the row is next used, so sparse rows cost only the steps
that change them.  The index oracle calls `integer_rank` directly
on integer evaluations.  `ExactMatrix` keeps int entries as ints;
`ExactMatrix.rank` and `ExactMatrix.solve` rescale each row to integers
and run the same loop, and solve back-substitutes in Fraction.  Every
result is exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def _bareiss(m, ncols):
    """Eliminate the int rows `m` in place; return the pivot columns.

    Fraction-free elimination (Bareiss 1968): every entry after a step is
    a minor of the input, so each division is exact on integer input; a
    nonzero remainder raises ArithmeticError.  On return the first
    len(pivots) rows are in row echelon form, row k leading at pivots[k],
    and the rows below are zero.  The pivot columns are those of the
    reduced row echelon form, whatever rows the pivoting picks.

    A row whose entry in the pivot column is zero is left untouched.
    Bareiss would multiply it by lead/prev at that step; over the steps it
    sits out these factors telescope to prev/base[i], where base[i] is
    the `prev` at which row i was last written (1 at the start).  So a
    stored row is the Bareiss row divided by prev/base[i]: still a minor
    of the input, and zero exactly where the Bareiss row is.  The pivot
    row is brought up to date before it is used, and a row with a nonzero
    head is rewritten with base[i] as the divisor.
    """
    nr = len(m)
    base = [1] * nr
    pivots = []
    row = 0
    prev = 1
    for col in range(ncols):
        if row == nr:
            break
        piv = -1
        best = 0
        for i in range(row, nr):
            a = abs(m[i][col])
            if a > best:
                best, piv = a, i
        if piv < 0:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            base[row], base[piv] = base[piv], base[row]
        rr = m[row]
        if base[row] != prev:
            old = base[row]
            for j in range(col, ncols):
                q, r = divmod(rr[j] * prev, old)
                if r:
                    raise ArithmeticError("fraction-free step not exact")
                rr[j] = q
        lead = rr[col]
        for i in range(row + 1, nr):
            ri = m[i]
            head = ri[col]
            if not head:
                continue
            old = base[i]
            for j in range(col + 1, ncols):
                # exact by Sylvester's identity: entries stay minors of
                # the original matrix
                q, r = divmod(ri[j] * lead - head * rr[j], old)
                if r:
                    raise ArithmeticError("fraction-free step not exact")
                ri[j] = q
            ri[col] = 0
            base[i] = lead
        prev = lead
        pivots.append(col)
        row += 1
    return pivots


def integer_rank(rows, ncols):
    """Exact rank of an integer matrix given as a list of rows of ints.

    The rows are not modified.
    """
    return len(_bareiss([list(row) for row in rows], ncols))


# entry types ExactMatrix keeps as they are; anything else goes through Fraction
_EXACT = (int, Fraction)


def _integer_row(row):
    """The row scaled by the lcm of its Fraction denominators, as ints."""
    scale = 1
    for x in row:
        if type(x) is not int:
            scale = lcm(scale, x.denominator)
    return [
        x * scale if type(x) is int else x.numerator * (scale // x.denominator)
        for x in row
    ]


class ExactMatrix:
    """A dense exact matrix of ints and Fractions with rank and solve.

    int and Fraction entries are kept as they are; anything else goes
    through Fraction.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, ncols=None):
        self.rows = [
            [x if isinstance(x, _EXACT) else Fraction(x) for x in row] for row in rows
        ]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged rows")
        else:
            self.ncols = int(ncols or 0)

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"ExactMatrix({self.nrows}x{self.ncols}: {body})"

    def integer_rows(self):
        """Copy of the rows with each row scaled by the lcm of its denominators."""
        return [_integer_row(row) for row in self.rows]

    def rank(self):
        return integer_rank(self.integer_rows(), self.ncols)

    def solve(self, rhs):
        """One exact solution of A x = rhs, or None when inconsistent.

        The augmented rows are scaled to ints and eliminated by the same
        Bareiss loop as `rank`; the system is inconsistent exactly when
        the rhs column is a pivot.  Back-substitution runs in Fraction
        with free variables set to zero, so the solution is the one the
        reduced row echelon form gives.
        """
        if len(rhs) != self.nrows:
            raise ValueError("rhs length mismatch")
        n = self.ncols
        if self.nrows == 0:
            return [Fraction(0)] * n
        m = [
            _integer_row(row + [b if isinstance(b, _EXACT) else Fraction(b)])
            for row, b in zip(self.rows, rhs)
        ]
        pivots = _bareiss(m, n + 1)
        if pivots and pivots[-1] == n:
            return None
        x = [Fraction(0)] * n
        for k in reversed(range(len(pivots))):
            c = pivots[k]
            row = m[k]
            acc = Fraction(row[n])
            for j in pivots[k + 1:]:
                if row[j]:
                    acc -= row[j] * x[j]
            x[c] = acc / row[c]
        return x
