"""Dense exact linear algebra over the integers.

`_bareiss` is the only elimination loop that rank and solve use:
fraction-free (Bareiss) elimination on lists of Python ints, with partial
pivoting on magnitude, so intermediate entries stay minors of the input
instead of growing freely.  A row with a zero entry in the pivot column
is not rewritten at that step; the scale Bareiss would have given it is
applied when the row is next used, so sparse rows cost only the steps
that change them.  Matrices are plain lists of rows.  The index oracle
and the reduction replay call `integer_rank` on int rows; it eliminates
the shorter side, the transpose of a matrix with more rows than columns.
`solve` takes int rows and an int right-hand side, runs the same loop
once, and reads the rank off the same pivots it back-substitutes from.
Back-substitution is fraction-free too: it finds y = D*x in ints, D the
last pivot, with one exact division per pivot (Nakos, Turner and
Williams 1997), and the only Fractions built are the distinct entries
y_j / D of x, one each.  Every result is exact.
"""

from __future__ import annotations

from fractions import Fraction


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
            a = m[i][col]
            if a and abs(a) > best:  # most entries are 0: skip their abs
                best, piv = abs(a), i
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

    rank A = rank A^T, so the elimination runs on whichever orientation
    has fewer rows: a taller than wide matrix is eliminated as its
    transpose.  The rows are not modified.
    """
    if len(rows) > ncols:
        return len(_bareiss([list(col) for col in zip(*rows)], len(rows)))
    return len(_bareiss([list(row) for row in rows], ncols))


def solve(rows, rhs, ncols):
    """(rank, x): the rank of A and one exact solution of A x = rhs.

    A is given as rows of ints and rhs as ints.  The augmented rows are
    eliminated once; the rank is the number of pivots left of the rhs
    column, and x is None exactly when the rhs column is a pivot (the
    system is inconsistent).  Free variables are set to zero, so x is the
    solution the reduced row echelon form gives.

    Back-substitution stays in ints.  Pivot row k of `_bareiss` is a
    nonzero multiple of the echelon row, so U x = c, c the rhs column,
    has the same solutions.  Let D be the last pivot, the minor on the
    pivot rows and columns.  By Cramer's rule y = D*x is an integer
    vector, and from the last pivot row up

        y[p_k] = (D*c_k - sum_{j>k} U[k][p_j] * y[p_j]) / U[k][p_k]

    divides exactly; a nonzero remainder raises ArithmeticError.  Each
    distinct entry of y then becomes one Fraction(y_j, D), shared by the
    entries of x that equal it.
    """
    if len(rhs) != len(rows):
        raise ValueError("rhs length mismatch")
    m = [[*row, b] for row, b in zip(rows, rhs)]
    pivots = _bareiss(m, ncols + 1)
    rank = len(pivots)
    if pivots and pivots[-1] == ncols:
        return rank - 1, None
    D = m[rank - 1][pivots[-1]] if pivots else 1
    y = [0] * ncols
    for k in reversed(range(rank)):
        row = m[k]
        acc = D * row[ncols]
        for j in pivots[k + 1:]:
            if row[j]:
                acc -= row[j] * y[j]
        q, r = divmod(acc, row[pivots[k]])
        if r:
            raise ArithmeticError("fraction-free back-substitution not exact")
        y[pivots[k]] = q
    fractions = {v: Fraction(v, D) for v in set(y)}
    return rank, [fractions[v] for v in y]
