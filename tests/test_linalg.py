import inspect
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieposet import integer_rank, linalg
from lieposet.linalg import _bareiss, solve


def naive_rank(rows):
    """Textbook Gaussian elimination over Fraction, as an independent oracle."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank][col]
        m[rank] = [x / lead for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def integral(rows, rhs):
    """rows and rhs times the lcm of all their denominators, as ints: the
    same rank and the same solutions, in the only input `solve` takes."""
    scale = lcm(1, *(Fraction(v).denominator for row in [*rows, rhs] for v in row))
    return [[int(v * scale) for v in row] for row in rows], [int(v * scale) for v in rhs]


def test_rank_fixed_cases():
    for rows, ncols, rank in (
        ([[1, 2], [2, 4]], 2, 1),
        ([[0, 2], [-2, 0]], 2, 2),
        ([[0, 0], [0, 0]], 2, 0),
        ([], 3, 0),
    ):
        assert integer_rank(rows, ncols) == rank
        assert solve(rows, [0] * len(rows), ncols)[0] == rank
    assert solve([[3, 2], [3, 2]], [0, 0], 2)[0] == 1
    assert solve([], [], 3) == (0, [0, 0, 0])


def test_kernel_and_solve():
    A = [[1, 2, 3], [4, 5, 6]]
    rank, x = solve(A, [6, 15], 3)
    assert rank == 2 and x is not None
    assert [sum(r[j] * x[j] for j in range(3)) for r in A] == [6, 15]
    # rank 2 in 2 rows: every rhs is consistent
    rank, y = solve(A, [1, 0], 3)
    assert rank == 2 and y is not None
    assert [sum(r[j] * y[j] for j in range(3)) for r in A] == [1, 0]


def test_solve_inconsistent():
    # the rhs column is a pivot; the rank counts only the columns of A
    assert solve([[1, 1], [1, 1]], [0, 1], 2) == (1, None)


def test_solve_rejects_rhs_of_wrong_length():
    with pytest.raises(ValueError, match="rhs length mismatch"):
        solve([[1, 0], [0, 1]], [1], 2)


def test_solve_unique():
    assert solve([[0, 2], [-2, 0]], [2, -1], 2) == (2, [Fraction(1, 2), Fraction(1)])


def test_int_matrices_never_give_floats():
    # int / int is a float in Python: solve must divide in Fraction even
    # when every entry of the matrix is an int
    for rows in ([[2, 1], [4, 3]], [[2, 4], [1, 2]]):
        values = solve(rows, [1, 2], 2)[1] or []
        values += solve(rows, [3, 1], 2)[1] or []
        # consistent for both, so the singular matrix also gives a solution
        values += solve(rows, [2, 1], 2)[1]
        assert values
        assert all(type(x) in (int, Fraction) for x in values), values


fractions = st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 5)
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_rank_matches_naive_elimination(nr, nc, data):
    rows = [
        [data.draw(fractions) for _ in range(nc)] for _ in range(nr)
    ]
    assert solve(*integral(rows, [0] * nr), nc)[0] == naive_rank(rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 6), st.data())
def test_integer_rank_matches_rref_pivots(nr, nc, inner, data):
    # a product through `inner` columns has rank <= inner: rank deficient
    # whenever inner < min(nr, nc)
    ints = st.integers(-20, 20)
    left = [[data.draw(ints) for _ in range(inner)] for _ in range(nr)]
    right = [[data.draw(ints) for _ in range(nc)] for _ in range(inner)]
    rows = [
        [sum(left[i][k] * right[k][j] for k in range(inner)) for j in range(nc)]
        for i in range(nr)
    ]
    copy = [row[:] for row in rows]
    rank = integer_rank(rows, nc)
    assert rows == copy
    assert rank == naive_rank(rows)
    assert rank <= min(inner, nr, nc)



def reference_solve(rows, rhs, ncols):
    """Fraction Gauss-Jordan solve with free variables 0, or None when
    inconsistent; independent of linalg."""
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    for col in range(ncols + 1):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        lead = m[r][col]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = m[r][ncols]
    return x


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 6),
    st.booleans(),
    st.booleans(),
    st.data(),
)
def test_solve_matches_reference_solve(nr, nc, inner, use_fractions, consistent, data):
    # a product through `inner` columns has rank <= inner: rank deficient
    # whenever inner < min(nr, nc), so inconsistent rhs occur often
    entries = fractions if use_fractions else st.integers(-9, 9)
    left = [[data.draw(entries) for _ in range(inner)] for _ in range(nr)]
    right = [[data.draw(st.integers(-9, 9)) for _ in range(nc)] for _ in range(inner)]
    rows = [
        [sum((left[i][k] * right[k][j] for k in range(inner)), 0) for j in range(nc)]
        for i in range(nr)
    ]
    if consistent:
        y = [data.draw(fractions) for _ in range(nc)]
        rhs = [sum((r[j] * y[j] for j in range(nc)), 0) for r in rows]
    else:
        rhs = [data.draw(entries) for _ in range(nr)]
    expected = reference_solve(rows, rhs, nc)
    rank, x = solve(*integral(rows, rhs), nc)
    assert x == expected
    assert rank == naive_rank(rows)
    if consistent:
        assert x is not None
    if x is not None:
        assert all(type(v) is Fraction for v in x)
        assert [sum(r[j] * x[j] for j in range(nc)) for r in rows] == rhs


# (rows, rhs, ncols).  The last pivot D is 5 on full_rank and -7 on
# negative_last_pivot; on diagonal, D = 4 shares a factor with every
# entry of D*x, so each Fraction(y_j, D) must reduce.
SOLVE_CASES = {
    "full_rank": ([[2, 1], [1, 3]], [1, 0], 2),
    "negative_last_pivot": ([[-3, 1], [1, 2]], [1, 1], 2),
    "diagonal": ([[2, 0], [0, 2]], [2, 1], 2),
    "singular": ([[1, 2, 3], [2, 4, 6], [0, 1, 1]], [1, 2, 3], 3),
    "skew_singular": ([[0, 1, 0], [-1, 0, 2], [0, -2, 0]], [1, 0, -2], 3),
    "inconsistent": ([[1, 1], [1, 1]], [0, 1], 2),
    "inconsistent_skew": ([[0, 1, 0], [-1, 0, 2], [0, -2, 0]], [1, 0, 2], 3),
}


@pytest.mark.parametrize("name", sorted(SOLVE_CASES))
def test_solution_entries_are_normalized_fractions(name):
    rows, rhs, ncols = SOLVE_CASES[name]
    expected = reference_solve(rows, rhs, ncols)
    rank, x = solve(rows, rhs, ncols)
    assert rank == naive_rank(rows)
    assert (x is None) == name.startswith("inconsistent")
    assert x == expected
    for v in x or ():
        assert type(v) is Fraction
        assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1


def test_tampered_pivot_row_raises(monkeypatch):
    # y = D*x is back-substituted with one exact division per pivot: an
    # entry of a pivot row off by one after elimination (the coefficient
    # of x_1 in row 0, 1 -> 2) leaves 7 / 2 in the first step, which
    # must raise rather than give a wrong x
    rows, rhs = SOLVE_CASES["full_rank"][:2]
    assert solve(rows, rhs, 2) == (2, [Fraction(3, 5), Fraction(-1, 5)])
    true_bareiss = linalg._bareiss

    def tampered(m, ncols):
        pivots = true_bareiss(m, ncols)
        m[0][pivots[1]] += 1
        return pivots

    monkeypatch.setattr(linalg, "_bareiss", tampered)
    with pytest.raises(ArithmeticError, match="back-substitution not exact"):
        solve(rows, rhs, 2)


def _bareiss_raise_lines():
    """Line numbers of the two exactness raises of `_bareiss`, in order."""
    lines, first = inspect.getsourcelines(_bareiss)
    return [first + k for k, line in enumerate(lines) if "raise ArithmeticError" in line]


@pytest.mark.parametrize(
    "rows, which",
    [
        # row 1 sits out column 0 (pivot 2), then leads column 1 and is
        # brought up to date: 2 * 1/3 is no integer
        ([[2, 0], [0, Fraction(1, 3)]], 0),
        # row 1 is eliminated against row 0: 1/2 - 1 is no integer
        ([[1, 1], [1, Fraction(1, 2)]], 1),
    ],
    ids=["pivot-row-update", "elimination"],
)
def test_fraction_entry_breaks_the_fraction_free_step(rows, which):
    # the loop takes int rows; a Fraction entry leaves a remainder in the
    # exact division, which must raise rather than truncate
    with pytest.raises(ArithmeticError, match="fraction-free step not exact") as info:
        _bareiss([list(row) for row in rows], 2)
    assert info.traceback[-1].lineno + 1 == _bareiss_raise_lines()[which]


def reference_det(rows):
    """Determinant by Fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def assert_pivot_rows_are_minors(rows, ncols):
    """Check _bareiss against the determinants its entries must equal.

    Pivot row k, entry j, is the minor of the input on the first k + 1
    pivot rows and the columns pivots[:k] + [j]; the rows below the
    pivot rows are zero.
    """
    m = [list(row) for row in rows]
    # _bareiss swaps the row lists themselves, so each pivot row can be
    # traced back to the input row it came from
    source = {id(row): i for i, row in enumerate(m)}
    pivots = _bareiss(m, ncols)
    picked = [rows[source[id(m[k])]] for k in range(len(pivots))]
    for k, p in enumerate(pivots):
        assert not any(m[k][:p])
        for j in range(p, ncols):
            cols = pivots[:k] + [j]
            minor = [[row[c] for c in cols] for row in picked[: k + 1]]
            assert m[k][j] == reference_det(minor)
    assert not any(x for row in m[len(pivots):] for x in row)


nonzero_ints = st.integers(-9, 9).filter(bool)
nonzero_fractions = st.builds(Fraction, nonzero_ints, st.integers(1, 5))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(10, 35),
    st.booleans(),
    st.booleans(),
    st.data(),
)
def test_sparse_rank_and_solve_match_reference(
    nr, nc, density, use_fractions, consistent, data
):
    # with 10-35% nonzeros most rows have a zero head at most steps, so
    # they sit out several steps before they are eliminated or become
    # the pivot row; a zero row sits out every step
    entries = nonzero_fractions if use_fractions else nonzero_ints

    def sparse_row(length):
        return [
            data.draw(entries) if data.draw(st.integers(0, 99)) < density else 0
            for _ in range(length)
        ]

    rows = [sparse_row(nc) for _ in range(nr)]
    zero = data.draw(st.integers(0, nr))
    if zero < nr:
        rows[zero] = [0] * nc
    scaled, zeros = integral(rows, [0] * nr)
    assert integer_rank(scaled, nc) == solve(scaled, zeros, nc)[0] == naive_rank(rows)
    assert_pivot_rows_are_minors(scaled, nc)
    if consistent:
        y = sparse_row(nc)
        rhs = [sum((r[j] * y[j] for j in range(nc)), 0) for r in rows]
    else:
        rhs = sparse_row(nr)
    expected = reference_solve(rows, rhs, nc)
    assert solve(*integral(rows, rhs), nc) == (naive_rank(rows), expected)
    if consistent:
        assert expected is not None
