"""Bases and matrix realizations of Lie poset algebras.

Each poset determines a subalgebra between the diagonal and the
upper-triangular matrices of its classical family.  Basis elements carry
symbolic kinds:

    H(i)    E(-i,-i) - E(i,i)                    families B, C, D
    X(i,j)  E(-i,-j) - E(j,i)      with j < i    families B, C, D
    Y(i,j)  E(-i,j) + E(-j,i)      with i < j    family C
    Y(i,j)  E(-i,j) - E(-j,i)      with j < i    families B, D
    Z(i)    E(-i,i)                              family C
    U(j)    E(-j,0) - E(0,j)                     family B
    DA(i)   E(i,i) - E(i+1,i+1)                  family A
    EA(i,j) E(i,j)                 with i < j    family A

Brackets are computed on the sparse realizations and decomposed back
into the elements of their family by one triangular pass, `decompose`:
each realization leads with a position that no later element of its
family touches, so reading coefficients there in basis order and
subtracting is exact, and any nonzero remainder raises NotInSpan.

A sparse matrix is a plain dict {(row, col): value} keyed by signed
labels.  It stores no zero entries, and its values are ints or Fractions;
every function here that builds one keeps both rules.  `commutator` sums
A*B - B*A in one pass over the pairs of entries of A and B.

Every poset of (family, n) is contained in the Borel poset of (family,
n).  `_borel_basis` sorts the Borel basis once per (family, n) and keeps
each element's leading position; `build_basis` filters it to the
elements led at a relation of P, so every basis is a subsequence of the
Borel basis, in the same order, by construction, and building one
brackets nothing.  A bracket does not depend on the poset: each basis
element is a fixed signed matrix.  So the table of P is the Borel table
restricted to the basis of P and re-indexed (the slice lemma).
`_borel_rows` brackets the pairs of the Borel basis once per (family,
n), and only those where a column of one realization is a row of the
other (A*B is zero otherwise).  A bracket of positive roots is a
multiple of one root vector, and the realizations have entries +-1, so
each Borel cell holds one int term; that is checked there, once, and it
is why a cell of a per-poset table is one (k, c) pair.
`structure_constants` only slices: a term outside the basis of P raises
NotInSpan.  The Borel bases and rows each sit in an lru_cache of 32
(family, n) pairs; the rows of the 22 sizes C6..C14, D6..D12 and
B5..B10 hold 14,239 cells in 1.4 MB (tracemalloc).  The per-poset
tables sit in a cache of 256.  On C:4,D:4,B:3 it serves 1,837 of 3,112
lookups: 1,712 are one poset's checks reading its table again, 28 are
component subposets that recur across posets, and 22 and 75 are tables
that `verify_B_reduction` and `verify_CD_isomorphism` find still cached.

The pair (basis, table) is the one representation of the brackets of P:
the commutator matrix ([x_i, x_j]) is the table read skew, and
`evaluate` fills it at a point for the index oracle and the Kirillov
form alike.  `_h_block` is the table's shape test that both read first:
where the table scales diagonally it returns the H block B0, and the
matrix at any point is [[0, A], [-A^T, 0]] with A a column scaling of
B0, so neither needs the dense evaluation.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    InvariantViolation,
    NoSignRescaling,
    NotInSpan,
    TablesDiffer,
    UnsupportedPoset,
)
from .posets import SignedPoset, ground_set, induced_subposet, validate

_KIND_ORDER = {"H": 0, "X": 1, "Y": 2, "Z": 3, "U": 4, "DA": 0, "EA": 1}


class BasisElement(NamedTuple):
    family: str
    kind: str
    i: int
    j: int = 0

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.index_key()[1:])

    def index_key(self):
        """Kind plus indices, with Y keyed by its unordered pair."""
        if self.kind == "Y":
            return ("Y", min(self.i, self.j), max(self.i, self.j))
        return (self.kind, self.i, self.j)

    def __repr__(self):
        if self.kind in ("X", "Y", "EA"):
            return f"{self.kind}({self.i},{self.j})"
        return f"{self.kind}({self.i})"


def commutator(a, b):
    """a*b - b*a for sparse matrices, as a sparse matrix.

    One pass over the pairs of entries of a and b accumulates both
    products; sums that cancel to zero are dropped.  Int entries give int
    entries, and Fractions stay Fractions.
    """
    out = {}
    for (r, c), v in a.items():
        for (r2, c2), w in b.items():
            if c == r2:
                out[(r, c2)] = out.get((r, c2), 0) + v * w
            if c2 == r:
                out[(r2, c)] = out.get((r2, c), 0) - w * v
    return {key: v for key, v in out.items() if v}


def build_basis(P):
    """The canonical ordered basis of the Lie poset algebra of P.

    An element is in the basis exactly when its leading position (see
    `realize`) is a relation of P.  P lies in the Borel poset of its
    (family, n), so the basis is the Borel basis filtered to those
    elements, in Borel order; building it brackets nothing.
    """
    basis, leads, _, _ = _borel_basis(P.family, P.n)
    return tuple(b for b, lead in zip(basis, leads) if lead in P.relations)


def realize(b):
    """Sparse matrix realization of a basis element.

    Its entries are +-1, so it holds ints and no zeros.  The first entry
    is the element's leading position, with coefficient 1, and no element
    later in basis order has an entry there: the first position in each
    row of the module docstring's table (both Y orientations included).
    `decompose` reads coefficients off these positions and nowhere else.
    """
    kind, i, j = b.kind, b.i, b.j
    if kind == "H":
        return {(-i, -i): 1, (i, i): -1}
    if kind == "X":
        return {(-i, -j): 1, (j, i): -1}
    if kind == "Y":
        if b.family == "C":
            return {(-i, j): 1, (-j, i): 1}
        return {(-i, j): 1, (-j, i): -1}
    if kind == "Z":
        return {(-i, i): 1}
    if kind == "U":
        return {(-i, 0): 1, (0, i): -1}
    if kind == "DA":
        return {(i, i): 1, (i + 1, i + 1): -1}
    if kind == "EA":
        return {(i, j): 1}
    raise ValueError(f"unknown kind {kind!r}")


def _led_at(family, position, top):
    """The element of `family` whose leading position is `position`, or None.

    The inverse of the leading position of `realize`.  In family A the
    diagonal position (r, r) leads DA(r) only for r < top, the largest
    label of the matrix being decomposed: DA(r) moves what is left at
    (r, r) to (r + 1, r + 1), and a diagonal matrix on the labels up to
    top is a sum of DA(1)..DA(top - 1) exactly when its trace is 0.
    """
    r, c = position
    if family == "A":
        if r == c:
            return BasisElement("A", "DA", r) if 1 <= r < top else None
        return BasisElement("A", "EA", r, c) if 1 <= r < c else None
    if r >= 0:
        return None
    i = -r
    if c < 0:
        if c == r:
            return BasisElement(family, "H", i)
        return BasisElement(family, "X", i, -c) if r < c else None
    if c == 0:
        return BasisElement(family, "U", i) if family == "B" else None
    if c == i:
        return BasisElement(family, "Z", i) if family == "C" else None
    if (c > i) == (family == "C"):
        return BasisElement(family, "Y", i, c)
    return None


def decompose(mat, family):
    """Write a sparse matrix as a combination of elements of `family`.

    `mat` is a {(row, col): value} dict with int or Fraction values; zero
    entries in it are ignored.  Returns a tuple of (element, coefficient)
    pairs in basis order, from one triangular pass: each step takes the
    first element, in basis order, led at a position still left in the
    matrix.  No later element touches that position (see `realize`), so
    what is left there is the element's coefficient, and that multiple
    of its realization is subtracted.  A nonzero remainder raises
    NotInSpan.  Whether the elements belong to a poset's basis is for
    the caller to check.
    """
    rest = {key: v for key, v in mat.items() if v}
    top = max((max(key) for key in rest), default=0)
    combo = []
    while True:
        led = [b for key in rest if (b := _led_at(family, key, top)) is not None]
        if not led:
            break
        b = min(led, key=BasisElement.sort_key)
        entries = realize(b)
        v = rest[next(iter(entries))]
        combo.append((b, v))
        for key, w in entries.items():
            left = rest.get(key, 0) - v * w
            if left:
                rest[key] = left
            else:
                del rest[key]
    if rest:
        raise NotInSpan(f"nonzero residual {dict(sorted(rest.items()))}")
    return tuple(combo)


def _partner(family, key):
    """The lead of the one element not led at key that may have an entry
    at key, or None.

    In B, C and D a realization has entries only at its leading position
    (r, c) and at the mirror (-c, -r) of it (see `realize`), so the
    elements with an entry at key are the one led there and the one led
    at its mirror.  In A, EA(r, c) has one entry, and DA(r - 1) has its
    second one at (r, r), the lead of DA(r).  The partner need not lead
    an element of the family.
    """
    r, c = key
    if family == "A":
        return (r - 1, r - 1) if r == c else None
    return None if c == -r else (-c, -r)


@lru_cache(maxsize=32)
def _borel_basis(family, n):
    """(basis, leads, position, led) of the Borel algebra of (family, n).

    Its basis is the elements led at the pairs x <= y of the ground set:
    that of the Borel poset, which contains every poset of (family, n).
    It is sorted once, here.  leads[I] is the leading position of
    basis[I], position maps each element to its index, and led maps each
    leading position to its element; led holds the objects of leads and
    basis, so it costs one dict.
    """
    pairs = itertools.combinations_with_replacement(ground_set(family, n), 2)
    found = (_led_at(family, key, n) for key in pairs)
    basis = tuple(sorted((b for b in found if b is not None), key=BasisElement.sort_key))
    leads = tuple(next(iter(realize(b))) for b in basis)
    return basis, leads, {b: k for k, b in enumerate(basis)}, dict(zip(leads, basis))


@lru_cache(maxsize=32)
def _borel_rows(family, n):
    """The bracket rows of the Borel basis of (family, n).

    rows[I] holds one (J, K, c) triple per nonzero bracket [b_I, b_J] =
    c * b_K with J > I, in ascending J.  A bracket with more than one
    term, or a coefficient that is not an int (a Fraction, or a bool),
    raises InvariantViolation.
    """
    basis, _, position, _ = _borel_basis(family, n)
    mats = [realize(b) for b in basis]
    by_row, by_col = {}, {}
    for k, m in enumerate(mats):
        for r, c in m:
            by_row.setdefault(r, set()).add(k)
            by_col.setdefault(c, set()).add(k)
    rows = []
    for i, m in enumerate(mats):
        meets = set()
        for r, c in m:
            meets.update(by_row.get(c, ()))
            meets.update(by_col.get(r, ()))
        row = []
        for j in sorted(k for k in meets if k > i):
            combo = decompose(commutator(m, mats[j]), family)
            if not combo:
                continue
            if len(combo) != 1:
                raise InvariantViolation(f"[{basis[i]!r},{basis[j]!r}] is {combo}, not one term")
            (b, c), = combo
            if type(c) is not int:
                raise InvariantViolation(f"non-integral structure constant {c!r} in {combo}")
            row.append((j, position[b], c))
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=256)
def structure_constants(P):
    """Canonical basis and the table of brackets between its elements.

    Returns (basis, table) where table maps (i, j) with i < j to one
    (k, c) pair, [b_i, b_j] = c * b_k with c an int; absent keys mean a
    zero bracket and the skew entries follow by antisymmetry.
    The cells are the Borel cells between elements of P, re-indexed, in
    the Borel order.  A term outside the basis of P raises NotInSpan.
    """
    borel, _, position, _ = _borel_basis(P.family, P.n)
    rows = _borel_rows(P.family, P.n)
    basis = build_basis(P)
    local = {position[b]: i for i, b in enumerate(basis)}  # Borel index -> index in P
    table = {}
    for I, i in local.items():
        for J, K, c in rows[I]:
            if J not in local:
                continue
            if K not in local:
                raise NotInSpan(f"[{borel[I]!r},{borel[J]!r}] has {borel[K]!r}, outside the basis")
            table[(i, local[J])] = (local[K], c)
    return basis, table


def evaluate(table, values):
    """Rows of the commutator matrix ([x_i, x_j]) of a structure-constant
    table at values given in basis order.

    Entry (i, j) of table holds one (k, c) pair, the linear form
    values[k] * c: v at (i, j), -v at (j, i), 0 where the table has no
    entry.  The number type of values is kept: int values give int rows,
    rational values give rational (or int zero) entries.
    """
    dim = len(values)
    rows = [[0] * dim for _ in range(dim)]
    for (i, j), (k, c) in table.items():
        v = values[k] * c
        rows[i][j] = v
        rows[j][i] = -v
    return rows


def _h_block(basis, table):
    """B0, the H rows by non-H columns block of the table at the all-ones
    point, when the table scales diagonally; otherwise None.

    The table scales diagonally when the H elements lead the basis and
    every entry joins one of them to a later non-H element and its one
    (k, c) pair has k on the non-H end; B0 holds c.  Then the commutator
    matrix at a point x is [[0, A], [-A^T, 0]] with A = B0 * diag(x on
    the non-H elements), and every table of the paper's class passes.
    `index_engine.generic_rank` ranks B0 for the generic rank, and
    `frobenius._solve_kirillov` solves the Kirillov form on A."""
    h = sum(b.kind == "H" for b in basis)
    if any(b.kind == "H" for b in basis[h:]):
        return None
    block = [[0] * (len(basis) - h) for _ in range(h)]
    for (i, j), (k, c) in table.items():
        if not i < h <= j or k != j:
            return None
        block[i][j - h] = c
    return block


def matrix_form(P):
    """Positions of the matrix that the algebra of P may fill.

    A position (x, y) is permitted exactly when x <= y in the poset,
    except that families B and D ignore relations of the form -i <= i.
    """
    if P.family in ("B", "D"):
        return frozenset(
            (x, y) for (x, y) in P.relations if not (x < 0 and y == -x)
        )
    return frozenset(P.relations)


def _solve_gf2(equations):
    """Solve xor constraints given as (bitmask, parity); None if inconsistent."""
    pivots = {}
    max_bit = 0
    for mask, rhs in equations:
        max_bit = max(max_bit, mask.bit_length())
        while mask:
            low = mask & -mask
            if low in pivots:
                pmask, prhs = pivots[low]
                mask ^= pmask
                rhs ^= prhs
            else:
                pivots[low] = (mask, rhs)
                break
        else:
            if rhs:
                return None
    solution = [0] * max_bit
    for low in sorted(pivots, reverse=True):
        mask, rhs = pivots[low]
        value = rhs
        rest = mask ^ low
        while rest:
            bit = rest & -rest
            value ^= solution[bit.bit_length() - 1]
            rest ^= bit
        solution[low.bit_length() - 1] = value
    return solution


def verify_CD_isomorphism(P):
    """Find a diagonal +/-1 rescaling matching the D and C structure constants.

    P must be a type-D poset with no relation -i <= i, so the same
    relation set is also a valid type-C poset.  The bases correspond
    position by position (H to H, X to X, Y to Y on the same vertex
    pair); the sign vector eps is found by solving the parity constraints
    eps_i * eps_j * eps_k = sign ratio over GF(2) and then re-verified
    exactly against both tables.  Raises NoSignRescaling when the tables
    differ in magnitude or the parity system is inconsistent.
    """
    if P.family != "D":
        raise UnsupportedPoset("expected a type-D poset")
    if any(x < 0 and y == -x for (x, y) in P.relations):
        raise UnsupportedPoset("poset relates -i to i; not valid as type C")
    PC = SignedPoset("C", P.n, P.relations)
    validate(PC)
    basis_d, table_d = structure_constants(P)
    basis_c, table_c = structure_constants(PC)
    if [b.index_key() for b in basis_d] != [b.index_key() for b in basis_c]:
        raise NoSignRescaling("bases do not correspond")
    equations = []
    for i, j in sorted(set(table_d) | set(table_c)):
        # a missing cell reads as (None, 0)
        kd, cd = table_d.get((i, j), (None, 0))
        kc, cc = table_c.get((i, j), (None, 0))
        if kd != kc or abs(cd) != abs(cc):
            raise NoSignRescaling(
                f"constants differ in magnitude at [{basis_d[i]!r},{basis_d[j]!r}]"
            )
        equations.append(((1 << i) ^ (1 << j) ^ (1 << kd), 0 if cd == cc else 1))
    solution = _solve_gf2(equations)
    if solution is None:
        raise NoSignRescaling("parity constraints are inconsistent")
    solution += [0] * (len(basis_d) - len(solution))
    eps = tuple(1 if v == 0 else -1 for v in solution)
    for (i, j), (k, cd) in table_d.items():
        if eps[i] * eps[j] * eps[k] * cd != table_c[(i, j)][1]:
            raise NoSignRescaling("rescaled tables still differ")
    return eps


def verify_B_reduction(P):
    """Compare the structure constants of a type-B algebra with 0 removed.

    P must be a type-B poset whose 0 is unrelated to everything else.
    Returns None when the table equals that of the type-D algebra on the
    induced poset without 0 under the index-matching correspondence, and
    raises TablesDiffer when the bases or the tables do not match.
    """
    if P.family != "B":
        raise UnsupportedPoset("expected a type-B poset")
    if any((x == 0) != (y == 0) for (x, y) in P.relations):
        raise UnsupportedPoset("0 is related to another element")
    P0 = induced_subposet(P, [e for e in P.elements if e != 0])
    basis_b, table_b = structure_constants(P)
    basis_d, table_d = structure_constants(P0)
    if [b.index_key() for b in basis_b] != [b.index_key() for b in basis_d]:
        raise TablesDiffer("bases do not correspond")
    if table_b != table_d:
        keys = set(table_b) | set(table_d)
        i, j = min(k for k in keys if table_b.get(k) != table_d.get(k))
        raise TablesDiffer(
            f"structure constants differ at [{basis_b[i]!r},{basis_b[j]!r}]"
        )
