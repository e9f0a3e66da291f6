"""Frobenius functionals, principal elements, and spectra.

A height-(0,1) signed poset has index zero exactly when every connected
component of its relation graph is unicyclic with an odd cycle (a self
loop counts).  For such posets the standard functional picks out the
entry (-min, max) of every edge and (-i, i) of every loop.  The
principal element is what the linear system of the Kirillov form solves
to; no closed form stands in for it, since both sign orientations of
the half-integer diagonal occur in print.  On every class poset the
campaign's `principal_element` check then compares that solution with
h-hat = (H(1) + ... + H(n)) / 2, +1/2 on each negative row and -1/2 on
each positive one: the closed form is checked against the solve, not
assumed.

Everything up to that solution is an integer: realizations have entries
+/-1 and the structure constants are ints, so F's point, scaled to ints
once by the lcm of its denominators (1 for the standard functional, whose
weights are the int 1), the Kirillov form and its elimination stay in ints
(`linalg`'s Bareiss loop).  Scaling F scales the form and the right-hand
side alike, so the rank and the solution do not change.  The point is
read off F's support, not off every realization: in B, C and D a
realization has entries only at its leading position and at the mirror
of it, so a weight reaches only the element led at its position and the
one led at the mirror (`algebra._partner`), both looked up in the Borel
basis's table of leading positions.

The form is solved once per (P, F), and `_solve_kirillov` keeps the last
result, so `kernel_dim` followed by `principal_element` solves once.
Every table of the paper's class scales diagonally (`algebra._h_block`):
the H elements lead the basis and B_F = [[0, A], [-A^T, 0]], A the H
block scaled by F's point on the other elements.  There the system
splits into A^T x_H = F_N and A x_N = -F_H, and the rank is 2 * rank A.
Where F is 0 on every H element, as the standard functional is, x_N = 0
and one |N| x |H| elimination gives both the rank and x.  Any other
(P, F), a functional with weight on an H element or a table that does
not scale (a general poset through the API), is evaluated whole and
eliminated once, and there an odd rank raises InvariantViolation.
Either way
`linalg.solve` gives the rank and the solution from the same pivots,
back-substituting in ints and building one Fraction per distinct entry.
Only the solution x has a denominator.  The fixed-point identity and
the spectrum are read off ad(d*x), d the lcm of the denominators of x,
in ints: one pass over the structure constants gives its diagonal, a
tuple of ints, and its off-diagonal entries, a {row: int} map for each
column that has one.  On the paper's class ad(x) is diagonal, so the
second is empty.  `_integer_ad` keeps the last pass, keyed by P and
X = d*x as (element, int) pairs, so `principal_element` followed by
`spectrum` on its element makes one and hashes no Fraction.  The
diagonal of x is read off the coefficients of X, not off a realized
matrix: H(i) puts c at (-i,-i) and -c at (i,i), DA(i) c at (i,i) and -c
at (i+1,i+1), and every other kind realizes off the diagonal alone, at
positions no other element touches, so x is diagonal exactly when X
lies on the H or DA elements.  Its entries become one Fraction per
distinct entry.  The spectrum peels the digraph of the off-diagonal
entries, so a diagonal ad(x) takes no pass; it sorts and counts the
integer diagonal (0 and d) and builds each distinct eigenvalue, an entry
over d, once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .algebra import (
    _borel_basis,
    _h_block,
    _partner,
    evaluate,
    matrix_form,
    realize,
    structure_constants,
)
from .errors import InvariantViolation, NonEigenbasis, NotFrobenius, SingularForm
from .linalg import solve


@dataclass(frozen=True)
class Functional:
    """A linear functional given by entry extractors (row, col) -> weight."""

    support: tuple  # sorted ((row, col), weight) pairs

    def point(self, P):
        """Induced assignment basis element -> value on its realization.

        The dict holds every basis element of P, in basis order, and a
        value is F's weights times the element's entries, summed: an int
        where the weights are ints.  Only the positions of F's support are
        visited.  At each, the element led there has entry 1, and the
        element led at its partner (`algebra._partner`) is the only other
        one with an entry there, read off its realization; every other
        element keeps the int 0.
        """
        basis, _ = structure_constants(P)
        led = _borel_basis(P.family, P.n)[2]
        point = dict.fromkeys(basis, 0)
        for key, weight in self.support:
            b = led.get(key)
            if b in point:
                point[b] += weight  # an element's entry at its own lead is 1
            b = led.get(_partner(P.family, key))
            if b in point:
                point[b] += weight * realize(b)[key]
        return point


def functional(P, coefficients):
    """Validate entry extractors against the matrix form of P.

    Integral weights are stored as ints, others as Fractions; an int
    weight is kept as it is.
    """
    allowed = matrix_form(P)
    support = []
    for (r, c), weight in sorted(coefficients.items()):
        if type(weight) is not int:
            weight = Fraction(weight)
            if weight.denominator == 1:
                weight = weight.numerator
        if not weight:
            continue
        if (r, c) not in allowed:
            raise ValueError(f"position ({r},{c}) is not in the matrix form")
        support.append(((r, c), weight))
    return Functional(tuple(support))


def is_frobenius_by_graph(P):
    """Every relation-graph component unicyclic with its unique cycle odd."""
    comps = P.relation_graph.components
    return all(c.is_unicyclic and c.has_odd_cycle for c in comps)


def frobenius_functional(P):
    """The edge-plus-loop functional; nonsingular on Frobenius posets."""
    if not is_frobenius_by_graph(P):
        raise NotFrobenius("the relation graph criterion fails")
    G = P.relation_graph
    coeffs = {(-i, j): 1 for (i, j) in G.edges}
    coeffs.update({(-v, v): 1 for v in G.loops})
    return functional(P, coeffs)


@lru_cache(maxsize=1)
def _solve_kirillov(P, F):
    """(basis, values, rank, x) for the Kirillov form B_F at F's point.

    basis is that of `structure_constants(P)`, and a caller that needs
    the table reads it there, cached.  values is F's point in basis
    order, scaled to ints by the lcm c of its denominators: B_cF =
    c*B_F, so the rank and x are those of B_F.  x solves B_F(x, -) = F,
    or is None when no solution exists, and is the solution with every
    free variable 0.

    Where the table scales diagonally (`_h_block`, every poset of the
    paper's class), B_F = [[0, A], [-A^T, 0]] with A = block *
    diag(values on the non-H elements), the H elements first, and the
    system splits into A^T x_H = v_N and A x_N = -v_H.  Where F is 0 on
    every H element, as the standard functional is, x_N = 0, and one
    elimination of A^T gives x_H and the rank, 2 * rank A: a column of
    the whole form is a pivot exactly when it is one of its block, so
    the solutions with free variables 0 agree.  Every other (P, F)
    takes one evaluation and one elimination of the whole form; a skew
    matrix has even rank, so an odd rank raises InvariantViolation.

    The last (P, F) is cached, so a `kernel_dim` and a `principal_element`
    on it share one solve; values and x are tuples, so no caller can
    change the cached entry.  A solve that raises is not cached.
    """
    basis, table = structure_constants(P)
    values = tuple(F.point(P).values())  # in basis order
    c = lcm(1, *(v.denominator for v in values))
    if c > 1:
        values = tuple(v.numerator * (c // v.denominator) for v in values)
    block = _h_block(basis, table)
    if block is not None and not any(values[: len(block)]):
        h = len(block)
        v_n = values[h:]
        a_t = [[row[j] * v for row in block] for j, v in enumerate(v_n)]
        rank, x_h = solve(a_t, v_n, h)
        rank, x = 2 * rank, None if x_h is None else x_h + [0] * len(v_n)
    else:
        rank, x = solve(evaluate(table, values), [-v for v in values], len(basis))
        if rank % 2:
            raise InvariantViolation(f"evaluated Kirillov form has odd rank {rank}")
    return basis, values, rank, None if x is None else tuple(x)


def kernel_dim(P, F):
    """Exact kernel dimension of the Kirillov form of F."""
    basis, _, rank, _ = _solve_kirillov(P, F)
    return len(basis) - rank


class PrincipalElement(NamedTuple):
    """Solution x of B_F(x, -) = F, in basis coordinates, as a NamedTuple.

    diagonal holds (label, entry) pairs of the realized matrix when it
    is diagonal, read off the H and DA coefficients, else None.
    half_convention is "negatives-plus-half" when the diagonal carries
    +1/2 on every negative row and -1/2 on every positive row, else
    "other".  The orientation is forced: on a diagonal
    solution each supported root (-i, j) gives -x_i - x_j = 1 and each
    loop -2x_i = 1.  A functional with diagonal support forces a
    nilradical part, so its solution is not diagonal and gets "other".
    """

    coefficients: tuple  # (BasisElement, Fraction) pairs in basis order
    diagonal: tuple
    half_convention: str


def principal_element(P, F):
    """The principal element of F: the x that solves B_F(x, -) = F, with
    B_F the Kirillov form of F, solved exactly by `_solve_kirillov`.

    Raises SingularForm when B_F is singular, its rank below dim or the
    system without a solution: F is then not a Frobenius functional.
    The solution is checked against the fixed-point identity F(ad(x)(b))
    = F(b) on every basis element b, in ints, and a failure raises
    InvariantViolation naming b.  The returned PrincipalElement holds
    x's nonzero coefficients in basis order; its diagonal is the
    realized matrix of x as (label, Fraction) pairs where that matrix is
    diagonal, else None, and its half_convention is "negatives-plus-half"
    where that diagonal is h-hat, +1/2 on each negative row and -1/2 on
    each positive one, else "other".
    """
    basis, values, rank, solution = _solve_kirillov(P, F)
    if solution is None or rank < len(basis):
        raise SingularForm("the Kirillov form of F is singular")
    coefficients = tuple((b, v) for b, v in zip(basis, solution) if v)
    d, X = _integer_form(coefficients)
    ad_diagonal, off = _integer_ad(P, X)
    for k, (entry, value) in enumerate(zip(ad_diagonal, values)):
        # fixed point identity F(ad(x)(b)) == F(b), checked in ints on
        # X = d*x as F(ad(X)(b)) == d*F(b): entry and off[k] the
        # coordinates of ad(X)(b) and values those of F (scaled alike on
        # both sides)
        total = entry * value
        if k in off:
            total += sum(c * values[j] for j, c in off[k].items())
        if total != d * value:
            b = basis[k]
            raise InvariantViolation(f"fixed-point identity F(ad(x)({b})) = F({b}) fails")
    entries = _diagonal_entries(X)
    diagonal = None
    convention = "other"
    if entries is not None:
        # x is entries / d: a Fraction where X has an entry, 0 elsewhere,
        # one per distinct entry
        ints = [entries.get(e, 0) for e in P.elements]
        fractions = {v: Fraction(v, d) if v else 0 for v in set(ints)}
        diagonal = tuple(zip(P.elements, [fractions[v] for v in ints]))
        # x at (-e,-e) is 1/2 and at (e,e) is -1/2, decided in ints
        if all(
            2 * entries.get(-e, 0) == d and 2 * entries.get(e, 0) == -d
            for e in P.elements
            if e > 0
        ):
            convention = "negatives-plus-half"
    return PrincipalElement(
        coefficients=coefficients,
        diagonal=diagonal,
        half_convention=convention,
    )


class SpectrumReport(NamedTuple):
    """Eigenvalues of ad(fhat), as a NamedTuple.

    is_binary holds when the eigenvalues are 0 and 1 alone, each on half
    of the dim basis elements; zero_count and one_count count the two.
    """

    eigenvalues: tuple  # sorted, with multiplicity
    dim: int
    is_binary: bool
    zero_count: int
    one_count: int

    def multiplicities(self):
        out = {}
        for value in self.eigenvalues:
            out[value] = out.get(value, 0) + 1
        return out


def spectrum(P, fhat):
    """Eigenvalues of ad(fhat) on the algebra of P, computed exactly.

    ad(d*fhat) in basis coordinates, its diagonal and its off-diagonal
    columns, comes from the integer structure constants, d the common
    denominator of the coefficients of fhat.  When the digraph of its
    off-diagonal entries is acyclic the matrix is triangular in some
    ordering of the basis, so its diagonal entries, over d, are the
    eigenvalues; otherwise NonEigenbasis is raised.  A diagonal fhat
    gives a graph with no edges.  The integer diagonal is sorted and
    counted (eigenvalue 0 is entry 0, eigenvalue 1 is entry d), and each
    distinct entry becomes one Fraction over d.
    """
    d, X = _integer_form(fhat.coefficients)
    diagonal, off = _integer_ad(P, X)
    # repeatedly drop the columns that depend on no other remaining one;
    # the digraph is acyclic exactly when every column goes.  A column
    # with no off-diagonal entry is on no cycle, so only the columns of
    # off start the peel, and a diagonal ad(fhat) needs no pass
    pending = {k: set(column).intersection(off) for k, column in off.items()}
    while pending:
        free = [k for k, rows in pending.items() if not rows]
        if not free:
            raise NonEigenbasis("ad matrix is not permutation triangular")
        for k in free:
            del pending[k]
        for rows in pending.values():
            rows.difference_update(free)
    # d > 0, so sorting the ints sorts the eigenvalues; each distinct one
    # becomes one Fraction
    ints = sorted(diagonal)
    fractions = {v: Fraction(v, d) for v in set(ints)}
    eigenvalues = tuple([fractions[v] for v in ints])
    dim = len(ints)
    zero = ints.count(0)
    one = ints.count(d)
    is_binary = zero == one and zero + one == dim
    return SpectrumReport(
        eigenvalues=eigenvalues,
        dim=dim,
        is_binary=is_binary,
        zero_count=zero,
        one_count=one,
    )


def _integer_form(coefficients):
    """(d, X) for x given as (element, coefficient) pairs: d the lcm of
    the coefficient denominators and X = d*x as (element, int) pairs, in
    the same order.  Only attributes of the coefficients are read, so no
    Fraction is hashed."""
    d = lcm(1, *(v.denominator for _, v in coefficients))
    return d, tuple([(b, v.numerator * (d // v.denominator)) for b, v in coefficients])


def _diagonal_entries(X):
    """{label: int} of the diagonal of the matrix that X realizes, for X
    given as (element, int) pairs with no zero, or None when that matrix
    is not diagonal.

    Read off the coefficients: H(i) puts c at (-i,-i) and -c at (i,i),
    DA(i) puts c at (i,i) and -c at (i+1,i+1), and every other kind
    realizes off the diagonal alone, at a mirror pair (or an EA cell)
    that no other element touches, so one of them in X makes the matrix
    not diagonal.  Labels where every entry cancels hold 0.
    """
    entries = {}
    for b, c in X:
        if b.kind == "H":
            top, bottom = -b.i, b.i
        elif b.kind == "DA":
            top, bottom = b.i, b.i + 1
        else:
            return None
        entries[top] = entries.get(top, 0) + c
        entries[bottom] = entries.get(bottom, 0) - c
    return entries


@lru_cache(maxsize=1)
def _integer_ad(P, X):
    """ad(X) in basis coordinates, for X in the algebra of P given as
    (element, int) pairs: (diagonal, off), diagonal the tuple of its dim
    diagonal entries and off a {column: {row: int}} map of its
    off-diagonal entries, zeros dropped, holding only the columns that
    have one.  Where ad(X) is diagonal, as on the paper's class, off is
    empty.

    One pass over the structure constants, whose cells are one (k, c)
    pair each: [b_i, b_j] = c*b_k adds X_i * c to row k of column j and,
    as [b_j, b_i] = -c*b_k, -X_j * c to row k of column i; row k of
    column k is the diagonal.  The last (P, X) is cached, a key of ints
    and basis elements, so `principal_element` followed by `spectrum` on
    its element makes one pass and hashes no Fraction; ad(X) does not
    depend on the d that X was scaled by, so d is not part of the key.
    Callers read the result and never change it.
    """
    basis, table = structure_constants(P)
    at = {basis.index(b): c for b, c in X}
    diagonal = [0] * len(basis)
    off = {}
    for (i, j), (k, c) in table.items():
        for source, column, sign in ((i, j, 1), (j, i, -1)):
            a = at.get(source)
            if not a:
                continue
            if k == column:
                diagonal[k] += sign * a * c
            else:
                out = off.setdefault(column, {})
                out[k] = out.get(k, 0) + sign * a * c
    off = {j: {k: c for k, c in out.items() if c} for j, out in off.items()}
    return tuple(diagonal), {j: out for j, out in off.items() if out}
