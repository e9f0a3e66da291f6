"""Frobenius functionals, principal elements, and spectra.

A height-(0,1) signed poset has index zero exactly when every connected
component of its relation graph is unicyclic with an odd cycle (a self
loop counts).  For such posets the standard functional picks out the
entry (-min, max) of every edge and (-i, i) of every loop; the principal
element is always obtained by solving the linear system of the Kirillov
form rather than by assuming a closed form, because the two natural sign
orientations of the half-integer diagonal both occur in print.

Everything up to that solution is an integer: realizations have entries
+/-1 and the structure constants are ints, so F's point, scaled to ints
once by the lcm of its denominators (1 for the standard functional, whose
weights are 1), the Kirillov form and its elimination stay in ints
(`linalg`'s Bareiss loop).  Scaling F scales the form and the right-hand
side alike, so the rank and the solution do not change.  The form is
evaluated and eliminated once per (P, F): `linalg.solve` gives its rank
and the solution x from the same pivots, back-substituting in ints and
building each entry of x as one Fraction, and `_solve_kirillov` keeps
the last result, so `kernel_dim` followed by `principal_element` solves
once.  Only the solution x has a denominator.  The fixed-point identity
and the spectrum are read off the columns of ad(d*x), d the lcm of the
denominators of x, that one pass over the structure constants gives, in
ints; `_integer_ad` keeps the last pass, so `principal_element` followed
by `spectrum` on its element makes one.  The spectrum sorts and counts
the integer diagonal (0 and d) and builds each distinct eigenvalue, an
entry over d, once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from math import lcm

from .algebra import (
    evaluate,
    matrix_form,
    realize,
    realize_combination,
    structure_constants,
)
from .errors import InvariantViolation, NonEigenbasis, NotFrobenius, SingularForm
from .linalg import solve
from .posets import graph_components, relation_graph


@dataclass(frozen=True)
class Functional:
    """A linear functional given by entry extractors (row, col) -> weight."""

    support: tuple  # sorted ((row, col), weight) pairs

    @cached_property
    def weights(self):  # the support as a dict, built once
        return dict(self.support)

    def value_on(self, mat):
        """F applied to a sparse {(row, col): value} matrix."""
        return sum(self.weights.get(key, 0) * v for key, v in mat.items())

    def point(self, P):
        """Induced assignment basis element -> value on its realization."""
        basis, _ = structure_constants(P)
        return {b: self.value_on(realize(b)) for b in basis}


def functional(P, coefficients):
    """Validate entry extractors against the matrix form of P.

    Integral weights are stored as ints, others as Fractions.
    """
    allowed = matrix_form(P)
    support = []
    for (r, c), weight in sorted(coefficients.items()):
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
    comps = graph_components(relation_graph(P))
    return all(c.is_unicyclic and c.has_odd_cycle for c in comps)


def frobenius_functional(P):
    """The edge-plus-loop functional; nonsingular on Frobenius posets."""
    if not is_frobenius_by_graph(P):
        raise NotFrobenius("the relation graph criterion fails")
    G = relation_graph(P)
    coeffs = {(-i, j): Fraction(1) for (i, j) in G.edges}
    coeffs.update({(-v, v): Fraction(1) for v in G.loops})
    return functional(P, coeffs)


@lru_cache(maxsize=1)
def _solve_kirillov(P, F):
    """(basis, table, values, rank, x) for the Kirillov form B_F at F's point.

    values is F's point in basis order, scaled to ints by the lcm c of
    its denominators: B_cF = c*B_F, so the rank and x are those of B_F.
    x solves B_F(x, -) = F, or is None when no solution exists; one
    evaluation and one elimination give both the rank and x.  A skew
    matrix has even rank, so an odd rank raises InvariantViolation.

    The last (P, F) is cached, so a `kernel_dim` and a `principal_element`
    on it share one solve; values and x are tuples, so no caller can
    change the cached entry.  A solve that raises is not cached.
    """
    basis, table = structure_constants(P)
    point = F.point(P)
    c = lcm(1, *(v.denominator for v in point.values()))
    values = tuple(point[b].numerator * (c // point[b].denominator) for b in basis)
    rank, x = solve(evaluate(table, values), [-v for v in values], len(basis))
    if rank % 2:
        raise InvariantViolation(f"evaluated Kirillov form has odd rank {rank}")
    return basis, table, values, rank, None if x is None else tuple(x)


def kernel_dim(P, F):
    """Exact kernel dimension of the Kirillov form of F."""
    basis, _, _, rank, _ = _solve_kirillov(P, F)
    return len(basis) - rank


@dataclass(frozen=True)
class PrincipalElement:
    """Solution x of B_F(x, -) = F, in basis coordinates.

    diagonal holds (element, entry) pairs of the realized matrix when it
    is diagonal, else None.  half_convention is "negatives-plus-half"
    when the diagonal carries +1/2 on every negative row and -1/2 on every
    positive row, else "other".  The orientation is forced: on a diagonal
    solution each supported root (-i, j) gives -x_i - x_j = 1 and each
    loop -2x_i = 1.  A functional with diagonal support forces a
    nilradical part, so its solution is not diagonal and gets "other".
    """

    coefficients: tuple  # (BasisElement, Fraction) pairs in basis order
    diagonal: tuple
    half_convention: str


def principal_element(P, F):
    basis, table, values, rank, solution = _solve_kirillov(P, F)
    if solution is None or rank < len(basis):
        raise SingularForm("the Kirillov form of F is singular")
    coefficients = tuple((b, v) for b, v in zip(basis, solution) if v)
    d, x, columns = _integer_ad(P, coefficients)
    for b, value, column in zip(basis, values, columns):
        # fixed point identity F(ad(x)(b)) == F(b), checked in ints on
        # X = d*x as F(ad(X)(b)) == d*F(b), column the coordinates of
        # ad(X)(b) and values those of F (scaled alike on both sides)
        if sum(c * values[k] for k, c in column.items()) != d * value:
            raise InvariantViolation(f"fixed-point identity F(ad(x)({b})) = F({b}) fails")
    xmat = realize_combination(x)
    diagonal = None
    convention = "other"
    if all(r == c for (r, c) in xmat):
        # x is xmat / d: a Fraction where xmat has an entry, 0 elsewhere
        diagonal = tuple(
            (e, Fraction(v, d) if (v := xmat.get((e, e))) else 0) for e in P.elements
        )
        diag = dict(diagonal)
        half = Fraction(1, 2)
        if all(diag[-e] == half and diag[e] == -half for e in P.elements if e > 0):
            convention = "negatives-plus-half"
    return PrincipalElement(
        coefficients=coefficients,
        diagonal=diagonal,
        half_convention=convention,
    )


@dataclass(frozen=True)
class SpectrumReport:
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

    The columns of ad(d*fhat) in basis coordinates come from the integer
    structure constants, d the common denominator of the coefficients of
    fhat.  When the digraph of its off-diagonal entries is acyclic the
    matrix is triangular in some ordering of the basis, so its diagonal
    entries, over d, are the eigenvalues; otherwise NonEigenbasis is
    raised.  A diagonal fhat gives a graph with no edges.  The integer
    diagonal is sorted and counted (eigenvalue 0 is entry 0, eigenvalue 1
    is entry d), and each distinct entry becomes one Fraction over d.
    """
    d, _, columns = _integer_ad(P, fhat.coefficients)
    # repeatedly drop the columns that depend on no other remaining one;
    # the digraph is acyclic exactly when every column goes
    pending = {
        k: {row for row in column if row != k} for k, column in enumerate(columns)
    }
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
    diagonal = sorted(c.get(k, 0) for k, c in enumerate(columns))
    fractions = {v: Fraction(v, d) for v in set(diagonal)}
    eigenvalues = tuple([fractions[v] for v in diagonal])
    dim = len(columns)
    zero = diagonal.count(0)
    one = diagonal.count(d)
    is_binary = zero == one and zero + one == dim
    return SpectrumReport(
        eigenvalues=eigenvalues,
        dim=dim,
        is_binary=is_binary,
        zero_count=zero,
        one_count=one,
    )


@lru_cache(maxsize=1)
def _integer_ad(P, coefficients):
    """(d, X, columns) for x in the algebra of P, given as (element,
    coefficient) pairs: d the lcm of the coefficient denominators, X =
    d*x as {element: int}, and the columns of ad(X) in basis coordinates,
    a tuple of {row: int} maps with zeros dropped.

    One pass over the structure constants, whose cells are one (k, c)
    pair each: [b_i, b_j] = c*b_k adds X_i * c to row k of column j and,
    as [b_j, b_i] = -c*b_k, -X_j * c to row k of column i.  The last (P,
    coefficients) is cached, so `principal_element` followed by
    `spectrum` on its element makes one pass; callers read the result
    and never change it.
    """
    basis, table = structure_constants(P)
    d = lcm(1, *(v.denominator for _, v in coefficients))
    X = {b: v.numerator * (d // v.denominator) for b, v in coefficients}
    position = {b: k for k, b in enumerate(basis)}
    at = {position[b]: c for b, c in X.items()}
    columns = [{} for _ in basis]
    for (i, j), (k, c) in table.items():
        for source, column, sign in ((i, j, 1), (j, i, -1)):
            a = at.get(source)
            if not a:
                continue
            out = columns[column]
            out[k] = out.get(k, 0) + sign * a * c
    return d, X, tuple([{k: c for k, c in out.items() if c} for out in columns])
